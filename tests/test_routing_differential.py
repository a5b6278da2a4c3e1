"""Bitmask routing against a per-stage fault-membership reference.

:func:`repro.network.route` and :func:`repro.faults.blocked_pairs` decide
"is this path blocked?" with one ``&`` of precomputed element bitmasks.
The reference below decides it the direct way: walk the candidate path
stage by stage and look each box and output link up in the fault set,
with box faults canonicalized to their box's lower line.  On generated
fault sets (0-3 faults of both kinds, any stage, either box line, often
aimed at the pair's own candidate paths) both must return the same path,
or reject the same candidates, and agree on every blocked pair.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkFaultError
from repro.faults import blocked_pairs
from repro.network import ExtraStageCubeTopology, Fault, FaultKind, Path, route

SIZES = (4, 8, 16, 32, 64, 128)


# ---------------------------------------------------------------------------
# The reference
def reference_lines(topo, source, dest, exchange):
    """Destination-tag path: the extra stage exchanges iff ``exchange``,
    every cube stage then sets its bit to the destination's."""
    lines = [source]
    current = source
    for stage in range(topo.n_stages):
        bit = topo.stage_bit(stage)
        if stage == 0:
            if exchange:
                current ^= 1 << bit
        else:
            mask = 1 << bit
            current = (current & ~mask) | (dest & mask)
        lines.append(current)
    return tuple(lines)


def reference_blocked(topo, lines, faults):
    """Does the candidate path touch a faulty element?

    A box in a bypassable stage matters only when the traversal
    exchanges there; middle-stage boxes and all links always matter.
    """
    canonical = {
        Fault(f.kind, *topo.box_of(f.stage, f.line))
        if f.kind is FaultKind.BOX else f
        for f in faults
    }
    for stage in range(topo.n_stages):
        in_line, out_line = lines[stage], lines[stage + 1]
        box_stage, box_line = topo.box_of(stage, in_line)
        box_matters = in_line != out_line if topo.is_bypassable(stage) else True
        if box_matters and Fault(FaultKind.BOX, box_stage, box_line) in canonical:
            return True
        if Fault(FaultKind.LINK, stage, out_line) in canonical:
            return True
    return False


def reference_route(topo, source, dest, faults, extra_stage_enabled,
                    prefer_exchange):
    """The clean :class:`Path`, or the tuple of rejected candidates."""
    options = [False] if not extra_stage_enabled else (
        [True, False] if prefer_exchange else [False, True]
    )
    rejected = []
    for exchange in options:
        lines = reference_lines(topo, source, dest, exchange)
        if not reference_blocked(topo, lines, faults):
            return Path(source, dest, lines, exchange)
        rejected.append(lines)
    return tuple(rejected)


# ---------------------------------------------------------------------------
# Generated cases
@st.composite
def _faults(draw, topo, aim=()):
    """0-3 in-range faults; with ``aim``, some sit on those paths."""
    faults = set()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(FaultKind))
        stage = draw(st.integers(0, topo.n_stages - 1))
        if aim and draw(st.booleans()):
            lines = draw(st.sampled_from(aim))
            line = lines[stage + 1] if kind is FaultKind.LINK else lines[stage]
            if kind is FaultKind.BOX and draw(st.booleans()):
                line = topo.partner(stage, line)
        else:
            line = draw(st.integers(0, topo.n_terminals - 1))
        faults.add(Fault(kind, stage, line))
    return frozenset(faults)


@st.composite
def _routing_case(draw):
    topo = ExtraStageCubeTopology(draw(st.sampled_from(SIZES)))
    source = draw(st.integers(0, topo.n_terminals - 1))
    dest = draw(st.integers(0, topo.n_terminals - 1))
    aim = tuple(reference_lines(topo, source, dest, x) for x in (False, True))
    return topo, source, dest, draw(_faults(topo, aim))


@settings(max_examples=400, deadline=None)
@given(_routing_case(), st.booleans(), st.booleans())
def test_route_agrees_with_reference(case, extra, prefer_exchange):
    topo, source, dest, faults = case
    expected = reference_route(topo, source, dest, faults, extra,
                               prefer_exchange)
    try:
        path = route(topo, source, dest, faults=faults,
                     extra_stage_enabled=extra,
                     prefer_exchange=prefer_exchange)
    except NetworkFaultError as err:
        assert err.candidates == expected
        assert err.faults == tuple(sorted(
            faults, key=lambda f: (f.kind.value, f.stage, f.line)))
    else:
        assert path == expected


@st.composite
def _sweep_case(draw):
    topo = ExtraStageCubeTopology(draw(st.sampled_from(SIZES)))
    return topo, draw(_faults(topo))


@settings(max_examples=20, deadline=None)
@given(_sweep_case(), st.booleans())
def test_blocked_pairs_agree_with_reference(case, extra):
    topo, faults = case
    n = topo.n_terminals
    expected = [
        (source, dest) for source in range(n) for dest in range(n)
        if not isinstance(reference_route(topo, source, dest, faults, extra,
                                          False), Path)
    ]
    assert blocked_pairs(topo, faults, extra_stage_enabled=extra) == expected
