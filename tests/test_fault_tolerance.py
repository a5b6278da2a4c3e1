"""The Extra-Stage Cube's single-fault-tolerance claim, exhaustively.

Adams & Siegel: with the extra stage enabled, *any* single interchange-box
or inter-stage-link fault leaves every (source, destination) pair
routable.  These tests prove it exhaustively at N ∈ {4, 8, 16} and
property-test it by sampling at larger N (hypothesis), plus the plan /
campaign plumbing around the claim.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ExecError, NetworkFaultError
from repro.exec import SimJobSpec
from repro.faults import (
    FaultPlan,
    PEFailStop,
    blocked_pairs,
    count_single_faults,
    double_fault_sweep,
    iter_single_faults,
    representative_fault_plan,
    single_fault_sweep,
)
from repro.network import (
    CircuitSwitchedNetwork,
    ExtraStageCubeTopology,
    Fault,
    FaultKind,
    route,
)

SWEEP_SIZES = (4, 8, 16)

#: single faults of an N-terminal ESC: boxes in all n+1 stages, links on
#: every inter-stage boundary (final-stage output links are the
#: destination terminals' only wires — outside the tolerance universe).
EXPECTED_FAULTS = {4: 14, 8: 40, 16: 104}


# ---------------------------------------------------------------------------
# The guarantee, exhaustively
@pytest.mark.parametrize("n", SWEEP_SIZES)
def test_every_single_fault_leaves_every_pair_routable(n):
    topo = ExtraStageCubeTopology(n)
    for fault in iter_single_faults(topo):
        blocked = blocked_pairs(topo, {fault})
        assert not blocked, (
            f"N={n}: single fault {fault} blocked pairs {blocked[:5]} — "
            "the Adams & Siegel guarantee is violated"
        )


@pytest.mark.parametrize("n", SWEEP_SIZES)
def test_single_fault_sweep_reports_100_percent(n):
    report = single_fault_sweep(n)
    assert report.combos == EXPECTED_FAULTS[n]
    assert report.survived == report.combos
    assert report.routability_pct == 100.0
    assert report.blocked_pairs == 0
    assert report.exhaustive


@pytest.mark.parametrize("n", SWEEP_SIZES)
def test_count_single_faults_matches_enumeration(n):
    topo = ExtraStageCubeTopology(n)
    faults = list(iter_single_faults(topo))
    assert len(faults) == len(set(faults)) == count_single_faults(topo)
    assert len(faults) == EXPECTED_FAULTS[n]
    # No final-stage link faults: those output lines are the terminals.
    last = topo.n_stages - 1
    assert not any(f.kind is FaultKind.LINK and f.stage == last
                   for f in faults)


def test_generalized_cube_alone_is_not_fault_tolerant():
    """Contrast: with the extra stage bypassed, a mid-stage link fault
    cuts off every pair whose unique GC route uses that wire."""
    topo = ExtraStageCubeTopology(8)
    fault = Fault(FaultKind.LINK, 2, 0)
    assert blocked_pairs(topo, {fault}, extra_stage_enabled=False)
    assert not blocked_pairs(topo, {fault}, extra_stage_enabled=True)


# ---------------------------------------------------------------------------
# The same property, sampled at sizes too big to sweep exhaustively
@st.composite
def _fault_and_pair(draw):
    n = draw(st.sampled_from((32, 64, 128)))
    topo = ExtraStageCubeTopology(n)
    faults = list(iter_single_faults(topo))
    fault = faults[draw(st.integers(0, len(faults) - 1))]
    source = draw(st.integers(0, n - 1))
    dest = draw(st.integers(0, n - 1))
    return topo, fault, source, dest


@settings(max_examples=200, deadline=None)
@given(_fault_and_pair())
def test_random_single_fault_keeps_random_pair_routable(case):
    topo, fault, source, dest = case
    path = route(topo, source, dest, faults={fault},
                 extra_stage_enabled=True)
    assert path.lines[0] == source and path.lines[-1] == dest
    # The returned path genuinely avoids the fault.
    if fault.kind is FaultKind.LINK:
        assert path.lines[fault.stage + 1] != fault.line


# ---------------------------------------------------------------------------
# Beyond the guarantee
def test_double_fault_sweep_exhaustive_at_8():
    report = double_fault_sweep(8)
    assert report.exhaustive
    assert report.combos == 40 * 39 // 2
    assert 0 < report.survived < report.combos  # tolerance, but no promise
    assert report.to_dict()["survival_pct"] == pytest.approx(
        100.0 * report.survived / report.combos, abs=1e-3
    )


def test_double_fault_sweep_sampled_is_deterministic():
    a = double_fault_sweep(16, samples=60, seed=7)
    b = double_fault_sweep(16, samples=60, seed=7)
    assert not a.exhaustive and a.combos == 60
    assert a == b


def test_double_fault_sweep_exhaustive_at_16():
    """Every pair of single faults at N=16 (5356 combos), pinned to the
    report the per-stage fault-membership check produced."""
    report = double_fault_sweep(16, max_exhaustive=10_000)
    assert report.exhaustive
    assert (report.combos, report.survived, report.pairs_checked,
            report.blocked_pairs, report.shift_survived) == (
        5356, 3776, 1371136, 16256, 35)


# ---------------------------------------------------------------------------
# Fault names: either line of a box, nothing outside the network
def test_box_fault_named_by_either_line_blocks_the_same_pairs():
    topo = ExtraStageCubeTopology(8)
    low, high = Fault(FaultKind.BOX, 1, 0), Fault(FaultKind.BOX, 1, 4)
    assert topo.box_of(1, 4) == (1, 0)
    blocked = blocked_pairs(topo, {low}, extra_stage_enabled=False)
    assert len(blocked) == 16
    assert blocked_pairs(topo, {high}, extra_stage_enabled=False) == blocked
    with pytest.raises(NetworkFaultError):
        route(topo, *blocked[0], faults={high})


@pytest.mark.parametrize("fault", [
    Fault(FaultKind.LINK, 1, -4),
    Fault(FaultKind.BOX, 2, -1),
    Fault(FaultKind.LINK, 1, "4"),
    Fault(FaultKind.BOX, None, 0),
    Fault(FaultKind.LINK, 0, 20),  # stage 0 line 20 = bit of LINK(1, 4)
    Fault(FaultKind.LINK, 4, 0),  # N=8 has stages 0..3
], ids=repr)
def test_fault_outside_the_network_blocks_nothing(fault):
    topo = ExtraStageCubeTopology(8)
    assert topo.element_bit(fault) == 0
    for extra in (False, True):
        assert blocked_pairs(topo, {fault}, extra_stage_enabled=extra) == []
    assert route(topo, 4, 4, faults={fault}) == route(topo, 4, 4)


# ---------------------------------------------------------------------------
# Structured routing failures
def test_network_fault_error_names_faults_and_candidates():
    topo = ExtraStageCubeTopology(8)
    # Kill both extra-stage output lines a 0->0 route could use.
    faults = {Fault(FaultKind.LINK, 0, 0), Fault(FaultKind.LINK, 0, 1)}
    with pytest.raises(NetworkFaultError) as exc_info:
        route(topo, 0, 0, faults=faults, extra_stage_enabled=True)
    err = exc_info.value
    assert err.faults == tuple(sorted(faults,
                                      key=lambda f: (f.kind.value, f.stage,
                                                     f.line)))
    assert len(err.candidates) == 2  # straight and exchanged, both rejected
    message = str(err)
    assert "link@stage0/line0" in message
    assert "link@stage0/line1" in message
    assert "->" in message  # the rejected candidate paths are spelled out


def test_release_all_clears_claims():
    topo = ExtraStageCubeTopology(16)
    net = CircuitSwitchedNetwork(topo, extra_stage_enabled=True)
    net.allocate_permutation({i: (i - 1) % 16 for i in range(16)})
    assert net._claims
    net.release_all()
    assert net._claims == {}
    # Orphaned claims (a released circuit that left debris) go too.
    net._claims[(1, 1)] = 999
    net.release_all()
    assert net._claims == {}
    # The network is genuinely reusable after release.
    net.allocate_permutation({i: (i + 1) % 16 for i in range(16)})
    assert net._claims


# ---------------------------------------------------------------------------
# FaultPlan: canonical, hashable, round-trippable
def test_fault_plan_canonicalizes_and_hashes_stably():
    f1 = Fault(FaultKind.BOX, 2, 4)
    f2 = Fault(FaultKind.LINK, 1, 3)
    plan_a = FaultPlan(faults=(f1, f2, f1),
                       failstops=(PEFailStop(8, 10.0), PEFailStop(4)))
    plan_b = FaultPlan(faults=(f2, f1),
                       failstops=(PEFailStop(4), PEFailStop(8, 10.0)))
    assert plan_a == plan_b
    assert plan_a.content_hash == plan_b.content_hash
    assert plan_a.faults == (f1, f2)  # box before link, canonical order
    assert [s.pe for s in plan_a.failstops] == [4, 8]


def test_fault_plan_round_trips_through_dict():
    plan = FaultPlan(
        faults=(Fault(FaultKind.LINK, 0, 5),),
        extra_stage_enabled=True,
        failstops=(PEFailStop(12, 250.0),),
        failstop_timeout=1234.0,
    )
    clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert clone == plan
    assert clone.content_hash == plan.content_hash


def test_fault_plan_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        FaultPlan(failstops=(PEFailStop(3), PEFailStop(3, 9.0)))  # dup PE
    with pytest.raises(ConfigurationError):
        FaultPlan(failstop_timeout=0.0)
    with pytest.raises(ConfigurationError):
        PEFailStop(-1)
    with pytest.raises(ConfigurationError):
        PEFailStop(2, at=-5.0)


@pytest.mark.parametrize("faults, named", [
    # Mixed int/str stage or line: the canonical sort used to die with a
    # TypeError.
    ([{"kind": "link", "stage": 1, "line": 3},
      {"kind": "link", "stage": 1, "line": "4"}], "line='4'"),
    ([{"kind": "box", "stage": 1, "line": 0},
      {"kind": "box", "stage": "2", "line": 0}], "stage='2'"),
    # Unknown kind: used to be a ValueError from FaultKind.
    ([{"kind": "wire", "stage": 1, "line": 3}], "'wire'"),
    ([{"kind": "link", "stage": 1}], "'stage': 1"),
])
def test_fault_plan_from_dict_rejects_malformed_faults(faults, named):
    with pytest.raises(ConfigurationError) as exc_info:
        FaultPlan.from_dict({"faults": faults})
    assert named in str(exc_info.value)
    spec = {"program": "matmul", "mode": "smimd", "n": 16, "p": 4,
            "fault_plan": {"faults": faults}}
    with pytest.raises(ExecError, match="^malformed job spec") as exc_info:
        SimJobSpec.from_dict(spec)
    assert isinstance(exc_info.value.cause, ConfigurationError)
    assert named in str(exc_info.value)


def test_fault_plan_queries():
    plan = FaultPlan(faults=(Fault(FaultKind.BOX, 1, 0),),
                     failstops=(PEFailStop(4, 100.0),))
    assert not plan.is_empty
    assert FaultPlan().is_empty
    assert plan.network_faults() == frozenset({Fault(FaultKind.BOX, 1, 0)})
    assert plan.failstop_at(4) == 100.0
    assert plan.failstop_at(5) is None
    assert "box@s1l0" in plan.describe()
    assert "PE4@100" in plan.describe()


# ---------------------------------------------------------------------------
# The exhibits' representative degraded plan
def test_representative_plan_is_deterministic_and_reroutes():
    topo = ExtraStageCubeTopology(16)
    mapping = {i: (i - 1) % 16 for i in range(16)}
    plan = representative_fault_plan(topo, mapping)
    assert plan == representative_fault_plan(topo, mapping)
    assert len(plan.faults) == 1 and plan.extra_stage_enabled
    net = CircuitSwitchedNetwork(topo, extra_stage_enabled=True,
                                 faults=set(plan.network_faults()))
    circuits = net.allocate_permutation(mapping)
    assert sum(1 for c in circuits if c.path.extra_exchanged) > 0
