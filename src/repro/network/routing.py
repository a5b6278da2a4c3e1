"""Destination-tag routing with fault avoidance.

A path is the sequence of lines occupied between stages.  Routing through
the Generalized Cube part is forced: after the stage controlling bit ``i``,
the current line's bit ``i`` must equal the destination's.  The only
freedom is the extra stage (when enabled): passing it *straight* or in
*exchange* yields two paths whose intermediate links differ in bit 0 —
that choice is what provides fault tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetworkFaultError
from repro.network.topology import ExtraStageCubeTopology, Fault


@dataclass(frozen=True)
class Path:
    """One source→destination circuit through the network.

    ``lines[j]`` is the line occupied *after* traversal stage ``j - 1``
    (``lines[0]`` is the source terminal, ``lines[-1]`` the destination).
    """

    source: int
    dest: int
    lines: tuple[int, ...]
    extra_exchanged: bool

    def output_links(self):
        """Iterate ``(stage, output_line)`` resource claims of the path."""
        for stage, line in enumerate(self.lines[1:]):
            yield (stage, line)

    def boxes(self, topo: ExtraStageCubeTopology):
        """Iterate canonical box ids the path passes through."""
        for stage in range(topo.n_stages):
            yield topo.box_of(stage, self.lines[stage])


def route(
    topo: ExtraStageCubeTopology,
    source: int,
    dest: int,
    *,
    faults: frozenset[Fault] | set[Fault] = frozenset(),
    extra_stage_enabled: bool = False,
    prefer_exchange: bool = False,
    fault_mask: int | None = None,
) -> Path:
    """Compute a fault-free path from ``source`` to ``dest``.

    With the extra stage bypassed there is exactly one candidate path (the
    Generalized Cube's unique route).  With it enabled, both the straight
    and exchanged variants are tried — ``prefer_exchange`` flips the order,
    which the circuit allocator uses to resolve conflicts.  A candidate is
    blocked when its :meth:`~ExtraStageCubeTopology.path_mask` shares a
    bit with the fault set's mask; ``fault_mask`` passes
    ``topo.fault_mask(faults)`` precomputed, for callers that route many
    pairs under one fault set.

    Raises :class:`~repro.errors.NetworkFaultError` when every candidate
    touches a faulty element.
    """
    n = topo.n_terminals
    if not (0 <= source < n and 0 <= dest < n):
        raise ValueError(f"terminal out of range: {source}->{dest} (N={n})")
    if fault_mask is None:
        fault_mask = topo.fault_mask(faults)
    options = [False] if not extra_stage_enabled else (
        [True, False] if prefer_exchange else [False, True]
    )
    for exchange in options:
        if not fault_mask or not fault_mask & topo.path_mask(source, dest,
                                                            exchange):
            return Path(source, dest, topo.path_lines(source, dest, exchange),
                        exchange)
    rejected = [topo.path_lines(source, dest, exchange) for exchange in options]
    ordered = sorted(frozenset(faults),
                     key=lambda f: (f.kind.value, f.stage, f.line))
    fault_names = ", ".join(
        f"{f.kind.value}@stage{f.stage}/line{f.line}" for f in ordered
    ) or "none"
    candidate_names = "; ".join(
        "->".join(str(line) for line in lines) for lines in rejected
    )
    raise NetworkFaultError(
        f"no fault-free path {source}->{dest} "
        f"(extra stage {'enabled' if extra_stage_enabled else 'bypassed'}): "
        f"active faults [{fault_names}]; "
        f"rejected candidate path(s) [{candidate_names}]",
        faults=tuple(ordered),
        candidates=tuple(rejected),
    )
