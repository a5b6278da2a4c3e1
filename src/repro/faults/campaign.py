"""Fault-injection campaigns over the Extra-Stage Cube.

Pure-computation sweeps that put the Adams & Siegel single-fault-tolerance
claim under exhaustive test: enumerate every failable element of an ESC,
inject it, and check that every (source, dest) pair still routes with the
extra stage enabled.  Double-fault sweeps measure how much tolerance is
left *beyond* the guarantee (none is promised; much survives in practice).

These functions are deterministic and side-effect free, which lets the
execution engine schedule them as content-hashed jobs (program
``"faultsweep"``) — the sweeps run in a pool worker and cache like any
simulation run.  Blocking is decided on the topology's element bitmasks
(:meth:`~repro.network.topology.ExtraStageCubeTopology.path_masks`), so
even the exhaustive N=16 double-fault sweep (5356 fault pairs) runs in
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.errors import NetworkFaultError, RoutingConflictError
from repro.faults.plan import FaultPlan
from repro.network.circuit import CircuitSwitchedNetwork
from repro.network.routing import route
from repro.network.topology import ExtraStageCubeTopology, Fault, FaultKind
from repro.utils.rng import make_rng


def iter_single_faults(topo: ExtraStageCubeTopology):
    """Every failable element of the network, in canonical order.

    Box faults enumerate the canonical (stage, low-line) box ids of all
    traversal stages (the extra stage included: its boxes matter once it
    is enabled).  Link faults enumerate the *inter-stage* output lines —
    the final stage's output links are the destination terminals' single
    physical connections, which no interconnection network can route
    around, so (as in Adams & Siegel's analysis) they are outside the
    fault-tolerance universe.
    """
    for stage in range(topo.n_stages):
        for _, line in topo.boxes(stage):
            yield Fault(FaultKind.BOX, stage, line)
    for stage in range(topo.n_stages - 1):
        for line in range(topo.n_terminals):
            yield Fault(FaultKind.LINK, stage, line)


def count_single_faults(topo: ExtraStageCubeTopology) -> int:
    """Number of distinct single faults :func:`iter_single_faults` yields."""
    return topo.n_stages * (topo.n_terminals // 2) + \
        (topo.n_stages - 1) * topo.n_terminals


def blocked_pairs(
    topo: ExtraStageCubeTopology,
    faults: frozenset[Fault] | set[Fault],
    *,
    extra_stage_enabled: bool = True,
) -> list[tuple[int, int]]:
    """(source, dest) pairs with no fault-free path under ``faults``.

    The same verdict :func:`~repro.network.routing.route` reaches for each
    pair, read off the topology's per-pair blocking masks.
    """
    fault_mask = topo.fault_mask(faults)
    if not fault_mask:
        return []
    straight = topo.path_masks(False)
    if extra_stage_enabled:
        exchanged = topo.path_masks(True)
        hits = [i for i, (a, b) in enumerate(zip(straight, exchanged))
                if fault_mask & a and fault_mask & b]
    else:
        hits = [i for i, a in enumerate(straight) if fault_mask & a]
    return [divmod(i, topo.n_terminals) for i in hits]


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one fault sweep on an N-terminal ESC."""

    n_terminals: int
    combos: int  #: fault sets examined
    survived: int  #: fault sets under which every pair stayed routable
    pairs_checked: int
    blocked_pairs: int
    shift_survived: int  #: fault sets with the shift permutation allocatable
    exhaustive: bool  #: False when double faults were sampled

    @property
    def survival_pct(self) -> float:
        return 100.0 * self.survived / self.combos if self.combos else 100.0

    @property
    def routability_pct(self) -> float:
        if not self.pairs_checked:
            return 100.0
        return 100.0 * (self.pairs_checked - self.blocked_pairs) / self.pairs_checked

    @property
    def shift_pct(self) -> float:
        return 100.0 * self.shift_survived / self.combos if self.combos else 100.0

    def to_dict(self) -> dict:
        return {
            "n_terminals": self.n_terminals,
            "combos": self.combos,
            "survived": self.survived,
            "pairs_checked": self.pairs_checked,
            "blocked_pairs": self.blocked_pairs,
            "shift_survived": self.shift_survived,
            "exhaustive": self.exhaustive,
            "survival_pct": round(self.survival_pct, 3),
            "routability_pct": round(self.routability_pct, 3),
            "shift_pct": round(self.shift_pct, 3),
        }


def _shift_admissible(topo, faults) -> bool:
    """Can PE i → PE (i-1) mod N still be set up in one circuit setting?"""
    net = CircuitSwitchedNetwork(
        topo, extra_stage_enabled=True, faults=set(faults)
    )
    n = topo.n_terminals
    return net.is_admissible({i: (i - 1) % n for i in range(n)})


def single_fault_sweep(n_terminals: int) -> SweepReport:
    """Inject every single fault; check every pair and the shift setting.

    The Adams & Siegel guarantee says ``blocked_pairs`` must come back 0
    for every fault (the exhibit and the property tests assert exactly
    that).  ``shift_survived`` is stronger than the guarantee — it asks
    for a *simultaneous* conflict-free setting of the whole ring — and is
    reported, not asserted.
    """
    topo = ExtraStageCubeTopology(n_terminals)
    combos = survived = shift_ok = total_blocked = 0
    pairs_per_combo = n_terminals * n_terminals
    for fault in iter_single_faults(topo):
        combos += 1
        blocked = blocked_pairs(topo, {fault})
        total_blocked += len(blocked)
        if not blocked:
            survived += 1
        if _shift_admissible(topo, {fault}):
            shift_ok += 1
    return SweepReport(
        n_terminals=n_terminals,
        combos=combos,
        survived=survived,
        pairs_checked=combos * pairs_per_combo,
        blocked_pairs=total_blocked,
        shift_survived=shift_ok,
        exhaustive=True,
    )


def double_fault_sweep(
    n_terminals: int,
    *,
    max_exhaustive: int = 2000,
    samples: int = 500,
    seed: int = 0,
) -> SweepReport:
    """Inject pairs of faults and measure how often full routability survives.

    Exhaustive when the number of fault pairs is at most
    ``max_exhaustive``; otherwise a deterministic ``samples``-sized sample
    drawn from ``seed`` (so the sweep is bit-identical no matter where or
    how it is scheduled).  Double-fault tolerance is *not* guaranteed by
    the ESC design; the survival rate quantifies the margin beyond the
    single-fault claim.
    """
    topo = ExtraStageCubeTopology(n_terminals)
    all_pairs = list(combinations(iter_single_faults(topo), 2))
    exhaustive = len(all_pairs) <= max_exhaustive
    if exhaustive:
        chosen = all_pairs
    else:
        rng = make_rng(seed, "double-fault-sweep", n_terminals)
        idx = rng.choice(len(all_pairs), size=min(samples, len(all_pairs)),
                         replace=False)
        chosen = [all_pairs[i] for i in sorted(int(i) for i in idx)]
    survived = shift_ok = total_blocked = 0
    for pair in chosen:
        blocked = blocked_pairs(topo, set(pair))
        total_blocked += len(blocked)
        if not blocked:
            survived += 1
        if _shift_admissible(topo, set(pair)):
            shift_ok += 1
    return SweepReport(
        n_terminals=n_terminals,
        combos=len(chosen),
        survived=survived,
        pairs_checked=len(chosen) * n_terminals * n_terminals,
        blocked_pairs=total_blocked,
        shift_survived=shift_ok,
        exhaustive=exhaustive,
    )


# ---------------------------------------------------------------------------
def representative_fault_plan(
    topo: ExtraStageCubeTopology,
    mapping: dict[int, int],
) -> FaultPlan:
    """A canonical degraded-mode plan for a circuit setting.

    Picks the first fault (in :func:`iter_single_faults` order) that (a)
    blocks at least one of ``mapping``'s fault-free straight routes —
    so the run genuinely exercises rerouting — while (b) keeping the
    whole mapping allocatable in one setting with the extra stage
    enabled.  Deterministic, so specs built from it hash stably.
    """
    straight_links: set[Fault] = set()
    straight_boxes: set[Fault] = set()
    for source, dest in sorted(mapping.items()):
        path = route(topo, source, dest, extra_stage_enabled=False)
        for stage, line in path.output_links():
            straight_links.add(Fault(FaultKind.LINK, stage, line))
        for stage, line in path.boxes(topo):
            straight_boxes.add(Fault(FaultKind.BOX, stage, line))
    for fault in iter_single_faults(topo):
        on_straight = fault in (
            straight_boxes if fault.kind is FaultKind.BOX else straight_links
        )
        # Extra-stage elements never lie on a bypassed straight route, but
        # count the final-stage ones; skip faults that touch nothing.
        if not on_straight:
            continue
        net = CircuitSwitchedNetwork(
            topo, extra_stage_enabled=True, faults={fault}
        )
        try:
            circuits = net.allocate_permutation(mapping)
        except (NetworkFaultError, RoutingConflictError):
            continue
        rerouted = sum(1 for c in circuits if c.path.extra_exchanged)
        net.release_all()
        if rerouted:
            return FaultPlan(faults=(fault,), extra_stage_enabled=True)
    raise NetworkFaultError(
        f"no single fault both disturbs and preserves the mapping {mapping}"
    )
