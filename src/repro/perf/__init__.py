"""Performance observability: counters, percentiles, profiles.

The fast-path work (local-time execution, decoded caches, handler
registry) lives in the simulator proper; this module is the *read side*
— small helpers that surface what the kernel and the buses actually did
during a run, so speed-ups can be attributed rather than guessed at:

* :func:`kernel_counters` — event-queue traffic of an
  :class:`~repro.sim.environment.Environment` (pushes, pops, heap
  high-water mark, sleep-pool reuses);
* :func:`machine_counters` — engine statistics of a
  :class:`~repro.machine.PASMMachine` (the tier, lockstep rendezvous
  batching, and the kernel counters);
* :func:`percentile` — dependency-free percentile with linear
  interpolation, used by the execution engine's ``--stats`` table;
* :func:`profile_to` — context manager dumping a :mod:`cProfile` capture
  to a file for ``snakeviz``/``pstats`` (note cProfile counts each
  *resumption* of a generator as a call, so simulation coroutines show
  resumption counts, not invocation counts);
* :func:`format_breakdown` — a wall-time-by-component table with shares;
* :class:`MetricsRegistry` — thread-safe counters/gauges/latency
  summaries with Prometheus text rendering (the write side the serving
  layer's ``GET /metrics`` endpoint reads from).
"""

from __future__ import annotations

import cProfile
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro.utils.tables import format_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.machine import PASMMachine
    from repro.sim.environment import Environment

__all__ = [
    "MetricsRegistry",
    "format_breakdown",
    "kernel_counters",
    "machine_counters",
    "percentile",
    "profile_to",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches ``numpy.percentile``'s default method without the import;
    returns 0.0 for an empty sequence (the natural value for "no jobs").
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    frac = rank - lo
    if frac == 0.0:
        return float(ordered[lo])
    return float(ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac)


def kernel_counters(env: "Environment") -> dict[str, int]:
    """Event-queue traffic counters of one simulation environment."""
    return {
        "events_scheduled": env.events_scheduled,
        "events_processed": env.events_processed,
        "peak_heap": env.peak_heap,
        "sleep_reuses": env.sleep_reuses,
    }


def _iter_buses(machine: "PASMMachine"):
    for pe in getattr(machine, "pes", []):
        yield pe.bus
    for mc in getattr(machine, "assembly_mcs", {}).values():
        yield mc.bus


def machine_counters(machine: "PASMMachine") -> dict[str, int | bool]:
    """Aggregate engine counters over the machine's buses and queues.

    Counts the local-time buses (PE buses and, for assembly-MC runs, MC
    buses), sums the lockstep batching statistics of the PE buses and
    Fetch Unit Queues, and folds in the shared kernel's counters —
    ``events_scheduled`` is what the fast path exists to minimise.
    """
    lockstep_rendezvous = 0
    buses = 0
    for bus in _iter_buses(machine):
        buses += 1
        lockstep_rendezvous += getattr(bus, "lockstep_rendezvous", 0)
    lockstep_releases = 0
    lockstep_batch_pes = 0
    lockstep_carriers = 0
    broadcast_steps = 0
    for queue in getattr(machine, "queues", {}).values():
        lockstep_releases += getattr(queue, "lockstep_releases", 0)
        lockstep_batch_pes += getattr(queue, "lockstep_batch_pes", 0)
        lockstep_carriers += getattr(queue, "lockstep_carriers", 0)
        broadcast_steps += getattr(queue, "broadcast_steps", 0)
    fabric = getattr(machine, "fabric", None)
    net_carriers = (sum(pipe.carriers for pipe in fabric.pipes())
                    if fabric is not None else 0)
    out: dict[str, int | bool] = {
        "fast_path": bool(getattr(machine, "pes", None)
                          and machine.pes[0].bus.fast_path),
        "buses": buses,
        # Lockstep (the fast tier): stamped PE requests, computed-
        # rendezvous releases, PE requests those releases served, and
        # carrier events scheduled (the ~1 heap event that replaces ~2·p
        # on the event rendezvous).
        "lockstep_rendezvous": lockstep_rendezvous,
        "lockstep_releases": lockstep_releases,
        "lockstep_batch_pes": lockstep_batch_pes,
        "lockstep_carriers": lockstep_carriers,
        # PE instructions executed by broadcast step, without resuming
        # the PE's generator.
        "broadcast_steps": broadcast_steps,
        # Network accesses that parked on a pipe until a partner PE's
        # stamp settled them, each served by one carrier event (the fast
        # tier's only heap traffic for transfers but status sampling).
        "net_carriers": net_carriers,
    }
    out.update(kernel_counters(machine.env))
    return out


@contextmanager
def profile_to(path) -> Iterator[cProfile.Profile]:
    """Profile the enclosed block with :mod:`cProfile`; dump to ``path``.

    The dump is a binary pstats file::

        python -m pstats profile.out   # or snakeviz profile.out
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        profiler.dump_stats(str(path))


def format_breakdown(
    parts: Mapping[str, float],
    *,
    title: str = "wall-time breakdown",
    unit: str = "s",
) -> str:
    """Render component wall times with their share of the total.

    ``parts`` maps a component name to seconds (or any additive unit);
    rows are sorted by descending cost so the biggest sink reads first.
    """
    total = sum(parts.values())
    rows = [
        (name, round(value, 3),
         f"{100.0 * value / total:.1f}%" if total else "-")
        for name, value in sorted(parts.items(), key=lambda kv: -kv[1])
    ]
    rows.append(("TOTAL", round(total, 3), "100.0%" if total else "-"))
    return format_table(["component", f"wall ({unit})", "share"], rows,
                        title=title)


# Imported last: metrics.py reads repro.perf.percentile at call time.
from repro.perf.metrics import MetricsRegistry  # noqa: E402
