"""Simulated-time trace collection: per-PE lanes from a PASM machine.

This is the bridge between the span tracer and the simulation engine.
A traced job's :class:`~repro.obs.tracer.TraceContext` rides inside the
:class:`~repro.exec.SimJobSpec` across the ``spawn`` pool boundary;
:func:`tracing_job` re-seeds a module-global recorder from it inside
the worker, and the job-execution code arms each
:class:`~repro.machine.pasm.PASMMachine` it builds
(:func:`arm_machine`) and harvests its lanes after the run
(:func:`collect_machine`).

Cost discipline: every hook here is a no-op returning immediately when
no job trace is active, so the untraced path — the default, timed by
the benchmark's ``engine-sweep`` workload — pays one module-global
``None`` check per machine, not per instruction.  The per-instruction
cost of tracing itself is the pre-existing ``CPU.trace`` record list
plus the PE-bus wait-span list; lane construction happens once, after
the run.

Lane model (all timestamps in **simulated cycles**, exported 1 cycle =
1 µs):

* ``PE <i>`` — instruction *category runs*: contiguous
  :class:`~repro.m68k.cpu.InstructionRecord` s with the same ``timecat``
  (mult/comm/control/sync/other) coalesce into one span carrying the
  instruction count and manual-cycle total.  A run breaks where the
  next record does not start where the previous ended — i.e. where the
  PE stalled — so gaps in this lane line up with the waits lane below.
* ``PE <i> waits`` — blocking intervals recorded by the PE bus at its
  shared-resource interaction points: ``queue_wait`` (SIMD fetch from
  an empty Fetch Unit Queue), ``barrier_wait`` (data read from SIMD
  space), ``net_rx_wait`` / ``net_tx_wait`` (transfer-register
  handshakes).  In a SIMD run these render the paper's max-over-PEs
  effect directly: every PE's fetch waits on the slowest sibling.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.tracer import TraceContext, span_event

#: Ceiling on coalesced spans harvested per machine; beyond it the lane
#: ends with a ``truncated`` instant rather than growing unboundedly.
DEFAULT_MAX_SPANS = 100_000

_STATE = None  # the active JobTrace, or None (tracing disabled)


class JobTrace:
    """Mutable event accumulator for one traced job execution."""

    def __init__(self, ctx: TraceContext) -> None:
        self.ctx = ctx
        self.events: list[dict] = []
        self.dropped = 0
        self.machines = 0

    def add(self, events) -> None:
        events = list(events)
        room = self.ctx.max_events - len(self.events)
        if len(events) > room:
            self.dropped += len(events) - room
            events = events[:room]
        self.events.extend(events)


@contextmanager
def tracing_job(ctx: TraceContext | None):
    """Activate job tracing for the duration of the ``with`` block.

    Yields the :class:`JobTrace` state (or ``None`` when ``ctx`` is
    absent/disabled, making the block a transparent no-op).  The global
    is saved and restored, so nested/sequential jobs in one process —
    the in-process serial engine path — cannot leak spans into each
    other.
    """
    global _STATE
    if ctx is None or not ctx.enabled:
        yield None
        return
    previous = _STATE
    state = JobTrace(ctx)
    _STATE = state
    try:
        yield state
    finally:
        _STATE = previous


def current_job_trace() -> JobTrace | None:
    """The active job's trace state, or ``None`` when not tracing."""
    return _STATE


def arm_machine(machine) -> bool:
    """Enable per-instruction + wait tracing on ``machine`` if a job
    trace is active.  Returns whether tracing was armed."""
    if _STATE is None:
        return False
    machine.enable_tracing()
    return True


def collect_machine(machine, *, label: str) -> None:
    """Harvest ``machine``'s per-PE lanes into the active job trace."""
    state = _STATE
    if state is None:
        return
    state.machines += 1
    state.add(machine_events(machine, label=label))


def machine_events(machine, *, label: str,
                   max_spans: int = DEFAULT_MAX_SPANS) -> list[dict]:
    """Build per-PE lane events for one (already run) traced machine.

    Pure function of the machine's instrumentation state; timestamps
    are simulated cycles.  ``label`` names the process row (one row per
    machine, so e.g. the MIPS experiment's SIMD and MIMD phases land on
    separate rows).
    """
    proc = f"sim {label}"
    events: list[dict] = []
    truncated = False
    for logical, pe in enumerate(machine.pes):
        thread = f"PE {logical}"
        run_cat = None
        run_start = run_end = 0.0
        run_count = 0
        run_manual = 0.0

        def flush_run():
            if run_cat is None:
                return
            events.append(span_event(
                run_cat, ts=run_start, dur=run_end - run_start,
                proc=proc, thread=thread, cat="instr",
                args={"instructions": run_count,
                      "manual_cycles": run_manual},
            ))

        for rec in pe.cpu.trace_records:
            cat = rec.instr.timecat
            if cat == run_cat and rec.start == run_end:
                run_end = rec.end
                run_count += 1
                run_manual += rec.timing.cycles
            else:
                flush_run()
                run_cat = cat
                run_start, run_end = rec.start, rec.end
                run_count = 1
                run_manual = rec.timing.cycles
            if len(events) >= max_spans:
                truncated = True
                break
        flush_run()
        if truncated:
            break
        waits = getattr(pe.bus, "wait_spans", None)
        if waits:
            wthread = f"PE {logical} waits"
            for kind, t0, t1 in waits:
                events.append(span_event(
                    kind, ts=t0, dur=t1 - t0,
                    proc=proc, thread=wthread, cat="wait",
                ))
                if len(events) >= max_spans:
                    truncated = True
                    break
        if truncated:
            break
    if truncated:
        last_ts = max((ev["ts"] + ev.get("dur", 0.0) for ev in events),
                      default=0.0)
        events.append({"name": "truncated", "cat": "meta", "ts": last_ts,
                       "proc": proc, "thread": "PE 0",
                       "args": {"max_spans": max_spans}})
    return events
