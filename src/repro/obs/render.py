"""Text renderers over trace lanes: the one ASCII Gantt
(:func:`render_gantt`), the per-lane table (:func:`summarize`), the
instruction listing (:func:`format_trace`) and the Fetch Unit Queue
occupancy summary (:func:`queue_occupancy`).  ``pasm-trace`` is
argument parsing over the first two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.obs.tracer import lanes_from_chrome

#: One-character codes for span names: the instruction categories, the
#: PE-bus waits and the serve lanes.  Any other name is drawn with its
#: first letter.
SPAN_CODES = {
    "mult": "M",
    "comm": "C",
    "control": "c",
    "sync": "S",
    "other": ".",
    "queue_wait": "q",
    "barrier_wait": "b",
    "net_rx_wait": "r",
    "net_tx_wait": "t",
    "queue wait": "q",
    "execute": "E",
}


def _span_code(name: str) -> str:
    return SPAN_CODES.get(name) or (name[0] if name else "?")


def _lanes(source, proc: str | None) -> dict[tuple[str, str], list[dict]]:
    """Non-empty ``(process, thread)`` lanes of ``source`` whose process
    name contains ``proc`` (any, when ``None``)."""
    if isinstance(source, dict):
        lanes = lanes_from_chrome(source)
    else:
        lanes = {}
        for ev in source:
            lanes.setdefault((ev["proc"], ev["thread"]), []).append(ev)
    return {
        key: events for key, events in lanes.items()
        if events and (proc is None or proc in key[0])
    }


def render_gantt(source, *, width: int = 72,
                 proc: str | None = None) -> str:
    """ASCII timeline of a trace: one row per lane.

    ``source`` is a Chrome trace-event document or a list of lane
    events (as :func:`~repro.obs.simtrace.machine_events` builds).
    Each column is a time bucket showing the span name that
    consumed most of it (codes from :data:`SPAN_CODES`; space =
    idle/finished).  Lanes from different processes can live on
    different clocks (wall vs simulated cycles), so each *process* gets
    its own horizon header.
    """
    lanes = _lanes(source, proc)
    if not lanes:
        return "(no matching lanes)"
    out: list[str] = []
    by_proc: dict[str, dict] = {}
    for (pname, tname), events in lanes.items():
        by_proc.setdefault(pname, {})[tname] = events
    legend: dict[str, str] = {}
    for pname in sorted(by_proc):
        rows = by_proc[pname]
        horizon = max(e["ts"] + e.get("dur", 0.0)
                      for events in rows.values() for e in events)
        if horizon <= 0:
            horizon = 1.0
        bucket = horizon / width
        out.append(f"{pname}: 0 .. {horizon:.0f} us, "
                   f"{bucket:.1f} us/column")
        name_w = max(len(t) for t in rows)
        for tname in sorted(rows):
            weights: list[dict] = [dict() for _ in range(width)]
            for ev in rows[tname]:
                legend[ev["name"]] = _span_code(ev["name"])
                t0 = ev["ts"]
                t1 = t0 + ev.get("dur", 0.0)
                lo = min(int(t0 / bucket), width - 1)
                hi = min(int(t1 / bucket), width - 1)
                for b in range(lo, hi + 1):
                    seg = (min(t1, (b + 1) * bucket)
                           - max(t0, b * bucket))
                    # Zero-duration instants still deserve a mark.
                    seg = max(seg, bucket * 1e-6)
                    w = weights[b]
                    w[ev["name"]] = w.get(ev["name"], 0.0) + seg
            row = "".join(
                _span_code(max(w, key=w.get)) if w else " "
                for w in weights
            )
            out.append(f"{tname:>{name_w}} |{row}|")
        out.append("")
    out.append("legend: " + " ".join(
        f"{code}={name}" for name, code in sorted(legend.items())
    ))
    return "\n".join(out)


def summarize(doc: dict, *, proc: str | None = None) -> str:
    """Per-lane table of a Chrome trace document: span count, busy
    time, dominant span names."""
    lanes = _lanes(doc, proc)
    other = doc.get("otherData", {})
    out = [
        f"trace id: {other.get('trace_id', '?')}",
        f"events:   {len(doc.get('traceEvents', []))}"
        f"  lanes: {len(lanes)}",
    ]
    # export_chrome merges the caller's meta into otherData beside its
    # own three keys; show everything the caller put there.
    meta = {k: v for k, v in other.items()
            if k not in ("generator", "clock_note", "trace_id")}
    if meta:
        out.append("meta:     " + json.dumps(meta, sort_keys=True))
    out.append("")
    header = f"{'lane':<40} {'spans':>6} {'busy':>12}  top spans"
    out.append(header)
    out.append("-" * len(header))
    for (pname, tname), events in sorted(lanes.items()):
        busy = sum(e.get("dur", 0.0) for e in events)
        totals: dict[str, float] = {}
        for e in events:
            totals[e["name"]] = (totals.get(e["name"], 0.0)
                                 + e.get("dur", 0.0))
        top = sorted(totals.items(), key=lambda kv: -kv[1])[:3]
        top_text = ", ".join(f"{n} ({d:.0f})" for n, d in top)
        lane = f"{pname} / {tname}"
        out.append(f"{lane:<40} {len(events):>6} {busy:>12.1f}  {top_text}")
    return "\n".join(out)


def format_trace(records, *, limit: int | None = 50,
                 start: float = 0.0) -> str:
    """Render :class:`~repro.m68k.cpu.InstructionRecord` s as an
    annotated listing.

    Columns: simulated start time, elapsed cycles (including wait states
    and any queue/network stalls), the manual's zero-wait-state cycles,
    timing category, and the instruction.  The difference between elapsed
    and manual cycles is exactly the architectural overhead the paper
    measures.
    """
    lines = [
        f"{'t':>10}  {'elapsed':>8}  {'manual':>7}  {'cat':<8} instruction"
    ]
    shown = 0
    for rec in records:
        if rec.start < start:
            continue
        if limit is not None and shown >= limit:
            lines.append(f"... ({len(records) - shown} more records)")
            break
        lines.append(
            f"{rec.start:>10.0f}  {rec.elapsed:>8.1f}  "
            f"{rec.timing.cycles:>7}  {rec.instr.timecat:<8} {rec.instr}"
        )
        shown += 1
    return "\n".join(lines)


@dataclass(frozen=True)
class QueueOccupancy:
    """Time-weighted statistics of Fetch Unit Queue depth."""

    mean_words: float
    max_words: int
    fraction_empty: float  #: share of time with an empty queue (PE risk)
    fraction_full: float  #: share of time at capacity (MC risk)
    sparkline: str

    def __str__(self) -> str:
        return (
            f"queue occupancy: mean {self.mean_words:.1f} words, max "
            f"{self.max_words}, empty {self.fraction_empty:.1%} of the "
            f"time, full {self.fraction_full:.1%}\n[{self.sparkline}]"
        )


def queue_occupancy(
    samples: list[tuple[float, int]],
    capacity: int,
    *,
    end: float | None = None,
    width: int = 60,
) -> QueueOccupancy:
    """Summarize (time, words) occupancy samples from a FetchUnitQueue."""
    if not samples:
        return QueueOccupancy(0.0, 0, 1.0, 0.0, " " * width)
    horizon = end if end is not None else samples[-1][0]
    if horizon <= samples[0][0]:
        horizon = samples[0][0] + 1.0

    # Integrate the step function.
    area = 0.0
    empty_time = 0.0
    full_time = 0.0
    levels = " .:-=+*#%@"
    buckets = [0.0] * width
    bucket_weight = [0.0] * width
    prev_t, prev_w = samples[0]
    prev_t = min(prev_t, horizon)

    def accumulate(t0: float, t1: float, w: int) -> None:
        nonlocal area, empty_time, full_time
        span = t1 - t0
        if span <= 0:
            return
        area += span * w
        if w == 0:
            empty_time += span
        if w >= capacity:
            full_time += span
        b0 = min(int(t0 / horizon * width), width - 1)
        b1 = min(int(t1 / horizon * width), width - 1)
        for b in range(b0, b1 + 1):
            s_lo = max(t0, b * horizon / width)
            s_hi = min(t1, (b + 1) * horizon / width)
            if s_hi > s_lo:
                buckets[b] += (s_hi - s_lo) * w
                bucket_weight[b] += s_hi - s_lo

    for t, w in samples[1:]:
        t = min(t, horizon)
        accumulate(prev_t, t, prev_w)
        prev_t, prev_w = t, w
    accumulate(prev_t, horizon, prev_w)

    total = horizon - samples[0][0]
    spark = "".join(
        levels[min(int((buckets[b] / bucket_weight[b]) / capacity
                       * (len(levels) - 1)), len(levels) - 1)]
        if bucket_weight[b] else " "
        for b in range(width)
    )
    return QueueOccupancy(
        mean_words=area / total,
        max_words=max(w for _, w in samples),
        fraction_empty=empty_time / total,
        fraction_full=full_time / total,
        sparkline=spark,
    )
