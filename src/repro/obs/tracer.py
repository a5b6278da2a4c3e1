"""A dependency-free span tracer with Chrome trace-event export.

Spans are recorded as plain JSON-able dictionaries so they can cross
the ``spawn`` process boundary (pool workers pickle their event lists
back to the broker) and accumulate from several sources — wall-clock
serve/broker/engine lanes and simulated-cycle per-PE lanes — into one
timeline.  :func:`export_chrome` renders the combined list in the
Chrome trace-event JSON format, viewable in `Perfetto`_ or
``chrome://tracing``.

Two clock domains share one file: wall-clock lanes use microseconds
since the tracer was created, simulated lanes use **cycles** rendered
as microseconds (1 cycle = 1 µs, so timestamps stay integral and the
paper's cycle counts are readable straight off the ruler).  Each domain
lives on its own process row, so the mixed units never share an axis.

Event dictionaries
------------------
A **span**: ``{"name", "cat", "ts", "dur", "proc", "thread", "args"?}``
— ``ts``/``dur`` are floats in the lane's time unit; ``proc`` and
``thread`` are human-readable lane names (numeric pid/tid are assigned
at export).  An **instant** is the same without ``dur``.  Lanes are
expected to be *sequential* (spans on one thread never overlap); the
exporter emits matched B/E pairs and :mod:`repro.obs.schema` verifies
the nesting invariant.

.. _Perfetto: https://ui.perfetto.dev/
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.ids import new_trace_id

#: Default ceiling on retained events per tracer / traced job.  A 16x16
#: micro matmul executes ~10^5 instructions per PE; category runs
#: coalesce most of that, but a cap keeps a pathological job from
#:  exhausting broker memory.  Dropped events are counted, not silent.
DEFAULT_MAX_EVENTS = 200_000

#: ``displayTimeUnit`` hint for viewers.
_DISPLAY_UNIT = "ms"


@dataclass(frozen=True)
class TraceContext:
    """The picklable tracing state a job carries across process bounds.

    Attached to a :class:`~repro.exec.SimJobSpec` (``spec.trace``), it
    re-seeds the recorder inside a spawn-context pool worker so the
    worker's simulated-time spans join the submitting side's trace.
    A job is traced exactly when it carries one.
    """

    trace_id: str
    max_events: int = DEFAULT_MAX_EVENTS


def span_event(name: str, *, ts: float, dur: float, proc: str,
               thread: str, cat: str = "", args: dict | None = None) -> dict:
    """Build one span event dictionary."""
    ev = {"name": name, "cat": cat, "ts": float(ts), "dur": float(dur),
          "proc": proc, "thread": thread}
    if args:
        ev["args"] = args
    return ev


def instant_event(name: str, *, ts: float, proc: str, thread: str,
                  cat: str = "", args: dict | None = None) -> dict:
    """Build one instant event dictionary."""
    ev = {"name": name, "cat": cat, "ts": float(ts),
          "proc": proc, "thread": thread}
    if args:
        ev["args"] = args
    return ev


class Tracer:
    """Thread-safe event recorder for one logical operation.

    The tracer is the *wall-clock* anchor: :meth:`clock_us` is
    microseconds since construction, and :meth:`span` times a ``with``
    block on that clock.  Simulated-time events produced elsewhere are
    merged in with :meth:`extend`.
    """

    def __init__(self, trace_id: str | None = None, *,
                 max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.max_events = max_events
        self.events: list[dict] = []
        self.dropped = 0
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def clock_us(self) -> float:
        """Microseconds of wall time since this tracer was created."""
        return (time.perf_counter() - self._t0) * 1e6

    def _append(self, event: dict) -> None:
        with self._lock:
            if len(self.events) >= self.max_events:
                self.dropped += 1
                return
            self.events.append(event)

    def add_span(self, name: str, *, ts: float, dur: float, proc: str,
                 thread: str, cat: str = "", args: dict | None = None) -> None:
        self._append(span_event(name, ts=ts, dur=dur, proc=proc,
                                thread=thread, cat=cat, args=args))

    def add_instant(self, name: str, *, ts: float | None = None, proc: str,
                    thread: str, cat: str = "",
                    args: dict | None = None) -> None:
        if ts is None:
            ts = self.clock_us()
        self._append(instant_event(name, ts=ts, proc=proc, thread=thread,
                                   cat=cat, args=args))

    @contextmanager
    def span(self, name: str, *, proc: str, thread: str, cat: str = "",
             args: dict | None = None):
        """Record a wall-clock span around a ``with`` block."""
        start = self.clock_us()
        try:
            yield self
        finally:
            self.add_span(name, ts=start, dur=self.clock_us() - start,
                          proc=proc, thread=thread, cat=cat, args=args)

    def extend(self, events) -> None:
        """Merge a batch of event dictionaries (e.g. from a worker)."""
        with self._lock:
            room = self.max_events - len(self.events)
            events = list(events)
            if len(events) > room:
                self.dropped += len(events) - room
                events = events[:room]
            self.events.extend(events)

    # ------------------------------------------------------------------
    def to_chrome(self, meta: dict | None = None) -> dict:
        """The Chrome trace-event JSON document for everything recorded."""
        extra = dict(meta or {})
        if self.dropped:
            extra["dropped_events"] = self.dropped
        return export_chrome(self.events, trace_id=self.trace_id, meta=extra)

    def write(self, path, meta: dict | None = None) -> int:
        """Write the Chrome trace JSON to ``path``; returns event count."""
        doc = self.to_chrome(meta)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return len(doc["traceEvents"])


# ---------------------------------------------------------------------------
# Chrome trace-event export / import
# ---------------------------------------------------------------------------
def export_chrome(events, *, trace_id: str | None = None,
                  meta: dict | None = None) -> dict:
    """Render event dictionaries as a Chrome trace-event JSON document.

    Numeric ``pid``/``tid`` are assigned per distinct ``proc`` /
    ``(proc, thread)`` in order of first appearance, and announced with
    ``process_name``/``thread_name`` metadata events so viewers show
    the human-readable lane names.  Spans become matched ``B``/``E``
    pairs; zero-duration spans and instants become ``i`` events.  All
    timed events are sorted by timestamp (``E`` before ``i`` before
    ``B`` at equal timestamps, so back-to-back spans on one lane close
    before the next opens).
    """
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    metadata: list[dict] = []
    timed: list[tuple[float, int, int, dict]] = []
    order = 0
    for ev in events:
        proc, thread = ev["proc"], ev["thread"]
        pid = pids.get(proc)
        if pid is None:
            pid = pids[proc] = len(pids) + 1
            metadata.append({"ph": "M", "name": "process_name", "pid": pid,
                             "tid": 0, "args": {"name": proc}})
        tkey = (proc, thread)
        tid = tids.get(tkey)
        if tid is None:
            tid = tids[tkey] = sum(
                1 for (p, _t) in tids if p == proc
            ) + 1
            metadata.append({"ph": "M", "name": "thread_name", "pid": pid,
                             "tid": tid, "args": {"name": thread}})
        base = {"name": ev["name"], "cat": ev.get("cat") or "event",
                "pid": pid, "tid": tid}
        if "args" in ev:
            base["args"] = ev["args"]
        dur = ev.get("dur")
        ts = ev["ts"]
        if dur is not None and dur > 0:
            begin = dict(base, ph="B", ts=ts)
            end = {"name": ev["name"], "ph": "E", "pid": pid, "tid": tid,
                   "ts": ts + dur}
            timed.append((ts, 2, order, begin))
            timed.append((ts + dur, 0, order, end))
        else:
            timed.append((ts, 1, order, dict(base, ph="i", ts=ts, s="t")))
        order += 1
    timed.sort(key=lambda item: (item[0], item[1], item[2]))
    doc = {
        "traceEvents": metadata + [item[3] for item in timed],
        "displayTimeUnit": _DISPLAY_UNIT,
        "otherData": {
            "generator": "repro.obs",
            "clock_note": ("wall-clock lanes in microseconds; simulated "
                           "lanes in cycles rendered as microseconds "
                           "(1 cycle = 1 us)"),
        },
    }
    if trace_id:
        doc["otherData"]["trace_id"] = trace_id
    if meta:
        doc["otherData"].update(meta)
    return doc


def lanes_from_chrome(doc: dict) -> dict[tuple[str, str], list[dict]]:
    """Reconstruct per-lane span/instant lists from a Chrome trace doc.

    Returns ``{(process_name, thread_name): [event, ...]}`` with events
    in the internal dictionary form (``ts``/``dur``/``name``/``cat``).
    ``B``/``E`` pairs are re-joined per lane (LIFO); ``X`` complete
    events and ``i`` instants are accepted too, so traces from other
    producers render as well.  Raises ``ValueError`` on unmatched
    ``B``/``E`` nesting — use :mod:`repro.obs.schema` for a diagnostic
    (non-raising) check.
    """
    procs: dict[int, str] = {}
    threads: dict[tuple[int, int], str] = {}
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") != "M":
            continue
        if ev.get("name") == "process_name":
            procs[ev["pid"]] = ev.get("args", {}).get("name", str(ev["pid"]))
        elif ev.get("name") == "thread_name":
            threads[(ev["pid"], ev["tid"])] = \
                ev.get("args", {}).get("name", str(ev["tid"]))

    def lane(ev) -> tuple[str, str]:
        pid, tid = ev.get("pid", 0), ev.get("tid", 0)
        return (procs.get(pid, f"pid {pid}"),
                threads.get((pid, tid), f"tid {tid}"))

    lanes: dict[tuple[str, str], list[dict]] = {}
    stacks: dict[tuple[int, int], list[dict]] = {}
    for ev in doc.get("traceEvents", ()):
        ph = ev.get("ph")
        if ph == "M":
            lanes.setdefault(lane(ev), [])
            continue
        key = (ev.get("pid", 0), ev.get("tid", 0))
        out = lanes.setdefault(lane(ev), [])
        if ph == "B":
            stacks.setdefault(key, []).append(
                {"name": ev.get("name", "?"), "cat": ev.get("cat", ""),
                 "ts": ev["ts"], "args": ev.get("args", {})}
            )
        elif ph == "E":
            stack = stacks.get(key) or []
            if not stack:
                raise ValueError(f"unmatched E event on lane {lane(ev)}")
            span = stack.pop()
            span["dur"] = ev["ts"] - span["ts"]
            out.append(span)
        elif ph == "X":
            out.append({"name": ev.get("name", "?"),
                        "cat": ev.get("cat", ""), "ts": ev["ts"],
                        "dur": ev.get("dur", 0.0),
                        "args": ev.get("args", {})})
        elif ph in ("i", "I", "R"):
            out.append({"name": ev.get("name", "?"),
                        "cat": ev.get("cat", ""), "ts": ev["ts"],
                        "args": ev.get("args", {})})
    leftovers = [k for k, stack in stacks.items() if stack]
    if leftovers:
        raise ValueError(f"unclosed B events on lanes {leftovers}")
    for spans in lanes.values():
        spans.sort(key=lambda s: s["ts"])
    return lanes
