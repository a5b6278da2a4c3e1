"""Tests for the observability layer (:mod:`repro.obs`).

Covered contracts:

* **IDs** — W3C ``traceparent`` round-trip; malformed headers are
  rejected to ``None`` (never an exception: a bad client header must
  not take down a request);
* **tracer/export** — the Chrome trace-event documents we emit pass
  our own schema check, B/E pairs nest, lanes re-join losslessly;
* **structured logs** — JSON lines parse and carry every field, text
  lines quote awkward values;
* **simulated-time lanes** — a traced SIMD run exposes fetch-queue
  wait spans that the equivalent MIMD run provably lacks (the paper's
  whole point, visible on a timeline);
* **opt-in invariance** — attaching a trace context changes neither
  the job's content hash nor its payload;
* **process self-metrics** — the ``pasm_process_*`` family ``/metrics``
  renders on each scrape is populated and its CPU counter never falls.
"""

import io
import json
import threading

import pytest

from repro.exec import matmul_spec, timed_execute, traced_execute
from repro.exec.engine import ExecStats, ExecutionEngine
from repro.obs import (
    StructuredLogger,
    TraceContext,
    Tracer,
    export_chrome,
    format_traceparent,
    lanes_from_chrome,
    new_request_id,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    span_event,
    validate_chrome_trace,
)
from repro.obs.procstats import ProcessStats
from repro.obs.simtrace import tracing_job
from repro.perf import MetricsRegistry


# ---------------------------------------------------------------------------
# IDs / traceparent
# ---------------------------------------------------------------------------
class TestIds:
    def test_shapes(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        assert new_request_id().startswith("req-")
        int(new_trace_id(), 16)  # hex

    def test_uniqueness(self):
        assert len({new_trace_id() for _ in range(64)}) == 64

    def test_roundtrip(self):
        trace, span = new_trace_id(), new_span_id()
        header = format_traceparent(trace, span)
        assert parse_traceparent(header) == (trace, span)

    @pytest.mark.parametrize("header", [
        "",
        "not-a-traceparent",
        "00-zzzz-0011223344556677-01",                        # non-hex
        "00-" + "0" * 32 + "-0011223344556677-01",            # zero trace
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",            # zero span
        "ff-" + "a" * 32 + "-0011223344556677-01",            # version ff
        "00-" + "a" * 31 + "-0011223344556677-01",            # short trace
    ])
    def test_malformed_rejected(self, header):
        assert parse_traceparent(header) is None

    def test_future_version_accepted(self):
        # Per W3C: unknown (non-ff) versions parse the known prefix.
        trace, span = "a" * 32, "b" * 16
        assert parse_traceparent(f"01-{trace}-{span}-01-extra") == (
            trace, span)


# ---------------------------------------------------------------------------
# Tracer and Chrome export
# ---------------------------------------------------------------------------
class TestTracerExport:
    def test_export_passes_own_schema(self):
        tracer = Tracer()
        tracer.add_span("work", ts=10.0, dur=5.0, proc="p", thread="t")
        tracer.add_instant("mark", ts=12.0, proc="p", thread="t")
        with tracer.span("outer", proc="p", thread="u"):
            pass
        doc = tracer.to_chrome()
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["trace_id"] == tracer.trace_id
        assert doc["displayTimeUnit"] == "ms"

    def test_be_pairs_and_metadata(self):
        doc = export_chrome(
            [span_event("a", ts=0.0, dur=2.0, proc="p", thread="t")],
            trace_id=new_trace_id(),
        )
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases.count("B") == 1 and phases.count("E") == 1
        assert phases.count("M") >= 2  # process_name + thread_name
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"}
        assert {"p", "t"} <= names

    def test_zero_duration_becomes_instant(self):
        doc = export_chrome(
            [span_event("z", ts=1.0, dur=0.0, proc="p", thread="t")],
            trace_id=new_trace_id(),
        )
        kinds = {e["ph"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert kinds == {"i"}
        assert validate_chrome_trace(doc) == []

    def test_lanes_roundtrip(self):
        events = [
            span_event("one", ts=0.0, dur=4.0, proc="p", thread="t"),
            span_event("two", ts=5.0, dur=1.0, proc="p", thread="t"),
            span_event("other", ts=0.5, dur=1.0, proc="q", thread="u"),
        ]
        doc = export_chrome(events, trace_id=new_trace_id())
        lanes = lanes_from_chrome(doc)
        lane = lanes[("p", "t")]
        assert [e["name"] for e in lane] == ["one", "two"]
        assert lane[0]["dur"] == pytest.approx(4.0)
        assert [e["name"] for e in lanes[("q", "u")]] == ["other"]

    def test_lanes_rejects_unmatched_end(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1},
        ]}
        with pytest.raises(ValueError):
            lanes_from_chrome(doc)

    def test_max_events_cap_reports_drops(self):
        tracer = Tracer(max_events=4)
        for i in range(10):
            tracer.add_instant(f"e{i}", ts=float(i), proc="p", thread="t")
        doc = tracer.to_chrome()
        assert doc["otherData"]["dropped_events"] == 6
        assert validate_chrome_trace(doc) == []

    def test_thread_safety(self):
        tracer = Tracer()

        def hammer(k):
            for i in range(200):
                tracer.add_instant(f"t{k}-{i}", ts=float(i),
                                   proc="p", thread=f"t{k}")

        threads = [threading.Thread(target=hammer, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.events) == 800
        assert validate_chrome_trace(tracer.to_chrome()) == []


class TestSchema:
    def _doc(self, events):
        return {"traceEvents": events}

    def test_missing_required_field(self):
        probs = validate_chrome_trace(self._doc(
            [{"ph": "i", "ts": 0.0, "tid": 1, "pid": 1}]))
        assert any("name" in p for p in probs)

    def test_decreasing_ts(self):
        probs = validate_chrome_trace(self._doc([
            {"name": "a", "ph": "i", "s": "t", "ts": 5.0, "pid": 1,
             "tid": 1},
            {"name": "b", "ph": "i", "s": "t", "ts": 1.0, "pid": 1,
             "tid": 1},
        ]))
        assert any("backwards" in p for p in probs)

    def test_unbalanced_begin(self):
        probs = validate_chrome_trace(self._doc([
            {"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
        ]))
        assert probs

    def test_not_a_trace(self):
        assert validate_chrome_trace([1, 2, 3])
        assert validate_chrome_trace({"traceEvents": []})


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------
class TestStructuredLogger:
    def test_json_lines_parse(self):
        buf = io.StringIO()
        log = StructuredLogger(stream=buf, fmt="json", clock=lambda: 0.0)
        log.info("request", method="GET", status=200,
                 request_id="req-abc")
        doc = json.loads(buf.getvalue())
        assert doc == {"ts": "1970-01-01T00:00:00.000Z", "level": "info",
                       "event": "request", "method": "GET", "status": 200,
                       "request_id": "req-abc"}

    def test_text_quotes_awkward_values(self):
        buf = io.StringIO()
        log = StructuredLogger(stream=buf, fmt="text", clock=lambda: 0.0)
        log.warning("note", message='has "quotes" and spaces', n=3)
        line = buf.getvalue()
        assert "WARNING" in line and "note" in line
        assert 'message="has \\"quotes\\" and spaces"' in line
        assert "n=3" in line

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            StructuredLogger(fmt="yaml")

    def test_non_serializable_values_stringified(self):
        buf = io.StringIO()
        log = StructuredLogger(stream=buf, fmt="json")
        log.error("oops", exc=ValueError("boom"))
        assert "boom" in json.loads(buf.getvalue())["exc"]


# ---------------------------------------------------------------------------
# Simulated-time lanes through traced_execute
# ---------------------------------------------------------------------------
def _traced_events(mode, n=4, p=4):
    import dataclasses

    spec = matmul_spec(mode, n, p, engine="micro")
    traced = dataclasses.replace(spec, trace=TraceContext(
        trace_id=new_trace_id()))
    outcome = traced_execute(traced)
    assert len(outcome) == 3
    return outcome


class TestSimLanes:
    def test_untraced_is_a_two_tuple(self):
        spec = matmul_spec("simd", 4, 4, engine="micro")
        outcome = traced_execute(spec)
        assert len(outcome) == 2

    def test_trace_context_does_not_change_identity(self):
        import dataclasses

        spec = matmul_spec("simd", 4, 4, engine="micro")
        traced = dataclasses.replace(spec, trace=TraceContext(
            trace_id=new_trace_id()))
        assert traced.content_hash == spec.content_hash
        assert traced == spec
        assert "trace" not in traced.to_dict()

    def test_payload_identical_traced_or_not(self):
        payload, _ = timed_execute(matmul_spec("simd", 4, 4,
                                               engine="micro"))
        traced_payload, _, events = _traced_events("simd")
        assert traced_payload == payload
        assert events

    def test_simd_waits_absent_from_mimd(self):
        """The exported SIMD timeline shows fetch-queue waits; MIMD not.

        This is the acceptance check of the tracing feature: the
        max-over-PEs instruction time the paper measures in SIMD mode
        appears as explicit ``queue_wait`` spans, and the decoupled
        MIMD run of the same problem has none.
        """
        _, _, simd_events = _traced_events("simd")
        _, _, mimd_events = _traced_events("mimd")
        simd_waits = [e for e in simd_events
                      if e.get("cat") == "wait"
                      and e["name"] == "queue_wait"]
        mimd_waits = [e for e in mimd_events if e.get("cat") == "wait"]
        assert simd_waits, "SIMD run must surface fetch-queue waits"
        assert not mimd_waits, "decoupled MIMD run must not wait"
        # Wait lanes are per-PE.
        threads = {e["thread"] for e in simd_waits}
        assert all(t.endswith("waits") for t in threads)

    def test_exported_doc_validates(self):
        _, _, events = _traced_events("simd")
        doc = export_chrome(events, trace_id=new_trace_id())
        assert validate_chrome_trace(doc) == []
        lanes = lanes_from_chrome(doc)
        pe_lanes = [k for k in lanes if k[1].startswith("PE")]
        assert len(pe_lanes) >= 4

    def test_manual_cycles_carried_in_span_args(self):
        _, _, events = _traced_events("simd")
        instr = [e for e in events if e.get("cat") == "instr"]
        assert instr
        for e in instr:
            assert e["args"]["instructions"] >= 1
            assert e["args"]["manual_cycles"] >= 0

    def test_tracing_job_none_is_transparent(self):
        with tracing_job(None) as state:
            assert state is None


# ---------------------------------------------------------------------------
# Engine integration: tracer lanes and the dedup stats column
# ---------------------------------------------------------------------------
class TestEngineTracing:
    def test_engine_records_job_and_cache_lanes(self, tmp_path):
        from repro.exec import ResultCache

        tracer = Tracer()
        spec = matmul_spec("serial", 4, 1, engine="micro")
        engine = ExecutionEngine(jobs=1,
                                 cache=ResultCache(str(tmp_path)),
                                 tracer=tracer)
        engine.run([spec])
        engine.run([spec])  # warm: cache-hit instant
        doc = tracer.to_chrome()
        assert validate_chrome_trace(doc) == []
        names = [e["name"] for e in doc["traceEvents"]]
        assert any(n.startswith("cache hit") for n in names)
        assert spec.label() in names
        # The computed job carried its sim lanes back into the tracer.
        lanes = lanes_from_chrome(doc)
        assert any(k[1].startswith("PE") for k in lanes)

    def test_stats_table_has_dedup_column(self):
        stats = ExecStats()
        spec = matmul_spec("serial", 4, 1, engine="micro")
        stats.record_dedup(spec)
        stats.record_dedup(spec)
        table = stats.summary_table()
        header, rows = table.splitlines()[1], table.splitlines()[3:]
        assert "dedup" in header
        # dedup renders immediately before resubmits.
        cols = [c.strip() for c in header.split("|")]
        assert cols.index("dedup") == cols.index("resubmits") - 1
        assert stats.dedup == 2


# ---------------------------------------------------------------------------
# Process self-metrics (rendered on each /metrics scrape)
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt
        return self.now


class TestProcessStats:
    def test_collect_populates_the_process_family(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        stats = ProcessStats(registry, clock=clock)
        clock.advance(3.0)
        stats.collect()
        assert registry.value("pasm_process_resident_memory_bytes") > 0
        assert registry.value("pasm_process_uptime_seconds") \
            == pytest.approx(3.0)
        assert registry.total("pasm_process_cpu_seconds_total") > 0

    def test_cpu_counter_is_monotone_across_collections(self):
        registry = MetricsRegistry()
        stats = ProcessStats(registry)
        stats.collect()
        first = registry.total("pasm_process_cpu_seconds_total")
        sum(i * i for i in range(50_000))  # burn a little CPU
        stats.collect()
        assert registry.total("pasm_process_cpu_seconds_total") >= first

    def test_open_fds_reported_where_proc_exists(self):
        import os

        registry = MetricsRegistry()
        ProcessStats(registry).collect()
        if os.path.isdir("/proc/self/fd"):
            assert registry.value("pasm_process_open_fds") > 0
