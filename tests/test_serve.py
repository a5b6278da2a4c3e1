"""Tests for the serving layer: broker semantics and the HTTP service.

The contracts under test are the ones the subsystem exists for:

* **single-flight** — K concurrent submissions of one content hash run
  exactly one simulation (asserted via the engine's own counters);
* **bit-identity** — a payload served over HTTP equals the one the CLI
  engine computes, byte for byte, including whole exhibits;
* **backpressure** — a full admission queue answers 429 + ``Retry-After``
  and the client's jittered backoff recovers;
* **priority lanes** — interactive submissions schedule before sweeps;
* **crash survival** — seeded ``REPRO_CHAOS`` worker crashes are
  resubmitted without failing any request.
"""

import asyncio
import concurrent.futures
import json
import multiprocessing
import pathlib
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ExecError,
    ServiceDrainingError,
)
from repro.exec import ExecutionEngine, SimJobSpec, matmul_spec
from repro.machine import ExecutionMode
from repro.serve import (
    JobBroker,
    ServeClient,
    ServeClientError,
    ServeConfig,
    ServerThread,
    exhibit_key,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def echo_spec(value):
    return SimJobSpec(program="_test", mode="serial", n=1, p=1,
                      engine="micro",
                      params=(("action", "echo"), ("value", value)))


def sleep_spec(value, seconds):
    return SimJobSpec(program="_test", mode="serial", n=1, p=1,
                      engine="micro",
                      params=(("action", "sleep"), ("value", value),
                              ("seconds", seconds)))


def crash_spec(tag):
    return SimJobSpec(program="_test", mode="serial", n=1, p=1,
                      engine="micro",
                      params=(("action", "crash"), ("tag", tag)))


def broker_run(body, **overrides):
    """Run an async test body against a started broker, then drain."""
    overrides.setdefault("jobs", 2)
    overrides.setdefault("no_cache", True)
    config = ServeConfig(port=0, **overrides)

    async def main():
        before = set(multiprocessing.active_children())
        broker = JobBroker(config)
        await broker.start()
        try:
            return await body(broker)
        finally:
            await broker.drain(grace_s=2.0)
            # Drain reaps every pool worker it started: none may outlive
            # it (a stray one blocks interpreter exit, which joins it).
            assert set(multiprocessing.active_children()) <= before

    return asyncio.run(main())


async def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(0.005)


# ---------------------------------------------------------------------------
# Broker: single-flight, memo, disk cache
# ---------------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_identical_submissions_compute_once(self):
        spec = sleep_spec("one-flight", 0.2)

        async def body(broker):
            payloads = await asyncio.gather(
                *[broker.fetch(spec, lane="interactive") for _ in range(8)]
            )
            assert all(p == payloads[0] for p in payloads)
            # Exactly one pool submission, asserted from both the
            # engine's stats and the service counters.
            assert broker.stats.computed == 1
            assert broker.metrics.total("pasm_serve_computed_total") == 1
            assert broker.metrics.value(
                "pasm_serve_submitted_total", outcome="dedup") == 7
            entry = broker.get(spec.content_hash)
            assert entry.waiters == 8

        broker_run(body)

    def test_repeat_after_completion_is_a_memo_hit(self):
        spec = echo_spec("memoized")

        async def body(broker):
            await broker.fetch(spec)
            entry, outcome = await broker.submit(spec=spec)
            assert outcome == "memo"
            assert entry.state == "done"
            assert await asyncio.shield(entry.future) == {"value": "memoized"}
            assert broker.stats.computed == 1

        broker_run(body)

    def test_disk_cache_hit_served_without_touching_pool(self, tmp_path):
        spec = echo_spec("persisted")

        async def warm(broker):
            await broker.fetch(spec)

        broker_run(warm, no_cache=False, cache_dir=str(tmp_path))

        async def cold(broker):
            entry, outcome = await broker.submit(spec=spec)
            assert outcome == "cached"
            assert await asyncio.shield(entry.future) == {"value": "persisted"}
            assert broker.stats.computed == 0
            assert broker.stats.cache_hits == 1
            assert broker.metrics.total("pasm_serve_computed_total") == 0

        broker_run(cold, no_cache=False, cache_dir=str(tmp_path))

    def test_distinct_specs_do_not_coalesce(self):
        async def body(broker):
            a, b = echo_spec("a"), echo_spec("b")
            ra, rb = await asyncio.gather(broker.fetch(a), broker.fetch(b))
            assert ra == {"value": "a"} and rb == {"value": "b"}
            assert broker.stats.computed == 2

        broker_run(body)


# ---------------------------------------------------------------------------
# Broker: admission, lanes, timeouts, drain
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_queue_overflow_raises_backpressure(self):
        async def body(broker):
            await broker.submit(spec=sleep_spec("blocker", 2.0))
            await _wait_until(lambda: broker.in_flight == 1)
            await broker.submit(spec=sleep_spec("q1", 2.0))
            await broker.submit(spec=sleep_spec("q2", 2.0))
            assert broker.queue_depth == 2
            with pytest.raises(BackpressureError) as err:
                await broker.submit(spec=sleep_spec("overflow", 2.0))
            assert err.value.retry_after == broker.config.retry_after_s
            # The refused submission must not leave a placeholder behind.
            assert broker.get(sleep_spec("overflow", 2.0).content_hash) is None

        broker_run(body, jobs=1, queue_limit=2, retry_after_s=3.0,
                   drain_grace_s=0.1)

    def test_internal_fanout_bypasses_admission_bound(self):
        async def body(broker):
            await broker.submit(spec=sleep_spec("blocker", 2.0))
            await _wait_until(lambda: broker.in_flight == 1)
            await broker.submit(spec=sleep_spec("q1", 2.0))
            entry, outcome = await broker.submit(
                spec=sleep_spec("internal", 2.0), internal=True
            )
            assert outcome == "queued"

        broker_run(body, jobs=1, queue_limit=1, drain_grace_s=0.1)

    def test_draining_refuses_new_but_serves_memo(self):
        done = echo_spec("already-done")

        async def body(broker):
            await broker.fetch(done)
            broker.draining = True
            entry, outcome = await broker.submit(spec=done)
            assert outcome == "memo"
            with pytest.raises(ServiceDrainingError):
                await broker.submit(spec=echo_spec("too-late"))

        broker_run(body)

    def test_unknown_lane_rejected(self):
        async def body(broker):
            with pytest.raises(ConfigurationError, match="lane"):
                await broker.submit(spec=echo_spec("x"), lane="express")

        broker_run(body)

    def test_drain_lets_inflight_work_finish(self):
        spec = sleep_spec("drainee", 0.3)

        async def body(broker):
            entry, _ = await broker.submit(spec=spec)
            await broker.drain(grace_s=5.0)
            assert entry.state == "done"
            assert entry.future.result()["value"] == "drainee"

        broker_run(body, drain_grace_s=5.0)

    def test_drain_stops_a_worker_whose_cancel_was_swallowed(self):
        """Python 3.11's ``asyncio.wait_for`` returns the inner result
        instead of raising when it is cancelled just as that result
        lands, so the worker finishes its job normally.  Drain must
        still stop it, not leave it waiting for work forever."""
        async def body(broker):
            async def swallow_cancel(entry):
                try:
                    await asyncio.sleep(0.3)
                except asyncio.CancelledError:
                    pass

            broker._run_entry = swallow_cancel
            await broker.submit(spec=echo_spec("held"))
            await _wait_until(lambda: broker.queue_depth == 0)
            await asyncio.wait_for(broker.drain(grace_s=0.0), timeout=5.0)

        broker_run(body, jobs=1)


class TestScheduling:
    def test_interactive_lane_preempts_sweep(self):
        async def body(broker):
            blocker, _ = await broker.submit(
                spec=sleep_spec("blocker", 0.3), lane="interactive"
            )
            await _wait_until(lambda: broker.in_flight == 1)
            s1, _ = await broker.submit(spec=echo_spec("s1"), lane="sweep")
            s2, _ = await broker.submit(spec=echo_spec("s2"), lane="sweep")
            hot, _ = await broker.submit(spec=echo_spec("hot"),
                                         lane="interactive")
            await asyncio.gather(*(asyncio.shield(e.future)
                                   for e in (blocker, s1, s2, hot)))
            # The interactive job was queued last but scheduled first.
            assert hot.started < s1.started
            assert hot.started < s2.started

        broker_run(body, jobs=1)

    def test_job_timeout_fails_structured(self):
        spec = sleep_spec("laggard", 5.0)

        async def body(broker):
            with pytest.raises(ExecError, match="timeout"):
                await broker.fetch(spec)
            entry = broker.get(spec.content_hash)
            assert entry.state == "failed"
            assert broker.metrics.value(
                "pasm_serve_failed_total", reason="timeout") == 1

        broker_run(body, job_timeout_s=0.2, drain_grace_s=0.1)

    def test_failed_entry_is_retried_by_a_fresh_submission(self):
        spec = sleep_spec("retry-me", 5.0)

        async def body(broker):
            with pytest.raises(ExecError):
                await broker.fetch(spec)
            # The failed entry must not poison future submissions: a
            # fresh one re-runs rather than replaying the failure.
            entry, outcome = await broker.submit(spec=spec)
            assert outcome == "queued"
            assert entry.state in ("queued", "running")

        broker_run(body, job_timeout_s=0.2, drain_grace_s=0.1)


# ---------------------------------------------------------------------------
# Broker: crash survival
# ---------------------------------------------------------------------------
class TestCrashSurvival:
    def test_chaos_crash_resubmitted_without_failing_request(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CHAOS", f"seed=11,crash=1.0,dir={tmp_path / 'chaos'}"
        )

        async def body(broker):
            for i in range(1, 4):
                payload = await broker.fetch(echo_spec(f"chaotic-{i}"))
                assert payload == {"value": f"chaotic-{i}"}
            assert broker.metrics.total("pasm_serve_resubmits_total") == 3
            assert broker.stats.computed == 3

        broker_run(body)

    def test_persistent_crasher_gives_up_with_structured_error(self):
        async def body(broker):
            with pytest.raises(ExecError, match="crashed the worker pool"):
                await broker.fetch(crash_spec("hopeless"))
            # The pool was rebuilt: healthy jobs still execute.
            assert await broker.fetch(echo_spec("survivor")) == {
                "value": "survivor"
            }

        broker_run(body, max_resubmits=1)


# ---------------------------------------------------------------------------
# HTTP service end to end
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def shared_server(tmp_path_factory):
    config = ServeConfig(
        port=0, jobs=2,
        cache_dir=str(tmp_path_factory.mktemp("serve-cache")),
    )
    with ServerThread(config) as server:
        yield server


@pytest.fixture()
def shared_client(shared_server):
    return ServeClient(port=shared_server.port, max_retries=2, timeout=30)


class TestHttpService:
    def test_healthz_reports_service_shape(self, shared_client):
        doc = shared_client.healthz()
        assert doc["status"] == "ok"
        assert doc["api"] == "v1"
        assert doc["pool_jobs"] == 2
        assert doc["cache"] is True
        assert "alerts_firing" not in doc

    def test_served_payload_bit_identical_to_cli_engine(self, shared_client):
        spec = matmul_spec(ExecutionMode.SIMD, 16, 4, engine="macro")
        served = shared_client.run(spec)
        direct = ExecutionEngine(jobs=1).run([spec])[0]
        assert json.dumps(served, sort_keys=True) == json.dumps(
            direct, sort_keys=True)

    def test_submit_then_poll_lifecycle(self, shared_client):
        spec = echo_spec("poll-me")
        doc = shared_client.submit(spec)
        assert doc["job"] == spec.content_hash
        assert doc["location"] == f"/v1/jobs/{spec.content_hash}"
        final = shared_client.status(spec.content_hash, wait=True,
                                     poll_timeout=10)
        assert final["state"] == "done"
        assert final["result"] == {"value": "poll-me"}

    def test_second_submission_reports_hit(self, shared_client):
        spec = echo_spec("hit-twice")
        shared_client.run(spec)
        doc = shared_client.submit(spec, wait=True)
        assert doc["outcome"] in ("memo", "cached", "dedup")
        assert doc["state"] == "done"

    def test_metrics_render_prometheus_text(self, shared_client):
        shared_client.run(echo_spec("metric-fodder"))
        text = shared_client.metrics()
        assert "# TYPE pasm_serve_submitted_total counter" in text
        assert "# TYPE pasm_serve_queue_depth gauge" in text
        assert "# TYPE pasm_serve_job_latency_seconds summary" in text
        assert 'pasm_serve_job_latency_seconds{quantile="0.5"}' in text
        assert 'pasm_serve_job_latency_seconds{quantile="0.95"}' in text
        assert "pasm_serve_cache_hit_ratio" in text
        assert 'pasm_serve_requests_total{method="GET"' in text

    def test_stats_table_served(self, shared_client):
        shared_client.run(echo_spec("stats-fodder"))
        assert "TOTAL" in shared_client.stats()

    def test_malformed_submissions_answer_400(self, shared_client):
        bad = [
            {"spec": {"program": "matmul"}},            # missing fields
            {"spec": {"program": "matmul", "mode": "vliw", "n": 4, "p": 1}},
            {},                                          # neither key
            {"spec": {}, "exhibit": "fig7"},             # both keys
        ]
        for doc in bad:
            reply = shared_client.request("POST", "/v1/jobs", doc=doc)
            assert reply.status == 400, doc
            assert "error" in reply.json()

    def test_unknown_routes_and_methods(self, shared_client):
        for path in ("/v1/nope", "/v1/timeseries", "/v1/alerts"):
            assert shared_client.request("GET", path).status == 404, path
        assert shared_client.request("DELETE", "/healthz").status == 405
        assert shared_client.request(
            "GET", "/v1/jobs/deadbeef").status == 404


# ---------------------------------------------------------------------------
# Handler bugs must land inside the counted path: an exception escaping
# a route handler becomes a 500 that shows up in requests_total, not an
# uninstrumented socket write.
class TestHandlerErrorsAreCounted:
    def test_unhandled_exception_is_a_counted_500(self):
        with ServerThread(ServeConfig(port=0, jobs=1)) as server:
            async def boom(request, trace_id, request_id):
                raise RuntimeError("handler bug")

            server.app._route = boom
            reply = ServeClient(port=server.port, max_retries=0) \
                .request("GET", "/healthz")
            assert reply.status == 500
            body = reply.json()
            assert "RuntimeError" in body["error"]
            assert body["request_id"]
            rendered = server.app.metrics.render()
            assert 'pasm_serve_requests_total{method="GET"' in rendered
            assert 'status="500"} 1' in rendered

    def test_malformed_params_shape_is_a_400(self):
        with ServerThread(ServeConfig(port=0, jobs=1)) as server:
            client = ServeClient(port=server.port, max_retries=0)
            spec = echo_spec("pairs").to_dict()
            spec["params"] = [["action", "echo"], ["value", "pairs"]]
            reply = client.request("POST", "/v1/jobs?wait=1&timeout=30",
                                   doc={"spec": spec})
            assert reply.status in (200, 202)
            spec["params"] = [["action", "echo", "extra"]]
            reply = client.request("POST", "/v1/jobs?wait=1&timeout=30",
                                   doc={"spec": spec})
            assert reply.status == 400
            assert "malformed job spec" in reply.json()["error"]


class TestBackpressureHttp:
    def test_overflow_answers_429_with_retry_after_then_recovers(self):
        config = ServeConfig(port=0, jobs=1, queue_limit=1, no_cache=True,
                             retry_after_s=1.0, drain_grace_s=0.1)
        with ServerThread(config) as server:
            raw = ServeClient(port=server.port, max_retries=0)
            statuses = []
            refusal = None
            for i in range(8):
                body = json.dumps({
                    "spec": sleep_spec(f"flood-{i}", 1.0).to_dict()
                }).encode()
                # Single attempt, no retry loop: inspect the raw refusal.
                reply = raw._request_once("POST", "/v1/jobs", body, 10.0)
                statuses.append(reply.status)
                if reply.status == 429:
                    refusal = reply
            assert 429 in statuses
            assert refusal.headers.get("retry-after") == "1"
            assert "retry_after" in refusal.json()
            # A client with jittered exponential backoff gets through.
            patient = ServeClient(port=server.port, max_retries=10,
                                  backoff_base=0.1, backoff_cap=1.0)
            result = patient.run(echo_spec("patience"), timeout=60)
            assert result == {"value": "patience"}
            assert patient.retries_performed >= 0


# ---------------------------------------------------------------------------
# Acceptance E2E: 32 concurrent fig7 clients, one simulation
# ---------------------------------------------------------------------------
class TestExhibitServing:
    def test_32_concurrent_fig7_requests_compute_once_byte_identical(
            self, tmp_path):
        golden = (GOLDEN_DIR / "fig7.json").read_text()
        config = ServeConfig(port=0, jobs=4, cache_dir=str(tmp_path),
                             queue_limit=256)
        with ServerThread(config) as server:
            def fetch(i):
                client = ServeClient(port=server.port, max_retries=4,
                                     timeout=60)
                return client.exhibit("fig7", timeout=300)

            with concurrent.futures.ThreadPoolExecutor(32) as pool:
                payloads = list(pool.map(fetch, range(32)))
            assert all(p == payloads[0] for p in payloads)
            assert payloads[0] == golden
            client = ServeClient(port=server.port)
            m = client.metrics()
            # 31 of the 32 submissions attached to the in-flight exhibit.
            assert 'pasm_serve_submitted_total{outcome="dedup"} 31' in m
            assert 'quantile="0.95"' in m

    def test_exhibit_key_identity(self):
        assert exhibit_key("fig7", None) == exhibit_key("fig7", None)
        assert exhibit_key("fig7", None) != exhibit_key("fig7", 1)
        assert exhibit_key("fig7", None) != exhibit_key("fig6", None)

    def test_unknown_exhibit_fails_cleanly(self, shared_server):
        client = ServeClient(port=shared_server.port, max_retries=1)
        with pytest.raises(ServeClientError, match="unknown exhibit"):
            client.exhibit("fig99", timeout=30)


# ---------------------------------------------------------------------------
# Property: interleaved distinct specs never cross-contaminate
# ---------------------------------------------------------------------------
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.integers(min_value=0, max_value=10 ** 9),
                       min_size=2, max_size=8, unique=True),
       lanes=st.lists(st.sampled_from(("interactive", "sweep")),
                      min_size=8, max_size=8))
def test_interleaved_distinct_specs_never_cross_contaminate(
        shared_server, values, lanes):
    """Concurrent distinct submissions each get *their own* payload back
    — no future mix-ups, no cache key collisions, on any lane mix."""
    def fetch(args):
        value, lane = args
        client = ServeClient(port=shared_server.port, max_retries=4,
                             timeout=30)
        return value, client.run(echo_spec(value), lane=lane, timeout=60)

    jobs = [(v, lanes[i % len(lanes)]) for i, v in enumerate(values)]
    with concurrent.futures.ThreadPoolExecutor(len(jobs)) as pool:
        for value, payload in pool.map(fetch, jobs):
            assert payload == {"value": value}


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------
class TestServeCli:
    def test_bad_flags_die_cleanly(self, capsys):
        from repro.serve.app import main
        with pytest.raises(SystemExit) as err:
            main(["--jobs", "banana"])
        assert err.value.code == 2
        assert "banana" in capsys.readouterr().err

    def test_bad_env_port_dies_cleanly(self, monkeypatch, capsys):
        from repro.serve.app import main
        monkeypatch.setenv("REPRO_SERVE_PORT", "eighty")
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
        assert "REPRO_SERVE_PORT" in capsys.readouterr().err
