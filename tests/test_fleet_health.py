"""Acceptance: the fleet health layer end to end.

A real two-instance fleet behind a real router, sampled fast: the
timeseries endpoints fill and stay monotone, induced queue saturation
flips the error-ratio SLO to firing, the page produces a
flight-recorder bundle that contains the offending (shed) request's
correlation ID, and ``pasm-top --once`` renders the whole thing.
"""

import glob
import json
import time
import urllib.error
import urllib.request
import uuid

import pytest

from repro.exec import SimJobSpec
from repro.serve import RouterConfig, RouterThread, ServeConfig, ServerThread
from repro.tools.top import main as top_main

#: Fast enough that both SLO windows fill within a few seconds of test.
SAMPLE_S = 0.1
FAST_WINDOW_S = 0.8
SLOW_WINDOW_S = 2.5


def echo_spec(value):
    return SimJobSpec(program="_test", mode="serial", n=1, p=1,
                      engine="micro",
                      params=(("action", "echo"), ("value", value)))


def sleep_spec(value, seconds, release):
    """Holds a worker for ``seconds`` or until ``release`` exists."""
    return SimJobSpec(program="_test", mode="serial", n=1, p=1,
                      engine="micro",
                      params=(("action", "sleep"), ("value", value),
                              ("seconds", seconds),
                              ("release", str(release))))


def get_json(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as reply:
        return json.loads(reply.read())


def post_job(base, spec, *, request_id=None, timeout=10.0):
    """POST one submission; returns (status, reply-headers, body-doc)."""
    request = urllib.request.Request(
        f"{base}/v1/jobs",
        data=json.dumps({"spec": spec.to_dict()}).encode(),
        headers={"Content-Type": "application/json",
                 **({"X-Request-ID": request_id} if request_id else {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, dict(reply.headers), json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        return exc.code, dict(exc.headers), json.loads(body or b"{}")


@pytest.fixture(scope="class")
def fleet(request, tmp_path_factory):
    """Two fast-sampling instances + router, recorder dirs per instance."""
    recorder_dirs = []
    servers = []
    for name in ("alpha", "beta"):
        rec_dir = tmp_path_factory.mktemp(f"flightrec-{name}")
        recorder_dirs.append(str(rec_dir))
        servers.append(ServerThread(ServeConfig(
            port=0, jobs=1, queue_limit=2, instance=name,
            no_cache=True,  # warm hits would bypass the queue entirely
            sample_interval_s=SAMPLE_S,
            heartbeat_interval_s=0.0,
            slo_fast_window_s=FAST_WINDOW_S,
            slo_slow_window_s=SLOW_WINDOW_S,
            slo_resolve_after=2,
            recorder_dir=str(rec_dir),
        )))
    for server in servers:
        server.start()
    bases = [f"http://127.0.0.1:{s.port}" for s in servers]
    router = RouterThread(RouterConfig(
        instances=tuple(bases), port=0, upstream_timeout_s=60.0,
        sample_interval_s=SAMPLE_S,
    ))
    router.start()
    request.cls.servers = servers
    request.cls.bases = bases
    request.cls.recorder_dirs = recorder_dirs
    request.cls.router = router
    request.cls.router_base = f"http://127.0.0.1:{router.port}"
    yield
    router.stop()
    for server in servers:
        server.stop()


@pytest.fixture
def hog_release(tmp_path):
    """Release sentinel for a ``sleep_spec`` hog, touched when the test
    ends so the fleet's drain does not wait the hog out."""
    release = tmp_path / "release-hog"
    yield release
    release.touch()


@pytest.mark.usefixtures("fleet")
class TestFleetHealth:
    servers: list
    bases: list
    recorder_dirs: list
    router: RouterThread
    router_base: str

    # -- timeseries --------------------------------------------------
    def test_instance_timeseries_fills_and_stays_monotone(self):
        post_job(self.bases[0], echo_spec("warm-the-counters"))
        deadline = time.time() + 10.0
        doc = {}
        while time.time() < deadline:
            doc = get_json(f"{self.bases[0]}/v1/timeseries")
            if doc["samples_taken"] >= 5 and any(
                    k.startswith("pasm_serve_requests_total")
                    for k in doc["series"]):
                break
            time.sleep(0.2)
        assert doc["samples_taken"] >= 5
        assert doc["interval_s"] == SAMPLE_S
        assert doc["instance"] == "alpha"
        series = doc["series"]
        assert series, "sampler produced no series"
        assert any(k.startswith("pasm_serve_requests_total")
                   for k in series)
        assert any(k.startswith("pasm_process_") for k in series)
        for key, entry in series.items():
            stamps = [t for t, _ in entry["points"]]
            assert stamps == sorted(stamps), f"{key} not monotone"

    def test_since_filter_and_bad_since(self):
        doc = get_json(
            f"{self.bases[0]}/v1/timeseries?since={time.time() + 3600:.0f}")
        assert all(not entry["points"]
                   for entry in doc["series"].values())
        status, _, _ = post_job(self.bases[0], echo_spec("x"))  # sanity
        assert status in (200, 202, 429)
        with pytest.raises(urllib.error.HTTPError) as err:
            get_json(f"{self.bases[0]}/v1/timeseries?since=yesterday")
        assert err.value.code == 400

    def test_router_aggregates_per_instance_and_fleet(self):
        deadline = time.time() + 10.0
        doc = {}
        while time.time() < deadline:
            doc = get_json(f"{self.router_base}/v1/timeseries")
            if doc["fleet"]["instances"] == 2 and doc["fleet"]["series"]:
                break
            time.sleep(0.2)
        assert doc["fleet"]["instances"] == 2
        assert set(doc["instances"]) == set(self.bases)
        for base in self.bases:
            assert doc["instances"][base]["series"], f"{base} empty"
        # The fleet view sums process metrics across both instances.
        fleet_keys = doc["fleet"]["series"]
        assert any(k.startswith("pasm_process_uptime_seconds")
                   for k in fleet_keys)
        # The router contributes its own series under a separate key.
        assert doc["router"]["series"]
        assert any(k.startswith("pasm_router_")
                   for k in doc["router"]["series"])

    # -- the incident ------------------------------------------------
    def test_saturation_fires_slo_with_bundle_and_correlation_id(
            self, hog_release):
        base = self.bases[1]
        rec_dir = self.recorder_dirs[1]
        salt = uuid.uuid4().hex[:8]
        shed_id = f"req-e2e-shed-{salt}"
        # Occupy the single worker, then flood distinct submissions:
        # queue_limit=2 makes everything past the first few shed 429.
        post_job(base, sleep_spec(f"hog-{salt}", 8.0, hog_release))
        sheds = 0
        alerts = {}
        deadline = time.time() + 20.0
        i = 0
        while time.time() < deadline:
            status, headers, _ = post_job(
                base, echo_spec(f"flood-{salt}-{i}"),
                request_id=f"{shed_id}-{i}" if sheds == 0 else None)
            i += 1
            if status == 429:
                if sheds == 0:
                    shed_id = headers.get("X-Request-ID",
                                          f"{shed_id}-{i - 1}")
                sheds += 1
            alerts = get_json(f"{base}/v1/alerts")
            if alerts["firing"]:
                break
            time.sleep(0.05)
        assert sheds > 0, "flood never produced a 429"
        assert alerts["firing"] >= 1
        firing = [a for a in alerts["alerts"] if a["state"] == "firing"]
        assert any(a["slo"] in ("error-ratio", "queue-depth")
                   for a in firing)

        # The page dumped a flight-recorder bundle...
        deadline = time.time() + 10.0
        bundles = []
        while time.time() < deadline and not bundles:
            bundles = glob.glob(f"{rec_dir}/flightrec-*.json")
            time.sleep(0.1)
        assert bundles, "SLO page produced no incident bundle"
        merged = []
        for path in bundles:
            doc = json.loads(open(path).read())
            assert doc["bundle"] == "pasm-flight-recorder"
            assert doc["reason"].startswith("slo-")
            assert doc["instance"] == "beta"
            merged.extend(doc["events"])
        # ...whose events carry the shed request's correlation ID.
        shed_events = [e for e in merged if e.get("kind") == "shed"]
        assert shed_events, "no shed events in the bundle"
        assert any(e.get("request_id") == shed_id for e in merged), (
            f"correlation id {shed_id} not in bundle events")

        # The router's fleet alert view sees the same page.
        fleet_alerts = get_json(f"{self.router_base}/v1/alerts")
        assert fleet_alerts["firing_count"] >= 1
        assert any(a["instance"] == base for a in fleet_alerts["firing"])

    # -- pasm-top ----------------------------------------------------
    def test_pasm_top_once_renders_the_fleet(self, capsys):
        assert top_main(["--once", self.router_base]) == 0
        out = capsys.readouterr().out
        assert "pasm-top" in out
        assert "req/s" in out and "p95 lat" in out and "queue" in out
        assert "instances:" in out
        for base in self.bases:
            assert base in out

    def test_pasm_top_once_against_one_instance(self, capsys):
        assert top_main(["--once", self.bases[0]]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "req/s" in out

    # -- satellites --------------------------------------------------
    def test_healthz_reports_alert_count(self):
        doc = get_json(f"{self.bases[0]}/healthz")
        assert "alerts_firing" in doc

    def test_sigquit_dump_path_forces_a_bundle(self):
        app = self.servers[0].app
        path = app.dump_incident("sigquit", force=True)
        assert path is not None
        doc = json.loads(open(path).read())
        assert doc["reason"] == "sigquit"
        assert doc["context"]["instance"] == "alpha"
        assert "alerts" in doc["context"]

    def test_heartbeat_emits_one_structured_line(self, capfd):
        self.servers[0].app.heartbeat()
        err = capfd.readouterr().err
        assert "heartbeat" in err
        assert "queue_depth=" in err and "cache_hit_ratio=" in err


# ---------------------------------------------------------------------------
# Handler bugs must land inside the counted path: an exception escaping
# a route handler becomes a 500 that shows up in requests_total (and
# therefore the error-ratio SLO), not an uninstrumented socket write.
class TestHandlerErrorsAreCounted:
    def test_unhandled_exception_is_a_counted_500(self):
        config = ServeConfig(port=0, jobs=1, sample_interval_s=0.0,
                             heartbeat_interval_s=0.0)
        with ServerThread(config) as server:
            base = f"http://127.0.0.1:{server.port}"

            async def boom(request, trace_id, request_id):
                raise RuntimeError("handler bug")

            server.app._route = boom
            with pytest.raises(urllib.error.HTTPError) as err:
                get_json(f"{base}/healthz")
            assert err.value.code == 500
            body = json.loads(err.value.read())
            assert "RuntimeError" in body["error"]
            assert body["request_id"]
            rendered = server.app.metrics.render()
            assert 'pasm_serve_requests_total{method="GET"' in rendered
            assert 'status="500"} 1' in rendered
            events = [e for e in server.app.recorder.snapshot()
                      if e.get("kind") == "request"]
            assert events and events[-1]["status"] == 500

    def test_malformed_params_shape_is_a_400(self):
        config = ServeConfig(port=0, jobs=1, sample_interval_s=0.0,
                             heartbeat_interval_s=0.0)
        with ServerThread(config) as server:
            base = f"http://127.0.0.1:{server.port}"
            spec = echo_spec("pairs").to_dict()
            spec["params"] = [["action", "echo"], ["value", "pairs"]]
            status, _, body = post_job_raw(base, spec)
            assert status in (200, 202)
            spec["params"] = [["action", "echo", "extra"]]
            status, _, body = post_job_raw(base, spec)
            assert status == 400
            assert "malformed job spec" in body["error"]


def post_job_raw(base, spec_dict, timeout=10.0):
    request = urllib.request.Request(
        f"{base}/v1/jobs?wait=1&timeout=30",
        data=json.dumps({"spec": spec_dict}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, dict(reply.headers), json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        return exc.code, dict(exc.headers), json.loads(body or b"{}")


# ---------------------------------------------------------------------------
# Sampling disabled: endpoints 404, no sampler task, no per-request cost
class TestSamplingDisabled:
    def test_endpoints_answer_404_and_top_explains(self, capsys):
        config = ServeConfig(port=0, jobs=1, sample_interval_s=0.0,
                             heartbeat_interval_s=0.0)
        with ServerThread(config) as server:
            base = f"http://127.0.0.1:{server.port}"
            for path in ("/v1/timeseries", "/v1/alerts"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    get_json(f"{base}{path}")
                assert err.value.code == 404
            assert server.app.timeseries is None
            assert server.app.slo is None
            assert server.app._sampler is None
            assert top_main(["--once", base]) == 0
            assert "sampling is disabled" in capsys.readouterr().out
