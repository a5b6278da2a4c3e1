"""The fleet layer: hash ring, router proxying, ring-aware client.

Placement is the property everything hangs on — every party (router,
multi-URL client) that knows the instance list must agree where each
content hash lives, because fleet-wide single-flight dedup *is* that
agreement.  The e2e tests run a real two-instance fleet behind a real
router (all in-process threads, ephemeral ports) and assert the
contracts end to end: same key -> same instance, dedup through the
hop, dead-instance failover, correlation headers surviving the hop,
and aggregated fleet views.
"""

import json
import time

import pytest

from repro.errors import ConfigurationError
from repro.exec import SimJobSpec
from repro.serve import (
    HashRing,
    RouterConfig,
    RouterThread,
    ServeClient,
    ServeConfig,
    ServerThread,
    exhibit_key,
    merge_prometheus,
    parse_instance,
    route_key,
)
from repro.serve.http import Request


def echo_spec(value):
    return SimJobSpec(program="_test", mode="serial", n=1, p=1,
                      engine="micro",
                      params=(("action", "echo"), ("value", value)))


# ---------------------------------------------------------------------------
# HashRing
class TestHashRing:
    def test_mapping_is_deterministic_and_order_free(self):
        a = HashRing(["http://h:1", "http://h:2", "http://h:3"])
        b = HashRing(["http://h:3", "http://h:1", "http://h:2"])
        for i in range(200):
            assert a.node_for(f"key-{i}") == b.node_for(f"key-{i}")

    def test_load_spreads_over_instances(self):
        ring = HashRing([f"http://h:{p}" for p in range(1, 5)])
        counts = {node: 0 for node in ring.nodes}
        for i in range(4000):
            counts[ring.node_for(f"key-{i}")] += 1
        assert min(counts.values()) > 0
        # Virtual nodes keep the spread sane: no instance owns more
        # than half of a 4-instance keyspace.
        assert max(counts.values()) < 2000

    def test_removing_a_node_only_remaps_its_keys(self):
        nodes = [f"http://h:{p}" for p in range(1, 5)]
        full = HashRing(nodes)
        reduced = HashRing(nodes[:-1])
        moved = 0
        for i in range(2000):
            key = f"key-{i}"
            before = full.node_for(key)
            after = reduced.node_for(key)
            if before == nodes[-1]:
                assert after != nodes[-1]  # its keys must move
            else:
                assert after == before  # everyone else stays put
                continue
            moved += 1
        # ~1/4 of the keyspace lived on the removed node.
        assert 0 < moved < 1000

    def test_nodes_for_walks_every_instance_once(self):
        ring = HashRing([f"http://h:{p}" for p in range(1, 5)])
        order = list(ring.nodes_for("some-key"))
        assert sorted(order) == sorted(ring.nodes)
        assert order[0] == ring.node_for("some-key")

    def test_duplicates_collapse_and_empty_rejects(self):
        assert len(HashRing(["http://h:1", "http://h:1"])) == 1
        with pytest.raises(ConfigurationError):
            HashRing([])
        with pytest.raises(ConfigurationError):
            HashRing(["http://h:1"], replicas=0)


class TestParseInstance:
    def test_normalizes_to_one_identity(self):
        expect = ("http://box:8137", "box", 8137)
        for text in ("http://box:8137", "box:8137", "http://box:8137/",
                     "https://box:8137", " box:8137 "):
            assert parse_instance(text) == expect

    def test_rejects_garbage(self):
        for text in ("", "box", "box:", ":8137", "box:notaport"):
            with pytest.raises(ConfigurationError):
                parse_instance(text)


# ---------------------------------------------------------------------------
# Routing keys: the router must derive the broker's own job key
class TestRouteKey:
    def _post(self, doc):
        return Request(method="POST", path="/v1/jobs", query={},
                       headers={}, body=json.dumps(doc).encode())

    def test_submission_routes_by_spec_content_hash(self):
        spec = echo_spec("route-me")
        request = self._post({"spec": spec.to_dict(), "lane": "sweep"})
        assert route_key(request) == spec.content_hash

    def test_exhibit_submission_routes_by_exhibit_key(self):
        request = self._post({"exhibit": "fig7", "seed": 3})
        assert route_key(request) == exhibit_key("fig7", 3)

    def test_job_paths_carry_the_key_literally(self):
        key = "a" * 64
        for path in (f"/v1/jobs/{key}", f"/v1/jobs/{key}/trace"):
            request = Request(method="GET", path=path, query={},
                              headers={})
            assert route_key(request) == key

    def test_exhibit_get_matches_exhibit_submission(self):
        request = Request(method="GET", path="/v1/exhibits/fig7",
                          query={"seed": "3"}, headers={})
        assert route_key(request) == exhibit_key("fig7", 3)
        bare = Request(method="GET", path="/v1/exhibits/fig7",
                       query={}, headers={})
        assert route_key(bare) == exhibit_key("fig7", None)

    def test_malformed_bodies_route_stably(self):
        bodies = [b"{not json", b"{other garbage",
                  b'{"spec": "x"}', b'{"spec": [1, 2]}']
        keys = []
        for body in bodies:
            bad = Request(method="POST", path="/v1/jobs", query={},
                          headers={}, body=body)
            assert route_key(bad) == route_key(bad), body
            keys.append(route_key(bad))
        # ...and differently from other garbage.
        assert len(set(keys)) == len(bodies)


# ---------------------------------------------------------------------------
# Prometheus aggregation
class TestMergePrometheus:
    def test_sums_matching_series_and_keeps_meta_once(self):
        a = ("# HELP x Things\n# TYPE x counter\n"
             'x{lane="a"} 3\nx{lane="b"} 1\n')
        b = ("# HELP x Things\n# TYPE x counter\n"
             'x{lane="a"} 4\n')
        merged = merge_prometheus([a, b])
        assert 'x{lane="a"} 7' in merged
        assert 'x{lane="b"} 1' in merged
        assert merged.count("# HELP x Things") == 1

    def test_ratio_gauges_average_instead_of_sum(self):
        pages = ["cache_hit_ratio 0.5\n", "cache_hit_ratio 1\n"]
        assert "cache_hit_ratio 0.75" in merge_prometheus(pages)

    def test_single_instance_page_passes_through(self):
        page = "hit_ratio 0.25\nrequests 9\n"
        merged = merge_prometheus([page])
        assert "hit_ratio 0.25" in merged
        assert "requests 9" in merged


# ---------------------------------------------------------------------------
# Config
class TestRouterConfig:
    def test_needs_instances(self):
        with pytest.raises(ConfigurationError, match="--instance"):
            RouterConfig(instances=())

    def test_rejects_nonpositive_timeouts(self):
        with pytest.raises(ConfigurationError, match="cooldown_s"):
            RouterConfig(instances=("http://h:1",), cooldown_s=0)


# ---------------------------------------------------------------------------
# End to end: a real two-instance fleet behind a real router
@pytest.fixture(scope="class")
def fleet(request, tmp_path_factory):
    """Two pasm-serve instances sharing one store, plus the router."""
    store = tmp_path_factory.mktemp("fleet-store")
    servers = [
        ServerThread(ServeConfig(port=0, jobs=1, cache_dir=str(store),
                                 instance=name))
        for name in ("alpha", "beta")
    ]
    for server in servers:
        server.start()
    bases = [f"http://127.0.0.1:{s.port}" for s in servers]
    router = RouterThread(RouterConfig(instances=tuple(bases), port=0,
                                       upstream_timeout_s=60.0))
    router.start()
    request.cls.servers = servers
    request.cls.bases = bases
    request.cls.router = router
    yield
    router.stop()
    for server in servers:
        server.stop()


@pytest.mark.usefixtures("fleet")
class TestFleetEndToEnd:
    servers: list
    bases: list
    router: RouterThread

    def client(self, **kwargs):
        return ServeClient(port=self.router.port, **kwargs)

    def test_identical_jobs_land_on_one_instance(self):
        client = self.client()
        spec = echo_spec("placement")
        owner = self.router.app.ring.node_for(spec.content_hash)
        seen = set()
        for _ in range(3):
            doc = client.submit(spec, wait=True)
            assert doc["state"] == "done"
            reply = client.request(
                "GET", f"/v1/jobs/{spec.content_hash}")
            seen.add(reply.headers["x-pasm-instance"])
        assert seen == {owner}

    def test_second_submission_dedups_through_the_router(self):
        client = self.client()
        spec = echo_spec("dedup-hop")
        first = client.submit(spec, wait=True)
        second = client.submit(spec, wait=True)
        assert first["state"] == second["state"] == "done"
        # In-flight dedup, the in-memory registry or the shared store —
        # any of them proves the second submission did not recompute.
        assert second["outcome"] in ("dedup", "memo", "cached")
        assert second["result"] == first["result"]

    def test_shared_store_serves_warm_results_cross_instance(self):
        spec = echo_spec("cross-instance-warmth")
        owner = self.router.app.ring.node_for(spec.content_hash)
        other = next(b for b in self.bases if b != owner)
        # Compute on the owner (via the router), then ask the *other*
        # instance directly: the shared store must answer "cached"
        # without a ring hop or a recompute.
        assert self.client().submit(spec, wait=True)["state"] == "done"
        _, host, port = parse_instance(other)
        direct = ServeClient(host, port)
        doc = direct.submit(spec, wait=True)
        assert doc["state"] == "done"
        assert doc["outcome"] == "cached"

    def test_malformed_spec_is_the_instances_400(self):
        client = self.client(max_retries=0)
        for spec in ("x", [1, 2], 3):
            reply = client.request("POST", "/v1/jobs", doc={"spec": spec})
            assert reply.status == 400, spec
            assert reply.json()["error"].startswith("malformed job spec")
            assert reply.headers["x-pasm-instance"] in self.bases

    def test_correlation_survives_the_hop(self):
        client = self.client(trace=True)
        reply = client.request("GET", "/healthz")
        assert reply.request_id() == client.last_request_id
        assert reply.headers["x-request-id"] == client.last_request_id

    def test_fleet_healthz_reports_every_instance(self):
        doc = self.client().healthz()
        assert doc["status"] == "ok"
        assert set(doc["instances"]) == set(self.bases)
        names = {doc["instances"][b]["instance"] for b in self.bases}
        assert names == {"alpha", "beta"}
        assert doc["ring"] == {"instances": 2, "replicas": 64}

    def test_fleet_metrics_aggregate_the_instances(self):
        client = self.client()
        client.submit(echo_spec("metrics-fodder"), wait=True)
        page = client.metrics()
        assert "pasm_router_requests_total" in page
        assert "pasm_router_instances 2" in page
        # Instance pages are merged in (summed), not replaced.
        assert "pasm_serve_submitted_total" in page

    def test_fleet_stats_concatenate_per_instance(self):
        text = self.client().stats()
        for base in self.bases:
            assert f"== {base} ==" in text

    def test_ring_client_agrees_with_router_placement(self):
        client = ServeClient(base_urls=self.bases)
        for i in range(20):
            key = echo_spec(f"agree-{i}").content_hash
            owner = self.router.app.ring.node_for(key)
            assert client._targets(key)[0] == parse_instance(owner)[1:]

    def test_ring_client_runs_jobs_without_the_router(self):
        client = ServeClient(base_urls=self.bases)
        spec = echo_spec("client-direct")
        assert client.run(spec)["value"] == "client-direct"
        # The job lives on the ring owner, findable by any party.
        owner = self.router.app.ring.node_for(spec.content_hash)
        _, host, port = parse_instance(owner)
        doc = ServeClient(host, port).status(spec.content_hash)
        assert doc["state"] == "done"


# ---------------------------------------------------------------------------
# Failover: a dead instance is routed around
class TestFailover:
    def test_router_and_ring_client_survive_a_dead_instance(self, tmp_path):
        config = ServeConfig(port=0, jobs=1, cache_dir=str(tmp_path))
        with ServerThread(config) as alive:
            base_alive = f"http://127.0.0.1:{alive.port}"
            with ServerThread(config.with_overrides()) as doomed:
                base_doomed = f"http://127.0.0.1:{doomed.port}"
                bases = (base_alive, base_doomed)
                router = RouterThread(RouterConfig(
                    instances=bases, port=0, upstream_timeout_s=30.0,
                    cooldown_s=0.2,
                ))
                router.start()
                try:
                    doomed.stop()
                    # Every key — including those owned by the dead
                    # instance — must still be served, by the survivor.
                    via_router = ServeClient(port=router.port)
                    for i in range(4):
                        spec = echo_spec(f"failover-{i}")
                        reply = via_router.request(
                            "POST", "/v1/jobs?wait=1&timeout=30",
                            doc={"spec": spec.to_dict()},
                        )
                        assert reply.status == 200
                        assert (reply.headers["x-pasm-instance"]
                                == base_alive)
                    health = via_router.healthz()
                    assert health["status"] == "degraded"
                    doomed_doc = health["instances"][base_doomed]
                    assert doomed_doc["status"] == "unreachable"
                    metrics = via_router.metrics()
                    assert "pasm_router_failovers_total" in metrics
                    # The ring-aware client walks the same failover
                    # order on its own.
                    direct = ServeClient(base_urls=list(bases),
                                         max_retries=3)
                    for i in range(4):
                        payload = direct.run(echo_spec(f"direct-{i}"))
                        assert payload["value"] == f"direct-{i}"
                finally:
                    router.stop()

    def test_whole_fleet_down_is_503_with_retry_after(self):
        # Port 1 on localhost: nothing listens there.
        router = RouterThread(RouterConfig(
            instances=("http://127.0.0.1:1",), upstream_timeout_s=5.0,
            retry_after_s=2.0, port=0,
        ))
        router.start()
        try:
            client = ServeClient(port=router.port, max_retries=0)
            spec = echo_spec("nobody-home")
            with pytest.raises(Exception) as err:
                client.submit(spec)
            assert "503" in str(err.value) or "refused" in str(err.value)
        finally:
            router.stop()
