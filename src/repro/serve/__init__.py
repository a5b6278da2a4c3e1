"""Simulation-as-a-service: the paper's experiments behind an API.

The ROADMAP's north star is a system that serves heavy traffic, and a
reproduction server has exactly the shape of an inference-serving
stack: requests describe deterministic, content-addressed work
(:class:`~repro.exec.SimJobSpec`), so identical concurrent requests
should coalesce into one execution, warm results should be served from
cache without touching the pool, and overload should shed at admission
instead of queueing unboundedly.

Layout::

    config  — ServeConfig (every knob, one frozen dataclass)
    http    — minimal HTTP/1.1 over asyncio streams (stdlib only)
    broker  — single-flight dedup, bounded queue, lanes, crash recovery
    app     — routes, SIGTERM drain, `pasm-serve` entry point
    client  — sync client: retries, backoff + jitter, optional ring
    ring    — consistent hashing of content hashes onto instances
    router  — `pasm-router`: fleet front door, failover, fleet views

Fleet mode: N instances share one content-addressed result store
(:class:`~repro.exec.SharedStore`, ``$REPRO_CACHE_DIR``), and the router
consistent-hashes job content hashes onto them so single-flight dedup
collapses identical submissions fleet-wide.

The broker reuses :mod:`repro.exec`'s pool worker and result cache
unchanged, so a payload served over HTTP is bit-identical to one
produced by ``pasm-experiments`` — including whole exhibits
(``GET /v1/exhibits/fig7?wait=1`` returns the same bytes as
``results/fig7.json``).

See ``docs/SERVING.md`` for the endpoint and backpressure contract.
"""

from repro.errors import BackpressureError, ServeError, ServiceDrainingError
from repro.serve.app import API_VERSION, ServeApp, ServerThread
from repro.serve.broker import BrokerEngine, JobBroker, JobEntry, exhibit_key
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.config import DEFAULT_PORT, LANES, PORT_ENV, ServeConfig
from repro.serve.ring import DEFAULT_REPLICAS, HashRing, parse_instance
from repro.serve.router import (
    DEFAULT_ROUTER_PORT,
    RouterApp,
    RouterConfig,
    RouterThread,
    merge_prometheus,
    route_key,
)

__all__ = [
    "API_VERSION",
    "BackpressureError",
    "BrokerEngine",
    "DEFAULT_PORT",
    "DEFAULT_REPLICAS",
    "DEFAULT_ROUTER_PORT",
    "HashRing",
    "JobBroker",
    "JobEntry",
    "LANES",
    "PORT_ENV",
    "RouterApp",
    "RouterConfig",
    "RouterThread",
    "ServeApp",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServeError",
    "ServerThread",
    "ServiceDrainingError",
    "exhibit_key",
    "merge_prometheus",
    "parse_instance",
    "route_key",
]
