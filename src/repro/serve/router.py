"""``pasm-router``: consistent-hash front door for a ``pasm-serve`` fleet.

A deliberately thin asyncio reverse proxy.  It owns no jobs, no pool
and no cache — it owns the *placement decision*: every job-shaped
request is mapped by its content hash onto the instance ring
(:class:`~repro.serve.ring.HashRing`), so identical submissions from
any number of clients land on the same ``pasm-serve`` process, where
the broker's single-flight dedup collapses them into one computation.
Combined with the shared result store (:mod:`repro.exec.store`), that
makes dedup a *fleet-wide* property: in-flight duplicates meet on one
instance, finished duplicates meet in the store.

Behaviour:

* **bodies are forwarded untouched** — the router parses a submission
  body only to derive its routing key (the same
  :class:`~repro.exec.SimJobSpec` content hash or exhibit key the
  broker will derive), then forwards the original bytes, so payloads
  and exhibit responses stay byte-identical through the hop;
* **correlation survives the hop** — ``X-Request-ID`` is forwarded
  (minted when absent) and a client ``traceparent`` keeps its trace ID
  with a fresh span ID, exactly like the service's own handling;
* **a dead instance is routed around** — a transport error or timeout
  advances the ring to the next distinct instance and puts the dead
  one on a cooldown; only when *every* instance fails does the client
  see a 503 + ``Retry-After``;
* **fleet views** — ``GET /metrics`` sums every instance's Prometheus
  page (``*_ratio`` gauges are averaged, weighted by each instance's
  traffic) plus the router's own counters; ``GET /v1/stats``
  concatenates per-instance tables; ``GET /healthz`` reports every
  instance.

Run it::

    pasm-router --port 8138 \\
        --instance http://127.0.0.1:8137 --instance http://127.0.0.1:8237
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import urlencode

from repro.errors import ConfigurationError, ReproError
from repro.exec import SimJobSpec
from repro.obs.ids import (
    format_traceparent,
    new_request_id,
    new_span_id,
    parse_traceparent,
)
from repro.obs.jsonlog import StructuredLogger
from repro.obs.procstats import ProcessStats
from repro.perf import MetricsRegistry
from repro.serve.broker import exhibit_key
from repro.serve.http import HttpServer, Request, Response, send_request
from repro.serve.ring import DEFAULT_REPLICAS, HashRing, parse_instance

#: Default router port (one above the serve default).
DEFAULT_ROUTER_PORT = 8138

#: Environment variable overriding the default router port.
ROUTER_PORT_ENV = "REPRO_ROUTER_PORT"

#: Request headers that must not cross the proxy hop.
_HOP_HEADERS = frozenset((
    "connection", "keep-alive", "host", "content-length",
    "transfer-encoding", "te", "upgrade", "proxy-connection",
))

#: Response headers the router re-emits itself.
_SKIP_REPLY_HEADERS = frozenset((
    "connection", "content-length", "content-type", "transfer-encoding",
))


def default_router_port() -> int:
    env = os.environ.get(ROUTER_PORT_ENV, "").strip()
    if not env:
        return DEFAULT_ROUTER_PORT
    try:
        return int(env)
    except ValueError:
        raise ConfigurationError(
            f"invalid {ROUTER_PORT_ENV} value {env!r}: must be an "
            "integer port"
        ) from None


@dataclass(frozen=True)
class RouterConfig:
    """Every knob of the fleet router.

    Attributes
    ----------
    instances:
        Base URLs of the ``pasm-serve`` fleet.  The *set* of instances
        defines the ring — order is irrelevant, and every router (or
        ring-aware client) given the same set derives the same
        placement.
    replicas:
        Virtual nodes per instance on the hash ring.
    upstream_timeout_s:
        Per-forward ceiling.  Must comfortably exceed the longest
        ``?wait=1`` long-poll the fleet serves.
    cooldown_s:
        How long a dead instance is skipped before being probed again.
    retry_after_s:
        ``Retry-After`` hint when the whole fleet is unreachable.
    """

    instances: tuple[str, ...]
    host: str = "127.0.0.1"
    port: int = field(default_factory=default_router_port)
    replicas: int = DEFAULT_REPLICAS
    upstream_timeout_s: float = 300.0
    cooldown_s: float = 2.0
    retry_after_s: float = 1.0
    log_format: str = "text"

    def __post_init__(self) -> None:
        if not self.instances:
            raise ConfigurationError(
                "the router needs at least one --instance"
            )
        for name in ("upstream_timeout_s", "cooldown_s", "retry_after_s"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )


def route_key(request: Request) -> str:
    """The placement key of one request — the broker's own job key.

    ``POST /v1/jobs`` bodies are parsed (not modified) to compute the
    spec's content hash or the exhibit key; job-status paths carry the
    key literally; exhibit paths hash ``(name, seed)`` exactly like
    :func:`repro.serve.broker.exhibit_key`.  Anything unparseable is
    routed by a hash of its raw bytes — stably, to an instance that
    will answer with the right 4xx.
    """
    path = request.path.rstrip("/") or "/"
    try:
        if path == "/v1/jobs" and request.method == "POST":
            doc = request.json()
            if isinstance(doc, dict):
                if "spec" in doc and "exhibit" not in doc:
                    return SimJobSpec.from_dict(doc["spec"]).content_hash
                if "exhibit" in doc:
                    seed = doc.get("seed")
                    return exhibit_key(str(doc["exhibit"]),
                                       seed if isinstance(seed, int) else None)
        if path.startswith("/v1/jobs/"):
            key = path[len("/v1/jobs/"):]
            return key[:-len("/trace")] if key.endswith("/trace") else key
        if path.startswith("/v1/exhibits/"):
            name = path[len("/v1/exhibits/"):]
            seed_text = request.query.get("seed")
            seed = int(seed_text) if seed_text is not None else None
            return exhibit_key(name, seed)
    except (ReproError, ValueError):  # ValueError: a non-integer ?seed=
        pass
    return hashlib.sha256(
        f"{request.method} {path}".encode() + request.body
    ).hexdigest()


def _page_weight(page: str) -> float:
    """One instance's traffic: the sum of its request counters.

    Used to weight ``*_ratio`` gauges in :func:`merge_prometheus` —
    a cache-hit ratio from an instance that served 10k requests should
    dominate the same gauge from one that served 3.
    """
    weight = 0.0
    for line in page.splitlines():
        if line.startswith("pasm_serve_requests_total"):
            _, _, value_text = line.rpartition(" ")
            try:
                weight += float(value_text)
            except ValueError:
                continue
    return weight


def merge_prometheus(pages: list[str]) -> str:
    """Aggregate Prometheus text pages from N instances into one.

    Samples with identical ``name{labels}`` keys are **summed** —
    right for counters, queue depths and summary sums/counts.  Gauges
    whose name ends in ``_ratio`` are **averaged** instead (a sum of
    fractions is meaningless), weighted by each page's traffic (its
    ``pasm_serve_requests_total`` sum) so a busy instance counts for
    more than an idle one; when no page carries a traffic counter the
    unweighted mean is used.  ``# HELP``/``# TYPE`` lines are kept
    from their first appearance, so the merged page stays parseable.
    """
    meta: list[str] = []
    seen_meta: set[str] = set()
    order: list[str] = []
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    ratio_weighted: dict[str, float] = {}  #: series -> sum(value * weight)
    ratio_weights: dict[str, float] = {}   #: series -> sum(weight)
    for page in pages:
        page_weight = _page_weight(page)
        for line in page.splitlines():
            if not line.strip():
                continue
            if line.startswith("#"):
                if line not in seen_meta:
                    seen_meta.add(line)
                    meta.append(line)
                continue
            series, _, value_text = line.rpartition(" ")
            try:
                value = float(value_text)
            except ValueError:
                continue
            if series not in totals:
                order.append(series)
                totals[series] = 0.0
                counts[series] = 0
            totals[series] += value
            counts[series] += 1
            if series.split("{", 1)[0].endswith("_ratio"):
                ratio_weighted[series] = (
                    ratio_weighted.get(series, 0.0) + value * page_weight
                )
                ratio_weights[series] = (
                    ratio_weights.get(series, 0.0) + page_weight
                )

    def rendered(series: str) -> str:
        name = series.split("{", 1)[0]
        value = totals[series]
        if name.endswith("_ratio") and counts[series] > 1:
            if ratio_weights.get(series, 0.0) > 0.0:
                value = ratio_weighted[series] / ratio_weights[series]
            else:
                value = value / counts[series]
        return f"{series} {value:g}"

    lines = meta + [rendered(s) for s in order]
    return "\n".join(lines) + ("\n" if lines else "")


class RouterApp:
    """The fleet router: an :class:`HttpServer` over a hash ring."""

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        parsed = [parse_instance(i) for i in config.instances]
        self.instances: dict[str, tuple[str, int]] = {
            base: (host, port) for base, host, port in parsed
        }
        self.ring = HashRing(list(self.instances),
                             replicas=config.replicas)
        self.metrics = MetricsRegistry()
        self.log = StructuredLogger(fmt=config.log_format)
        self.server = HttpServer(self.handle, host=config.host,
                                 port=config.port)
        self._cooling: dict[str, float] = {}  #: base -> monotonic deadline
        self._stopped: asyncio.Event | None = None
        self.procstats = ProcessStats(self.metrics)
        m = self.metrics
        m.describe("pasm_router_requests_total", "counter",
                   "Requests forwarded, by instance and status")
        m.describe("pasm_router_failovers_total", "counter",
                   "Forwards that advanced the ring past a dead instance")
        m.describe("pasm_router_unreachable_total", "counter",
                   "Requests that found the whole fleet unreachable")
        m.set_gauge("pasm_router_instances", len(self.instances))
        m.describe("pasm_router_instances", "gauge",
                   "Instances configured on the ring")

    @property
    def port(self) -> int:
        return self.server.port

    # ------------------------------------------------------------------
    # Lifecycle
    async def start(self) -> None:
        self._stopped = asyncio.Event()
        await self.server.start()

    async def shutdown(self) -> None:
        if self._stopped is None or self._stopped.is_set():
            return
        await self.server.stop()
        self._stopped.set()

    # ------------------------------------------------------------------
    # Routing
    async def handle(self, request: Request) -> Response:
        start = time.perf_counter()
        request_id = request.headers.get("x-request-id") or new_request_id()
        path = request.path.rstrip("/") or "/"
        try:
            if path == "/healthz" and request.method == "GET":
                response = await self._healthz()
            elif path == "/metrics" and request.method == "GET":
                response = await self._fleet_metrics()
            elif path == "/v1/stats" and request.method == "GET":
                response = await self._fleet_stats()
            else:
                response = await self._proxy(request, request_id)
        except Exception as exc:  # noqa: BLE001
            # Keep handler bugs inside the counted/logged path rather
            # than letting the raw HTTP layer answer uninstrumented.
            self.log.error("handler_error", path=request.path,
                           error=f"{type(exc).__name__}: {exc}",
                           request_id=request_id)
            response = Response(
                status=500,
                body={"error": f"{type(exc).__name__}: {exc}"},
            )
        if response.status >= 400 and isinstance(response.body, dict):
            response.body.setdefault("request_id", request_id)
        response.headers = tuple(response.headers) + (
            ("X-Request-ID", request_id),
        )
        self.log.info(
            "route",
            method=request.method,
            path=request.path,
            status=response.status,
            dur_ms=round((time.perf_counter() - start) * 1e3, 3),
            request_id=request_id,
        )
        return response

    def _candidates(self, key: str) -> list[str]:
        """Ring order for a key, cooled-down instances pushed last."""
        now = time.monotonic()
        ordered = list(self.ring.nodes_for(key))
        live = [b for b in ordered if self._cooling.get(b, 0.0) <= now]
        cooling = [b for b in ordered if b not in live]
        # A fully-cooling ring still gets probed — cooldown is an
        # ordering hint, never a reason to refuse service outright.
        return live + cooling

    async def _proxy(self, request: Request, request_id: str) -> Response:
        key = route_key(request)
        headers = {
            k: v for k, v in request.headers.items()
            if k not in _HOP_HEADERS
        }
        headers["x-request-id"] = request_id
        parent = parse_traceparent(request.headers.get("traceparent"))
        if parent is not None:
            # Same trace, fresh span: the hop is a link in the chain,
            # not a new operation.
            headers["traceparent"] = format_traceparent(
                parent[0], new_span_id()
            )
        target = request.path
        if request.query:
            target += "?" + urlencode(request.query)
        errors: list[str] = []
        for attempt, base in enumerate(self._candidates(key)):
            host, port = self.instances[base]
            try:
                status, reply_headers, body = await send_request(
                    host, port, request.method, target,
                    headers=headers, body=request.body,
                    timeout=self.config.upstream_timeout_s,
                )
            except (OSError, asyncio.TimeoutError, ValueError) as exc:
                self._cooling[base] = (
                    time.monotonic() + self.config.cooldown_s
                )
                self.metrics.inc("pasm_router_failovers_total")
                errors.append(f"{base}: {type(exc).__name__}: {exc}")
                continue
            self._cooling.pop(base, None)
            self.metrics.inc("pasm_router_requests_total",
                             instance=base, status=status)
            if attempt:
                self.log.info("failover", key=key[:12], served_by=base,
                              skipped=attempt)
            extra = tuple(
                (k, v) for k, v in reply_headers.items()
                if k not in _SKIP_REPLY_HEADERS
            )
            return Response(
                status=status,
                body=body,
                content_type=reply_headers.get("content-type"),
                headers=extra + (("X-PASM-Instance", base),),
            )
        self.metrics.inc("pasm_router_unreachable_total")
        return Response(
            status=503,
            body={
                "error": "no pasm-serve instance reachable: "
                         + "; ".join(errors),
                "retry_after": self.config.retry_after_s,
            },
            headers=(("Retry-After",
                      f"{max(1, round(self.config.retry_after_s))}"),),
        )

    # ------------------------------------------------------------------
    # Fleet views
    async def _fetch_all(self, path: str) -> dict[str, object]:
        """``base -> (status, body-bytes) | Exception`` for one path."""
        async def one(base: str):
            host, port = self.instances[base]
            status, _, body = await send_request(
                host, port, "GET", path, timeout=10.0
            )
            return status, body

        results = await asyncio.gather(
            *(one(base) for base in self.instances),
            return_exceptions=True,
        )
        return dict(zip(self.instances, results))

    async def _healthz(self) -> Response:
        polled = await self._fetch_all("/healthz")
        doc: dict[str, object] = {}
        reachable = 0
        for base, outcome in polled.items():
            if isinstance(outcome, BaseException):
                doc[base] = {"status": "unreachable",
                             "error": f"{type(outcome).__name__}: {outcome}"}
                continue
            status, body = outcome
            reachable += 1
            try:
                doc[base] = json.loads(body)
            except ValueError:
                doc[base] = {"status": f"http {status}"}
        body = {
            "status": "ok" if reachable == len(self.instances)
            else ("degraded" if reachable else "unreachable"),
            "instances": doc,
            "ring": {"instances": len(self.ring),
                     "replicas": self.ring.replicas},
        }
        return Response(status=200 if reachable else 503, body=body)

    async def _fleet_metrics(self) -> Response:
        polled = await self._fetch_all("/metrics")
        pages = [
            outcome[1].decode("utf-8", "replace")
            for outcome in polled.values()
            if not isinstance(outcome, BaseException) and outcome[0] == 200
        ]
        self.procstats.collect()
        pages.append(self.metrics.render())
        return Response(
            body=merge_prometheus(pages),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _fleet_stats(self) -> Response:
        polled = await self._fetch_all("/v1/stats")
        parts = []
        for base, outcome in sorted(polled.items()):
            if isinstance(outcome, BaseException):
                parts.append(f"== {base} ==\nunreachable: "
                             f"{type(outcome).__name__}: {outcome}\n")
            else:
                parts.append(f"== {base} ==\n"
                             + outcome[1].decode("utf-8", "replace"))
        return Response(body="\n".join(parts))


# ---------------------------------------------------------------------------
# Embedding (tests)
class RouterThread:
    """A router running on a private event loop in a thread."""

    START_TIMEOUT_S = 30.0

    def __init__(self, config: RouterConfig) -> None:
        self.app = RouterApp(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.app.port

    def __enter__(self) -> "RouterThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> "RouterThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="pasm-router")
        self._thread.start()
        self._ready.wait(timeout=self.START_TIMEOUT_S)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise TimeoutError(
                f"router failed to start within {self.START_TIMEOUT_S:g}s")
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.app.shutdown(), self._loop
            )
        self._thread.join(timeout=timeout)

    def _run(self) -> None:
        async def body():
            try:
                await self.app.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.app._stopped.wait()

        asyncio.run(body())


# ---------------------------------------------------------------------------
# CLI
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Consistent-hash router for a pasm-serve fleet: "
        "identical jobs land on one instance (fleet-wide single-flight "
        "dedup), dead instances are routed around, /metrics and "
        "/v1/stats aggregate the fleet."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="bind port (default: $REPRO_ROUTER_PORT or "
                             f"{DEFAULT_ROUTER_PORT}; 0 = ephemeral)")
    parser.add_argument("--instance", action="append", default=[],
                        metavar="URL",
                        help="a pasm-serve base URL (repeatable); also "
                             "accepts comma-separated lists")
    parser.add_argument("--replicas", type=int, default=DEFAULT_REPLICAS,
                        help="virtual nodes per instance on the hash ring")
    parser.add_argument("--upstream-timeout", type=float, default=300.0,
                        metavar="S",
                        help="per-forward ceiling (must exceed the longest "
                             "long-poll)")
    parser.add_argument("--cooldown", type=float, default=2.0, metavar="S",
                        help="how long a dead instance is skipped")
    parser.add_argument("--retry-after", type=float, default=1.0,
                        metavar="S",
                        help="Retry-After hint when the fleet is down")
    parser.add_argument("--log-format", choices=("text", "json"),
                        default="text")
    args = parser.parse_args(argv)
    instances = tuple(
        part.strip()
        for item in args.instance
        for part in item.split(",")
        if part.strip()
    )
    try:
        config = RouterConfig(
            instances=instances,
            host=args.host,
            **({} if args.port is None else {"port": args.port}),
            replicas=args.replicas,
            upstream_timeout_s=args.upstream_timeout,
            cooldown_s=args.cooldown,
            retry_after_s=args.retry_after,
            log_format=args.log_format,
        )
    except ReproError as exc:
        parser.error(str(exc))
    return asyncio.run(_serve(config))


async def _serve(config: RouterConfig) -> int:
    app = RouterApp(config)
    await app.start()
    loop = asyncio.get_running_loop()
    for signame in ("SIGTERM", "SIGINT"):
        loop.add_signal_handler(
            getattr(signal, signame),
            lambda: asyncio.ensure_future(app.shutdown()),
        )
    app.log.info(
        "startup",
        message=f"pasm-router listening on http://{config.host}:{app.port}",
        instances=",".join(config.instances),
        replicas=config.replicas,
    )
    await app._stopped.wait()
    app.log.info("shutdown", message="pasm-router drained, bye")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
