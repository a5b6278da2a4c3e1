"""The simulation service: HTTP routes over the job broker.

Endpoints
---------
``POST /v1/jobs``
    Body ``{"spec": <SimJobSpec.to_dict()>}`` or ``{"exhibit": "fig7"}``
    (optional ``"lane"``, ``"seed"``).  Returns 202 with a job document
    while work is pending, 200 when the answer was already known
    (single-flight memo or disk cache), 429 + ``Retry-After`` on queue
    overflow, 503 while draining.  ``?wait=1[&timeout=s]`` long-polls.
``GET /v1/jobs/{hash}``
    Job state document; ``?wait=1`` long-polls for completion.
``GET /v1/jobs/{hash}/trace``
    The job's merged Chrome trace-event JSON (serve lanes + per-PE
    simulated-time lanes) — load it in Perfetto or ``chrome://tracing``.
    Only available when the service runs with ``--trace``.
``GET|POST /v1/exhibits/{name}``
    Submit a whole exhibit; with ``?wait=1`` the response body is the
    *raw* exhibit JSON — byte-identical to what ``pasm-experiments
    --out`` writes for the same exhibit.
``GET /healthz``
    Liveness + queue/in-flight gauges.
``GET /metrics``
    Prometheus text rendering of the broker's
    :class:`repro.perf.MetricsRegistry` (plus ``pasm_process_*``
    self-metrics, collected on each scrape).
``GET /v1/stats``
    The execution engine's ``--stats`` table, as text.

Run it::

    pasm-serve --port 8137 --jobs 4        # console script
    python -m repro.serve.app --port 8137  # same thing

SIGTERM/SIGINT drain gracefully: in-flight and queued jobs get
``--drain-grace`` seconds to finish while new submissions are refused.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import threading
import time

from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ReproError,
    ServiceDrainingError,
)
from repro.exec import SimJobSpec
from repro.obs.ids import (
    format_traceparent,
    new_request_id,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.obs.jsonlog import StructuredLogger
from repro.obs.procstats import ProcessStats
from repro.serve.broker import DONE, FAILED, JobBroker, JobEntry
from repro.serve.config import LANES, ServeConfig
from repro.serve.http import HttpServer, Request, Response

#: repro.serve API version implemented by this module.
API_VERSION = "v1"


class ServeApp:
    """Wires an :class:`HttpServer` to a :class:`JobBroker`."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.log = StructuredLogger(fmt=self.config.log_format)
        self.broker = JobBroker(self.config)
        self.metrics = self.broker.metrics
        self.procstats = ProcessStats(self.metrics)
        self.server = HttpServer(self.handle, host=self.config.host,
                                 port=self.config.port)
        self._stopped: asyncio.Event | None = None

    @property
    def port(self) -> int:
        return self.server.port

    # ------------------------------------------------------------------
    # Lifecycle
    @property
    def instance_name(self) -> str:
        """This fleet member's identity (``--name`` or host:port)."""
        return self.config.instance or f"{self.config.host}:{self.port}"

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        await self.broker.start()
        await self.server.start()
        # Identity is only final once the port is bound (port=0 cases).
        self.metrics.describe(
            "pasm_serve_instance_info", "gauge",
            "Constant 1 per live instance, labelled with its identity "
            "(the router's aggregated /metrics keeps one line each)")
        self.metrics.set_gauge("pasm_serve_instance_info", 1,
                               instance=self.instance_name)

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish what's admitted."""
        if self._stopped is None or self._stopped.is_set():
            return
        self.broker.draining = True
        await self.server.stop()
        await self.broker.drain()
        self._stopped.set()

    # ------------------------------------------------------------------
    # Routing
    async def handle(self, request: Request) -> Response:
        """Route one request; correlate, log, and count it.

        Every response carries an ``X-Request-ID`` (echoed from the
        request, minted otherwise) and every error body names it, so a
        client reporting shed load can quote the exact exchange.  A
        ``traceparent`` the client sent is echoed back with a fresh
        span ID; with ``--trace`` the service mints one itself, so the
        response header, the access-log line, and the job's exported
        trace all share one trace ID.
        """
        start = time.perf_counter()
        request_id = request.headers.get("x-request-id") or new_request_id()
        parent = parse_traceparent(request.headers.get("traceparent"))
        if parent is not None:
            trace_id = parent[0]
        elif self.config.trace:
            trace_id = new_trace_id()
        else:
            trace_id = None
        try:
            response = await self._route(request, trace_id, request_id)
        except Exception as exc:  # noqa: BLE001
            # A handler bug answered by the raw HTTP layer would bypass
            # the metrics and log below.  Convert it here so the 500 is
            # counted.
            self.log.error("handler_error", path=request.path,
                           error=f"{type(exc).__name__}: {exc}",
                           request_id=request_id)
            response = _error(500, f"{type(exc).__name__}: {exc}")
        if response.status >= 400 and isinstance(response.body, dict):
            response.body.setdefault("request_id", request_id)
        extra = [("X-Request-ID", request_id)]
        if trace_id is not None:
            extra.append(("traceparent",
                          format_traceparent(trace_id, new_span_id())))
        response.headers = tuple(response.headers) + tuple(extra)
        self.metrics.inc(
            "pasm_serve_requests_total",
            help_="HTTP requests by method/path/status",
            method=request.method,
            path=_route_label(request.path),
            status=response.status,
        )
        fields = {
            "method": request.method,
            "path": request.path,
            "status": response.status,
            "dur_ms": round((time.perf_counter() - start) * 1e3, 3),
            "request_id": request_id,
        }
        if trace_id is not None:
            fields["trace_id"] = trace_id
        self.log.info("request", **fields)
        return response

    async def _route(self, request: Request, trace_id: str | None,
                     request_id: str) -> Response:
        path, method = request.path.rstrip("/") or "/", request.method
        try:
            if path == "/healthz" and method == "GET":
                return self._healthz()
            if path == "/metrics" and method == "GET":
                self.procstats.collect()
                return Response(
                    body=self.metrics.render(),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            if path == "/v1/stats" and method == "GET":
                return Response(body=self.broker.stats.summary_table(
                    title=f"serve stats (pool={self.broker.pool_jobs})"
                ) + "\n")
            if path == "/v1/jobs" and method == "POST":
                return await self._submit(request, trace_id, request_id)
            if path.startswith("/v1/jobs/") and path.endswith("/trace") \
                    and method == "GET":
                return self._job_trace(path[len("/v1/jobs/"):-len("/trace")])
            if path.startswith("/v1/jobs/") and method == "GET":
                return await self._job_status(request,
                                              path[len("/v1/jobs/"):])
            if path.startswith("/v1/exhibits/") and method in ("GET", "POST"):
                return await self._exhibit(request,
                                           path[len("/v1/exhibits/"):])
            if path in ("/v1/jobs", "/v1/exhibits", "/healthz", "/metrics",
                        "/v1/stats"):
                return _error(405, f"{method} not supported on {path}")
            return _error(404, f"no route for {path}")
        except BackpressureError as exc:
            return _retryable(429, str(exc), exc.retry_after)
        except ServiceDrainingError as exc:
            return _retryable(503, str(exc), exc.retry_after)
        except ConfigurationError as exc:
            return _error(400, str(exc))

    # ------------------------------------------------------------------
    # Handlers
    def _healthz(self) -> Response:
        return Response(body={
            "status": "draining" if self.broker.draining else "ok",
            "instance": self.instance_name,
            "queue_depth": self.broker.queue_depth,
            "in_flight": self.broker.in_flight,
            "pool_jobs": self.broker.pool_jobs,
            "cache": self.broker.cache is not None,
            "api": API_VERSION,
        })

    async def _submit(self, request: Request, trace_id: str | None,
                      request_id: str) -> Response:
        doc = request.json()
        if not isinstance(doc, dict):
            return _error(400, "request body must be a JSON object")
        lane = doc.get("lane", "interactive")
        if lane not in LANES:
            return _error(400, f"unknown lane {lane!r}; choose from {LANES}")
        if ("spec" in doc) == ("exhibit" in doc):
            return _error(400,
                          'body needs exactly one of "spec" or "exhibit"')
        if "spec" in doc:
            try:
                spec = SimJobSpec.from_dict(doc["spec"])
            except ReproError as exc:
                return _error(400, str(exc))
            entry, outcome = await self.broker.submit(
                spec=spec, lane=lane, trace_id=trace_id,
                request_id=request_id,
            )
        else:
            seed = doc.get("seed")
            if seed is not None and not isinstance(seed, int):
                return _error(400, f"seed must be an integer, got {seed!r}")
            entry, outcome = await self.broker.submit(
                exhibit=str(doc["exhibit"]), seed=seed, lane=lane,
                trace_id=trace_id, request_id=request_id,
            )
        if request.flag("wait"):
            await self._wait(entry, request)
        return self._entry_response(entry, outcome)

    async def _job_status(self, request: Request, key: str) -> Response:
        entry = self.broker.get(key)
        if entry is None:
            return _error(404, f"no such job {key!r} (expired or never "
                               "submitted)")
        if request.flag("wait"):
            await self._wait(entry, request)
        return self._entry_response(entry, entry.outcome)

    def _job_trace(self, key: str) -> Response:
        entry = self.broker.get(key)
        if entry is None:
            return _error(404, f"no such job {key!r} (expired or never "
                               "submitted)")
        doc = entry.trace_doc()
        if doc is None:
            return _error(404,
                          f"job {key!r} was not traced (start the service "
                          "with --trace to record job traces)")
        return Response(body=doc)

    async def _exhibit(self, request: Request, name: str) -> Response:
        if not name:
            return _error(404, "missing exhibit name")
        seed = None
        if "seed" in request.query:
            try:
                seed = int(request.query["seed"])
            except ValueError:
                return _error(400,
                              f"seed must be an integer, got "
                              f"{request.query['seed']!r}")
        entry, outcome = await self.broker.submit(
            exhibit=name, lane=request.query.get("lane", "sweep"), seed=seed,
        )
        if request.flag("wait"):
            await self._wait(entry, request)
            if entry.state == DONE:
                # The raw exhibit document, byte-identical to the file
                # `pasm-experiments <name> --out` writes.  The header
                # lets clients tell it apart from a job-state document.
                return Response(body=entry.future.result()["json"],
                                content_type="application/json",
                                headers=(("X-PASM-Exhibit", name),))
        return self._entry_response(entry, outcome)

    async def _wait(self, entry: JobEntry, request: Request) -> None:
        """Long-poll an entry; on timeout just return the current state."""
        try:
            timeout = float(request.query.get(
                "timeout", self.config.wait_timeout_s
            ))
        except ValueError:
            timeout = self.config.wait_timeout_s
        if entry.future is None or entry.future.done():
            return
        try:
            await asyncio.wait_for(asyncio.shield(entry.future), timeout)
        except (asyncio.TimeoutError, Exception):
            pass  # state document carries the failure/progress either way

    def _entry_response(self, entry: JobEntry, outcome: str) -> Response:
        doc = entry.describe()
        doc["outcome"] = outcome
        doc["location"] = f"/v1/jobs/{entry.key}"
        if entry.state == DONE:
            return Response(status=200, body=doc)
        if entry.state == FAILED:
            return Response(status=500, body=doc)
        return Response(status=202, body=doc)


def _route_label(path: str) -> str:
    """Collapse per-job paths so the request counter stays low-cardinality."""
    if path.startswith("/v1/jobs/"):
        return "/v1/jobs/{hash}"
    if path.startswith("/v1/exhibits/"):
        return "/v1/exhibits/{name}"
    return path


def _error(status: int, message: str) -> Response:
    return Response(status=status, body={"error": message})


def _retryable(status: int, message: str, retry_after: float) -> Response:
    return Response(
        status=status,
        body={"error": message, "retry_after": retry_after},
        headers=(("Retry-After", f"{max(1, round(retry_after))}"),),
    )


# ---------------------------------------------------------------------------
# Embedding (tests, the load generator)
class ServerThread:
    """A full service running on a private event loop in a thread.

    The load generator and the test suite embed the service this way;
    production deployments use ``pasm-serve``.  ``stop()`` performs the
    same graceful drain as SIGTERM.
    """

    #: Pool warm-up pays one interpreter spawn + simulation-stack import
    #: per worker; on a loaded single-core CI box that can take well over
    #: an "obviously generous" 30s, so the ready deadline is high.
    START_TIMEOUT_S = 120.0

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.app = ServeApp(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.app.port

    @property
    def address(self) -> tuple[str, int]:
        return self.app.config.host, self.app.port

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="pasm-serve")
        self._thread.start()
        self._ready.wait(timeout=self.START_TIMEOUT_S)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise TimeoutError(
                f"service failed to start within {self.START_TIMEOUT_S:g}s")
        return self

    def stop(self, timeout: float = 30.0) -> None:
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
        description="Serve PASM reproduction simulations over HTTP: "
        "single-flight dedup, bounded admission with backpressure, "
        "priority lanes, Prometheus metrics."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="bind port (default: $REPRO_SERVE_PORT or 8137; "
                             "0 = ephemeral)")
    parser.add_argument("--jobs", default=None, metavar="N",
                        help="simulation pool width (default: $REPRO_JOBS or "
                             "one per core)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="bounded admission queue; beyond it submissions "
                             "get 429 + Retry-After (default: 64)")
    parser.add_argument("--job-timeout", type=float, default=600.0,
                        metavar="S", help="per-job execution ceiling")
    parser.add_argument("--retry-after", type=float, default=1.0, metavar="S",
                        help="suggested client delay on 429/503")
    parser.add_argument("--drain-grace", type=float, default=30.0,
                        metavar="S", help="SIGTERM drain grace period")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache location (default: "
                             "$REPRO_CACHE_DIR or ./.repro_cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-max-mb", type=float, default=None,
                        metavar="MB",
                        help="LRU size cap on the result cache (default: "
                             "$REPRO_CACHE_MAX_MB or unbounded)")
    parser.add_argument("--trace", action="store_true",
                        help="record end-to-end job traces (broker spans + "
                             "per-PE simulated-time lanes), exported at "
                             "GET /v1/jobs/{hash}/trace")
    parser.add_argument("--log-format", choices=("text", "json"),
                        default="text",
                        help="access/lifecycle log rendering on stderr "
                             "(default: text)")
    parser.add_argument("--name", default=None, metavar="NAME",
                        help="instance name for fleet views "
                             "(default: host:port)")
    # Ignored; bench/serve.py still starts every instance with it.
    parser.add_argument("--recorder-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        config = ServeConfig(
            host=args.host,
            **({} if args.port is None else {"port": args.port}),
            jobs=args.jobs,
            queue_limit=args.queue_limit,
            job_timeout_s=args.job_timeout,
            retry_after_s=args.retry_after,
            drain_grace_s=args.drain_grace,
            cache_dir=args.cache_dir,
            no_cache=args.no_cache,
            cache_max_mb=args.cache_max_mb,
            trace=args.trace,
            log_format=args.log_format,
            instance=args.name,
        )
        config.resolved_jobs()
    except ReproError as exc:
        parser.error(str(exc))
    return asyncio.run(_serve(config))


async def _serve(config: ServeConfig) -> int:
    app = ServeApp(config)
    await app.start()
    loop = asyncio.get_running_loop()
    for signame in ("SIGTERM", "SIGINT"):
        loop.add_signal_handler(
            getattr(signal, signame),
            lambda: asyncio.ensure_future(app.shutdown()),
        )
    app.log.info(
        "startup",
        message=f"pasm-serve listening on http://{config.host}:{app.port}",
        instance=app.instance_name,
        pool=app.broker.pool_jobs,
        queue_limit=config.queue_limit,
        cache="on" if app.broker.cache is not None else "off",
        trace="on" if config.trace else "off",
    )
    await app._stopped.wait()
    app.log.info("shutdown", message="pasm-serve drained, bye")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
