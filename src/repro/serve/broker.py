"""The job broker: single-flight dedup, bounded admission, lanes, drain.

This is the serving half of the execution engine.  Where
:class:`repro.exec.ExecutionEngine` answers one *batch* for one caller,
the broker answers a *stream* of submissions from many concurrent
clients and guarantees:

* **single-flight** — N concurrent submissions of the same content hash
  run exactly one simulation; every submitter attaches to the same
  future (an in-memory registry of completed results then answers
  repeats without touching the pool at all);
* **warm-cache bypass** — a disk-cache hit is served without consuming
  a queue slot or a worker;
* **bounded admission** — at most ``queue_limit`` jobs wait; beyond
  that submissions fail fast with :class:`~repro.errors.BackpressureError`
  (HTTP 429 upstairs) instead of growing an unbounded backlog;
* **priority lanes** — ``interactive`` submissions are always scheduled
  before ``sweep`` ones, so exhibit fan-out never starves a human;
* **crash survival** — a pool worker dying mid-job (including seeded
  ``REPRO_CHAOS`` crashes) breaks the shared process pool; the broker
  rebuilds the pool and resubmits without failing the client's request;
* **graceful drain** — after :meth:`drain` starts, nothing new is
  admitted and in-flight work is given a grace period to finish.

Execution itself is delegated unchanged to :mod:`repro.exec`: the pool
worker entry point, the job implementations, and the on-disk
:class:`~repro.exec.ResultCache` are exactly the ones the CLI path
uses, so a payload served over HTTP is bit-identical to one computed by
``pasm-experiments``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from collections import OrderedDict, deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ExecError,
    ServeError,
    ServiceDrainingError,
)
from repro.exec import ExecStats, ExecutionEngine, SimJobSpec, content_hash_of
from repro.exec.pool import _worker as _pool_worker
from repro.exec.pool import resolve_jobs
from repro.obs.ids import new_trace_id
from repro.obs.tracer import TraceContext, export_chrome, instant_event, span_event
from repro.perf import MetricsRegistry
from repro.serve.config import LANES, ServeConfig
from repro.utils.rng import DEFAULT_SEED

#: Entry lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

#: Seconds a retired pool's workers get, together, to take their
#: shutdown sentinel and exit before they are killed.  Every job still
#: running in a retired pool has already failed or been resubmitted.
RETIRE_GRACE_S = 1.0


def exhibit_key(name: str, seed: int | None) -> str:
    """Content hash identifying one whole-exhibit job."""
    return content_hash_of({"exhibit": name, "seed": seed})


def _pool_context():
    """The start method for the broker's simulation pool.

    The CLI path forks (fast, and safe from a single-threaded caller),
    but the broker lives in a process that always has live threads —
    the event loop, executor feeder threads, exhibit workers — and
    forking a multithreaded process can deadlock the child on a lock
    some other thread held at fork time.  ``spawn`` sidesteps that
    entirely (and, unlike ``forkserver``, re-reads the environment per
    pool, which seeded ``REPRO_CHAOS`` campaigns rely on); the
    interpreter start-up cost is paid once per worker and hidden by the
    warm-up in :meth:`JobBroker.start`.
    """
    methods = multiprocessing.get_all_start_methods()
    method = "spawn" if "spawn" in methods else methods[0]
    return multiprocessing.get_context(method)


def _retire_pool(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down and reap every worker it started (blocking).

    ``shutdown(wait=False)`` alone can leave a worker behind: one the
    pool spawned on a submit while a sibling's crash was breaking it
    misses the pool's own clean-up, and blocks on its call pipe for
    ever.  Interpreter exit joins every child process, so that one
    worker would hang the exit.  The pool's manager thread gets
    :data:`RETIRE_GRACE_S` to stop its workers; whatever is still
    alive then is killed.  Workers are joined only once the manager
    has exited, so two threads never reap one child.
    """
    manager = pool._executor_manager_thread
    workers = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    if manager is not None:
        manager.join(RETIRE_GRACE_S)
    for proc in workers:
        if proc.is_alive():
            proc.kill()
    if manager is not None:
        manager.join()
    for proc in workers:
        proc.join()


class JobEntry:
    """One admitted job: identity, lifecycle, and the shared future."""

    __slots__ = (
        "key", "spec", "exhibit", "seed", "lane", "state", "outcome",
        "future", "created", "started", "finished", "wall", "error",
        "attempts", "waiters", "trace_id", "request_id", "events",
        "attached",
    )

    def __init__(self, key: str, *, spec: SimJobSpec | None = None,
                 exhibit: str | None = None, seed: int | None = None,
                 lane: str = "interactive",
                 future: asyncio.Future | None = None) -> None:
        self.key = key
        self.spec = spec
        self.exhibit = exhibit
        self.seed = seed
        self.lane = lane
        self.state = QUEUED
        self.outcome = "queued"  #: how the *first* submission was admitted
        self.future = future
        self.created = time.monotonic()
        self.started: float | None = None
        self.finished: float | None = None
        self.wall: float | None = None  #: pure compute seconds (no queueing)
        self.error: str | None = None
        self.attempts = 1
        self.waiters = 1  #: submissions attached to this entry so far
        # -- tracing (populated only when the service runs with --trace) --
        self.trace_id: str | None = None
        self.request_id: str | None = None  #: of the admitting request
        self.events: list[dict] | None = None  #: worker per-PE lanes
        self.attached: list[tuple[str, float]] = []  #: (outcome, at)

    def label(self) -> str:
        if self.spec is not None:
            return self.spec.label()
        return f"exhibit/{self.exhibit}"

    def describe(self) -> dict:
        """JSON-able state document (the ``GET /v1/jobs/{hash}`` body)."""
        doc = {
            "job": self.key,
            "label": self.label(),
            "state": self.state,
            "lane": self.lane,
            "outcome": self.outcome,
            "attempts": self.attempts,
            "waiters": self.waiters,
        }
        if self.wall is not None:
            doc["wall_s"] = round(self.wall, 6)
        if self.finished is not None:
            doc["service_s"] = round(self.finished - self.created, 6)
        if self.state == DONE and self.future is not None:
            doc["result"] = self.future.result()
        if self.error is not None:
            doc["error"] = self.error
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        return doc

    def trace_doc(self) -> dict | None:
        """The job's Chrome trace document, or ``None`` when untraced.

        Serve-side lanes (wall microseconds since admission): the queue
        wait from admission to execution start, the execute span, and
        one instant per deduplicated attachment.  The worker's per-PE
        simulated-cycle lanes (:attr:`events`) merge in alongside.
        """
        if self.trace_id is None:
            return None

        def us(t: float) -> float:
            return (t - self.created) * 1e6

        events: list[dict] = [
            instant_event("admitted", ts=0.0, proc="serve", thread="broker",
                          cat="admission",
                          args={"lane": self.lane, "outcome": self.outcome}),
        ]
        if self.started is not None:
            events.append(span_event(
                "queue wait", ts=0.0, dur=us(self.started),
                proc="serve", thread="broker", cat="queue",
            ))
            end = self.finished if self.finished is not None \
                else time.monotonic()
            events.append(span_event(
                "execute", ts=us(self.started), dur=us(end) - us(self.started),
                proc="serve", thread="broker", cat="execute",
                args={"attempts": self.attempts, "state": self.state},
            ))
        elif self.finished is not None:
            # Served without executing (disk-cache admission).
            events.append(instant_event(
                self.outcome, ts=us(self.finished), proc="serve",
                thread="broker", cat="cache",
            ))
        for outcome, at in self.attached:
            events.append(instant_event(
                f"attach ({outcome})", ts=us(at), proc="serve",
                thread="admissions", cat="dedup",
            ))
        if self.events:
            events.extend(self.events)
        meta = {
            "job": self.key,
            "label": self.label(),
            "state": self.state,
            "outcome": self.outcome,
            "waiters": self.waiters,
        }
        if self.request_id:
            meta["request_id"] = self.request_id
        if self.wall is not None:
            meta["wall_s"] = round(self.wall, 6)
        return export_chrome(events, trace_id=self.trace_id, meta=meta)


class JobBroker:
    """Admission, scheduling and completion of simulation jobs.

    All public coroutines must be called on the broker's event loop
    (:attr:`loop`); thread-shaped callers go through
    ``asyncio.run_coroutine_threadsafe`` — see :class:`BrokerEngine`.
    """

    def __init__(self, config: ServeConfig,
                 metrics: MetricsRegistry | None = None) -> None:
        self.config = config
        self.pool_jobs = config.resolved_jobs()
        self.cache = config.make_cache()
        self.metrics = metrics or MetricsRegistry()
        self.stats = ExecStats()
        self.entries: "OrderedDict[str, JobEntry]" = OrderedDict()
        self.queues: dict[str, deque[JobEntry]] = {
            lane: deque() for lane in LANES
        }
        self.draining = False
        self._stopping = False  #: drain has cancelled the workers
        self.loop: asyncio.AbstractEventLoop | None = None
        self._wakeup: asyncio.Condition | None = None
        self._workers: list[asyncio.Task] = []
        self._executor: ProcessPoolExecutor | None = None
        self._pool_gen = 0
        #: Retired pools being reaped off the event loop; drain waits
        #: for them.
        self._retiring: list[asyncio.Future] = []
        self._exhibit_pool: ThreadPoolExecutor | None = None
        self._exhibit_tasks: set[asyncio.Task] = set()
        self._describe_metrics()

    def _describe_metrics(self) -> None:
        m = self.metrics
        m.describe("pasm_serve_submitted_total", "counter",
                   "Submissions by admission outcome "
                   "(queued/dedup/memo/cached)")
        m.describe("pasm_serve_computed_total", "counter",
                   "Jobs actually executed on the simulation pool")
        m.describe("pasm_serve_failed_total", "counter",
                   "Jobs that finished in error, by reason")
        m.describe("pasm_serve_resubmits_total", "counter",
                   "Pool-worker crashes survived by resubmission")
        m.describe("pasm_serve_queue_depth", "gauge",
                   "Jobs waiting for a worker, per lane")
        m.describe("pasm_serve_in_flight", "gauge",
                   "Jobs currently executing")
        m.describe("pasm_serve_cache_hit_ratio", "gauge",
                   "Fraction of submissions served without computing "
                   "(dedup + memo + disk cache)")
        m.describe("pasm_serve_job_latency_seconds", "summary",
                   "Submit-to-done service latency of computed jobs")
        m.describe("pasm_serve_exec_seconds", "summary",
                   "Pure execution wall time of computed jobs")
        for lane in LANES:
            m.set_gauge("pasm_serve_queue_depth", 0, lane=lane)

    # ------------------------------------------------------------------
    # Lifecycle
    async def start(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Condition()
        self._executor = ProcessPoolExecutor(
            max_workers=self.pool_jobs, mp_context=_pool_context()
        )
        self._exhibit_pool = ThreadPoolExecutor(
            max_workers=self.config.exhibit_workers,
            thread_name_prefix="exhibit",
        )
        # Pre-spawn every pool worker (each submit spawns at most one)
        # and pre-import the simulation stack in it, so the first real
        # job doesn't pay interpreter + import start-up latency.
        await asyncio.gather(*[
            asyncio.wrap_future(self._executor.submit(resolve_jobs, 1))
            for _ in range(self.pool_jobs)
        ])
        self._workers = [
            asyncio.ensure_future(self._worker_loop())
            for _ in range(self.pool_jobs)
        ]

    async def drain(self, grace_s: float | None = None) -> None:
        """Stop admitting, let in-flight/queued jobs finish, shut down."""
        self.draining = True
        grace = self.config.drain_grace_s if grace_s is None else grace_s
        pending = [
            e.future for e in self.entries.values()
            if e.state in (QUEUED, RUNNING) and e.future is not None
        ]
        if pending:
            await asyncio.wait(pending, timeout=grace)
        self._stopping = True
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        # Fail whatever outlived the grace period: this also unblocks
        # exhibit threads parked on cell futures, so their thread pool
        # can actually wind down instead of hanging process exit.
        for entry in list(self.entries.values()):
            if entry.state in (QUEUED, RUNNING):
                self._fail(entry, "service drained before the job completed",
                           reason="cancelled")
        if self._exhibit_tasks:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*self._exhibit_tasks,
                                   return_exceptions=True),
                    timeout=5.0,
                )
            except asyncio.TimeoutError:
                pass
        if self._executor is not None:
            self._retiring.append(self.loop.run_in_executor(
                None, _retire_pool, self._executor))
            self._executor = None
        await asyncio.gather(*self._retiring)
        self._retiring = []
        if self._exhibit_pool is not None:
            self._exhibit_pool.shutdown(wait=False, cancel_futures=True)
            self._exhibit_pool = None

    # ------------------------------------------------------------------
    # Introspection
    @property
    def queue_depth(self) -> int:
        return sum(len(q) for q in self.queues.values())

    @property
    def in_flight(self) -> int:
        return sum(1 for e in self.entries.values() if e.state == RUNNING)

    def get(self, key: str) -> JobEntry | None:
        entry = self.entries.get(key)
        if entry is not None and entry.state == DONE:
            self.entries.move_to_end(key)  # LRU touch on the result registry
        return entry

    # ------------------------------------------------------------------
    # Admission
    async def submit(
        self,
        spec: SimJobSpec | None = None,
        *,
        exhibit: str | None = None,
        seed: int | None = None,
        lane: str = "interactive",
        internal: bool = False,
        trace_id: str | None = None,
        request_id: str | None = None,
    ) -> tuple[JobEntry, str]:
        """Admit one job; returns ``(entry, outcome)``.

        Outcomes: ``"queued"`` (new work), ``"dedup"`` (attached to an
        identical in-flight job), ``"memo"`` (served from the in-memory
        result registry), ``"cached"`` (served from the disk cache).
        ``internal=True`` marks broker-originated fan-out (exhibit cell
        jobs): already-admitted work that must not be refused by the
        admission bound it was admitted under.

        ``trace_id``/``request_id`` correlate the submission with the
        HTTP request that carried it.  When the service runs with
        ``trace`` enabled, an admitting external submission records
        broker spans under that trace ID (a fresh one if the client sent
        none) and later submissions attaching to the same job are
        recorded as dedup instants on it; with tracing off both are
        ignored here (IDs still flow through response headers and logs
        upstairs).
        """
        assert self.loop is not None, "broker not started"
        if (spec is None) == (exhibit is None):
            raise ConfigurationError(
                "submit() needs exactly one of spec= or exhibit="
            )
        if lane not in self.queues:
            raise ConfigurationError(
                f"unknown lane {lane!r}; choose from {LANES}"
            )
        tracing = self.config.trace and not internal
        key = spec.content_hash if spec is not None else exhibit_key(
            exhibit, seed
        )
        existing = self.entries.get(key)
        if existing is not None:
            if existing.state == DONE:
                existing.waiters += 1
                self.entries.move_to_end(key)
                if spec is not None:
                    self.stats.record_dedup(spec)
                if tracing:
                    existing.attached.append(("memo", time.monotonic()))
                return existing, self._count_outcome("memo")
            if existing.state in (QUEUED, RUNNING):
                existing.waiters += 1
                if spec is not None:
                    self.stats.record_dedup(spec)
                if tracing:
                    existing.attached.append(("dedup", time.monotonic()))
                return existing, self._count_outcome("dedup")
            # FAILED: fall through — a fresh submission retries the job.
            del self.entries[key]
        if self.draining:
            raise ServiceDrainingError(
                "service is draining; not accepting new jobs",
                retry_after=self.config.retry_after_s,
            )
        entry = JobEntry(key, spec=spec, exhibit=exhibit, seed=seed,
                         lane=lane, future=self.loop.create_future())
        if tracing:
            entry.trace_id = trace_id or new_trace_id()
            entry.request_id = request_id
        # Keep failed futures from warning when nobody ever awaits them.
        entry.future.add_done_callback(_consume_exception)
        # Reserve the key *before* the first await: a concurrent
        # submission of the same spec must attach, not double-compute.
        self.entries[key] = entry
        try:
            if spec is not None and self.cache is not None:
                payload = await self.loop.run_in_executor(
                    None, self.cache.load, spec
                )
                if payload is not None:
                    self.stats.record_hit(spec)
                    self._finish(entry, payload, outcome="cached")
                    return entry, self._count_outcome("cached")
            if not internal and self.queue_depth >= self.config.queue_limit:
                raise BackpressureError(
                    f"admission queue full ({self.config.queue_limit} "
                    f"jobs waiting); retry after "
                    f"{self.config.retry_after_s:g}s",
                    retry_after=self.config.retry_after_s,
                )
        except BaseException as exc:
            del self.entries[key]
            if not entry.future.done():
                entry.future.set_exception(exc)
            raise
        self._count_outcome("queued")
        if exhibit is not None:
            # Exhibits run on their own thread pool immediately: they
            # spend their life *waiting* on cell jobs, so parking them
            # in the worker queue could deadlock the queue behind them.
            entry.state = RUNNING
            task = asyncio.ensure_future(self._run_exhibit(entry))
            self._exhibit_tasks.add(task)
            task.add_done_callback(self._exhibit_tasks.discard)
            return entry, "queued"
        self.queues[lane].append(entry)
        self.metrics.set_gauge("pasm_serve_queue_depth",
                               len(self.queues[lane]), lane=lane)
        async with self._wakeup:
            self._wakeup.notify()
        return entry, "queued"

    async def fetch(self, spec: SimJobSpec, *, lane: str = "sweep",
                    internal: bool = False) -> dict:
        """Submit (or attach) and wait for the payload."""
        entry, _ = await self.submit(spec=spec, lane=lane, internal=internal)
        return await asyncio.shield(entry.future)

    def _count_outcome(self, outcome: str) -> str:
        self.metrics.inc("pasm_serve_submitted_total", outcome=outcome)
        submitted = self.metrics.total("pasm_serve_submitted_total")
        absorbed = sum(
            self.metrics.value("pasm_serve_submitted_total", outcome=o)
            for o in ("dedup", "memo", "cached")
        )
        self.metrics.set_gauge("pasm_serve_cache_hit_ratio",
                               absorbed / submitted if submitted else 0.0)
        return outcome

    # ------------------------------------------------------------------
    # Scheduling
    async def _next_entry(self) -> JobEntry:
        async with self._wakeup:
            while True:
                for lane in LANES:  # declaration order == priority order
                    if self.queues[lane]:
                        entry = self.queues[lane].popleft()
                        self.metrics.set_gauge(
                            "pasm_serve_queue_depth",
                            len(self.queues[lane]), lane=lane,
                        )
                        return entry
                await self._wakeup.wait()

    async def _worker_loop(self) -> None:
        # The flag, not only the cancel, ends the loop: Python 3.11's
        # asyncio.wait_for returns the inner result when it is cancelled
        # just as that result lands, and _run_entry then returns normally.
        while not self._stopping:
            try:
                entry = await self._next_entry()
            except asyncio.CancelledError:
                return
            await self._run_entry(entry)

    async def _run_entry(self, entry: JobEntry) -> None:
        entry.state = RUNNING
        entry.started = time.monotonic()
        self.metrics.add_gauge("pasm_serve_in_flight", 1)
        try:
            payload, wall = await asyncio.wait_for(
                self._compute(entry), timeout=self.config.job_timeout_s
            )
        except asyncio.TimeoutError:
            self._fail(entry,
                       f"job {entry.label()} exceeded the "
                       f"{self.config.job_timeout_s:g}s timeout",
                       reason="timeout")
        except asyncio.CancelledError:
            self._fail(entry, "service shut down before the job finished",
                       reason="cancelled")
            raise
        except ServeError as exc:
            self._fail(entry, str(exc), reason="error")
        except Exception as exc:
            self._fail(entry, f"{type(exc).__name__}: {exc}", reason="error")
        else:
            entry.wall = wall
            self.stats.record_run(entry.spec, wall)
            if self.cache is not None:
                await self.loop.run_in_executor(
                    None, self.cache.store, entry.spec, payload
                )
            self.metrics.inc("pasm_serve_computed_total")
            self.metrics.observe("pasm_serve_exec_seconds", wall)
            self._finish(entry, payload, outcome="computed")
        finally:
            self.metrics.add_gauge("pasm_serve_in_flight", -1)

    async def _compute(self, entry: JobEntry) -> tuple[dict, float]:
        """One spec on the shared pool, surviving worker crashes.

        A crashed worker (chaos injection, OOM-kill) breaks the whole
        ``ProcessPoolExecutor``; every in-flight job then lands here,
        the first one swaps in a fresh pool, and each resubmits itself —
        mirroring :meth:`repro.exec.pool.WorkerPool.run`'s recovery, but
        incrementally, without failing any client request.
        """
        spec = entry.spec
        if entry.trace_id is not None:
            # The context pickles into the spawn worker; traced_execute
            # re-seeds the job tracer there and ships events back in the
            # result tuple.  Identity is untouched: ``trace`` is not part
            # of the spec's hash, equality, or canonical form.
            spec = replace(spec, trace=TraceContext(trace_id=entry.trace_id))
        resubmits = 0
        while True:
            executor, gen = self._executor, self._pool_gen
            if executor is None:
                raise ServeError("broker is shut down")
            try:
                outcome = await asyncio.wrap_future(
                    executor.submit(_pool_worker, spec)
                )
                if len(outcome) > 2 and outcome[2]:
                    entry.events = list(outcome[2])
                return outcome[0], outcome[1]
            except BrokenExecutor as exc:
                resubmits += 1
                entry.attempts += 1
                self.stats.record_resubmit(entry.spec)
                self.metrics.inc("pasm_serve_resubmits_total")
                self._rebuild_pool(gen)
                if resubmits > self.config.max_resubmits:
                    raise ExecError(
                        f"job {entry.label()} crashed the worker pool "
                        f"{resubmits} times; giving up",
                        job=entry.spec.to_dict(),
                        attempts=entry.attempts,
                        cause=exc,
                    ) from exc

    def _rebuild_pool(self, broken_gen: int) -> None:
        """Replace the broken executor exactly once per breakage."""
        if broken_gen != self._pool_gen or self._executor is None:
            return  # a sibling job already rebuilt it
        self._pool_gen += 1
        old = self._executor
        self._executor = ProcessPoolExecutor(
            max_workers=self.pool_jobs, mp_context=_pool_context()
        )
        self._retiring = [f for f in self._retiring if not f.done()]
        self._retiring.append(
            self.loop.run_in_executor(None, _retire_pool, old))

    # ------------------------------------------------------------------
    # Exhibit jobs
    async def _run_exhibit(self, entry: JobEntry) -> None:
        entry.started = time.monotonic()
        self.metrics.add_gauge("pasm_serve_in_flight", 1)
        try:
            start = time.monotonic()
            text = await asyncio.wait_for(
                self.loop.run_in_executor(
                    self._exhibit_pool, self._compute_exhibit,
                    entry.exhibit, entry.seed,
                ),
                timeout=self.config.job_timeout_s,
            )
        except asyncio.TimeoutError:
            self._fail(entry,
                       f"exhibit {entry.exhibit!r} exceeded the "
                       f"{self.config.job_timeout_s:g}s timeout",
                       reason="timeout")
        except asyncio.CancelledError:
            self._fail(entry, "service shut down before the exhibit finished",
                       reason="cancelled")
            raise
        except Exception as exc:
            self._fail(entry, f"{type(exc).__name__}: {exc}", reason="error")
        else:
            entry.wall = time.monotonic() - start
            self.metrics.inc("pasm_serve_computed_total")
            self._finish(entry, {"exhibit": entry.exhibit, "json": text},
                         outcome="computed")
        finally:
            self.metrics.add_gauge("pasm_serve_in_flight", -1)

    def _compute_exhibit(self, name: str, seed: int | None) -> str:
        """Runs on the exhibit thread pool; fans cells back into *this*
        broker (sweep lane), so dedup/cache/metrics see every cell."""
        from repro.core import DecouplingStudy
        from repro.experiments.runner import EXPERIMENTS

        runner = EXPERIMENTS.get(name)
        if runner is None:
            raise ConfigurationError(
                f"unknown exhibit {name!r}; choose from "
                f"{sorted(EXPERIMENTS)}"
            )
        study = DecouplingStudy(
            seed=DEFAULT_SEED if seed is None else seed,
            exec_engine=BrokerEngine(self),
        )
        return runner(study).to_json()

    # ------------------------------------------------------------------
    # Completion
    def _finish(self, entry: JobEntry, payload: dict, *,
                outcome: str) -> None:
        entry.state = DONE
        entry.outcome = outcome
        entry.finished = time.monotonic()
        if not entry.future.done():
            entry.future.set_result(payload)
        if outcome != "cached":
            self.metrics.observe("pasm_serve_job_latency_seconds",
                                 entry.finished - entry.created)
        self._evict_completed()

    def _fail(self, entry: JobEntry, message: str, *, reason: str) -> None:
        entry.state = FAILED
        entry.finished = time.monotonic()
        entry.error = message
        self.metrics.inc("pasm_serve_failed_total", reason=reason)
        if not entry.future.done():
            job = entry.spec.to_dict() if entry.spec is not None else None
            entry.future.set_exception(
                ExecError(message, job=job, attempts=entry.attempts)
            )
        self._evict_completed()

    def _evict_completed(self) -> None:
        """Bound the in-memory result registry (oldest-touched first)."""
        completed = sum(
            1 for e in self.entries.values() if e.state in (DONE, FAILED)
        )
        if completed <= self.config.max_entries:
            return
        for key in list(self.entries):
            if completed <= self.config.max_entries:
                break
            if self.entries[key].state in (DONE, FAILED):
                del self.entries[key]
                completed -= 1


def _consume_exception(future: asyncio.Future) -> None:
    if not future.cancelled():
        future.exception()  # mark retrieved; waiters re-raise their own copy


class BrokerEngine(ExecutionEngine):
    """An :class:`~repro.exec.ExecutionEngine` facade over a broker.

    Exhibit computations run on plain (synchronous) study/experiment
    code in a worker thread; this engine is what their
    :class:`~repro.core.DecouplingStudy` schedules through.  Each spec
    becomes a ``sweep``-lane broker submission, so identical cells
    across concurrent exhibits coalesce and land in the shared caches —
    while the study code stays byte-for-byte the CLI code path.
    """

    def __init__(self, broker: JobBroker, *, lane: str = "sweep") -> None:
        super().__init__(jobs=broker.pool_jobs, cache=None,
                         stats=broker.stats)
        self._broker = broker
        self._lane = lane

    def run(self, specs) -> list[dict]:
        specs = list(specs)
        futures = [
            asyncio.run_coroutine_threadsafe(
                self._broker.fetch(spec, lane=self._lane, internal=True),
                self._broker.loop,
            )
            for spec in specs
        ]
        return [f.result() for f in futures]
