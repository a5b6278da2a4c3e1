"""The execution engine facade: cache lookup, fan-out, instrumentation.

:class:`ExecutionEngine` is the handle the experiment layer routes
through.  ``run(specs)`` answers a batch of job specs in order:

1. every spec is looked up in the on-disk result cache (if configured);
2. the misses are computed — across the engine's process pool when
   ``jobs > 1``, in-process otherwise — by the *same*
   :func:`repro.exec.jobs.execute_job` either way, so results are
   identical no matter the schedule;
3. fresh results are written back to the cache, and per-job wall time
   plus hit/miss counters accumulate in :class:`ExecStats`.

The pool starts with the first pooled batch and serves every later one,
so worker memos persist across batches; :meth:`ExecutionEngine.close`
(or leaving a ``with`` block) shuts it down.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.exec.cache import ResultCache
from repro.exec.jobs import traced_execute
from repro.exec.pool import WorkerPool, resolve_jobs
from repro.exec.spec import SimJobSpec
from repro.obs.tracer import TraceContext, Tracer
from repro.perf import percentile
from repro.utils.tables import format_table


@dataclass
class _ProgramStats:
    """Counters for one (program, engine) bucket."""

    jobs: int = 0
    computed: int = 0
    cache_hits: int = 0
    wall_seconds: float = 0.0
    max_wall: float = 0.0
    resubmits: int = 0
    dedup: int = 0  #: submissions absorbed by an identical in-flight job
    walls: list[float] = field(default_factory=list)  #: per-job wall times


@dataclass
class ExecStats:
    """Engine instrumentation: cache counters and per-job wall time."""

    by_bucket: dict[str, _ProgramStats] = field(default_factory=dict)

    def _bucket(self, spec: SimJobSpec) -> _ProgramStats:
        key = f"{spec.program}/{spec.engine}"
        return self.by_bucket.setdefault(key, _ProgramStats())

    def record_hit(self, spec: SimJobSpec) -> None:
        bucket = self._bucket(spec)
        bucket.jobs += 1
        bucket.cache_hits += 1

    def record_run(self, spec: SimJobSpec, wall_seconds: float) -> None:
        bucket = self._bucket(spec)
        bucket.jobs += 1
        bucket.computed += 1
        bucket.wall_seconds += wall_seconds
        bucket.max_wall = max(bucket.max_wall, wall_seconds)
        bucket.walls.append(wall_seconds)

    def record_resubmit(self, spec: SimJobSpec) -> None:
        """Count one crashed-and-resubmitted pool job."""
        self._bucket(spec).resubmits += 1

    def record_dedup(self, spec: SimJobSpec) -> None:
        """Count one submission absorbed by an identical job.

        Used by the serving broker for single-flight coalescing (a
        duplicate of an in-flight job) and completed-job memoization —
        the same events its ``pasm_serve_submitted_total`` metric
        counts, so the ``--stats`` dedup column and ``/metrics`` stay
        consistent by construction (asserted in ``tests/test_obs_serve``).
        Deduped submissions do not count as jobs: the one computing
        submission already does.
        """
        self._bucket(spec).dedup += 1

    # ------------------------------------------------------------------
    @property
    def jobs(self) -> int:
        """Total specs processed (cache hits + computed)."""
        return sum(b.jobs for b in self.by_bucket.values())

    @property
    def cache_hits(self) -> int:
        return sum(b.cache_hits for b in self.by_bucket.values())

    @property
    def computed(self) -> int:
        return sum(b.computed for b in self.by_bucket.values())

    @property
    def wall_seconds(self) -> float:
        return sum(b.wall_seconds for b in self.by_bucket.values())

    @property
    def resubmits(self) -> int:
        """Total crashed-and-resubmitted pool jobs."""
        return sum(b.resubmits for b in self.by_bucket.values())

    @property
    def dedup(self) -> int:
        """Total submissions absorbed by identical jobs (serving layer)."""
        return sum(b.dedup for b in self.by_bucket.values())

    def summary_table(self, *, title: str = "execution engine stats") -> str:
        """The ``--stats`` summary, rendered via repro.utils.tables.

        Column order is load-bearing: the CI cache-smoke job parses
        ``jobs``/``computed``/``cache hits`` positionally ($2/$3/$4 of
        the TOTAL row), so new columns go after those; ``resubmits``
        stays last.  The p50/p95 columns come from the per-job wall
        samples (means hide the tail — one slow MIMD job among cheap
        macro evaluations is exactly what a mean buries).
        """
        headers = ["program", "jobs", "computed", "cache hits",
                   "wall (s)", "mean (ms)", "max (ms)",
                   "p50 (ms)", "p95 (ms)", "dedup", "resubmits"]
        rows: list[tuple] = []
        all_walls: list[float] = []
        for key in sorted(self.by_bucket):
            b = self.by_bucket[key]
            all_walls.extend(b.walls)
            mean_ms = 1e3 * b.wall_seconds / b.computed if b.computed else 0.0
            rows.append((key, b.jobs, b.computed, b.cache_hits,
                         round(b.wall_seconds, 3), round(mean_ms, 2),
                         round(1e3 * b.max_wall, 2),
                         round(1e3 * percentile(b.walls, 50), 2),
                         round(1e3 * percentile(b.walls, 95), 2),
                         b.dedup, b.resubmits))
        total_mean = 1e3 * self.wall_seconds / self.computed if self.computed else 0.0
        rows.append(("TOTAL", self.jobs, self.computed, self.cache_hits,
                     round(self.wall_seconds, 3), round(total_mean, 2),
                     round(1e3 * max((b.max_wall for b in
                                      self.by_bucket.values()), default=0.0),
                           2),
                     round(1e3 * percentile(all_walls, 50), 2),
                     round(1e3 * percentile(all_walls, 95), 2),
                     self.dedup, self.resubmits))
        return format_table(headers, rows, title=title)

    def breakdown(self) -> dict[str, float]:
        """Computed wall seconds per bucket (for perf.format_breakdown)."""
        return {key: b.wall_seconds for key, b in sorted(self.by_bucket.items())}


class ExecutionEngine:
    """Scheduler + cache + stats behind one handle.

    Parameters
    ----------
    jobs:
        Worker processes for batch execution; ``None`` consults
        ``$REPRO_JOBS`` and otherwise uses one worker per available
        core; ``0``/``"auto"`` forces all cores explicitly.  ``jobs=1``
        executes in-process — the reference serial path.  With
        ``jobs > 1`` the workers outlive each batch: close the engine
        (``close()`` or a ``with`` block) when done with it.  Under the
        fork start method (Linux's default) the pool forks all ``jobs``
        workers at its first batch, and the environment that jobs read
        (``REPRO_CHAOS``, ``REPRO_PURE_EVENTS``) is captured then: close
        the engine to pick up a change.
    cache:
        Optional :class:`ResultCache`; ``None`` disables disk caching.
    stats:
        Optional shared :class:`ExecStats` to accumulate into.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  When set, every computed
        job gets a wall-clock ``execute`` span and cache hits get
        instants; jobs carry a :class:`~repro.obs.TraceContext` into
        the pool workers, whose simulated-time per-PE lanes are merged
        back into the tracer.  ``None`` (the default) keeps the whole
        path untouched — no context attached, no per-job bookkeeping.
    """

    def __init__(
        self,
        *,
        jobs: int | str | None = None,
        cache: ResultCache | None = None,
        stats: ExecStats | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.stats = stats or ExecStats()
        self.tracer = tracer
        self._pool: WorkerPool | None = None

    def close(self) -> None:
        """Shut the worker pool down, if one started; idempotent."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def eager(self) -> bool:
        """Whether prefetching batches through this engine pays off.

        True when the engine can fan out (``jobs > 1``) or persists
        results (a cache is configured).  A serial cache-less engine is
        lazy: callers should just compute on demand, exactly like the
        original single-process path.
        """
        return self.jobs > 1 or self.cache is not None

    # ------------------------------------------------------------------
    def run(self, specs: Iterable[SimJobSpec] | Sequence[SimJobSpec]) -> list[dict]:
        """Execute a batch of specs; payloads come back in spec order."""
        specs = list(specs)
        tracer = self.tracer
        payloads: list[dict | None] = [None] * len(specs)
        pending: list[tuple[int, SimJobSpec]] = []
        for i, spec in enumerate(specs):
            if self.cache is not None:
                hit = self.cache.load(spec)
                if hit is not None:
                    payloads[i] = hit
                    self.stats.record_hit(spec)
                    if tracer is not None:
                        tracer.add_instant(
                            f"cache hit {spec.label()}", proc="engine",
                            thread="cache", cat="cache",
                            args={"hash": spec.content_hash[:12]},
                        )
                    continue
            pending.append((i, spec))
        if pending:
            to_run = [spec for _, spec in pending]
            if tracer is not None:
                ctx = TraceContext(trace_id=tracer.trace_id,
                                   max_events=tracer.max_events)
                to_run = [replace(spec, trace=ctx) for spec in to_run]
            if self.jobs > 1:
                if self._pool is None:
                    self._pool = WorkerPool(self.jobs)
                outcomes = self._pool.run(
                    to_run,
                    on_retry=lambda retried: [
                        self.stats.record_resubmit(s) for s in retried
                    ],
                )
            else:
                outcomes = [traced_execute(spec) for spec in to_run]
            for (i, spec), outcome in zip(pending, outcomes):
                payload, wall = outcome[0], outcome[1]
                payloads[i] = payload
                self.stats.record_run(spec, wall)
                if tracer is not None:
                    # Drain time stands in for finish time on the pooled
                    # path (workers do not share the tracer clock), so a
                    # span covers at least the job's own wall interval.
                    end = tracer.clock_us()
                    tracer.add_span(
                        spec.label(), ts=max(0.0, end - wall * 1e6),
                        dur=wall * 1e6, proc="engine",
                        thread=f"job {spec.content_hash[:8]}",
                        cat="execute", args={"hash": spec.content_hash[:12]},
                    )
                    if len(outcome) > 2 and outcome[2]:
                        tracer.extend(outcome[2])
                if self.cache is not None:
                    self.cache.store(spec, payload)
        return payloads  # type: ignore[return-value]
