"""Process-pool scheduler: fan independent jobs out across cores.

One :class:`WorkerPool` serves every batch of its owner, so the workers'
per-process memos (assembled fragments, transfer pipelines, the macro
model's popcount matrices) stay warm from one batch to the next.
Results come back in submission order regardless of completion order, so
pooled execution is a drop-in for the serial loop.  A worker crash (e.g.
a killed process taking the whole pool down) fails every in-flight
future; the broken pool is replaced, crashed/failed jobs are resubmitted
to the fresh one for as long as attempts keep completing *something*,
and only consecutive stalled attempts surface as a structured
:class:`~repro.errors.ExecError`.

The worker entry point runs :func:`repro.exec.jobs.traced_execute` — the
same function the serial path calls — so scheduling never changes
results.  For untraced specs (the default) it is exactly
``timed_execute``; a spec carrying a trace context additionally returns
the per-PE simulated-time events recorded inside the worker.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from repro.errors import ConfigurationError, ExecError
from repro.exec.jobs import traced_execute
from repro.exec.spec import SimJobSpec
from repro.faults.chaos import maybe_crash_worker

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | str | None = None) -> int:
    """Resolve a ``--jobs`` value: explicit > $REPRO_JOBS > all cores.

    ``0`` or ``"auto"`` means one job per available core; that is also
    the default when neither an explicit count nor ``$REPRO_JOBS`` is
    given — independent simulation jobs have no reason to leave cores
    idle.  Set ``REPRO_JOBS=1`` to force serial in-process execution.

    Invalid values raise a structured error that names its source: a
    bad explicit argument is a :class:`~repro.errors.ConfigurationError`;
    a bad ``$REPRO_JOBS`` is an :class:`~repro.errors.ExecError` whose
    message names the environment variable — an env-var typo must never
    surface as a bare ``ValueError`` traceback.
    """
    from_env = False
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            jobs, from_env = env, True
        else:
            jobs = os.cpu_count() or 1
    if jobs in (0, "0", "auto"):
        jobs = os.cpu_count() or 1

    def _reject(problem: str):
        if from_env:
            raise ExecError(
                f"invalid {JOBS_ENV}={jobs!r}: {problem} "
                f"(unset {JOBS_ENV}, or use an integer >= 1, "
                f"or 0/'auto' for one per core)"
            ) from None
        raise ConfigurationError(f"invalid job count {jobs!r}: {problem}") \
            from None

    try:
        count = int(jobs)
    except (TypeError, ValueError):
        _reject("not an integer")
    if count < 1:
        _reject("job count must be >= 1")
    return count


def _worker(spec: SimJobSpec):
    """Pool worker entry point (top-level so it pickles).

    Returns ``(payload, wall)`` for untraced specs, ``(payload, wall,
    events)`` for traced ones — see :func:`repro.exec.jobs.traced_execute`.
    """
    maybe_crash_worker(spec.content_hash)  # no-op unless $REPRO_CHAOS armed
    return traced_execute(spec)


class WorkerPool:
    """A process pool that lives across batches until :meth:`close`.

    The first :meth:`run` starts the executor and every later one reuses
    it; a crash that breaks it gets it replaced by a fresh one on the
    next attempt.  A pool found broken when a batch is submitted (a
    worker died while it was idle) is replaced before any job runs, so
    that attempt costs no stall budget and counts no resubmit; a death
    the pool has not noticed yet by then costs one attempt, like a
    crash.  It runs one batch at a time: do not share it between
    threads.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self._executor: ProcessPoolExecutor | None = None

    def close(self) -> None:
        """Shut the workers down; idempotent.  A later :meth:`run` starts
        a fresh pool."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def _submit(self, pending):
        """Submit ``pending`` jobs, starting the pool if none is running.

        Returns ``(futures, failures)``: ``(index, spec, future)`` for
        every job submitted and ``(index, spec, exc)`` for every job a
        broken pool refused.
        """
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        futures, failures = [], []
        for i, spec in pending:
            try:
                futures.append((i, spec, self._executor.submit(_worker, spec)))
            except BrokenProcessPool as exc:
                failures.append((i, spec, exc))
        return futures, failures

    def run(
        self,
        specs: Sequence[SimJobSpec],
        *,
        retries: int = 1,
        on_retry: Callable[[Sequence[SimJobSpec]], None] | None = None,
    ) -> list[tuple[dict, float]]:
        """Execute specs across the pool; deterministic result order.

        Returns ``[(payload, wall_seconds), ...]`` aligned with
        ``specs``.  Failed jobs (worker crashes included) are resubmitted
        as long as each attempt makes *progress* (completes at least one
        job) — one crashed worker breaks the whole pool and fails every
        pending future, so a fixed retry count would starve batches
        larger than the pool.  A stalled attempt (no job completed) can
        still have made invisible progress: the break fails sibling
        futures whose work finished but whose results were not yet
        drained, and kills workers that never reached their job (so e.g.
        a once-only injected fault was consumed without the parent seeing
        it).  The stall budget therefore grows by one per *sibling* —
        only after ``retries + len(pending) - 1`` consecutive stalled
        attempts does a structured ExecError surface; a lone crashing job
        still fails after ``retries`` resubmissions.  ``on_retry`` is
        called with the specs of each resubmitted batch (for the engine's
        instrumentation).
        """
        specs = list(specs)
        results: list[tuple[dict, float] | None] = [None] * len(specs)
        pending = list(enumerate(specs))
        attempt = 0
        stalled = 0  # consecutive attempts that completed nothing
        while pending:
            attempt += 1
            if attempt > 1 and on_retry is not None:
                on_retry([spec for _, spec in pending])
            futures, failures = self._submit(pending)
            if not futures:  # broken before anything ran: a worker died
                self.close()  # while the pool was idle, so this is free
                futures, failures = self._submit(pending)
            for i, spec, future in futures:
                try:
                    results[i] = future.result()
                except Exception as exc:  # incl. BrokenProcessPool
                    failures.append((i, spec, exc))
            failures.sort(key=lambda failure: failure[0])
            if any(isinstance(exc, BrokenProcessPool)
                   for _, _, exc in failures):
                self.close()
            stalled = stalled + 1 if len(failures) == len(pending) else 0
            pending = [(i, spec) for i, spec, _ in failures]
            if pending and stalled > retries + len(pending) - 1:
                index, spec, exc = failures[0]
                raise ExecError(
                    f"{len(failures)} job(s) failed with no progress over "
                    f"{stalled} consecutive attempts ({attempt} total); "
                    f"first: {spec.label()} ({spec.content_hash[:12]}): "
                    f"{exc!r}",
                    job=spec.to_dict(),
                    attempts=attempt,
                    cause=exc,
                )
        return results  # type: ignore[return-value]
