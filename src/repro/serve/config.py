"""Service configuration: one frozen dataclass, CLI- and env-friendly.

Every knob of the serving layer lives here so the broker, the HTTP
front-end, tests and the load generator all construct a service the
same way.  Defaults are chosen for an interactive single-host service;
``pasm-serve`` exposes each field as a command-line flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.exec import ResultCache
from repro.exec.pool import resolve_jobs

#: Default TCP port (PASM's 16 PEs + the paper's year, for memorability).
DEFAULT_PORT = 8137

#: Environment variable overriding the default bind port.
PORT_ENV = "REPRO_SERVE_PORT"

#: Job lanes, highest priority first.  ``interactive`` is the default
#: for external submissions; ``sweep`` is where batch/exhibit fan-out
#: goes, so a human's one-off job never waits behind a parameter sweep.
LANES = ("interactive", "sweep")


def default_port() -> int:
    """``$REPRO_SERVE_PORT`` or :data:`DEFAULT_PORT`."""
    env = os.environ.get(PORT_ENV, "").strip()
    if not env:
        return DEFAULT_PORT
    try:
        return int(env)
    except ValueError:
        raise ConfigurationError(
            f"invalid {PORT_ENV} value {env!r}: must be an integer port"
        ) from None


@dataclass(frozen=True)
class ServeConfig:
    """Everything the simulation service needs to come up.

    Attributes
    ----------
    host, port:
        Bind address.  ``port=0`` binds an ephemeral port (tests, the
        load generator); the bound port is readable from the running
        app.
    jobs:
        Simulation pool width, resolved through the same
        :func:`repro.exec.pool.resolve_jobs` rules as the CLI
        (``None`` = ``$REPRO_JOBS`` or one per core).
    queue_limit:
        Bounded admission queue across all lanes.  A submission that
        would exceed it is refused with 429 + ``Retry-After`` — load
        sheds at the edge instead of growing an unbounded backlog.
    job_timeout_s:
        Per-job ceiling from start-of-execution; an expired job fails
        with a structured timeout error (the worker slot is abandoned,
        not reclaimed — document, don't pretend).
    wait_timeout_s:
        Default long-poll duration of ``?wait=1`` requests; on expiry
        the current state is returned and the client polls again.
    retry_after_s:
        Suggested client delay carried in ``Retry-After`` on 429/503.
    drain_grace_s:
        On SIGTERM: how long to wait for queued + in-flight jobs before
        shutting down anyway.
    max_entries:
        Bound on retained *completed* jobs (the in-memory result
        registry); the oldest results are evicted first.
    cache_dir, no_cache, cache_max_mb:
        On-disk result cache wiring — identical semantics to the
        ``pasm-experiments`` flags, including the LRU size cap.
    exhibit_workers:
        Threads available for whole-exhibit jobs (each fans its cell
        specs out through the broker's queue).
    trace:
        Enable end-to-end job tracing (``--trace``).  When set, every
        external job submission records broker spans (queue wait,
        execution, dedup attachments) and carries a trace context into
        the pool worker, whose per-PE simulated-time lanes come back
        with the result; ``GET /v1/jobs/{hash}/trace`` exports the
        merged Chrome trace.  Off by default: correlation *IDs* are
        always issued (they are just headers), but span recording is
        strictly opt-in.
    log_format:
        Access/lifecycle log rendering, ``"text"`` or ``"json"`` (one
        JSON object per line; see :mod:`repro.obs.jsonlog`).
    instance:
        A human-readable name for this fleet member (``--name``),
        surfaced in ``/healthz`` and the ``pasm_serve_instance_info``
        metric so the router's aggregated views can tell instances
        apart.  Defaults to ``host:port`` once the port is bound.
    """

    host: str = "127.0.0.1"
    port: int = field(default_factory=default_port)
    jobs: int | str | None = None
    queue_limit: int = 64
    job_timeout_s: float = 600.0
    wait_timeout_s: float = 30.0
    retry_after_s: float = 1.0
    drain_grace_s: float = 30.0
    max_entries: int = 4096
    cache_dir: str | None = None
    no_cache: bool = False
    cache_max_mb: float | None = None
    exhibit_workers: int = 4
    max_resubmits: int = 3  #: crashed-worker resubmissions per job
    trace: bool = False
    log_format: str = "text"
    instance: str | None = None

    def __post_init__(self) -> None:
        if self.log_format not in ("text", "json"):
            raise ConfigurationError(
                f"log_format must be 'text' or 'json', "
                f"got {self.log_format!r}"
            )
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {self.max_entries}"
            )
        for name in ("job_timeout_s", "wait_timeout_s", "retry_after_s",
                     "drain_grace_s"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )

    # ------------------------------------------------------------------
    def resolved_jobs(self) -> int:
        """The simulation pool width this configuration implies."""
        return resolve_jobs(self.jobs)

    def make_cache(self) -> ResultCache | None:
        """The on-disk result cache, or ``None`` when disabled."""
        if self.no_cache:
            return None
        return ResultCache(self.cache_dir, max_mb=self.cache_max_mb)

    def with_overrides(self, **kwargs) -> "ServeConfig":
        return replace(self, **kwargs)
