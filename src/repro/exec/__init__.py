"""Execution engine: parallel, cached scheduling of simulation jobs.

Every timed simulation the experiment layer needs — a ``(mode, n, p,
added_multiplies)`` matmul run on either substrate, a Table 1
instruction-rate measurement — is described by a :class:`SimJobSpec`
with a stable content hash.  Independent specs are embarrassingly
parallel (the decoupled-stream property the paper itself measures), so
the :class:`ExecutionEngine` fans them out across one process pool that
serves all its batches (``--jobs N`` / ``$REPRO_JOBS``), memoises results in an on-disk
:class:`ResultCache` keyed by job hash + package version, and keeps
cache-hit/wall-time instrumentation (:class:`ExecStats`, the ``--stats``
table).

Layering: this package sits *below* :mod:`repro.core` (the study facade
routes through it) and above the substrates (:mod:`repro.machine`,
:mod:`repro.timing_model`); it must never import :mod:`repro.core` or
:mod:`repro.experiments`.
"""

from repro.errors import ExecError
from repro.exec.cache import (
    CACHE_MAX_ENV,
    ResultCache,
    resolve_cache_max_bytes,
)
from repro.exec.engine import ExecStats, ExecutionEngine
from repro.exec.jobs import (
    execute_job,
    faultsweep_spec,
    matmul_spec,
    mips_spec,
    timed_execute,
    traced_execute,
)
from repro.exec.pool import JOBS_ENV, WorkerPool, resolve_jobs
from repro.exec.spec import SimJobSpec, canonical_json, content_hash_of
from repro.exec.store import DEFAULT_CACHE_DIR, SharedStore, default_store_root

__all__ = [
    "CACHE_MAX_ENV",
    "DEFAULT_CACHE_DIR",
    "ExecError",
    "ExecStats",
    "ExecutionEngine",
    "JOBS_ENV",
    "ResultCache",
    "SharedStore",
    "SimJobSpec",
    "WorkerPool",
    "canonical_json",
    "content_hash_of",
    "default_store_root",
    "execute_job",
    "faultsweep_spec",
    "matmul_spec",
    "mips_spec",
    "resolve_cache_max_bytes",
    "resolve_jobs",
    "timed_execute",
    "traced_execute",
]
