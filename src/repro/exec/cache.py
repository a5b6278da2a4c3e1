"""On-disk result cache keyed by job content hash + package version.

Since the fleet-serving work, this module is a thin adapter: the
actual storage — atomic payload files under ``<root>/<version>/``,
the sqlite recency index, integrity digests, LRU eviction — lives in
:class:`repro.exec.store.SharedStore`, which is safe for concurrent
writers across processes.  ``ResultCache`` binds a store root to *this
package's version* and speaks :class:`~repro.exec.spec.SimJobSpec`, so
the execution engine, the CLI and every ``pasm-serve`` instance of a
fleet dedupe through one shared store.

Entries live under ``<root>/<version>/<content_hash>.json`` so a
package version bump invalidates every cached result at once (the
directory is simply never consulted again).  The root defaults to
``.repro_cache/`` in the working directory, overridable with
``REPRO_CACHE_DIR`` (:func:`repro.exec.store.default_store_root`).

The store is optionally **size-bounded**: with ``max_mb`` (or
``$REPRO_CACHE_MAX_MB``) set, every write prunes the *whole root* —
all versions, so dead generations go first by age — evicting
least-recently-accessed entries until the total is back under the cap.
Recency is the index's ``last_access`` column, maintained on every
load; file atimes are never consulted, so eviction order is correct on
``noatime``/``relatime`` mounts.  Eviction tolerates corrupt, foreign
or concurrently-deleted files the same way loads do: skip, never fail.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.errors import ConfigurationError
from repro.exec.spec import SimJobSpec
from repro.exec.store import SharedStore, default_store_root
from repro.faults.chaos import maybe_corrupt_entry

#: Environment variable bounding the cache size (megabytes, float).
CACHE_MAX_ENV = "REPRO_CACHE_MAX_MB"


def resolve_cache_max_bytes(max_mb: float | None = None) -> int | None:
    """Resolve a cache size cap: explicit ``max_mb`` > env > unbounded.

    Returns the cap in bytes, or ``None`` for unbounded.  A
    non-numeric or non-positive value raises a
    :class:`~repro.errors.ConfigurationError` naming its source.
    """
    source = f"--cache-max-mb value {max_mb!r}"
    if max_mb is None:
        env = os.environ.get(CACHE_MAX_ENV, "").strip()
        if not env:
            return None
        source = f"{CACHE_MAX_ENV} value {env!r}"
        max_mb = env
    try:
        max_mb = float(max_mb)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"invalid {source}: must be a number of megabytes"
        ) from None
    if max_mb <= 0:
        raise ConfigurationError(
            f"invalid {source}: the cache size cap must be positive"
        )
    return int(max_mb * 1024 * 1024)


def _package_version() -> str:
    # Deferred import: repro/__init__ imports repro.core -> repro.exec,
    # so pulling __version__ at module-import time would be circular.
    from repro import __version__

    return __version__


class ResultCache:
    """Content-addressed JSON store for job result payloads."""

    def __init__(self, root: str | os.PathLike | None = None, *,
                 version: str | None = None,
                 max_mb: float | None = None) -> None:
        if root is None:
            root = default_store_root()
        self.version = str(version) if version is not None else _package_version()
        self.backend = SharedStore(root, version=self.version)
        self.max_bytes = resolve_cache_max_bytes(max_mb)

    @property
    def root(self) -> Path:
        return self.backend.root

    @property
    def dir(self) -> Path:
        """The directory holding this version's entries."""
        return self.backend.dir

    def entry_path(self, spec: SimJobSpec) -> Path:
        return self.backend.path_for(spec.content_hash)

    # ------------------------------------------------------------------
    def load(self, spec: SimJobSpec) -> dict | None:
        """Return the cached payload for a spec, or None on any miss.

        An entry carrying a ``payload_sha256`` that does not match its
        payload (bit rot, a truncated write that still parses, chaos
        injection) is a miss too — never an error, never stale data.
        A hit refreshes the entry's ``last_access`` recency record.
        """
        entry = self.backend.get(spec.content_hash)
        if entry is None:
            return None
        return entry.get("payload")

    def store(self, spec: SimJobSpec, payload: dict) -> Path:
        """Atomically persist a payload under the spec's content hash."""
        path = self.backend.put(spec.content_hash, payload,
                                spec_doc=spec.to_dict())
        maybe_corrupt_entry(spec.content_hash, path)  # $REPRO_CHAOS only
        if self.max_bytes is not None:
            self.prune()
        return path

    # ------------------------------------------------------------------
    # Size bounding
    def size_bytes(self) -> int:
        """Total bytes of entries under the root (all versions)."""
        return self.backend.size_bytes()

    def prune(self, max_bytes: int | None = None) -> int:
        """Evict least-recently-accessed entries until under the cap.

        Returns the number of entries evicted.  With no cap configured
        (and none passed) this is a no-op.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            return 0
        return self.backend.prune(cap)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of entries stored for this version."""
        return self.backend.count()

    def clear(self) -> None:
        """Drop every entry of this version."""
        self.backend.clear()
