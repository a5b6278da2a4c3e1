"""Shared content-addressed result store: sqlite-indexed, fleet-safe.

This is the storage layer under :class:`repro.exec.ResultCache`, built
to be shared by N concurrent ``pasm-serve`` instances (separate OS
processes, possibly separate users of one mount):

* **payloads stay plain files** — ``<root>/<version>/<hash>.json``,
  written atomically (temp file + ``os.replace``), so a reader never
  sees a torn entry and the on-disk layout stays debuggable with
  ``cat`` and byte-identical to the pre-store cache;
* **the index is sqlite** — ``<root>/store.db`` in WAL mode with a
  busy timeout and bounded lock retries, so concurrent writers from
  many processes serialize on the index without corrupting it;
* **recency is a column, not an atime** — every hit updates a
  ``last_access`` column, and size-capped LRU eviction orders by that
  column.  ``noatime``/``relatime`` mounts (i.e. every production
  filesystem) therefore cannot starve or scramble the eviction order;
  file ``st_atime`` is never consulted;
* **integrity is content-addressed** — each entry records the
  package version it was computed by and the SHA-256 of its payload;
  a version mismatch or digest mismatch is a miss, never stale data.

The index is advisory: losing ``store.db`` loses recency ordering, not
results.  Files unknown to the index (foreign junk, entries written by
an older cache, a rebuilt database) are still counted against the size
cap and evicted by file mtime as a fallback, so eviction tolerates
everything loads tolerate.

The default root honours ``$REPRO_CACHE_DIR`` (the variable behind
``--cache-dir``), so a fleet can point every instance at one shared
location with a single variable.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import threading
import time
from pathlib import Path

#: Default store root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Index filename under the store root.
INDEX_DB = "store.db"

#: How long one sqlite operation waits on a writer before failing over
#: to the retry loop (seconds).
BUSY_TIMEOUT_S = 5.0

#: Bounded retries around ``database is locked`` — WAL plus the busy
#: timeout makes these rare, but a fleet-wide prune storm can still
#: exhaust a timeout window.
LOCK_RETRIES = 8

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    version      TEXT NOT NULL,
    key          TEXT NOT NULL,
    payload_sha256 TEXT,
    size         INTEGER NOT NULL,
    created      REAL NOT NULL,
    last_access  REAL NOT NULL,
    PRIMARY KEY (version, key)
);
CREATE INDEX IF NOT EXISTS entries_last_access ON entries (last_access);
"""


def default_store_root() -> str:
    """``$REPRO_CACHE_DIR`` or the conventional ``.repro_cache``."""
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


def _content_hash_of(obj) -> str:
    # Deferred: repro.exec.spec imports machine/faults layers; keep the
    # store importable from anywhere without dragging those in eagerly.
    from repro.exec.spec import content_hash_of

    return content_hash_of(obj)


class SharedStore:
    """One version's view of a shared content-addressed result store.

    Multiple :class:`SharedStore` objects — across threads, processes
    and package versions — may point at the same root; they share one
    sqlite index and one payload tree.  All methods are safe under
    that concurrency: the worst outcome of any race is a miss or a
    double-evict, never corruption.
    """

    def __init__(self, root: str | os.PathLike | None = None, *,
                 version: str = "0") -> None:
        if root is None:
            root = default_store_root()
        self.root = Path(root)
        self.version = str(version)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Paths
    @property
    def db_path(self) -> Path:
        return self.root / INDEX_DB

    @property
    def dir(self) -> Path:
        """The directory holding this version's entries."""
        return self.root / self.version

    def path_for(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    # ------------------------------------------------------------------
    # Index plumbing
    def _conn(self) -> sqlite3.Connection:
        """A per-process, per-thread connection (fork- and thread-safe)."""
        local = self._local
        if getattr(local, "pid", None) != os.getpid() or \
                getattr(local, "conn", None) is None:
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.db_path, timeout=BUSY_TIMEOUT_S)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
            conn.executescript(_SCHEMA)
            local.conn, local.pid = conn, os.getpid()
        return local.conn

    def _retry(self, op):
        """Run ``op(conn)`` with bounded retries on a locked database."""
        for attempt in range(LOCK_RETRIES + 1):
            try:
                conn = self._conn()
                with conn:  # one transaction per op
                    return op(conn)
            except sqlite3.OperationalError as exc:
                text = str(exc).lower()
                if "locked" not in text and "busy" not in text:
                    raise
                if attempt == LOCK_RETRIES:
                    raise
                time.sleep(0.01 * (attempt + 1))

    # ------------------------------------------------------------------
    # Entries
    def put(self, key: str, payload: dict, *,
            spec_doc: dict | None = None) -> Path:
        """Atomically persist a payload and index it.

        Two processes racing to publish the same key both write a
        complete temp file and ``os.replace`` it into place — last
        writer wins and the loser's bytes are identical in meaning, so
        readers always see one intact entry.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "version": self.version,
            "payload": payload,
            "payload_sha256": _content_hash_of(payload),
        }
        if spec_doc is not None:
            entry["spec"] = spec_doc
        data = json.dumps(entry, sort_keys=True, indent=1).encode("utf-8")
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}"
                             f".{threading.get_ident()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
        now = time.time()
        size = len(data)
        self._retry(lambda conn: conn.execute(
            "INSERT INTO entries (version, key, payload_sha256, size,"
            " created, last_access) VALUES (?, ?, ?, ?, ?, ?)"
            " ON CONFLICT (version, key) DO UPDATE SET"
            " payload_sha256=excluded.payload_sha256,"
            " size=excluded.size, last_access=excluded.last_access",
            (self.version, key, entry["payload_sha256"], size, now, now),
        ))
        return path

    def get(self, key: str) -> dict | None:
        """The entry document for a key, or ``None`` on any miss.

        A miss is anything less than a fully intact entry of this
        store's version: missing/corrupt file, foreign version, or a
        ``payload_sha256`` that no longer matches its payload (bit
        rot, truncated-but-parseable writes, chaos injection).  Hits
        refresh the ``last_access`` column — the LRU signal — with a
        best-effort write (a lock storm must never fail a read).
        """
        try:
            entry = json.loads(self.path_for(key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("version") != self.version:
            return None
        payload = entry.get("payload")
        digest = entry.get("payload_sha256")
        if digest is not None and digest != _content_hash_of(payload):
            return None
        try:
            self.touch(key)
        except sqlite3.Error:
            pass
        return entry

    def touch(self, key: str, when: float | None = None) -> None:
        """Refresh (or create) the recency record of one entry.

        Upserts so that files which predate the index — or survived an
        index rebuild — regain a recency record on first hit instead
        of being stuck in the mtime-fallback tier forever.
        """
        now = time.time() if when is None else when
        size = 0
        try:
            size = self.path_for(key).stat().st_size
        except OSError:
            pass
        self._retry(lambda conn: conn.execute(
            "INSERT INTO entries (version, key, size, created, last_access)"
            " VALUES (?, ?, ?, ?, ?)"
            " ON CONFLICT (version, key) DO UPDATE SET"
            " last_access=excluded.last_access",
            (self.version, key, size, now, now),
        ))

    def set_last_access(self, key: str, when: float) -> None:
        """Pin an entry's recency to an exact instant (tests, tools)."""
        self.touch(key, when)

    def last_access(self, key: str) -> float | None:
        row = self._retry(lambda conn: conn.execute(
            "SELECT last_access FROM entries WHERE version=? AND key=?",
            (self.version, key),
        ).fetchone())
        return row[0] if row else None

    # ------------------------------------------------------------------
    # Size bounding
    def _files(self) -> list[tuple[Path, int, float]]:
        """``(path, size, mtime)`` of every entry file under the root."""
        out = []
        try:
            paths = list(self.root.rglob("*.json"))
        except OSError:
            return []
        for path in paths:
            try:
                st = path.stat()
            except OSError:
                continue  # deleted by a concurrent pruner
            out.append((path, st.st_size, st.st_mtime))
        return out

    def size_bytes(self) -> int:
        """Total bytes of entry files under the root (all versions)."""
        return sum(size for _, size, _ in self._files())

    def _index_recency(self) -> dict[str, float]:
        """``relpath -> last_access`` for every indexed entry."""
        try:
            rows = self._retry(lambda conn: conn.execute(
                "SELECT version, key, last_access FROM entries"
            ).fetchall())
        except sqlite3.Error:
            return {}
        return {f"{version}/{key}.json": at for version, key, at in rows}

    def prune(self, cap_bytes: int) -> int:
        """Evict least-recently-accessed entries until under the cap.

        Ordering comes from the index's ``last_access`` column —
        **never** from file atimes — with file mtime as the fallback
        tier for files the index does not know (foreign junk, pre-index
        entries).  Races with concurrent pruners and loaders are
        tolerated the same way loads tolerate them: skip, never fail.
        """
        files = self._files()
        total = sum(size for _, size, _ in files)
        if total <= cap_bytes:
            return 0
        recency = self._index_recency()
        scored = []
        for path, size, mtime in files:
            try:
                rel = path.relative_to(self.root).as_posix()
            except ValueError:
                rel = path.name
            scored.append((recency.get(rel, mtime), str(path), path, size))
        evicted = 0
        # Oldest access first; path as tie-break keeps eviction stable.
        for _, _, path, size in sorted(scored, key=lambda e: (e[0], e[1])):
            if total <= cap_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue  # raced with another pruner: already gone
            total -= size
            evicted += 1
            self._forget(path)
        return evicted

    def _forget(self, path: Path) -> None:
        """Drop the index row of an evicted file (best effort)."""
        try:
            rel = path.relative_to(self.root)
        except ValueError:
            return
        if len(rel.parts) != 2:
            return  # foreign file outside the <version>/<key>.json layout
        version, name = rel.parts
        try:
            self._retry(lambda conn: conn.execute(
                "DELETE FROM entries WHERE version=? AND key=?",
                (version, name.removesuffix(".json")),
            ))
        except sqlite3.Error:
            pass

    # ------------------------------------------------------------------
    def count(self) -> int:
        """Number of entry files stored for this version."""
        try:
            return sum(1 for _ in self.dir.glob("*.json"))
        except OSError:
            return 0

    def clear(self) -> None:
        """Drop every entry (files and index rows) of this version."""
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self._retry(lambda conn: conn.execute(
                "DELETE FROM entries WHERE version=?", (self.version,)
            ))
        except sqlite3.Error:
            pass

    def close(self) -> None:
        """Close this thread's index connection (tests, teardown)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None
