"""The shared content-addressed store: concurrency, integrity, LRU.

The store is the fleet's common ground — N ``pasm-serve`` processes
point at one root — so these tests hammer exactly the properties that
make sharing safe: atomic publication under a genuine multi-process
race (one intact entry, digest-verified), a sqlite index that survives
concurrent writers (WAL + busy timeout + bounded retries), recency as
an index column rather than a file atime, and a hypothesis model over
interleaved ``get``/``put``/``prune`` sequences.
"""

import json
import multiprocessing
import shutil
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exec import SharedStore, content_hash_of, default_store_root
from repro.exec.store import INDEX_DB

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# ---------------------------------------------------------------------------
# Basics: roundtrip, integrity, layout
class TestRoundTrip:
    def test_put_get_roundtrip(self, tmp_path):
        store = SharedStore(tmp_path, version="1.0")
        store.put("k1", {"cycles": 42.0})
        entry = store.get("k1")
        assert entry["payload"] == {"cycles": 42.0}
        assert entry["version"] == "1.0"
        assert entry["payload_sha256"] == content_hash_of({"cycles": 42.0})

    def test_layout_is_version_slash_key(self, tmp_path):
        store = SharedStore(tmp_path, version="1.0")
        path = store.put("abc123", {"x": 1})
        assert path == tmp_path / "1.0" / "abc123.json"
        assert path.exists()

    def test_missing_key_is_none(self, tmp_path):
        assert SharedStore(tmp_path, version="1.0").get("nope") is None

    def test_foreign_version_is_a_miss(self, tmp_path):
        SharedStore(tmp_path, version="1.0").put("k", {"x": 1})
        assert SharedStore(tmp_path, version="2.0").get("k") is None

    def test_tampered_payload_fails_digest_check(self, tmp_path):
        store = SharedStore(tmp_path, version="1.0")
        path = store.put("k", {"x": 1})
        entry = json.loads(path.read_text())
        entry["payload"]["x"] = 2  # flip a bit, keep the stale digest
        path.write_text(json.dumps(entry))
        assert store.get("k") is None

    def test_env_var_names_the_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fleet"))
        assert default_store_root() == str(tmp_path / "fleet")
        store = SharedStore(version="1.0")
        store.put("k", {"x": 1})
        assert (tmp_path / "fleet" / "1.0" / "k.json").exists()


# ---------------------------------------------------------------------------
# The sqlite index
class TestIndex:
    def test_index_runs_in_wal_mode(self, tmp_path):
        store = SharedStore(tmp_path, version="1.0")
        store.put("k", {"x": 1})
        with sqlite3.connect(tmp_path / INDEX_DB) as conn:
            (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
        assert mode.lower() == "wal"

    def test_hit_refreshes_last_access(self, tmp_path):
        store = SharedStore(tmp_path, version="1.0")
        store.put("k", {"x": 1})
        store.set_last_access("k", 100.0)
        assert store.last_access("k") == 100.0
        store.get("k")
        assert store.last_access("k") > 100.0

    def test_lost_index_loses_recency_not_results(self, tmp_path):
        store = SharedStore(tmp_path, version="1.0")
        store.put("k", {"x": 1})
        store.close()
        (tmp_path / INDEX_DB).unlink()
        rebuilt = SharedStore(tmp_path, version="1.0")
        # Still a hit — and the hit re-indexes the entry.
        assert rebuilt.get("k")["payload"] == {"x": 1}
        assert rebuilt.last_access("k") is not None

    def test_bounded_retries_on_a_locked_database(self, tmp_path,
                                                  monkeypatch):
        store = SharedStore(tmp_path, version="1.0")
        attempts = []

        def flaky(conn):
            attempts.append(1)
            if len(attempts) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "through"

        monkeypatch.setattr("repro.exec.store.time.sleep", lambda s: None)
        assert store._retry(flaky) == "through"
        assert len(attempts) == 3

    def test_non_lock_errors_surface_immediately(self, tmp_path):
        store = SharedStore(tmp_path, version="1.0")

        def broken(conn):
            raise sqlite3.OperationalError("no such table: nonsense")

        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            store._retry(broken)


# ---------------------------------------------------------------------------
# Concurrent writers: two OS processes race to publish the same hash
def _race_writer(root, key, payload, barrier, rounds):
    store = SharedStore(root, version="1.0")
    barrier.wait(timeout=30)
    for _ in range(rounds):
        store.put(key, payload)


class TestConcurrentWriters:
    def test_same_key_race_yields_one_intact_entry(self, tmp_path):
        """Two processes hammering one content hash: readers must only
        ever see a complete, digest-valid entry, and afterwards exactly
        one file exists whose sha256 matches its payload."""
        payload = {"cycles": 7.0, "blob": "x" * 2048}
        key = content_hash_of(payload)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(3)
        procs = [
            ctx.Process(target=_race_writer,
                        args=(tmp_path, key, payload, barrier, 40))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        store = SharedStore(tmp_path, version="1.0")
        barrier.wait(timeout=30)
        # Read concurrently with the writers: every observation must be
        # a miss (not yet published) or the full, verified entry.
        while any(p.is_alive() for p in procs):
            entry = store.get(key)
            if entry is not None:
                assert entry["payload"] == payload
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        files = list((tmp_path / "1.0").glob("*.json"))
        assert len(files) == 1
        entry = json.loads(files[0].read_text())
        assert entry["payload"] == payload
        assert entry["payload_sha256"] == content_hash_of(payload)
        assert store.get(key)["payload"] == payload

    def test_distinct_keys_from_racing_processes_all_land(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = []
        for who in range(2):
            payload = {"writer": who}
            procs.append(ctx.Process(
                target=_race_writer,
                args=(tmp_path, f"key-{who}", payload, barrier, 10),
            ))
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        store = SharedStore(tmp_path, version="1.0")
        for who in range(2):
            assert store.get(f"key-{who}")["payload"] == {"writer": who}
        assert store.count() == 2


# ---------------------------------------------------------------------------
# LRU eviction by last_access column
class TestPrune:
    def test_evicts_by_index_recency_oldest_first(self, tmp_path):
        store = SharedStore(tmp_path, version="1.0")
        for i in range(4):
            store.put(f"k{i}", {"i": i})
            store.set_last_access(f"k{i}", 100.0 + i)
        size = store.path_for("k0").stat().st_size
        assert store.prune(2 * size) == 2
        assert store.get("k0") is None
        assert store.get("k1") is None
        assert store.get("k2")["payload"] == {"i": 2}
        assert store.get("k3")["payload"] == {"i": 3}

    def test_unindexed_files_fall_back_to_mtime(self, tmp_path):
        import os

        store = SharedStore(tmp_path, version="1.0")
        store.put("young", {"x": 1})
        store.set_last_access("young", 10_000.0)
        foreign = tmp_path / "1.0" / "foreign.json"
        foreign.write_text("{}")
        os.utime(foreign, (1.0, 1.0))  # ancient mtime: first out
        store.close()
        (tmp_path / INDEX_DB).unlink()
        rebuilt = SharedStore(tmp_path, version="1.0")
        rebuilt.touch("young", 10_000.0)  # re-index the survivor only
        size = rebuilt.path_for("young").stat().st_size
        assert rebuilt.prune(size) >= 1
        assert not foreign.exists()
        assert rebuilt.get("young")["payload"] == {"x": 1}

    def test_under_cap_is_a_noop(self, tmp_path):
        store = SharedStore(tmp_path, version="1.0")
        store.put("k", {"x": 1})
        assert store.prune(10 ** 9) == 0
        assert store.get("k")["payload"] == {"x": 1}


# ---------------------------------------------------------------------------
# Hypothesis: interleaved get/put/prune against a model dict
_KEYS = ("ka", "kb", "kc", "kd")

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(_KEYS),
                  st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("get"), st.sampled_from(_KEYS)),
        st.tuples(st.just("prune_keep"),
                  st.integers(min_value=0, max_value=len(_KEYS))),
    ),
    max_size=24,
)


@SETTINGS
@given(ops=_ops)
def test_store_agrees_with_a_model(tmp_path, ops):
    """Any interleaving of put/get/prune behaves like a dict with LRU.

    Recency is stamped with a deterministic counter after every touch,
    so the model knows exactly which entries a prune evicts: the cap is
    set to the byte-size of the ``keep`` most-recent entries and the
    rest must be gone.
    """
    # tmp_path is per-test, not per-example: give every hypothesis
    # example a pristine root so the model starts from truth.
    root = tmp_path / "store"
    shutil.rmtree(root, ignore_errors=True)
    store = SharedStore(root, version="1.0")
    model: dict[str, int] = {}
    stamp: dict[str, int] = {}
    clock = 0
    for op in ops:
        clock += 1
        if op[0] == "put":
            _, key, value = op
            store.put(key, {"v": value})
            store.set_last_access(key, float(clock))
            model[key] = value
            stamp[key] = clock
        elif op[0] == "get":
            _, key = op
            entry = store.get(key)
            if key in model:
                assert entry is not None and entry["payload"] == {
                    "v": model[key]
                }
                store.set_last_access(key, float(clock))
                stamp[key] = clock
            else:
                assert entry is None
        else:  # prune to the newest `keep` entries
            _, keep = op
            by_age = sorted(model, key=lambda k: stamp[k], reverse=True)
            keepers = set(by_age[:keep])
            cap = sum(
                store.path_for(k).stat().st_size for k in keepers
            )
            store.prune(cap)
            for key in list(model):
                if key not in keepers:
                    del model[key]
                    del stamp[key]
    for key in _KEYS:
        entry = store.get(key)
        if key in model:
            assert entry["payload"] == {"v": model[key]}
        else:
            assert entry is None
    assert store.count() == len(model)
