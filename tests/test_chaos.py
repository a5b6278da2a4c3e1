"""Chaos engineering for the execution engine, deterministically.

``$REPRO_CHAOS`` arms seeded worker crashes and cache-entry corruption;
these tests drive the engine's two recovery paths — resubmission to a
replacement pool and corrupt-entry-as-miss — and assert that recovered runs
are bit-identical to undisturbed ones, with the damage visible in the
``--stats`` instrumentation.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.exec import ExecutionEngine, ResultCache, matmul_spec
from repro.faults import CHAOS_ENV, ChaosConfig
from repro.machine import ExecutionMode, PrototypeConfig

CFG = PrototypeConfig.calibrated()


def _specs():
    """Two cheap, distinct macro jobs (<= pool width, so the first pool
    attempt executes both and every crash sentinel gets written)."""
    return [
        matmul_spec(ExecutionMode.SMIMD, 32, 4, engine="macro", config=CFG),
        matmul_spec(ExecutionMode.MIMD, 32, 4, engine="macro", config=CFG),
    ]


@pytest.fixture
def chaos_env(monkeypatch, tmp_path):
    """Arm chaos with a caller-chosen knob string; sentinel state in tmp."""

    def arm(knobs: str):
        monkeypatch.setenv(
            CHAOS_ENV, f"seed=7,{knobs},dir={tmp_path / 'chaos-state'}"
        )

    yield arm
    monkeypatch.delenv(CHAOS_ENV, raising=False)


# ---------------------------------------------------------------------------
# Knob parsing
def test_parse_full_config(tmp_path):
    chaos = ChaosConfig.parse(
        f"seed=42, crash=0.5, corrupt=1.0, dir={tmp_path}"
    )
    assert chaos.seed == 42
    assert chaos.crash_rate == 0.5
    assert chaos.corrupt_rate == 1.0
    assert chaos.state_dir == str(tmp_path)


@pytest.mark.parametrize("text", [
    "crash=1.0",                # no seed
    "seed=1,banana=2",          # unknown key
    "seed=1,crash=oops",        # not a number
    "seed=1,crash=1.5",         # out of range
    "seed=1,crash",             # malformed entry
])
def test_parse_rejects_bad_configs(text):
    with pytest.raises(ConfigurationError):
        ChaosConfig.parse(text)


def test_from_env_off_by_default(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    assert ChaosConfig.from_env() is None


def test_decisions_are_deterministic_and_once_only(tmp_path):
    chaos = ChaosConfig(seed=3, crash_rate=1.0, state_dir=str(tmp_path))
    assert chaos._fraction("crash", "abc") == chaos._fraction("crash", "abc")
    assert chaos.should_crash("abc") is True  # doomed...
    assert chaos.should_crash("abc") is False  # ...but only once
    assert ChaosConfig(seed=3, crash_rate=0.0,
                       state_dir=str(tmp_path)).should_crash("def") is False


# ---------------------------------------------------------------------------
# Worker crashes: resubmission recovers, results identical, damage counted
def test_crashed_workers_recover_bit_identically(chaos_env, tmp_path):
    specs = _specs()
    baseline = ExecutionEngine(jobs=1).run(specs)

    chaos_env("crash=1.0")
    with ExecutionEngine(jobs=2) as engine:
        recovered = engine.run(specs)

    assert recovered == baseline
    # Every job crashed once; a pool break can hide a sibling's progress
    # and cost an extra recovery round, so >= rather than ==.
    assert engine.stats.resubmits >= len(specs)
    table = engine.stats.summary_table()
    assert table.splitlines()[1].split()[-1] == "resubmits"
    assert int(table.rstrip().splitlines()[-1].split()[-1]) >= len(specs)


def test_crash_storm_on_batch_larger_than_pool_recovers(chaos_env):
    """One crashed worker breaks the whole pool, failing every pending
    future — with more specs than workers and crash=1.0 every attempt
    crashes *somewhere*, yet each completes a little more work.  The
    progress-based resubmission loop must grind through to bit-identical
    results instead of giving up after a fixed retry count."""
    specs = [
        matmul_spec(ExecutionMode.SMIMD, 16 * (1 + i % 3), 4,
                    engine="macro", config=CFG, added_multiplies=i)
        for i in range(6)
    ]
    baseline = ExecutionEngine(jobs=1).run(specs)

    chaos_env("crash=1.0")
    with ExecutionEngine(jobs=2) as engine:
        assert engine.run(specs) == baseline
    assert engine.stats.resubmits >= len(specs)  # every job crashed once


def test_pool_broken_in_one_batch_serves_the_next(chaos_env):
    """The engine keeps one pool across batches.  A crash in batch one
    breaks it; the replacement finishes batch one and must then serve
    batch two on the same engine, bit-identical to serial."""
    first = _specs()
    second = [matmul_spec(ExecutionMode.SIMD, 32, 4, engine="macro",
                          config=CFG), *first]
    baseline = ExecutionEngine(jobs=1).run(second)

    chaos_env("crash=1.0")
    with ExecutionEngine(jobs=2) as engine:
        assert engine.run(first) == baseline[1:]
        assert engine.stats.resubmits >= len(first)
        assert engine.run(second) == baseline
    # Batch two's new job crashed once too; the repeats had spent theirs.
    assert engine.stats.resubmits >= len(first) + 1


def test_healthy_run_counts_no_resubmits():
    with ExecutionEngine(jobs=2) as engine:
        engine.run(_specs())
    assert engine.stats.resubmits == 0


# ---------------------------------------------------------------------------
# Cache corruption: garbled entries are misses, recomputation heals them
def test_corrupt_cache_entry_is_a_miss_then_heals(chaos_env, tmp_path):
    specs = _specs()
    cache = ResultCache(tmp_path / "cache", version="chaos-test")

    chaos_env("corrupt=1.0")
    first = ExecutionEngine(jobs=1, cache=cache).run(specs)

    # Every stored entry was garbled post-write: not one is readable.
    assert all(cache.load(s) is None for s in specs)

    # A later engine sees misses, recomputes, and (chaos being once-only
    # per entry) this time the entries stick — all bit-identical.
    engine = ExecutionEngine(jobs=1, cache=cache)
    second = engine.run(specs)
    assert second == first
    assert engine.stats.computed == len(specs)
    assert all(cache.load(s) == p for s, p in zip(specs, second))
    third = ExecutionEngine(jobs=1, cache=cache)
    assert third.run(specs) == first
    assert third.stats.cache_hits == len(specs)


def test_tampered_payload_fails_integrity_check(tmp_path):
    """Even without chaos, a cache entry whose payload no longer matches
    its recorded digest must load as a miss, not as wrong data."""
    spec = _specs()[0]
    cache = ResultCache(tmp_path / "cache", version="chaos-test")
    payload = ExecutionEngine(jobs=1, cache=cache).run([spec])[0]
    path = cache.entry_path(spec)
    entry = json.loads(path.read_text())
    entry["payload"]["cycles"] = entry["payload"]["cycles"] + 1
    path.write_text(json.dumps(entry))
    assert cache.load(spec) is None
    assert ExecutionEngine(jobs=1, cache=cache).run([spec])[0] == payload
