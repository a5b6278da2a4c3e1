"""Tests for the execution engine: specs, scheduling, recovery, stats.

The determinism test required by the engine's contract is here: the same
batch of job specs run at ``--jobs 1`` and ``--jobs 4`` must produce
byte-identical serialized results.
"""

import io
import json
import os
import signal
import time
from multiprocessing import active_children

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DecouplingStudy
from repro.errors import ConfigurationError, ExecError, ReproError
from repro.exec import (
    ExecutionEngine,
    ResultCache,
    SimJobSpec,
    canonical_json,
    execute_job,
    matmul_spec,
    mips_spec,
    resolve_jobs,
)
from repro.exec import jobs as exec_jobs
from repro.exec.jobs import _popcounts
from repro.experiments.runner import run_experiments
from repro.machine import ExecutionMode, PrototypeConfig

PARALLEL_MODES = (ExecutionMode.SIMD, ExecutionMode.SMIMD, ExecutionMode.MIMD)

#: A small macro batch: cheap to compute, covers all modes and a spread
#: of (n, p, m) cells.
MACRO_SPECS = (
    [matmul_spec(mode, n, 4, engine="macro")
     for mode in PARALLEL_MODES for n in (16, 64)]
    + [matmul_spec(ExecutionMode.SERIAL, 64, 1, engine="macro"),
       matmul_spec(ExecutionMode.SIMD, 64, 4, added_multiplies=7,
                   engine="macro")]
)


def _test_spec(**params):
    return SimJobSpec(
        program="_test", mode="serial", n=1, p=1, engine="macro",
        params=tuple(params.items()),
    )


class TestSimJobSpec:
    def test_content_hash_is_stable_and_distinct(self):
        a = matmul_spec(ExecutionMode.SIMD, 64, 4)
        b = matmul_spec(ExecutionMode.SIMD, 64, 4)
        c = matmul_spec(ExecutionMode.SIMD, 64, 4, added_multiplies=1)
        assert a.content_hash == b.content_hash
        assert a.content_hash != c.content_hash
        assert len(a.content_hash) == 64  # sha256 hex

    def test_hash_covers_config_seed_and_bmax(self):
        base = matmul_spec(ExecutionMode.SIMD, 64, 4)
        other_cfg = matmul_spec(
            ExecutionMode.SIMD, 64, 4,
            config=PrototypeConfig.calibrated().with_overrides(ws_main=2),
        )
        other_seed = matmul_spec(ExecutionMode.SIMD, 64, 4, seed=1)
        other_bmax = matmul_spec(ExecutionMode.SIMD, 64, 4, b_max=16)
        hashes = {base.content_hash, other_cfg.content_hash,
                  other_seed.content_hash, other_bmax.content_hash}
        assert len(hashes) == 4

    def test_params_order_does_not_change_hash(self):
        a = SimJobSpec(program="_test", mode="serial", n=1, p=1,
                       params=(("x", 1), ("y", 2)))
        b = SimJobSpec(program="_test", mode="serial", n=1, p=1,
                       params=(("y", 2), ("x", 1)))
        assert a.content_hash == b.content_hash

    def test_round_trip_through_dict(self):
        spec = matmul_spec(ExecutionMode.MIMD, 32, 8, added_multiplies=3,
                           engine="micro", seed=7, b_max=64)
        clone = SimJobSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.content_hash == spec.content_hash

    def test_from_dict_accepts_params_as_pairs(self):
        # Tuples round-trip through JSON as lists, so a client that
        # serialises the params field directly posts pairs, not a dict.
        spec = SimJobSpec(program="_test", mode="serial", n=1, p=1,
                          params=(("x", 1), ("y", 2)))
        as_dict = spec.to_dict()
        as_pairs = dict(as_dict, params=[["y", 2], ["x", 1]])
        clone = SimJobSpec.from_dict(as_pairs)
        assert clone == spec
        assert clone.content_hash == spec.content_hash
        with pytest.raises(ExecError, match="^malformed job spec"):
            SimJobSpec.from_dict(dict(as_dict, params=[["x", 1, "extra"]]))

    def test_job_seed_derived_from_hash(self):
        a = matmul_spec(ExecutionMode.SIMD, 64, 4)
        b = matmul_spec(ExecutionMode.SIMD, 64, 4, added_multiplies=1)
        assert a.job_seed == matmul_spec(ExecutionMode.SIMD, 64, 4).job_seed
        assert a.job_seed != b.job_seed
        assert 0 <= a.job_seed < 2 ** 63

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimJobSpec(program="matmul", mode="vliw", n=4, p=1)
        with pytest.raises(ConfigurationError):
            SimJobSpec(program="matmul", mode="simd", n=4, p=1, engine="auto")
        with pytest.raises(ConfigurationError):
            SimJobSpec(program="matmul", mode="simd", n=0, p=1)

    def test_label_mentions_identity(self):
        label = matmul_spec(ExecutionMode.SIMD, 64, 4).label()
        assert "matmul" in label and "n=64" in label and "p=4" in label

    @pytest.mark.parametrize("doc", [
        "x", [1, 2], 3, None, {}, {"program": "matmul"},
        dict(matmul_spec("simd", 16, 4).to_dict(), n="16"),
        dict(matmul_spec("simd", 16, 4).to_dict(), p=True),
        dict(matmul_spec("simd", 16, 4).to_dict(), params=[["a", 1], ["a", 2]]),
    ])
    def test_malformed_input_is_one_exec_error(self, doc):
        with pytest.raises(ExecError, match="^malformed job spec"):
            SimJobSpec.from_dict(doc)


# ---------------------------------------------------------------------------
# SimJobSpec.from_dict under untrusted JSON: whatever a client posts, it
# either decodes to a spec whose dictionary form decodes to the same
# content hash again, or it raises a ReproError -- never anything else.
_SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON = st.recursive(
    _SCALAR,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=12,
)
_VALID = matmul_spec("simd", 16, 4, engine="micro").to_dict()
#: Every field a spec dictionary can carry, nested ones as key paths.
_PATHS = (
    [(key,) for key in [*_VALID, "fault_plan"]]
    + [("config", key) for key in _VALID["config"]]
    + [("config", "refresh", key) for key in _VALID["config"]["refresh"]]
)


#: Stands for "delete the field" among the mutation values.
_DELETE = object()


def _single_field_mutations(value):
    """The valid spec dictionary with each field in turn set to ``value``."""
    for *parents, key in _PATHS:
        doc = json.loads(json.dumps(_VALID))
        target = doc
        for parent in parents:
            target = target[parent]
        if value is _DELETE:
            target.pop(key, None)
        else:
            target[key] = value
        yield doc


def _check_from_dict(doc):
    try:
        spec = SimJobSpec.from_dict(doc)
    except ReproError:
        return
    again = SimJobSpec.from_dict(spec.to_dict())
    assert again.content_hash == spec.content_hash
    # The same holds for the dictionary after a trip through JSON, which
    # is how a client's spec reaches the service.
    wire = json.loads(canonical_json(spec.to_dict()))
    assert SimJobSpec.from_dict(wire).content_hash == spec.content_hash


@settings(deadline=None, max_examples=300)
@given(doc=st.one_of(
    _JSON, st.dictionaries(st.sampled_from(sorted(_VALID)) | st.text(), _JSON),
))
def test_from_dict_on_arbitrary_json(doc):
    _check_from_dict(doc)


@settings(deadline=None, max_examples=150)
@given(value=st.just(_DELETE) | st.integers(-2, 2) | _SCALAR | _JSON)
def test_from_dict_on_single_field_mutations(value):
    for doc in _single_field_mutations(value):
        _check_from_dict(doc)


class TestSerialEngine:
    def test_payload_matches_study(self):
        spec = matmul_spec(ExecutionMode.SIMD, 64, 4, engine="macro")
        payload = ExecutionEngine(jobs=1).run([spec])[0]
        res = DecouplingStudy().run(ExecutionMode.SIMD, 64, 4,
                                    engine="macro")
        assert payload["cycles"] == res.cycles
        assert payload["breakdown"] == res.breakdown
        assert payload["engine"] == "macro" and payload["verified"] is False

    def test_micro_payload_is_verified(self):
        spec = matmul_spec(ExecutionMode.SIMD, 8, 4, engine="micro")
        payload = ExecutionEngine(jobs=1).run([spec])[0]
        assert payload["verified"] is True and payload["engine"] == "micro"

    def test_payloads_are_json_safe(self):
        payloads = ExecutionEngine(jobs=1).run(MACRO_SPECS[:3])
        json.dumps(payloads)  # would raise on numpy scalars

    def test_unknown_program_raises_structured_error(self):
        spec = SimJobSpec(program="raytrace", mode="simd", n=4, p=4)
        with pytest.raises(ExecError) as err:
            execute_job(spec)
        assert err.value.job["program"] == "raytrace"

    def test_serial_engine_is_lazy_pooled_is_eager(self, tmp_path):
        assert not ExecutionEngine(jobs=1).eager
        with ExecutionEngine(jobs=2) as engine:
            assert engine.eager
        cache = ResultCache(tmp_path, version="v")
        assert ExecutionEngine(jobs=1, cache=cache).eager


class TestPooledExecution:
    def test_jobs1_and_jobs4_byte_identical(self):
        """The determinism contract: pooling changes nothing, byte for byte."""
        serial = ExecutionEngine(jobs=1).run(MACRO_SPECS)
        with ExecutionEngine(jobs=4) as engine:
            pooled = engine.run(MACRO_SPECS)
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(pooled, sort_keys=True))

    def test_result_order_follows_spec_order(self):
        specs = [_test_spec(action="echo", value=i) for i in range(12)]
        with ExecutionEngine(jobs=3) as engine:
            payloads = engine.run(specs)
        assert [p["value"] for p in payloads] == list(range(12))

    def test_worker_crash_resubmitted_once(self, tmp_path):
        sentinel = tmp_path / "first-attempt"
        spec = _test_spec(action="flaky", sentinel=str(sentinel))
        with ExecutionEngine(jobs=2) as engine:
            payload = engine.run([spec])[0]
        assert payload == {"value": "recovered"}
        assert sentinel.exists()
        assert engine.stats.computed == 1

    def test_sleep_ends_early_on_release_sentinel(self, tmp_path):
        release = tmp_path / "release"
        release.touch()
        spec = _test_spec(action="sleep", seconds=30.0, release=str(release))
        t0 = time.monotonic()
        payload = execute_job(spec)
        assert time.monotonic() - t0 < 5.0
        assert payload["slept"] == 30.0

    def test_persistent_crash_surfaces_exec_error(self):
        spec = _test_spec(action="crash")
        with pytest.raises(ExecError) as err, \
                ExecutionEngine(jobs=2) as engine:
            engine.run([spec])
        assert err.value.attempts == 2
        assert err.value.job["program"] == "_test"
        assert err.value.cause is not None

    def test_crash_does_not_poison_siblings(self, tmp_path):
        sentinel = tmp_path / "flaky-sibling"
        specs = [_test_spec(action="echo", value="a"),
                 _test_spec(action="flaky", sentinel=str(sentinel)),
                 _test_spec(action="echo", value="b")]
        with ExecutionEngine(jobs=2) as engine:
            payloads = engine.run(specs)
        assert payloads[0]["value"] == "a"
        assert payloads[1]["value"] == "recovered"
        assert payloads[2]["value"] == "b"


class TestPoolLifecycle:
    """One pool per engine: started by the first pooled batch, reused by
    every later one, replaced when broken, stopped by ``close()``."""

    @staticmethod
    def _pid_specs(tag):
        return [_test_spec(action="pid", value=f"{tag}{i}") for i in range(6)]

    def test_batches_run_on_the_same_workers(self):
        with ExecutionEngine(jobs=2) as engine:
            first = {p["pid"] for p in engine.run(self._pid_specs("a"))}
            workers = {child.pid for child in active_children()}
            second = {p["pid"] for p in engine.run(self._pid_specs("b"))}
        assert os.getpid() not in first
        assert first <= workers and second <= workers

    def test_close_stops_the_workers_and_is_idempotent(self):
        engine = ExecutionEngine(jobs=2)
        workers = {p["pid"] for p in engine.run(self._pid_specs("c"))}
        assert workers <= {child.pid for child in active_children()}
        engine.close()
        assert not workers & {child.pid for child in active_children()}
        engine.close()  # a second close does nothing
        assert not workers & {child.pid for child in active_children()}

    def test_serial_engine_starts_no_pool(self):
        before = {child.pid for child in active_children()}
        with ExecutionEngine(jobs=1) as engine:
            engine.run(self._pid_specs("d"))
        assert {child.pid for child in active_children()} <= before

    def test_worker_killed_between_batches_is_replaced(self, tmp_path):
        """A worker that dies while the pool is idle breaks it; the next
        batch gets a fresh pool without spending its stall budget, so a
        lone job that crashes once still recovers."""
        with ExecutionEngine(jobs=2) as engine:
            pids = {p["pid"] for p in engine.run(self._pid_specs("e"))}
            victim = next(c for c in active_children() if c.pid in pids)
            os.kill(victim.pid, signal.SIGKILL)
            # The executor's manager thread joins the same Process and
            # may reap it first; the status then reaches this thread
            # only once that join stores it, so wait on the exit code.
            deadline = time.monotonic() + 10
            while victim.exitcode is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert victim.exitcode == -signal.SIGKILL
            # The executor notices the death on its own thread; wait for
            # it, so the batch below meets a pool already marked broken.
            executor = engine._pool._executor
            deadline = time.monotonic() + 10
            while not executor._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            flaky = _test_spec(action="flaky", sentinel=str(tmp_path / "f"))
            assert engine.run([flaky]) == [{"value": "recovered"}]
            assert engine.stats.resubmits == 1  # the crash, not the death
            payloads = engine.run(self._pid_specs("f"))
        assert [p["value"] for p in payloads] == [f"f{i}" for i in range(6)]
        assert victim.pid not in {p["pid"] for p in payloads}


@st.composite
def _macro_spec(draw):
    """A macro matmul spec over a few data sets, so draws share them."""
    mode = draw(st.sampled_from(ExecutionMode))
    n = draw(st.sampled_from((8, 16, 32, 64)))
    p = 1 if mode is ExecutionMode.SERIAL else draw(st.sampled_from(
        [p for p in (4, 8, 16) if p <= n]))
    return matmul_spec(
        mode, n, p, engine="macro",
        added_multiplies=draw(st.integers(0, 20)),
        seed=draw(st.sampled_from((1, 2))),
        b_max=draw(st.sampled_from((None, 16, 1 << 16))),
    )


class TestPopcountMemo:
    """Macro jobs share one read-only S per (n, seed, b_max) data set."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_macro_spec(), min_size=2, max_size=12))
    def test_warm_memo_payloads_equal_cold(self, specs):
        warm = [execute_job(spec) for spec in specs]
        cold = []
        for spec in specs:
            _popcounts.cache_clear()
            cold.append(execute_job(spec))
        assert warm == cold

    def test_cached_popcounts_refuse_writes(self):
        ones = _popcounts(16, 1, None)
        with pytest.raises(ValueError):
            ones[0, 0] = 0
        assert _popcounts(16, 1, None) is ones

    def test_data_sets_never_share_an_entry(self):
        base = _popcounts(64, 1, 16)
        for other in (_popcounts(64, 2, 16), _popcounts(64, 1, 1 << 16)):
            assert other is not base
            assert not np.array_equal(other, base)

    def test_macro_jobs_never_build_a(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("macro job built the identity A")

        monkeypatch.setattr(exec_jobs, "generate_matrices", refuse)
        _popcounts.cache_clear()
        execute_job(matmul_spec(ExecutionMode.SIMD, 16, 4, engine="macro"))


class TestJobsResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_default(self, monkeypatch):
        import os
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        monkeypatch.delenv("REPRO_JOBS")
        # Unset, the default is one job per available core.
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert resolve_jobs(None) == 1

    def test_auto_means_all_cores(self):
        import os
        assert resolve_jobs("auto") == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-2)
        with pytest.raises(ConfigurationError):
            resolve_jobs("many")

    def test_env_non_integer_raises_exec_error_naming_variable(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.raises(ExecError, match="REPRO_JOBS"):
            resolve_jobs(None)
        with pytest.raises(ExecError, match="not an integer"):
            resolve_jobs(None)

    def test_env_below_one_raises_exec_error_naming_variable(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-3")
        with pytest.raises(ExecError, match="REPRO_JOBS"):
            resolve_jobs(None)
        with pytest.raises(ExecError, match=">= 1"):
            resolve_jobs(None)

    def test_env_error_is_not_a_bare_value_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2.5")
        with pytest.raises(ExecError) as err:
            resolve_jobs(None)
        assert not isinstance(err.value, ValueError)
        assert "2.5" in str(err.value)

    def test_explicit_arg_still_wins_over_bad_env(self, monkeypatch):
        # A bad $REPRO_JOBS must not break callers that pass --jobs.
        monkeypatch.setenv("REPRO_JOBS", "banana")
        assert resolve_jobs(3) == 3

    def test_cli_reports_bad_env_cleanly(self, monkeypatch, capsys):
        from repro.experiments.runner import main
        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.raises(SystemExit) as err:
            main(["fig12"])
        assert err.value.code == 2  # argparse error, not a traceback
        assert "REPRO_JOBS" in capsys.readouterr().err


class TestCacheAndStats:
    def test_cold_then_warm(self, tmp_path):
        specs = MACRO_SPECS[:5]
        cold = ExecutionEngine(jobs=1,
                               cache=ResultCache(tmp_path, version="v1"))
        first = cold.run(specs)
        assert cold.stats.computed == 5 and cold.stats.cache_hits == 0
        warm = ExecutionEngine(jobs=1,
                               cache=ResultCache(tmp_path, version="v1"))
        second = warm.run(specs)
        assert warm.stats.computed == 0 and warm.stats.cache_hits == 5
        assert warm.stats.jobs == len(specs)  # hit count == job count
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))

    def test_summary_table_shape(self, tmp_path):
        engine = ExecutionEngine(jobs=1,
                                 cache=ResultCache(tmp_path, version="v1"))
        engine.run(MACRO_SPECS[:2])
        table = engine.stats.summary_table()
        assert "matmul/macro" in table and "TOTAL" in table
        assert "cache hits" in table and "wall (s)" in table

    def test_stats_shared_across_engines(self, tmp_path):
        from repro.exec import ExecStats
        stats = ExecStats()
        ExecutionEngine(jobs=1, stats=stats).run(MACRO_SPECS[:1])
        ExecutionEngine(jobs=1, stats=stats).run(MACRO_SPECS[1:2])
        assert stats.jobs == 2


class TestStudyIntegration:
    def test_pooled_study_matches_plain_study(self):
        plain = DecouplingStudy()
        with ExecutionEngine(jobs=2) as engine:
            pooled = DecouplingStudy(exec_engine=engine)
            for mode in PARALLEL_MODES:
                a = plain.run(mode, 64, 4, engine="macro")
                b = pooled.run(mode, 64, 4, engine="macro")
                assert a == b

    def test_prefetch_noop_on_lazy_engine(self):
        study = DecouplingStudy()
        assert study.prefetch([(ExecutionMode.SIMD, 64, 4)]) == 0
        assert study._cache == {}

    def test_prefetch_fills_memo_on_eager_engine(self, tmp_path):
        engine = ExecutionEngine(jobs=1,
                                 cache=ResultCache(tmp_path, version="v1"))
        study = DecouplingStudy(exec_engine=engine)
        cells = [(mode, 64, 4, 0, "macro") for mode in PARALLEL_MODES]
        assert study.prefetch(cells) == 3
        assert engine.stats.computed == 3
        # The subsequent runs are memo hits: no new engine traffic.
        study.run(ExecutionMode.SIMD, 64, 4, engine="macro")
        assert engine.stats.jobs == 3

    def test_prefetch_dedupes_and_resolves_auto(self, tmp_path):
        engine = ExecutionEngine(jobs=1,
                                 cache=ResultCache(tmp_path, version="v1"))
        study = DecouplingStudy(exec_engine=engine)
        submitted = study.prefetch([
            (ExecutionMode.SIMD, 64, 4),            # auto -> macro
            (ExecutionMode.SIMD, 64, 4, 0, "macro"),  # duplicate
            (ExecutionMode.SIMD, 64, 4, 1),
        ])
        assert submitted == 2

    def test_prefetch_rejects_bad_serial_cell(self, tmp_path):
        engine = ExecutionEngine(jobs=1,
                                 cache=ResultCache(tmp_path, version="v1"))
        study = DecouplingStudy(exec_engine=engine)
        with pytest.raises(ConfigurationError):
            study.prefetch([(ExecutionMode.SERIAL, 64, 4)])


class TestRunnerIntegration:
    def test_pooled_cached_run_identical_to_default(self, tmp_path):
        base = io.StringIO()
        run_experiments(["fig12"], stream=base)
        pooled = io.StringIO()
        run_experiments(["fig12"], stream=pooled, jobs=2,
                        cache=ResultCache(tmp_path, version="v1"))
        assert base.getvalue() == pooled.getvalue()

    def test_warm_rerun_hits_for_every_job(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        out = io.StringIO()
        run_experiments(["fig12", "ext-muls"], stream=out, cache=cache,
                        stats=True)
        assert "execution engine stats" in out.getvalue()
        warm = io.StringIO()
        run_experiments(["fig12", "ext-muls"], stream=warm,
                        cache=ResultCache(tmp_path, version="v1"), stats=True)
        stats_text = warm.getvalue()
        # Every job the warm run touched was a cache hit.
        total = [line for line in stats_text.splitlines()
                 if line.strip().startswith("TOTAL")][0]
        cells = [c.strip() for c in total.split("|")]
        jobs, computed, hits = int(cells[1]), int(cells[2]), int(cells[3])
        assert computed == 0 and hits == jobs and jobs > 0

    def test_cli_flags(self, tmp_path, capsys):
        from repro.experiments.runner import main
        out_dir = tmp_path / "out"
        code = main(["fig12", "--jobs", "2", "--stats",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "fig12.json").exists()
        captured = capsys.readouterr().out
        assert "execution engine stats" in captured
        assert (tmp_path / "cache").exists()

    def test_cli_no_cache(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.runner import main
        monkeypatch.chdir(tmp_path)
        assert main(["ext-muls", "--no-cache"]) == 0
        assert not (tmp_path / ".repro_cache").exists()


def test_table1_identical_through_pool(tmp_path):
    from repro.experiments.table1 import run_table1
    base = run_table1()
    with ExecutionEngine(jobs=2,
                         cache=ResultCache(tmp_path, version="v1")) as engine:
        pooled = run_table1(exec_engine=engine)
    assert base.to_json() == pooled.to_json()
    with ExecutionEngine(jobs=2, cache=ResultCache(tmp_path, version="v1")) \
            as warm_engine:
        warm = run_table1(exec_engine=warm_engine)
    assert warm.to_json() == base.to_json()
    assert warm_engine.stats.computed == 0
    assert warm_engine.stats.cache_hits == 4


def test_mips_spec_identity():
    a = mips_spec("simd", "        ADD.W D1,D2")
    b = mips_spec("mimd", "        ADD.W D1,D2")
    c = mips_spec("simd", "        MOVE.W 2(A0),D2")
    assert len({a.content_hash, b.content_hash, c.content_hash}) == 3
    assert a.engine == "micro"


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": {"d": 2, "c": 3}}) == \
        '{"a":{"c":3,"d":2},"b":1}'
