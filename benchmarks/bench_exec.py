"""Microbenchmark for the execution engine's pooled scheduler.

Runs one batch of instruction-level (micro-engine) jobs — the expensive
kind the pool exists for — once serially and once through the process
pool, asserts the payloads are byte-identical, and records the measured
speed-up into ``BENCH_exec.json`` at the repo root.

The recorded ``cpus`` field matters when reading the number: on a
single-core machine the pool is pure oversubscription and the "speed-up"
is honestly below 1.  Set ``REPRO_BENCH_JOBS`` to change the pool width
(default: one worker per available core, like the library default).
"""

import json
import os
import time
from pathlib import Path

from repro.exec import ExecutionEngine, matmul_spec
from repro.machine import ExecutionMode
from repro.perf import percentile

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_exec.json"
POOL_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", 0)
                or (os.cpu_count() or 1))

#: Independent micro-engine jobs, each a few hundred ms of simulation.
SPECS = (
    [matmul_spec(mode, 16, p, engine="micro")
     for mode in (ExecutionMode.SIMD, ExecutionMode.SMIMD, ExecutionMode.MIMD)
     for p in (4, 8, 16)]
    + [matmul_spec(ExecutionMode.SERIAL, 16, 1, engine="micro")]
)


def bench_exec_pool_speedup(benchmark):
    serial_engine = ExecutionEngine(jobs=1)
    t0 = time.perf_counter()
    serial_payloads = serial_engine.run(SPECS)
    t_serial = time.perf_counter() - t0
    walls = [w for b in serial_engine.stats.by_bucket.values()
             for w in b.walls]

    best_pool = [float("inf")]

    def pooled():
        start = time.perf_counter()
        with ExecutionEngine(jobs=POOL_JOBS) as engine:  # pool start to stop
            payloads = engine.run(SPECS)
        best_pool[0] = min(best_pool[0], time.perf_counter() - start)
        return payloads

    pooled_payloads = benchmark.pedantic(pooled, rounds=2, iterations=1)
    assert (json.dumps(pooled_payloads, sort_keys=True)
            == json.dumps(serial_payloads, sort_keys=True))

    record = {
        "job_count": len(SPECS),
        "jobs_pool": POOL_JOBS,
        "cpus": os.cpu_count(),
        "t_serial_s": round(t_serial, 3),
        "t_pool_s": round(best_pool[0], 3),
        "speedup": round(t_serial / best_pool[0], 3),
        # Per-job wall-time distribution of the serial pass: the pool's
        # best case is bounded by the p100 job, not the mean.
        "job_wall_p50_s": round(percentile(walls, 50), 3),
        "job_wall_p95_s": round(percentile(walls, 95), 3),
        "job_wall_max_s": round(max(walls, default=0.0), 3),
    }
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(f"pool speed-up vs --jobs 1: {record['speedup']}x "
          f"({len(SPECS)} micro jobs, {POOL_JOBS} workers, "
          f"{record['cpus']} cpu(s)) -> {OUT_PATH.name}")


def bench_exec_warm_cache(benchmark, tmp_path_factory):
    """A warm cache turns the whole batch into disk reads."""
    from repro.exec import ResultCache

    root = tmp_path_factory.mktemp("bench-exec-cache")
    ExecutionEngine(jobs=1, cache=ResultCache(root, version="bench")).run(SPECS)

    def warm():
        engine = ExecutionEngine(
            jobs=1, cache=ResultCache(root, version="bench"))
        engine.run(SPECS)
        return engine.stats

    stats = benchmark(warm)
    assert stats.computed == 0
    assert stats.cache_hits == len(SPECS)
