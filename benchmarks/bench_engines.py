"""Engine benchmarks: how fast do the micro and macro engines run, and
how much simulated work does each second of benchmarking buy?

Not a paper exhibit, but the number that justifies the two-engine design:
the micro engine simulates ~10⁵ instructions/s, the macro engine
evaluates a full n=256 configuration in milliseconds.

``bench_micro_fastpath_speedup`` additionally measures the local-time
fast path against the pure-event reference schedule (same interpreter,
``fast_path=False``) on the micro-engine matmul workload, asserts the
cycle counts are identical, and records the wall times into
``BENCH_micro.json`` at the repo root — the file the CI perf-smoke job
compares against.  ``bench_micro_lockstep_speedup`` does the same for
the batched lockstep engine against the local-time fast path
(``vs_fastpath`` section).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.machine import ExecutionMode, PASMMachine, PrototypeConfig
from repro.programs import build_matmul, generate_matrices
from repro.programs.loader import run_matmul
from repro.timing_model import predict_matmul, skewed_ones

CFG = PrototypeConfig.calibrated()
MICRO_OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_micro.json"


def bench_micro_engine_simd_n16(benchmark):
    a, b = generate_matrices(16)
    bundle = build_matmul(
        ExecutionMode.SIMD, 16, 4, device_symbols=CFG.device_symbols()
    )

    def run():
        machine = PASMMachine(CFG, partition_size=4)
        return run_matmul(machine, bundle, a, b)

    run_result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert run_result.result.instructions > 20_000


def bench_micro_engine_mimd_n16(benchmark):
    a, b = generate_matrices(16)
    bundle = build_matmul(
        ExecutionMode.MIMD, 16, 4, device_symbols=CFG.device_symbols()
    )

    def run():
        machine = PASMMachine(CFG, partition_size=4)
        return run_matmul(machine, bundle, a, b)

    benchmark.pedantic(run, rounds=2, iterations=1)


def bench_micro_engine_serial_n16(benchmark):
    a, b = generate_matrices(16)
    bundle = build_matmul(
        ExecutionMode.SERIAL, 16, 1, device_symbols=CFG.device_symbols()
    )

    def run():
        machine = PASMMachine(CFG, partition_size=1)
        return run_matmul(machine, bundle, a, b)

    run_result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert run_result.result.instructions > 15_000


def _micro_run(mode, p, fast_path, lockstep=None, m=0):
    """One micro-engine matmul; returns (cycles, process-CPU seconds)."""
    bundle = build_matmul(mode, 16, p, added_multiplies=m,
                          device_symbols=CFG.device_symbols())
    a, b = generate_matrices(16)
    machine = PASMMachine(CFG, partition_size=p, fast_path=fast_path,
                          lockstep=lockstep)
    t0 = time.process_time()
    run = run_matmul(machine, bundle, a, b)
    return run.result.cycles, time.process_time() - t0


def _merge_bench_section(key, section):
    """Rewrite BENCH_micro.json with ``section`` under ``key``, keeping
    every other recorded section (the benches each own one section)."""
    out = {
        "workload": "16x16 matmul on the instruction-level (micro) engine, "
                    "calibrated prototype config",
        "cpus": os.cpu_count(),
    }
    if MICRO_OUT_PATH.exists():
        old = json.loads(MICRO_OUT_PATH.read_text())
        for other in ("vs_pure", "vs_seed", "vs_fastpath"):
            if other != key and other in old:
                out[other] = old[other]
    out[key] = section
    MICRO_OUT_PATH.write_text(json.dumps(out, indent=2) + "\n")


def bench_micro_fastpath_speedup(benchmark):
    """Fast path vs pure-event schedule per mode; refresh BENCH_micro.json.

    The recorded ``vs_pure`` section isolates what local-time execution
    buys over pushing every charge through the event queue, with the
    interpreter held constant; the ``vs_seed`` section (measured once
    against the pre-fast-path interpreter and preserved across
    re-recordings) is the end-to-end speed-up of the whole change.
    """
    modes = [(ExecutionMode.SERIAL, 1), (ExecutionMode.SIMD, 4),
             (ExecutionMode.MIMD, 4)]
    record: dict[str, dict] = {}
    for mode, p in modes:
        pure_cycles = fast_cycles = None
        pure_best = fast_best = float("inf")
        for _ in range(2):
            pure_cycles, t = _micro_run(mode, p, fast_path=False)
            pure_best = min(pure_best, t)
            fast_cycles, t = _micro_run(mode, p, fast_path=True,
                                        lockstep=False)
            fast_best = min(fast_best, t)
        assert fast_cycles == pure_cycles, (
            f"{mode.name}: fast path diverged "
            f"({fast_cycles} != {pure_cycles} cycles)")
        record[mode.name] = {
            "cycles": pure_cycles,
            "pure_events_s": round(pure_best, 3),
            "fast_s": round(fast_best, 3),
            "speedup": round(pure_best / fast_best, 2),
        }

    def rerun_serial():
        return _micro_run(ExecutionMode.SERIAL, 1, fast_path=True,
                          lockstep=False)

    benchmark.pedantic(rerun_serial, rounds=2, iterations=1)

    _merge_bench_section("vs_pure", record)
    print()
    for name, row in record.items():
        print(f"{name:7s} pure-events={row['pure_events_s']}s "
              f"fast={row['fast_s']}s speedup={row['speedup']}x")
    print(f"-> {MICRO_OUT_PATH.name}")


def bench_micro_lockstep_speedup(benchmark):
    """Lockstep batching vs the plain local-time fast path; record the
    ``vs_fastpath`` section of ``BENCH_micro.json``.

    SIMD is where lockstep earns its keep — the broadcast rendezvous is
    computed (max over stamped arrivals) instead of discovered by event
    interleaving, and the mask-completing PE streams through whole
    blocks without touching the heap.  The added-multiplies row widens
    per-instruction timing variance (the Figure 7 knob), which lockstep
    absorbs at no extra cost while the event engines pay for every
    re-rendezvous.  SERIAL (single PE, no rendezvous to batch) and MIMD
    (chained superinstructions either way) are included to show the
    lockstep bookkeeping does not tax them.
    """
    rows = [("SERIAL", ExecutionMode.SERIAL, 1, 0),
            ("SIMD", ExecutionMode.SIMD, 4, 0),
            ("SIMD_m5", ExecutionMode.SIMD, 4, 5),
            ("SIMD_p8", ExecutionMode.SIMD, 8, 0),
            ("MIMD", ExecutionMode.MIMD, 4, 0)]
    record: dict[str, dict] = {
        "note": "Lockstep engine (REPRO_LOCKSTEP, default on) vs the "
                "local-time fast path alone, best-of-3 process-CPU time. "
                "The issue's aspirational 3x SIMD target was not reached: "
                "profiling shows per-instruction execution (decode "
                "dispatch, handlers, timing arithmetic) is shared by both "
                "engines and dominates; lockstep removes only the "
                "rendezvous/event machinery (~30% of the local-time "
                "SIMD run), so its ratio grows with timing variance "
                "(SIMD_m5) and with problem size, not without bound.",
    }
    for name, mode, p, m in rows:
        fast_cycles = lock_cycles = None
        fast_best = lock_best = float("inf")
        for _ in range(3):
            fast_cycles, t = _micro_run(mode, p, fast_path=True,
                                        lockstep=False, m=m)
            fast_best = min(fast_best, t)
            lock_cycles, t = _micro_run(mode, p, fast_path=True,
                                        lockstep=True, m=m)
            lock_best = min(lock_best, t)
        assert lock_cycles == fast_cycles, (
            f"{name}: lockstep diverged "
            f"({lock_cycles} != {fast_cycles} cycles)")
        record[name] = {
            "cycles": lock_cycles,
            "fastpath_s": round(fast_best, 3),
            "lockstep_s": round(lock_best, 3),
            "speedup": round(fast_best / lock_best, 2),
        }

    def rerun_simd():
        return _micro_run(ExecutionMode.SIMD, 4, fast_path=True,
                          lockstep=True)

    benchmark.pedantic(rerun_simd, rounds=2, iterations=1)

    _merge_bench_section("vs_fastpath", record)
    print()
    for name, row in record.items():
        if name == "note":
            continue
        print(f"{name:8s} fastpath={row['fastpath_s']}s "
              f"lockstep={row['lockstep_s']}s speedup={row['speedup']}x")
    print(f"-> {MICRO_OUT_PATH.name}")


def bench_macro_engine_n256(benchmark):
    _, b = generate_matrices(256)
    ones = skewed_ones(b)

    def run():
        return predict_matmul(ExecutionMode.SIMD, CFG, 256, 16, ones=ones)

    pred = benchmark(run)
    assert np.isfinite(pred.cycles)
