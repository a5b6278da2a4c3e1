"""Program implementations behind the execution engine.

:func:`execute_job` is the single entry point: it is what pool workers
run *and* what the serial (``--jobs 1``) path calls in-process, so a job
produces bit-identical payloads no matter how it is scheduled.  Payloads
are plain JSON-able dictionaries (no numpy scalars), which makes them
safe to ship across process boundaries and to round-trip through the
on-disk cache.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

from repro.errors import ConfigurationError, ExecError, NetworkFaultError
from repro.exec.spec import (
    PROGRAM_FAULTSWEEP,
    PROGRAM_MATMUL,
    PROGRAM_MIPS,
    SimJobSpec,
)
from repro.faults.campaign import double_fault_sweep, single_fault_sweep
from repro.faults.plan import FaultPlan
from repro.m68k.assembler import assemble
from repro.machine import ExecutionMode, PASMMachine, PrototypeConfig
from repro.machine.partition import Partition
from repro.mc import EnqueueBlock, Loop
from repro.network import CircuitSwitchedNetwork, ExtraStageCubeTopology
from repro.obs.simtrace import arm_machine, collect_machine, tracing_job
from repro.programs import build_matmul, expected_product, generate_matrices
from repro.programs.data import generate_multipliers
from repro.programs.loader import run_matmul
from repro.timing_model import predict_matmul, skewed_ones
from repro.utils.rng import DEFAULT_SEED

#: Table 1 measurement geometry: straight-line repetitions per block and
#: blocks per run ("large enough to make the loop control overlap
#: insignificant").
BLOCK_REPEATS = 64
BLOCKS = 8


def _num(x):
    """Collapse numpy scalars to plain Python numbers (JSON-safe)."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(x)


# ---------------------------------------------------------------------------
# Spec constructors
# ---------------------------------------------------------------------------
def matmul_spec(
    mode,
    n: int,
    p: int,
    *,
    added_multiplies: int = 0,
    engine: str = "macro",
    seed: int = DEFAULT_SEED,
    b_max: int | None = None,
    config: PrototypeConfig | None = None,
    fault_plan: FaultPlan | None = None,
) -> SimJobSpec:
    """Spec for one timed matrix-multiplication configuration."""
    mode_value = mode.value if isinstance(mode, ExecutionMode) else str(mode)
    return SimJobSpec(
        program=PROGRAM_MATMUL,
        mode=mode_value,
        n=n,
        p=p,
        added_multiplies=added_multiplies,
        engine=engine,
        seed=seed,
        b_max=b_max,
        config=config or PrototypeConfig.calibrated(),
        fault_plan=fault_plan,
    )


def mips_spec(
    variant: str,
    source: str,
    *,
    config: PrototypeConfig | None = None,
) -> SimJobSpec:
    """Spec for one Table 1 instruction-rate measurement.

    ``variant`` is ``"simd"`` (broadcast from the Fetch Unit Queue) or
    ``"mimd"`` (fetched from PE main memory).
    """
    config = config or PrototypeConfig.calibrated()
    return SimJobSpec(
        program=PROGRAM_MIPS,
        mode=variant,
        n=BLOCK_REPEATS,
        p=config.n_pes,
        engine="micro",
        config=config,
        params=(("blocks", BLOCKS), ("source", source)),
    )


def faultsweep_spec(
    n_terminals: int,
    *,
    double_samples: int = 500,
    seed: int = DEFAULT_SEED,
    config: PrototypeConfig | None = None,
) -> SimJobSpec:
    """Spec for one fault-tolerance sweep of an N-terminal ESC network.

    The job exhaustively checks every single box/link fault for full
    routability with the extra stage enabled, plus a double-fault
    survival campaign (exhaustive when small, seeded sampling otherwise
    — ``double_samples`` bounds the sample size).
    """
    return SimJobSpec(
        program=PROGRAM_FAULTSWEEP,
        mode="serial",
        n=n_terminals,
        p=1,
        engine="micro",
        seed=seed,
        config=config or PrototypeConfig.calibrated(),
        params=(("double_samples", double_samples),),
    )


# ---------------------------------------------------------------------------
# Program implementations
# ---------------------------------------------------------------------------
def _check_macro_routability(spec: SimJobSpec, plan: FaultPlan) -> None:
    """Macro jobs cannot route bytes, but they must still refuse a plan
    under which the algorithm's shift permutation has no circuit setting
    (the micro engine would raise at :meth:`connect_shift_circuit`), and
    refuse a fault that names no network element, as
    :class:`PASMMachine` does."""
    topo = ExtraStageCubeTopology(spec.config.n_pes)
    plan.check_elements(topo)
    if spec.p <= 1:
        return
    partition = Partition(spec.config, spec.p)
    network = CircuitSwitchedNetwork(
        topo,
        extra_stage_enabled=plan.extra_stage_enabled,
        faults=set(plan.network_faults()),
    )
    mapping = partition.shift_permutation()
    if not network.is_admissible(mapping):
        raise NetworkFaultError(
            f"shift permutation {mapping} has no circuit setting under "
            f"{plan.describe()}",
            faults=tuple(sorted(
                plan.network_faults(),
                key=lambda f: (f.kind.value, f.stage, f.line),
            )),
        )


@functools.lru_cache(maxsize=8)
def _popcounts(n: int, seed: int, b_max: int | None) -> np.ndarray:
    """``skewed_ones(B)`` of one data set, read-only.

    The macro model's only input from the data: every (mode, p, m) job on
    one (n, seed, b_max) shares it, so a worker builds it once per data
    set instead of once per job.  Frozen, since every caller gets the
    same array.
    """
    ones = skewed_ones(generate_multipliers(n, seed=seed, b_max=b_max))
    ones.flags.writeable = False
    return ones


def _execute_matmul(spec: SimJobSpec) -> dict:
    """Time one (mode, n, p, m) matmul configuration on either substrate."""
    mode = ExecutionMode(spec.mode)
    if mode is ExecutionMode.SERIAL and spec.p != 1:
        raise ConfigurationError("serial mode requires p == 1")
    plan = spec.fault_plan
    if spec.engine == "macro":
        ones = _popcounts(spec.n, spec.seed, spec.b_max)
        if plan is not None and plan.failstops:
            raise ConfigurationError(
                "fail-stop simulation needs the micro engine; the macro "
                "timing model has no notion of a silent PE"
            )
        config = spec.config
        if plan is not None:
            _check_macro_routability(spec, plan)
            if plan.extra_stage_enabled:
                # Degraded operation: every byte crosses one more active
                # interchange box — charge it on the transport latency.
                config = config.with_overrides(
                    net_byte_latency=config.net_byte_latency
                    + config.net_extra_stage_cycles
                )
        pred = predict_matmul(
            mode, config, spec.n, spec.p,
            added_multiplies=spec.added_multiplies, ones=ones,
        )
        payload = {
            "cycles": _num(pred.cycles),
            "breakdown": {k: _num(v) for k, v in dict(pred.breakdown).items()},
            "engine": "macro",
            "verified": False,
        }
        if plan is not None:
            payload["degraded"] = plan.extra_stage_enabled
        return payload
    a, b = generate_matrices(spec.n, seed=spec.seed, b_max=spec.b_max)
    machine = PASMMachine(spec.config, partition_size=spec.p,
                          fault_plan=plan)
    arm_machine(machine)
    bundle = build_matmul(
        mode, spec.n, spec.p, added_multiplies=spec.added_multiplies,
        device_symbols=spec.config.device_symbols(),
    )
    run = run_matmul(machine, bundle, a, b)
    collect_machine(machine, label=f"matmul {mode.value} n={spec.n} "
                                   f"p={spec.p}")
    verified = bool(np.array_equal(run.product, expected_product(a, b)))
    if not verified:
        raise ConfigurationError(
            f"micro run {mode.value} n={spec.n} p={spec.p} produced a "
            "wrong product"
        )
    payload = {
        "cycles": _num(run.result.cycles),
        "breakdown": {k: _num(v) for k, v in run.result.breakdown().items()},
        "engine": "micro",
        "verified": True,
    }
    if plan is not None:
        payload["degraded"] = plan.extra_stage_enabled
        payload["rerouted_circuits"] = machine.rerouted_circuits
    return payload


def _mips_simd(config: PrototypeConfig, source: str, repeats: int,
               blocks: int) -> float:
    """Instructions per second across all PEs, SIMD broadcast."""
    machine = PASMMachine(config, partition_size=config.n_pes)
    arm_machine(machine)
    block = assemble(source * 1, predefined=config.device_symbols())
    instrs = block.instruction_list() * repeats
    program_blocks = {
        "meas": instrs,
        "fini": assemble("        HALT").instruction_list(),
    }
    result = machine.run_simd(
        [Loop(blocks, (EnqueueBlock("meas"),)), EnqueueBlock("fini")],
        program_blocks,
    )
    collect_machine(machine, label=f"mips simd p={config.n_pes}")
    executed = repeats * blocks * config.n_pes
    return executed / result.seconds


def _mips_mimd(config: PrototypeConfig, source: str, repeats: int,
               blocks: int) -> float:
    """Instructions per second across all PEs, MIMD from main memory."""
    machine = PASMMachine(config, partition_size=config.n_pes)
    arm_machine(machine)
    body = (source + "\n") * (repeats * blocks)
    program = assemble(
        body + "        HALT", predefined=config.device_symbols()
    )
    result = machine.run_mimd([program] * config.n_pes)
    collect_machine(machine, label=f"mips mimd p={config.n_pes}")
    # Exclude the HALT from the count, as the paper's loop control was.
    executed = repeats * blocks * config.n_pes
    halt_share = 1 / (repeats * blocks + 1)
    return executed / (result.seconds * (1 - halt_share))


def _execute_mips(spec: SimJobSpec) -> dict:
    params = dict(spec.params)
    source = params["source"]
    repeats, blocks = spec.n, params.get("blocks", BLOCKS)
    measure = _mips_simd if spec.mode == "simd" else _mips_mimd
    return {"ips": float(measure(spec.config, source, repeats, blocks))}


def _execute_faultsweep(spec: SimJobSpec) -> dict:
    """Fault-tolerance campaign over an N-terminal Extra-Stage Cube."""
    params = dict(spec.params)
    single = single_fault_sweep(spec.n)
    double = double_fault_sweep(
        spec.n,
        samples=params.get("double_samples", 500),
        seed=spec.seed,
    )
    return {"single": single.to_dict(), "double": double.to_dict()}


def _execute_test(spec: SimJobSpec) -> dict:
    """Test-support program (``program="_test"``): controlled failures.

    Actions (via ``params``): ``echo`` returns its value; ``pid`` also
    returns the id of the process that ran it; ``sleep`` holds a worker
    for a controllable interval (the serving tests use it to widen
    dedup/backpressure race windows), ended early once a ``release``
    sentinel file exists; ``crash`` hard-kills the worker
    process; ``flaky`` crashes on the first execution
    (before a sentinel file exists) and succeeds on resubmit.  Only
    ever scheduled by the engine's own test suites.
    """
    params = dict(spec.params)
    action = params.get("action")
    if action == "echo":
        return {"value": params.get("value")}
    if action == "pid":
        return {"value": params.get("value"), "pid": os.getpid()}
    if action == "sleep":
        seconds = float(params.get("seconds", 0.05))
        release = params.get("release")
        if release is None:
            time.sleep(seconds)
        else:
            deadline = time.monotonic() + seconds
            while (not os.path.exists(release)
                   and time.monotonic() < deadline):
                time.sleep(0.02)
        return {"value": params.get("value"), "slept": seconds}
    if action == "crash":
        os._exit(3)
    if action == "flaky":
        sentinel = params["sentinel"]
        if not os.path.exists(sentinel):
            with open(sentinel, "w") as fh:
                fh.write("attempted\n")
            os._exit(3)
        return {"value": "recovered"}
    raise ExecError(
        f"unknown _test action {action!r}", job=spec.to_dict()
    )


_PROGRAMS = {
    PROGRAM_MATMUL: _execute_matmul,
    PROGRAM_MIPS: _execute_mips,
    PROGRAM_FAULTSWEEP: _execute_faultsweep,
    "_test": _execute_test,
}


# ---------------------------------------------------------------------------
def execute_job(spec: SimJobSpec) -> dict:
    """Execute one job and return its JSON-able result payload."""
    handler = _PROGRAMS.get(spec.program)
    if handler is None:
        raise ExecError(
            f"unknown program {spec.program!r}; choose from "
            f"{sorted(_PROGRAMS)}",
            job=spec.to_dict(),
        )
    return handler(spec)


def timed_execute(spec: SimJobSpec) -> tuple[dict, float]:
    """Execute one job, returning ``(payload, wall_seconds)``."""
    start = time.perf_counter()
    payload = execute_job(spec)
    return payload, time.perf_counter() - start


def traced_execute(spec: SimJobSpec):
    """Execute one job, honouring an attached trace context.

    The single worker-side entry point for both the process pool and the
    serving broker.  An untraced spec (``spec.trace is None`` — the
    default) behaves exactly like :func:`timed_execute` and returns the
    same 2-tuple, so the hot path pays one attribute check.  A traced
    spec re-seeds the job tracer from the carried context (this is how
    spans survive the ``spawn`` process boundary) and returns a 3-tuple
    ``(payload, wall_seconds, events)`` with the simulated-time per-PE
    lane events recorded during execution.
    """
    if spec.trace is None:
        return timed_execute(spec)
    with tracing_job(spec.trace) as state:
        start = time.perf_counter()
        payload = execute_job(spec)
        wall = time.perf_counter() - start
        events = list(state.events)
        if state.dropped:
            events.append({
                "name": "events dropped", "cat": "meta", "ts": 0.0,
                "proc": "sim", "thread": "meta",
                "args": {"dropped": state.dropped},
            })
    return payload, wall, events
