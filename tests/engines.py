"""Shared engine-matrix helpers for the differential test suites.

The micro engine has two tiers, selected by ``fast_path``, that must be
bit-identical in everything perf-visible (see DESIGN.md, "Engine
tiers"):

* ``pure-events`` — every charge is a heap event and the SIMD
  rendezvous is discovered on the heap (``fast_path=False``); the
  reference oracle;
* ``lockstep``    — private charges accrue on per-bus local clocks, and
  the queue computes each release instant directly and serves the
  enabled set as a batch, by broadcast step where a PE is parked on
  an instruction fetch (``fast_path=True``); the default.

:func:`signature` captures everything a user of the simulator can
observe — cycle counts, per-PE finish times and category breakdowns,
instruction counts, the result matrix, queue statistics, and MC busy
accounting — so ``signature(e1) == signature(e2)`` is the full
equivalence claim, not just makespan equality.

The module doubles as a pytest plugin: the :func:`engine` /
:func:`engine_pair` / :func:`mode_and_p` fixtures parametrize over the
matrix with stable IDs (``lockstep``, ``SIMD`` …) so a failing case
names its tier and mode directly in the test ID.
"""

from __future__ import annotations

import pytest

from repro.machine import ExecutionMode, PASMMachine, PrototypeConfig
from repro.programs.data import generate_matrices
from repro.programs.loader import build_matmul, run_matmul

CFG = PrototypeConfig.calibrated()

#: Engine tier name -> PASMMachine constructor flags.  Every tier pins
#: the flag explicitly so the matrix is immune to a REPRO_PURE_EVENTS
#: environment override leaking into tests.
ENGINES = {
    "pure-events": {"fast_path": False},
    "lockstep": {"fast_path": True},
}

#: All tier names, oracle first (the differential suites iterate this).
ENGINE_TIERS = list(ENGINES)

#: Reference tier every other tier is compared against.
BASELINE_ENGINE = "pure-events"

#: The canonical (mode, partition size) matrix.
ALL_MODES = [
    (ExecutionMode.SERIAL, 1),
    (ExecutionMode.SIMD, 4),
    (ExecutionMode.SMIMD, 4),
    (ExecutionMode.MIMD, 4),
]

MODE_IDS = [m.name for m, _ in ALL_MODES]


@pytest.fixture(params=ENGINE_TIERS, ids=ENGINE_TIERS)
def engine(request) -> str:
    """Each engine tier in turn; the test ID carries the tier name."""
    return request.param


@pytest.fixture(params=[t for t in ENGINE_TIERS if t != BASELINE_ENGINE],
                ids=[t for t in ENGINE_TIERS if t != BASELINE_ENGINE])
def engine_pair(request) -> tuple[str, str]:
    """(baseline, candidate) pairs for differential tests — every
    non-baseline tier against ``pure-events``, IDs naming the candidate."""
    return BASELINE_ENGINE, request.param


@pytest.fixture(params=ALL_MODES, ids=MODE_IDS)
def mode_and_p(request) -> tuple[ExecutionMode, int]:
    """The canonical (mode, partition size) matrix as a fixture."""
    return request.param


def make_machine(p: int, engine: str = "lockstep", *, cfg=None,
                 fault_plan=None) -> PASMMachine:
    """A machine configured for the named engine tier."""
    return PASMMachine(cfg or CFG, partition_size=p, fault_plan=fault_plan,
                       **ENGINES[engine])


def run_matmul_on(mode: ExecutionMode, n: int, p: int, engine: str, *,
                  m: int = 0, cfg=None, fault_plan=None, b_bits=None,
                  traced: bool = False):
    """Run the pinned matmul workload on one engine tier.

    Returns ``(machine, run)`` so callers can inspect counters beyond
    the :class:`MachineResult`.  ``m`` adds data-dependent multiplies to
    the inner loop (the Figure 7 knob); ``b_bits`` widens the B-matrix
    operands (more MULU timing variance); ``traced`` arms
    :meth:`PASMMachine.enable_tracing` before the run.
    """
    cfg = cfg or CFG
    kwargs = {} if b_bits is None else {"b_bits": b_bits, "b_max": 1 << b_bits}
    a, b = generate_matrices(n, **kwargs)
    bundle = build_matmul(mode, n, p, added_multiplies=m,
                          device_symbols=cfg.device_symbols())
    machine = make_machine(p, engine, cfg=cfg, fault_plan=fault_plan)
    if traced:
        machine.enable_tracing()
    run = run_matmul(machine, bundle, a, b)
    return machine, run


def result_signature(machine: PASMMachine, result) -> dict:
    """The perf-visible fingerprint of a finished machine + result."""
    p = machine.p
    return {
        "cycles": result.cycles,
        "per_pe": result.per_pe_cycles,
        "cats": result.per_pe_categories,
        "icount": [machine.pe(i).cpu.instruction_count for i in range(p)],
        "finish": [machine.pe(i).cpu.finish_time for i in range(p)],
        "queue_stats": result.queue_stats,
        "mc_stats": result.mc_stats,
    }


def signature(mode: ExecutionMode, n: int, p: int, engine: str, *,
              m: int = 0, cfg=None, fault_plan=None, b_bits=None) -> dict:
    """Everything an engine tier could possibly perturb, in one dict."""
    machine, run = run_matmul_on(mode, n, p, engine, m=m, cfg=cfg,
                                 fault_plan=fault_plan, b_bits=b_bits)
    sig = result_signature(machine, run.result)
    sig["product"] = run.product.tolist()
    return sig
