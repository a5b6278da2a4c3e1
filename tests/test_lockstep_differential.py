"""The lockstep engine's license to exist: differential proof of
bit-identity against both event engines.

``repro.sim.lockstep`` replaces the SIMD rendezvous discovered by event
interleaving with one computed directly (max over the enabled PEs'
stamped arrivals), batches controller transfers, and fast-forwards
releases past the heap when nothing can interleave.  None of that is
allowed to *show*: every perf-visible quantity — makespan, per-PE cycle
and category accounting, instruction counts, finish times, result
matrices, queue statistics, MC busy accounting, and fault-detection
instants — must equal the pure-event schedule bit for bit, across all
four execution modes, under data-dependent timing variance, degraded
network routing, and fail-stop faults.  The three-tier matrix lives in
:mod:`tests.engines`; the ``engine_pair`` fixture names the candidate
tier in each test ID.

The seam programs pin hand-written SIMD streams that mix broadcast
compute with the instructions whose effect differs per PE: mask changes
between blocks, data-dependent control flow, flag-dependent stores and
device reads (``tests/test_vectorized.py`` draws random programs from
that vocabulary).  The hypothesis section generates random
straight-line SIMD programs (random blocks, masks, loop trips, and
per-PE operand seeds) and holds the same equality, plus the paper's core
property in isolation: a broadcast MULU completes at the *slowest*
enabled PE's pace, so a run is exactly as fast as its worst multiplier.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PEFailStopError
from repro.faults import FaultPlan, PEFailStop, representative_fault_plan
from repro.m68k.assembler import assemble
from repro.machine import ExecutionMode, PASMMachine
from repro.machine.partition import Partition
from repro.mc import EnqueueBlock, Loop, SetMask, WaitController
from repro.network import ExtraStageCubeTopology
from repro.perf import machine_counters
from repro.sim.lockstep import resolve_lockstep
from tests.engines import (
    ALL_MODES,
    CFG,
    ENGINE_TIERS,
    ENGINES,
    MODE_IDS,
    engine_pair,  # noqa: F401  (fixture)
    make_machine,
    mode_and_p,  # noqa: F401  (fixture)
    result_signature,
    signature,
)


@lru_cache(maxsize=None)
def _cached_signature(mode, n, p, engine, m=0, b_bits=None):
    """Fault-free signatures memoised across the parametrized matrix, so
    the pure-events baseline runs once per workload, not once per tier."""
    return signature(mode, n, p, engine, m=m, b_bits=b_bits)


# ---------------------------------------------------------------------------
# The core claim: three engines, four modes, one signature
def test_engine_tiers_identical(engine_pair, mode_and_p):
    baseline, candidate = engine_pair
    mode, p = mode_and_p
    assert (_cached_signature(mode, 16, p, candidate)
            == _cached_signature(mode, 16, p, baseline))


#: The cycles the pinned n=16 matmul must take in each mode, on every
#: tier: the same simulation the golden exhibits rest on, restated so a
#: speed-motivated engine change cannot drift timing unnoticed.
GOLDEN_CYCLES = {
    ExecutionMode.SERIAL: 362_528,
    ExecutionMode.SIMD: 116_989,
    ExecutionMode.SMIMD: 141_177,
    ExecutionMode.MIMD: 290_407,
}


@pytest.mark.parametrize("engine", ENGINE_TIERS)
def test_engine_tiers_hit_golden_cycles(engine, mode_and_p):
    mode, p = mode_and_p
    assert _cached_signature(mode, 16, p, engine)["cycles"] \
        == GOLDEN_CYCLES[mode]


def test_lockstep_run_is_deterministic(mode_and_p):
    """A fresh, uncached run repeats the memoised one exactly."""
    mode, p = mode_and_p
    assert (signature(mode, 16, p, "lockstep")
            == _cached_signature(mode, 16, p, "lockstep"))


@pytest.mark.parametrize("mode", [ExecutionMode.SIMD, ExecutionMode.SMIMD],
                         ids=lambda m: m.name)
def test_added_multiplies_identical(mode, engine_pair):
    """The Figure 7 knob (data-dependent inner-loop MULUs) can't split
    the engines: more timing variance, same schedule."""
    baseline, candidate = engine_pair
    assert (_cached_signature(mode, 8, 4, candidate, m=5)
            == _cached_signature(mode, 8, 4, baseline, m=5))


def test_wide_operands_identical(engine_pair):
    """Full 16-bit operands maximise MULU cycle variance across PEs."""
    baseline, candidate = engine_pair
    assert (_cached_signature(ExecutionMode.SIMD, 8, 4, candidate, b_bits=16)
            == _cached_signature(ExecutionMode.SIMD, 8, 4, baseline,
                                 b_bits=16))


def test_multi_mc_groups_identical(engine_pair):
    """Two MC groups drift independently; all engines drift alike."""
    baseline, candidate = engine_pair
    assert (_cached_signature(ExecutionMode.SIMD, 16, 8, candidate)
            == _cached_signature(ExecutionMode.SIMD, 16, 8, baseline))


# ---------------------------------------------------------------------------
# Faults: degraded routing and fail-stop detection
def _shift_plan(p: int) -> FaultPlan:
    topo = ExtraStageCubeTopology(CFG.n_pes)
    return representative_fault_plan(
        topo, Partition(CFG, p).shift_permutation()
    )


def test_degraded_routing_identical():
    """A representative degraded plan (extra-stage rerouting active)
    produces the same schedule and the same verified product on every
    engine tier."""
    plan = _shift_plan(4)
    sigs = [signature(ExecutionMode.SMIMD, 16, 4, engine, fault_plan=plan)
            for engine in ENGINE_TIERS]
    assert all(s == sigs[0] for s in sigs)


@pytest.mark.parametrize("mode", [ExecutionMode.SIMD, ExecutionMode.MIMD],
                         ids=lambda m: m.name)
def test_failstop_detection_instant_identical(mode):
    """The watchdog must strike at the same simulated instant whether the
    schedule was assembled by events or computed by the lockstep batch —
    including the lockstep engine's cancelled-request bookkeeping."""
    victim = Partition(CFG, 4).physical_pe(1)
    plan = FaultPlan(failstops=(PEFailStop(victim, 0.0),),
                     failstop_timeout=10_000.0)
    outcomes = []
    for engine in ENGINE_TIERS:
        with pytest.raises(PEFailStopError) as exc_info:
            signature(mode, 16, 4, engine, fault_plan=plan)
        outcomes.append((exc_info.value.pes, exc_info.value.detected_at,
                         exc_info.value.timeout))
    assert all(o == outcomes[0] for o in outcomes)
    assert outcomes[0][0] == (victim,)


def test_mid_run_strike_identical():
    """A strike landing mid-broadcast (not at t=0) is the adversarial
    case for release fast-forwarding: the assassin's deadline sits on
    the heap, must bound every fast-forwarded release, and must see the
    victim's state at the strike instant."""
    victim = Partition(CFG, 4).physical_pe(2)
    plan = FaultPlan(failstops=(PEFailStop(victim, 20_000.0),),
                     failstop_timeout=8_000.0)
    outcomes = []
    for engine in ENGINE_TIERS:
        with pytest.raises(PEFailStopError) as exc_info:
            signature(ExecutionMode.SIMD, 16, 4, engine, fault_plan=plan)
        outcomes.append((exc_info.value.pes, exc_info.value.detected_at))
    assert all(o == outcomes[0] for o in outcomes)


@pytest.mark.parametrize("strike_at", [5_000.0, 12_500.0, 33_000.0])
def test_failstop_strike_sweep_identical(strike_at):
    """Single-fault sweep: strikes planted at different depths of the
    run (early transfer, mid-compute, late compute), and every tier must
    detect at the same instant with the same victim set."""
    victim = Partition(CFG, 4).physical_pe(3)
    plan = FaultPlan(failstops=(PEFailStop(victim, strike_at),),
                     failstop_timeout=6_000.0)
    outcomes = []
    for engine in ENGINE_TIERS:
        with pytest.raises(PEFailStopError) as exc_info:
            signature(ExecutionMode.SIMD, 16, 4, engine, fault_plan=plan)
        outcomes.append((exc_info.value.pes, exc_info.value.detected_at,
                         exc_info.value.timeout))
    assert all(o == outcomes[0] for o in outcomes)
    assert outcomes[0][0] == (victim,)


# ---------------------------------------------------------------------------
# The lockstep machinery is observably *on* (and off when asked)
def _run_simd_matmul(machine):
    from repro.programs.data import generate_matrices
    from repro.programs.loader import build_matmul, run_matmul

    bundle = build_matmul(ExecutionMode.SIMD, 16, machine.p,
                          device_symbols=CFG.device_symbols())
    a, b = generate_matrices(16)
    run_matmul(machine, bundle, a, b)
    return machine_counters(machine)


def test_lockstep_counters_report_batching():
    counters = _run_simd_matmul(make_machine(4, "lockstep"))
    assert counters["lockstep"] is True
    assert counters["lockstep_rendezvous"] > 1_000
    assert counters["lockstep_releases"] > 1_000
    # Batching is real: p PEs resume per release, and carriers (the one
    # heap event a rendezvous may still need) are strictly rarer than
    # releases — fast-forwarded and inline releases need none at all.
    assert counters["lockstep_batch_pes"] >= counters["lockstep_releases"]
    assert counters["lockstep_carriers"] < counters["lockstep_releases"]

    off_counters = _run_simd_matmul(make_machine(4, "local-time"))
    assert off_counters["lockstep"] is False
    assert off_counters["lockstep_rendezvous"] == 0
    # The batched engine needs far fewer heap events for the same run.
    assert (counters["events_scheduled"]
            < off_counters["events_scheduled"] / 2)


def test_resolve_lockstep_env(monkeypatch):
    monkeypatch.delenv("REPRO_LOCKSTEP", raising=False)
    assert resolve_lockstep(None, True) is True    # default: on
    assert resolve_lockstep(None, False) is False  # needs the fast path
    assert resolve_lockstep(True, False) is False  # even when forced
    assert resolve_lockstep(False, True) is False
    monkeypatch.setenv("REPRO_LOCKSTEP", "0")
    assert resolve_lockstep(None, True) is False
    assert resolve_lockstep(True, True) is True    # explicit flag wins


# ---------------------------------------------------------------------------
# Hand-written and random SIMD programs, masks, and operand seeds
_ALL = (0, 1, 2, 3)
_SEEDS = [3, 0x5555, 7, 0xFFFE]


def _simd_plan(stages):
    """MC program: load each PE's multiplier into D1, run every
    ``(mask, block, trips)`` stage behind a ``WaitController``, HALT.

    Mask changes are ordered behind ``WaitController`` — on the
    prototype (and in the MC DSL discipline) the enabled mask is not
    retargeted while a block transfer is in flight.
    """
    plan = [EnqueueBlock("init")]
    for mask, block, trips in stages:
        plan += [WaitController(), SetMask(tuple(sorted(mask))),
                 Loop(trips, (EnqueueBlock(block),))]
    return plan + [WaitController(), SetMask(_ALL), EnqueueBlock("fini")]


def _simd_signature(engine: str, plan, blocks_src, seeds):
    """Run a SIMD program on one engine tier; fingerprint it."""
    machine = make_machine(4, engine)
    data_programs = [
        assemble(
            f"    HALT\n    .data\n    .org $4000\nmul: .dc.w {seed}",
            predefined=CFG.device_symbols(),
        )
        for seed in seeds
    ]
    blocks_src = {"init": "    MOVE.W  $4000,D1", **blocks_src,
                  "fini": "    HALT"}
    blocks = {
        name: assemble(src, predefined=CFG.device_symbols()).instruction_list()
        for name, src in blocks_src.items()
    }
    result = machine.run_simd(plan, blocks, data_programs=data_programs)
    sig = result_signature(machine, result)
    sig["d2"] = [machine.pe(lp).cpu.regs.d[2] & 0xFFFF for lp in range(4)]
    sig["d3"] = [machine.pe(lp).cpu.regs.d[3] & 0xFFFF for lp in range(4)]
    return sig


#: Seam programs: broadcast compute around one instruction whose effect
#: differs per PE, as (blocks, stages).
SEAM_PROGRAMS = {
    # The enabled mask narrows between two broadcast blocks.
    "mask-change": ({"wide": "    MULU    D1,D2\n    ADDQ.W  #1,D2",
                     "narrow": "    MULU    D1,D2\n    LSR.W   #1,D2"},
                    [(_ALL, "wide", 3), ((1, 2), "narrow", 3)]),
    # DIVU: data-dependent time, and a zero divisor would trap.
    "divu": ({"b0": "    ADDQ.W  #1,D2\n    MULU    D1,D2\n"
                    "    DIVU    D1,D2\n    ADDQ.W  #3,D2"},
             [(_ALL, "b0", 3)]),
    # Scc stores each PE's own condition codes.
    "scc": ({"b0": "    ADDQ.W  #1,D2\n    SNE     D3\n    MULU    D1,D2"},
            [(_ALL, "b0", 3)]),
    # A device read outside main RAM (the TIMER register).
    "timer": ({"b0": "    ADDQ.W  #1,D2\n    MOVE.W  TIMER,D3\n"
                     "    MULU    D1,D2"},
              [(_ALL, "b0", 3)]),
}


@pytest.mark.parametrize("name", list(SEAM_PROGRAMS))
def test_seam_program_identical(name):
    blocks_src, stages = SEAM_PROGRAMS[name]
    plan = _simd_plan(stages)
    assert (_simd_signature("lockstep", plan, blocks_src, _SEEDS)
            == _simd_signature("pure-events", plan, blocks_src, _SEEDS))


_BODY_VOCAB = (
    "    ADDQ.W  #1,D2",
    "    MULU    D1,D2",
    "    MULU    D1,D3",
    "    MOVE.W  D2,D3",
    "    ADD.W   D3,D2",
    "    LSR.W   #2,D2",
)


@settings(deadline=None, max_examples=8)
@given(data=st.data())
def test_random_simd_programs_identical(data):
    """Random straight-line blocks, loop trip counts, masks, and per-PE
    multiplier seeds: the lockstep schedule equals the pure-event
    schedule, signature for signature.  (Programs mixing in per-PE-effect
    instructions are drawn in ``tests/test_vectorized.py``.)"""
    n_blocks = data.draw(st.integers(1, 3), label="n_blocks")
    blocks_src = {}
    stages = []
    for i in range(n_blocks):
        body = data.draw(
            st.lists(st.sampled_from(_BODY_VOCAB), min_size=1, max_size=3),
            label=f"body{i}",
        )
        blocks_src[f"b{i}"] = "\n".join(body)
        mask = data.draw(
            st.sets(st.integers(0, 3), min_size=1, max_size=4),
            label=f"mask{i}",
        )
        trips = data.draw(st.integers(1, 6), label=f"trips{i}")
        stages.append((mask, f"b{i}", trips))
    plan = _simd_plan(stages)
    seeds = [data.draw(st.integers(0, 0xFFFF), label=f"seed{lp}")
             for lp in range(4)]

    pure = _simd_signature("pure-events", plan, blocks_src, seeds)
    assert _simd_signature("lockstep", plan, blocks_src, seeds) == pure


@pytest.mark.parametrize("trips", [3, 5])
def test_single_pe_mask_occupancy_identical(trips):
    """Regression (hypothesis-found): a one-PE mask consuming MULU pairs
    slower than the controller transfers them makes the staged queue
    admit words whose computed admit times leapfrog earlier (still
    uncomputed) releases.  The stats settlement must re-serialize them:
    trips=3 caught strict leapfrogging (high_water one too high),
    trips=5 caught the equal-instant tie, where an *independent* admit
    coinciding with an already-enabled release must count after it."""
    blocks_src = {"b0": "    MULU    D1,D2\n    MULU    D1,D2"}
    plan = _simd_plan([((0,), "b0", trips)])
    seeds = [0, 0, 0, 0]
    assert (_simd_signature("lockstep", plan, blocks_src, seeds)
            == _simd_signature("pure-events", plan, blocks_src, seeds))


@pytest.mark.xfail(strict=True, reason=(
    "known lockstep defect: a same-instant admit/release tie at equal "
    "schedule instants settles admit-first; the event heap orders it by "
    "sequence (here release-first), so empty_stall_cycles reads 196, not "
    "250"))
def test_same_schedule_instant_admit_tie_identical():
    """Reproducer (found by a random-program test; about 1 random
    program in 600 to 2,000 hits such a tie): PE 0 alone fetches ADDQ at t=275 and the controller starts
    transferring the HALT block at t=275 too.  Both the PE's next request
    and the HALT admit land at t=279 with schedule instant 275.  The
    event engine processes the PE's resumption first, so the release
    empties the queue before the admit.  The lockstep tie-break compares
    schedule instants only and settles the admit first.  Cycle counts
    agree; only ``queue_stats`` differ."""
    blocks_src = {"b0": "    ADDQ.W  #1,D2\n    MULS    D1,D3"}
    plan = _simd_plan([((0,), "b0", 4)])
    seeds = [1289, 0, 0, 0]
    assert (_simd_signature("lockstep", plan, blocks_src, seeds)
            == _simd_signature("pure-events", plan, blocks_src, seeds))


@settings(deadline=None, max_examples=8)
@given(mults=st.lists(st.integers(0, 0xFFFF), min_size=4, max_size=4))
def test_mulu_broadcast_paced_by_slowest_pe(mults):
    """The paper's instruction-level max-coupling, exactly: a broadcast
    MULU loop costs what it would cost if *every* PE held the multiplier
    with the most 1 bits (MULU = 38 + 2·ones).  Checked on the lockstep
    engine against the pure-event engine for the mixed operands, then
    against the all-worst run for the max property itself."""
    cfg = CFG.with_overrides(refresh=CFG.refresh.__class__(250, 0))
    worst = max(mults, key=lambda m: (m & 0xFFFF).bit_count())

    def run(engine, seeds):
        machine = PASMMachine(cfg, partition_size=4, **ENGINES[engine])
        data_programs = [
            assemble(
                f"    HALT\n    .data\n    .org $4000\nmul: .dc.w {seed}",
                predefined=cfg.device_symbols(),
            )
            for seed in seeds
        ]
        blocks = {
            "init": assemble("    MOVE.W  $4000,D1",
                             predefined=cfg.device_symbols()).instruction_list(),
            "body": assemble("    MULU    D1,D2",
                             predefined=cfg.device_symbols()).instruction_list(),
            "fini": assemble("    HALT",
                             predefined=cfg.device_symbols()).instruction_list(),
        }
        mc_program = [EnqueueBlock("init"),
                      Loop(12, (EnqueueBlock("body"),)),
                      EnqueueBlock("fini")]
        return machine.run_simd(mc_program, blocks,
                                data_programs=data_programs).cycles

    mixed = run("lockstep", mults)
    assert mixed == run("pure-events", mults)
    assert mixed == run("lockstep", [worst] * 4)
