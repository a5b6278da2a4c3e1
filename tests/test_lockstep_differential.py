"""The lockstep engine's license to exist: differential proof of
bit-identity against the pure-event engine.

``repro.sim.lockstep`` replaces the SIMD rendezvous discovered by event
interleaving with one computed directly (max over the enabled PEs'
stamped arrivals), batches controller transfers, and fast-forwards
releases past the heap when nothing can interleave.  None of that is
allowed to *show*: every perf-visible quantity — makespan, per-PE cycle
and category accounting, instruction counts, finish times, result
matrices, queue statistics, MC busy accounting, and fault-detection
instants — must equal the pure-event schedule bit for bit, across all
four execution modes, under data-dependent timing variance, degraded
network routing, and fail-stop faults.  The two-tier matrix lives in
:mod:`tests.engines`; the ``engine_pair`` fixture names the candidate
tier in each test ID.  The trace section checks that arming tracing
changes nothing and that the exported trace lanes reproduce the
per-category accounting on both tiers.

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

from repro.errors import AddressError, BusError, PEFailStopError
from repro.faults import FaultPlan, PEFailStop, representative_fault_plan
from repro.fetch_unit import queue as queue_module
from repro.fetch_unit.queue import FetchUnitQueue
from repro.m68k.assembler import assemble
from repro.m68k.cpu import _resolve_handler
from repro.machine import ExecutionMode, PASMMachine
from repro.machine.partition import Partition
from repro.mc import EnqueueBlock, EnqueueSync, Loop, SetMask, WaitController
from repro.network import ExtraStageCubeTopology
from repro.network.transfer import StatusRegister
from repro.obs.simtrace import machine_events
from repro.perf import machine_counters
from repro.sim import Environment
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
    run_matmul_on,
    signature,
)


@lru_cache(maxsize=None)
def _cached_signature(mode, n, p, engine, m=0, b_bits=None):
    """Fault-free signatures memoised across the parametrized matrix, so
    the pure-events baseline runs once per workload, not once per tier."""
    return signature(mode, n, p, engine, m=m, b_bits=b_bits)


# ---------------------------------------------------------------------------
# The core claim: two engines, four modes, one signature
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
    result = run_matmul(machine, bundle, a, b).result
    return {**machine_counters(machine), "instructions": result.instructions}


def test_lockstep_counters_report_batching():
    counters = _run_simd_matmul(make_machine(4, "lockstep"))
    assert counters["fast_path"] is True
    assert counters["lockstep_rendezvous"] > 1_000
    assert counters["lockstep_releases"] > 1_000
    # Batching is real: p PEs are served per release, and carriers (the
    # one heap event a rendezvous may still need) are strictly rarer
    # than releases — fast-forwarded and inline releases need none.
    assert counters["lockstep_batch_pes"] >= counters["lockstep_releases"]
    assert counters["lockstep_carriers"] < counters["lockstep_releases"]
    # Broadcast steps engage: every instruction of this run is fetched
    # from SIMD space, and nearly all of them run without a generator
    # resume, the network transfers included (23,428 of 23,688: they
    # settle on the circuits' pipes without parking).  Nothing else
    # would notice a step that stopped engaging: the schedule is the
    # same either way.
    assert counters["broadcast_steps"] >= 0.95 * counters["instructions"]

    off_counters = _run_simd_matmul(make_machine(4, "pure-events"))
    assert off_counters["fast_path"] is False
    assert off_counters["lockstep_rendezvous"] == 0
    assert off_counters["broadcast_steps"] == 0
    # The batched engine needs far fewer heap events for the same run.
    assert (counters["events_scheduled"]
            < off_counters["events_scheduled"] / 2)


#: Heap events the n=16, p=4, m=0 matmul may take on the fast tier.  Its
#: 4,096 network accesses (2,048 bytes) and its MIMD status polls cost
#: none unless a PE must wait on a partner's stamp, and its MC's
#: commands none unless the command register is full; a flush per
#: access or poll would add about 4,100 events, a put and a get per
#: command about 2,900.
EVENT_BUDGET = {
    ExecutionMode.SIMD: 2_500,
    ExecutionMode.SMIMD: 1_000,
    ExecutionMode.MIMD: 1_000,
}


@pytest.mark.parametrize("mode", list(EVENT_BUDGET), ids=lambda m: m.name)
def test_transfers_cost_no_heap_events(mode):
    machine, _ = run_matmul_on(mode, 16, 4, "lockstep")
    counters = machine_counters(machine)
    assert counters["events_processed"] <= EVENT_BUDGET[mode]
    # A parked access is a transfer's only heap event (one carrier):
    # S/MIMD parks 768 times in 2,048 bytes, while MIMD polls the status
    # register first and never parks.
    assert counters["net_carriers"] <= counters["events_processed"]

    pure, _ = run_matmul_on(mode, 16, 4, "pure-events")
    assert machine_counters(pure)["net_carriers"] == 0


def test_status_polls_do_not_flush(monkeypatch):
    """MIMD polls the status register before each of its 4,096 network
    accesses.  On the fast tier a poll answers from the pipes, and one
    that must wait for a partner parks on one event, which the partner
    withdraws when it parks itself having decided the poll: no poll
    flushes the local clock (a flush is a sleep), so the run's only
    sleeps are the four PEs' flushes at halt, and its heap events stay
    far below one per poll, where a flushing poll costs two."""
    reads, sleeps = [0], [0]
    settle, park = StatusRegister.settle, StatusRegister.park
    sleep = Environment.sleep

    def count_settle(reg, stamp):
        got = settle(reg, stamp)
        reads[0] += got is not None
        return got

    def count_park(reg, stamp):
        reads[0] += 1
        return park(reg, stamp)

    def count_sleep(env, delay):
        sleeps[0] += 1
        return sleep(env, delay)

    monkeypatch.setattr(StatusRegister, "settle", count_settle)
    monkeypatch.setattr(StatusRegister, "park", count_park)
    monkeypatch.setattr(Environment, "sleep", count_sleep)
    machine, _ = run_matmul_on(ExecutionMode.MIMD, 16, 4, "lockstep")
    assert reads[0] >= 4_096
    assert sleeps[0] == machine.p
    assert machine_counters(machine)["events_processed"] < reads[0] / 10


#: Engine counters a traced run must share with the untraced one.
#: ``broadcast_steps`` is not among them: traced PEs are never stepped.
PATH_COUNTERS = ("events_processed", "lockstep_carriers",
                 "lockstep_rendezvous", "net_carriers")


@pytest.mark.parametrize("mode", list(EVENT_BUDGET), ids=lambda m: m.name)
def test_tracing_keeps_the_engine_path(mode):
    """A traced PE meets the Fetch Unit Queue and the network on the
    same lockstep path as an untraced one: the same heap events,
    carriers and stamped requests (SIMD: 1,267 events, 626
    carriers)."""
    counts = []
    for traced in (False, True):
        machine, _ = run_matmul_on(mode, 16, 4, "lockstep", traced=traced)
        counters = machine_counters(machine)
        counts.append({k: counters[k] for k in PATH_COUNTERS})
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# The trace is an oracle: arming it perturbs nothing, and its lanes
# reproduce the per-category accounting and agree across tiers
def test_trace_lanes_are_an_oracle(mode_and_p):
    mode, p = mode_and_p
    waits = {}
    for engine in ENGINE_TIERS:
        machine, run = run_matmul_on(mode, 16, p, engine, traced=True)
        sig = result_signature(machine, run.result)
        sig["product"] = run.product.tolist()
        assert sig == _cached_signature(mode, 16, p, engine)

        events = machine_events(machine, label=engine, max_spans=10**7)
        lanes: dict[int, dict[str, float]] = {}
        for ev in events:
            assert ev["cat"] in ("instr", "wait")  # nothing truncated
            if ev["cat"] == "instr":
                cats = lanes.setdefault(int(ev["thread"].split()[1]), {})
                cats[ev["name"]] = cats.get(ev["name"], 0.0) + ev["dur"]
        assert lanes == run.result.per_pe_categories
        waits[engine] = [(ev["thread"], ev["name"], ev["ts"], ev["dur"])
                         for ev in events if ev["cat"] == "wait"]
    assert waits["lockstep"] == waits["pure-events"]
    # Queue rendezvous block in SIMD and S/MIMD; MIMD polls the network.
    assert waits["lockstep"] or mode in (ExecutionMode.SERIAL,
                                         ExecutionMode.MIMD)


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


def _simd_signature(engine: str, plan, blocks_src, seeds,
                    pe_text="    HALT", fault_plan=None):
    """Run a SIMD program on one engine tier; fingerprint it."""
    return _run_simd_program(engine, plan, blocks_src, seeds, pe_text,
                             fault_plan)[1]


def _run_simd_program(engine: str, plan, blocks_src, seeds,
                      pe_text="    HALT", fault_plan=None, circuit=False,
                      cfg=None):
    """Run a SIMD program on one engine tier: ``(machine, signature)``.

    ``pe_text`` is the code in each PE's main RAM, at $1000, for
    broadcast jumps out of SIMD space; each PE's multiplier seed is the
    word at $4000, and the words from $4100 on are fingerprinted for
    broadcast stores.  ``circuit`` connects the shift-by-one circuit
    for ``NETTX``/``NETRX`` transfers; ``cfg`` replaces the calibrated
    configuration."""
    machine = make_machine(4, engine, cfg=cfg, fault_plan=fault_plan)
    if circuit:
        machine.connect_shift_circuit()
    data_programs = [
        assemble(
            f"{pe_text}\n    .data\n    .org $4000\nmul: .dc.w {seed}",
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
    sig["stored"] = [[machine.pe(lp).memory.read(0x4100 + 2 * k, 2)
                      for k in range(8)] for lp in range(4)]
    return machine, sig


#: Seam programs: broadcast compute around one instruction whose effect
#: differs per PE, as (blocks, stages, PE main-RAM code).
SEAM_PROGRAMS = {
    # The enabled mask narrows between two broadcast blocks.
    "mask-change": ({"wide": "    MULU    D1,D2\n    ADDQ.W  #1,D2",
                     "narrow": "    MULU    D1,D2\n    LSR.W   #1,D2"},
                    [(_ALL, "wide", 3), ((1, 2), "narrow", 3)],
                    "    HALT"),
    # DIVU: data-dependent time, and a zero divisor would trap.
    "divu": ({"b0": "    ADDQ.W  #1,D2\n    MULU    D1,D2\n"
                    "    DIVU    D1,D2\n    ADDQ.W  #3,D2"},
             [(_ALL, "b0", 3)], "    HALT"),
    # Scc stores each PE's own condition codes.
    "scc": ({"b0": "    ADDQ.W  #1,D2\n    SNE     D3\n    MULU    D1,D2"},
            [(_ALL, "b0", 3)], "    HALT"),
    # A device read outside main RAM (the TIMER register).
    "timer": ({"b0": "    ADDQ.W  #1,D2\n    MOVE.W  TIMER,D3\n"
                     "    MULU    D1,D2"},
              [(_ALL, "b0", 3)], "    HALT"),
    # A broadcast JMP into PE main RAM mid-block: each PE leaves SIMD
    # space, runs its own data-dependent MULU there, and jumps back to
    # take the rest of the block.
    "jmp-main": ({"b0": "    MULU    D1,D2\n    JMP     $1000\n"
                        "    ADDQ.W  #1,D3"},
                 [(_ALL, "b0", 3)],
                 "    ADDQ.W  #1,D2\n    MULU    D1,D2\n"
                 "    JMP     SIMDSPACE"),
    # Broadcast stores through (A0)+ into each PE's own memory, next to
    # a data-dependent MULU, under a full and then a narrowed mask.
    "store-postinc": ({"ptr": "    LEA     $4100,A0",
                       "b0": "    MULU    D1,D2\n    MOVE.W  D2,(A0)+\n"
                             "    ADDQ.W  #1,D2"},
                      [(_ALL, "ptr", 1), (_ALL, "b0", 3),
                       ((0, 3), "b0", 2)],
                      "    HALT"),
}


@pytest.mark.parametrize("name", list(SEAM_PROGRAMS))
def test_seam_program_identical(name):
    blocks_src, stages, pe_text = SEAM_PROGRAMS[name]
    plan = _simd_plan(stages)
    assert (_simd_signature("lockstep", plan, blocks_src, _SEEDS, pe_text)
            == _simd_signature("pure-events", plan, blocks_src, _SEEDS,
                               pe_text))


@pytest.mark.parametrize("engine", ENGINE_TIERS)
def test_broadcast_bus_error_raises(engine):
    """A broadcast read through PE 2's unmapped pointer raises out of
    the run on every tier, also when a broadcast step executes it."""
    blocks_src = {"b0": "    MULU    D1,D2\n    MOVEA.W D1,A0\n"
                        "    MOVE.W  (A0),D3"}
    with pytest.raises(BusError, match="unmapped address 0xfffffffe"):
        _simd_signature(engine, _simd_plan([(_ALL, "b0", 2)]), blocks_src,
                        [2, 4, 0xFFFE, 6])


def test_failstop_of_parked_pe_identical():
    """A PE struck while parked on a broadcast fetch, its zero multiplier
    keeping it ahead of three slow PEs: the release its request still
    completes must reach the dead board's generator, never run by
    broadcast step, so the watchdog strikes where pure events do."""
    victim = Partition(CFG, 4).physical_pe(0)
    plan = FaultPlan(failstops=(PEFailStop(victim, 100.0),),
                     failstop_timeout=2_000.0)
    blocks_src = {"b0": "    MULU    D1,D2\n    ADDQ.W  #1,D3"}
    outcomes = []
    for engine in ENGINE_TIERS:
        with pytest.raises(PEFailStopError) as exc_info:
            _simd_signature(engine, _simd_plan([(_ALL, "b0", 20)]),
                            blocks_src, [0, 0xFFFF, 0xFFFF, 0xFFFF],
                            fault_plan=plan)
        outcomes.append((exc_info.value.pes, exc_info.value.detected_at))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (victim,)


# ---------------------------------------------------------------------------
# Edges of a release run: the release loop steps parked PEs release after
# release until a PE reaches an edge, where the run goes back to the PE's
# generator.  Each program below ends a run at one edge, mid-cascade.
_MUL = "    MULU    D1,D2\n    ADDQ.W  #1,D3"
_SEEDS_SPREAD = [0, 0x00FF, 0x0F0F, 0xFFFF]


def _edge_plan(*stages, end="fini"):
    """``init``, then each stage (``(mask, block, trips)``, or an MC op
    as is) behind a ``WaitController``, then the ``end`` block under
    the full mask."""
    plan = [EnqueueBlock("init")]
    for stage in stages:
        if isinstance(stage, tuple):
            mask, block, trips = stage
            stage = Loop(trips, (EnqueueBlock(block),))
            plan += [WaitController(), SetMask(tuple(sorted(mask)))]
        plan.append(stage)
    return plan + [WaitController(), SetMask(_ALL), EnqueueBlock(end)]


#: ``name: (plan, blocks, PE main-RAM code, circuit)``.
RUN_EDGES = {
    # A step hands back a generator: PE 0 reads NETRX alone, before its
    # sender (PE 1) has written, so the read parks on the pipe until the
    # next block's write settles it (the read is the last item of its
    # block: one behind it would hold the write back in the FIFO).
    "netrx-parks": (
        _edge_plan((_ALL, "b0", 2), ((0,), "rd", 1), ((1, 2, 3), "wr", 1),
                   (_ALL, "b0", 2)),
        {"b0": _MUL, "rd": "    MOVE.B  NETRX,D3",
         "wr": "    MULU    D1,D2\n    MOVE.B  D2,NETTX"},
        "    HALT", True),
    # The pc leaves SIMD space: a broadcast JMP into main RAM mid-block,
    # and each PE's own data-dependent code there jumps back.
    "leaves-simd-space": (
        _edge_plan((_ALL, "b0", 3)),
        {"b0": "    MULU    D1,D2\n    JMP     $1000\n    ADDQ.W  #1,D3"},
        "    MULU    D1,D3\n    JMP     SIMDSPACE", False),
    # HALT inside the last block: the item behind it is never fetched.
    "halt-in-block": (
        _edge_plan((_ALL, "b0", 3), end="stop"),
        {"b0": _MUL, "stop": "    MULU    D1,D2\n    HALT\n"
                             "    ADDQ.W  #1,D3"},
        "    HALT", False),
    # A sync word between instruction items: a broadcast barrier read
    # from SIMD space consumes it inside the cascade.
    "sync-word": (
        _edge_plan((_ALL, "b0", 2), EnqueueBlock("bar"), EnqueueSync(1),
                   (_ALL, "b0", 2)),
        {"b0": _MUL, "bar": "    MULU    D1,D2\n    MOVE.W  SIMDSPACE,D0"},
        "    HALT", False),
    # The mask changes between blocks: PEs outside it stay parked on a
    # request that a later item completes.
    "mask-change": (
        _edge_plan((_ALL, "b0", 2), ((0, 2), "b0", 2), ((1, 3), "b0", 1),
                   ((3,), "b0", 2), (_ALL, "b0", 1)),
        {"b0": _MUL}, "    HALT", False),
}


def _edge_runs(name, fault_plan=None):
    plan, blocks_src, pe_text, circuit = RUN_EDGES[name]
    return [_run_simd_program(engine, plan, blocks_src, _SEEDS_SPREAD,
                              pe_text, fault_plan, circuit)
            for engine in ("lockstep", "pure-events")]


@pytest.mark.parametrize("name", list(RUN_EDGES))
def test_release_run_edge_identical(name):
    """Each edge ends a run of steps and both tiers still agree on the
    full signature, ``queue_stats`` included.  The lockstep run steps
    most instructions but not all: the edge went back to a generator."""
    (machine, sig), (_, pure) = _edge_runs(name)
    assert sig == pure
    counters = machine_counters(machine)
    assert 0 < counters["broadcast_steps"] < sum(sig["icount"])
    if name == "netrx-parks":
        assert counters["net_carriers"] >= 1


def test_release_run_with_mortal_pe_identical():
    """A PE with a scheduled fail-stop (struck after the run ends) is in
    every mask: the loop never steps it, it meets each release in its
    own generator, and the other three are still stepped."""
    victim = Partition(CFG, 4).physical_pe(1)
    plan = FaultPlan(failstops=(PEFailStop(victim, 1e9),))
    (machine, sig), (_, pure) = _edge_runs("mask-change", plan)
    assert sig == pure
    stepped = machine_counters(machine)["broadcast_steps"]
    assert 0 < stepped <= sum(sig["icount"]) - sig["icount"][1]


# ---------------------------------------------------------------------------
# Register-only runs: the release loop runs a run of register-only items
# ahead of its release, each PE through the whole run, and releases it
# from the recorded costs.  Each program below puts one corner of that
# in a run: a one-PE mask, a carrier due mid-run, a queue that runs dry
# mid-run, a timecat change, a HALT; a fail-stop plan keeps every run in
# step.
_REG_RUN = "\n".join(["    MULU    D1,D2", "    ADDQ.W  #1,D3",
                      "    MULU    D1,D3", "    LSR.W   #1,D2"] * 4)

_LINK_RUN = "\n".join(["    MOVEA.L #$4110,A7", "    ADDQ.W  #3,D2",
                       "    MULU    D1,D2", "    MOVEA.L D2,A6",
                       "    LINK    A6,#-8",
                       "    MULU    D1,D3", "    ADDQ.W  #1,D3"])

#: Each PE's pointers into its own data area: A0 for the walking
#: forms, A1 at the fingerprinted words from $4100.
_POINTERS = "    MOVEA.L #$8000,A0\n    MOVEA.L #$4100,A1"

#: Private-memory forms among register-only ones: reads, writes and
#: read-modify-writes through (An), (An)+, -(An) and d16(An), word and
#: long, MOVE (A0)+,(A0)+ included.
_MEM_RUN = "\n".join(["    MOVE.W  (A0)+,D2", "    MULU    D1,D2",
                      "    ADD.W   D2,(A1)+", "    MOVE.L  D2,-(A0)",
                      "    MULU    4(A1),D3", "    MOVE.W  (A0)+,(A0)+",
                      "    SUB.L   (A1),D3", "    LSR.W   #1,D2"] * 2)

#: ``name: (plan, blocks, seeds, cfg)``.
AHEAD_RUNS = {
    "one-pe-mask": (_simd_plan([((2,), "run", 3), (_ALL, "run", 1)]),
                    {"run": _REG_RUN}, _SEEDS_SPREAD, None),
    # Zero multipliers outpace the MC, whose waits land on the heap
    # inside runs: the release loop stops mid-run for a carrier and
    # the carrier resumes it from the recorded costs.
    "carrier-mid-run": (_edge_plan((_ALL, "run", 4), WaitController(),
                                   (_ALL, "run", 2)),
                        {"run": _REG_RUN}, [0, 0, 0, 0], None),
    # A controller of 40 cycles a word admits items after the fastest
    # PE asks for them: the empty stall inside a run counts from the
    # first arrival, the previous release plus the cheapest cost.
    "queue-runs-dry": (_simd_plan([(_ALL, "run", 2)]), {"run": _REG_RUN},
                       _SEEDS_SPREAD,
                       CFG.with_overrides(controller_cycles_per_word=40)),
    # A run ends where the timecat changes; the next run starts there.
    "two-timecats": (_simd_plan([(_ALL, "cats", 3)]),
                     {"cats": "    .timecat mult\n" + _REG_RUN
                              + "\n    .timecat comm\n" + _MUL},
                     _SEEDS_SPREAD, None),
    # LINK names only registers but pushes onto the stack in DRAM: it
    # is not register-only, and ends the run of register-only MOVEAs
    # and MULU before it.  Each PE pushes its own A6 at $410C.
    "link": (_simd_plan([(_ALL, "link", 2)]),
             {"link": _LINK_RUN}, _SEEDS_SPREAD, None),
    # The last block's HALT is not register-only: the run before it
    # ends one item short of it.
    "halt": (_edge_plan((_ALL, "run", 2), end="stop"),
             {"run": _REG_RUN, "stop": _MUL + "\n    HALT\n" + _MUL},
             _SEEDS_SPREAD, None),
    # Runs of private-memory items, under a one-PE mask and then all.
    "memory-one-pe-mask": (
        _simd_plan([(_ALL, "ptrs", 1), ((2,), "mem", 3), (_ALL, "mem", 1)]),
        {"ptrs": _POINTERS, "mem": _MEM_RUN}, _SEEDS_SPREAD, None),
    # As carrier-mid-run, with DRAM accesses in the run: a carrier
    # stops it after a memory item, whose cost the release prices.
    "memory-carrier-mid-run": (
        _edge_plan((_ALL, "ptrs", 1), (_ALL, "mem", 4), WaitController(),
                   (_ALL, "mem", 2)),
        {"ptrs": _POINTERS, "mem": _MEM_RUN}, [0, 0, 0, 0], None),
}


@pytest.mark.parametrize("name", list(AHEAD_RUNS))
def test_register_only_run_identical(name, monkeypatch):
    """Each run is released from its recorded costs with the books of
    the item-by-item loop: full signatures, ``queue_stats`` included,
    equal pure events'.  The carrier cases are stopped mid-run at least
    once, the memory one after an item whose DRAM accesses the release
    priced."""
    cuts = []
    schedule_carrier = FetchUnitQueue._schedule_carrier

    def counted(queue, t_r):
        run = queue._run
        if run is not None and run.next:
            cuts.append(bool(run.dram[run.next - 1]))
        schedule_carrier(queue, t_r)

    monkeypatch.setattr(FetchUnitQueue, "_schedule_carrier", counted)
    plan, blocks_src, seeds, cfg = AHEAD_RUNS[name]
    machine, sig = _run_simd_program("lockstep", plan, blocks_src, seeds,
                                     cfg=cfg)
    _, pure = _run_simd_program("pure-events", plan, blocks_src, seeds,
                                cfg=cfg)
    assert sig == pure
    counters = machine_counters(machine)
    assert 0 < counters["ahead_steps"] <= counters["broadcast_steps"]
    if name == "link":  # each PE's A6, pushed
        assert any(sig["stored"][lp][6:] != [0, 0] for lp in range(4))
    if name == "carrier-mid-run":
        assert cuts
    if name == "memory-carrier-mid-run":
        assert any(cuts)  # stopped after a DRAM-touching item


def test_register_only_run_with_mortal_pe():
    """A machine whose fault plan schedules a fail-stop runs nothing
    ahead, also where the mortal PE is outside the run's mask: a strike
    must find every PE where the event schedule has it.  The PEs that
    may not fail are still stepped, and the signature holds."""
    victim = Partition(CFG, 4).physical_pe(1)
    fault_plan = FaultPlan(failstops=(PEFailStop(victim, 1e9),))
    plan = _edge_plan(((0, 2), "run", 3), (_ALL, "run", 1))
    blocks_src = {"run": _REG_RUN}
    machine, sig = _run_simd_program("lockstep", plan, blocks_src,
                                     _SEEDS_SPREAD, fault_plan=fault_plan)
    _, pure = _run_simd_program("pure-events", plan, blocks_src,
                                _SEEDS_SPREAD, fault_plan=fault_plan)
    assert sig == pure
    counters = machine_counters(machine)
    assert counters["ahead_steps"] == 0 < counters["broadcast_steps"]


def test_register_only_run_stops_at_simd_space_edge(monkeypatch):
    """A 64-byte SIMD space: the PEs' pcs reach its end inside a run.
    No PE runs ahead past the last item that keeps its pc inside, the
    item at the edge takes it out, and the fetch beyond raises the same
    BusError on both tiers."""
    cfg = CFG.with_overrides(simd_space_size=0x40)
    edge = cfg.simd_space_base + cfg.simd_space_size
    ends = []
    run_ahead = queue_module.run_ahead

    def recorded(cpus, steps):
        tails = run_ahead(cpus, steps)
        ends.extend(cpu.regs.pc for cpu in cpus)
        return tails

    monkeypatch.setattr(queue_module, "run_ahead", recorded)
    errors = []
    for engine in ENGINE_TIERS:
        with pytest.raises(BusError) as exc_info:
            _run_simd_program(engine, _simd_plan([(_ALL, "run", 4)]),
                              {"run": _REG_RUN}, _SEEDS_SPREAD, cfg=cfg)
        errors.append(str(exc_info.value))
    assert errors[0] == errors[1]
    assert ends and max(ends) < edge


def test_mimd_register_only_chain_crosses_refresh_identical():
    """A MIMD loop whose body is one register-only run of twelve
    instructions, thirty trips: the chain replays the run on a local
    clock, paying the closed-form refresh stall per fetch across many
    refresh periods, and the full signature equals pure events'."""
    body = "\n".join(["    MULU    D1,D2", "    ADDQ.W  #1,D3",
                      "    MULU    D1,D3", "    LSR.W   #1,D2"] * 3)
    pe_text = ("    .timecat mult\n    MOVEQ   #29,D6\nloop:\n" + body
               + "\n    DBRA    D6,loop\n    JMP     SIMDSPACE")
    plan = _edge_plan((_ALL, "go", 1))
    blocks_src = {"go": "    JMP     $1000"}
    machine, sig = _run_simd_program("lockstep", plan, blocks_src,
                                     _SEEDS_SPREAD, pe_text)
    _, pure = _run_simd_program("pure-events", plan, blocks_src,
                                _SEEDS_SPREAD, pe_text)
    assert sig == pure
    assert CFG.refresh.inline_constants()[1] > 0  # refresh is on
    assert sig["cats"][0]["mult"] > 30 * CFG.refresh.period
    runs = [entry for chain, _ in machine.pe(0).cpu._chain_cache.values()
            for entry in chain if entry[5] is None]
    # From the entry, MOVEQ and the body; from the loop head, the body.
    assert sorted(len(entry[3]) for entry in runs) == [12, 13]


def test_register_only_rule():
    """Register-only: no memory operand and no data access, no control
    flow, no divide.  LINK and UNLK name only registers but use the
    stack."""
    def register_only(line):
        instr, = assemble(line).instruction_list()
        return _resolve_handler(instr).register_only

    for line in ("    MULU    D1,D5", "    MOVEA.L #$4300,A6",
                 "    LSR.W   #1,D2", "    EXG     D2,D4",
                 "    ADDA.W  D2,A2"):
        assert register_only(line), line
    for line in ("    LINK    A6,#-8", "    UNLK    A6",
                 "    DIVU    D1,D2", "    MOVE.W  (A0),D3",
                 "    DBRA    D6,$1000", "    HALT"):
        assert not register_only(line), line


def test_run_ahead_rule():
    """An item may run ahead with memory operands in (An), (An)+, -(An)
    and d16(An) alone; ``accesses`` holds the words of each of its DRAM
    accesses in order, and without accesses it is register-only."""
    def ahead(line):
        instr, = assemble(line).instruction_list()
        return _resolve_handler(instr).ahead

    for line, accesses in (("    MOVE.W  (A0)+,D0", (1,)),
                           ("    ADD.W   D0,(A1)+", (1, 1)),
                           ("    MOVE.L  -(A0),4(A1)", (2, 2)),
                           ("    MULU    2(A1),D3", (1,)),
                           ("    CMP.W   (A1),D2", (1,)),
                           ("    MOVEA.L (A3)+,A0", (2,)),
                           ("    MULU    D1,D5", ())):
        rule = ahead(line)
        assert rule is not None and rule[1] == accesses, line
        assert (rule[0] is None) == (not accesses), line
    for line in ("    MOVE.W  $F10000,D3", "    MOVE.W  2(A0,D1.W),D3",
                 "    MOVE.W  $4100,D3", "    CLR.W   (A1)+",
                 "    LINK    A6,#-8", "    DIVU    (A0),D2",
                 "    HALT"):
        assert ahead(line) is None, line


def test_run_ahead_fits():
    """``fits`` addresses the operands in order with each one's register
    update applied, and refuses an access outside ``[lo, hi)`` or a
    word at an odd address."""
    def fits(line):
        instr, = assemble(line).instruction_list()
        return _resolve_handler(instr).ahead[0]

    a = [0x4100] * 8
    twice = fits("    MOVE.W  (A0)+,(A0)+")
    assert twice(a, 0x4100, 0x4104) and not twice(a, 0x4100, 0x4103)
    assert a[0] == 0x4100  # probing changes no register
    assert not fits("    MOVE.W  -(A0),D0")(a, 0x4100, 0x8000)
    assert fits("    MOVE.B  1(A0),D0")([0x40FF] * 8, 0x4100, 0x4101)
    assert not fits("    MOVE.W  1(A0),D0")(a, 0x4000, 0x8000)


def test_private_run_cut_before_device_register(monkeypatch):
    """A2 holds the TIMER's address inside a run of private-memory
    items: no PE runs the read through it ahead, the run is cut before
    it on every PE, the read samples global time in the PE's generator,
    and the full signature equals pure events'."""
    ran = []
    run_ahead = queue_module.run_ahead

    def recorded(cpus, steps):
        tails = run_ahead(cpus, steps)
        ran.extend(step[0] for step in steps[:len(tails)])
        return tails

    monkeypatch.setattr(queue_module, "run_ahead", recorded)
    device_read = "    MOVE.W  (A2),D3"
    blocks_src = {"ptrs": "    MOVEA.L #TIMER,A2\n" + _POINTERS,
                  "b0": "\n".join(["    MOVE.W  (A0)+,D2", "    MULU    D1,D2",
                                   device_read, "    ADD.W   D3,(A1)+",
                                   "    MULU    D1,D3"])}
    plan = _simd_plan([(_ALL, "ptrs", 1), (_ALL, "b0", 3)])
    machine, sig = _run_simd_program("lockstep", plan, blocks_src,
                                     _SEEDS_SPREAD)
    _, pure = _run_simd_program("pure-events", plan, blocks_src,
                                _SEEDS_SPREAD)
    assert sig == pure
    instr, = assemble(device_read).instruction_list()
    assert ran and _resolve_handler(instr) not in ran
    assert machine_counters(machine)["ahead_steps"] > 0


def test_private_run_odd_address_raises_identically():
    """PE 2's A0 is odd: the word read through it is cut from the run
    on every PE, and both tiers raise the same AddressError."""
    blocks_src = {"b0": "    MULU    D1,D2\n    MOVEA.W D1,A0\n"
                        "    MOVE.W  (A0),D3\n    MULU    D1,D3"}
    errors = []
    for engine in ENGINE_TIERS:
        with pytest.raises(AddressError) as exc_info:
            _simd_signature(engine, _simd_plan([(_ALL, "b0", 2)]),
                            blocks_src, [0x4100, 0x4102, 0x4101, 0x4106])
        errors.append(str(exc_info.value))
    assert errors[0] == errors[1]
    assert "misaligned 2-byte access at 0x4101" in errors[0]


def test_private_run_move_postinc_twice_identical():
    """``MOVE.W (A0)+,(A0)+`` in a run: each PE copies the word its
    store left at $4100 to $4102 and A0 steps twice, as on pure
    events."""
    blocks_src = {"ptrs": "    MOVEA.L #$4100,A0\n    MOVEA.L #$4100,A1",
                  "b0": "    MULU    D1,D2\n    MOVE.W  D2,(A1)+\n"
                        "    ADDQ.W  #2,A1\n    MOVE.W  (A0)+,(A0)+\n"
                        "    ADDQ.W  #1,D2"}
    plan = _simd_plan([(_ALL, "ptrs", 1), (_ALL, "b0", 4)])
    runs = [_run_simd_program(engine, plan, blocks_src, _SEEDS_SPREAD)
            for engine in ("lockstep", "pure-events")]
    (machine, sig), (pure_machine, pure) = runs
    assert sig == pure
    assert [machine.pe(lp).cpu.regs.a[0] for lp in range(4)] == [
        pure_machine.pe(lp).cpu.regs.a[0] for lp in range(4)] == [0x4110] * 4
    assert all(words[0] == words[1] for words in sig["stored"])
    assert machine_counters(machine)["ahead_steps"] > 0


def test_mimd_chain_with_link_identical():
    """A MIMD loop whose straight-line body mixes register-only MOVEAs
    and MULUs with LINK and UNLK: the stack instructions stay single
    chain entries between register-only runs, and the full signature,
    the pushed words included, equals pure events'."""
    pe_text = ("    MOVEA.L #$4110,A7\n    MOVEQ   #5,D6\nloop:\n"
               "    ADDQ.W  #3,D2\n    MULU    D1,D2\n    MOVEA.L D2,A6\n"
               "    LINK    A6,#-8\n"
               "    MULU    D1,D3\n    ADDQ.W  #1,D3\n    UNLK    A6\n"
               "    MOVEA.L #$4300,A6\n    DBRA    D6,loop\n"
               "    JMP     SIMDSPACE")
    plan = _edge_plan((_ALL, "go", 1))
    blocks_src = {"go": "    JMP     $1000"}
    machine, sig = _run_simd_program("lockstep", plan, blocks_src,
                                     _SEEDS_SPREAD, pe_text)
    _, pure = _run_simd_program("pure-events", plan, blocks_src,
                                _SEEDS_SPREAD, pe_text)
    assert sig == pure
    assert any(sig["stored"][lp][6:] != [0, 0] for lp in range(4))
    chains = [chain for chain, _ in machine.pe(0).cpu._chain_cache.values()]
    runs = [[step[3] for step in entry[3]] for chain in chains
            for entry in chain if entry[5] is None]
    assert runs and all(h.register_only for run in runs for h in run)


def test_ahead_steps_cover_the_inner_loop():
    """In the n=16, p=4, m=0 SIMD matmul the inner-loop body (its MOVE
    and ADD through (A0)+ and (A1)+ around the MULU) and the per-column
    setup run ahead: over 70% of the instructions."""
    machine, run = run_matmul_on(ExecutionMode.SIMD, 16, 4, "lockstep")
    counters = machine_counters(machine)
    assert counters["ahead_steps"] >= 0.70 * run.result.instructions
    assert counters["ahead_steps"] <= counters["broadcast_steps"]


def test_ahead_steps_cover_the_added_multiplies():
    """In the n=16, p=4, m=20 SIMD matmul the register-only runs (the
    real and the twenty added MULUs of each inner-loop body, 81% of the
    instructions) run ahead of their release, nearly all of them."""
    machine, run = run_matmul_on(ExecutionMode.SIMD, 16, 4, "lockstep",
                                 m=20)
    counters = machine_counters(machine)
    assert counters["ahead_steps"] >= 0.75 * run.result.instructions
    assert counters["ahead_steps"] <= counters["broadcast_steps"]


_BODY_VOCAB = (
    "    ADDQ.W  #1,D2",
    "    MULU    D1,D2",
    "    MULU    D1,D3",
    "    MOVE.W  D2,D3",
    "    ADD.W   D3,D2",
    "    LSR.W   #2,D2",
)

#: Register-only forms of other families, for long runs.
_REGISTER_VOCAB = _BODY_VOCAB + (
    "    MULS    D1,D3",
    "    ROL.W   D1,D2",
    "    MOVEQ   #5,D4",
    "    EXG     D2,D4",
    "    SUBI.W  #3,D3",
    "    ADDA.W  D2,A2",
    "    MOVE.W  A2,D3",
)


#: Private-memory forms for random programs, after :data:`_POINTERS`:
#: reads, writes and read-modify-writes of words and longs through
#: (An), (An)+, -(An) and d16(An).  A0 walks both ways from $8000 (each
#: PE's pointers stay in its data area), A1 addresses the fingerprinted
#: words, and the accesses cross refresh windows.
_PRIVATE_VOCAB = (
    "    MOVE.W  (A0)+,D2",
    "    MOVE.L  D3,-(A0)",
    "    ADD.W   D2,(A1)",
    "    MOVE.W  6(A1),D3",
    "    MOVE.L  (A1),8(A1)",
    "    ADD.L   -(A0),D2",
    "    SUB.W   D3,4(A1)",
    "    MOVE.W  D2,(A0)+",
    "    MULU    2(A1),D3",
    "    MOVE.W  (A0)+,(A0)+",
    "    CMP.W   (A1),D2",
)


@st.composite
def simd_programs(draw, vocab=_BODY_VOCAB, max_body=3, max_trips=6,
                  setup=None):
    """A random SIMD program for :func:`_simd_signature`: one to three
    blocks of straight-line code from ``vocab`` (lines, or a strategy
    drawing one), each run under a random mask for a random trip count,
    and a multiplier seed per PE, as ``(plan, blocks_src, seeds)``; the
    ``setup`` block, if given, runs first under the full mask."""
    line = (vocab if isinstance(vocab, st.SearchStrategy)
            else st.sampled_from(vocab))
    n_blocks = draw(st.integers(1, 3), label="n_blocks")
    blocks_src = {} if setup is None else {"setup": setup}
    stages = [] if setup is None else [(_ALL, "setup", 1)]
    for i in range(n_blocks):
        body = draw(
            st.lists(line, min_size=1, max_size=max_body),
            label=f"body{i}",
        )
        blocks_src[f"b{i}"] = "\n".join(body)
        mask = draw(st.sets(st.integers(0, 3), min_size=1, max_size=4),
                    label=f"mask{i}")
        trips = draw(st.integers(1, max_trips), label=f"trips{i}")
        stages.append((mask, f"b{i}", trips))
    seeds = [draw(st.integers(0, 0xFFFF), label=f"seed{lp}")
             for lp in range(4)]
    return _simd_plan(stages), blocks_src, seeds


def assert_tiers_agree(program) -> None:
    """The lockstep signature of ``program`` equals the pure-event one,
    ``queue_stats`` included."""
    pure = _simd_signature("pure-events", *program)
    assert _simd_signature("lockstep", *program) == pure


@settings(deadline=None, max_examples=50)
@given(program=simd_programs())
def test_random_simd_programs_identical(program):
    """Random straight-line blocks, loop trip counts, masks, and per-PE
    multiplier seeds: the lockstep schedule equals the pure-event
    schedule, signature for signature.  (Programs mixing in per-PE-effect
    instructions are drawn in ``tests/test_vectorized.py``.)"""
    assert_tiers_agree(program)


#: Long runs: bodies of up to 24 register-only and private-memory
#: instructions, most of each block one run.
long_runs = simd_programs(vocab=_REGISTER_VOCAB + _PRIVATE_VOCAB,
                          max_body=24, setup=_POINTERS)


@settings(deadline=None, max_examples=25)
@given(program=long_runs)
def test_random_register_only_runs_identical(program):
    """Random long blocks of register-only and private-memory items,
    masks, trips and seeds: the runs the release loop runs ahead release
    at the pure-event schedule's instants, each DRAM access priced at
    its release, signature for signature."""
    assert_tiers_agree(program)


@pytest.mark.parametrize("trips", [3, 5])
def test_single_pe_mask_occupancy_identical(trips):
    """Regression (hypothesis-found): a one-PE mask consuming MULU pairs
    slower than the controller transfers them makes the staged queue
    admit words whose computed admit times leapfrog earlier (still
    uncomputed) releases.  The occupancy must still count them in
    instant order: trips=3 caught strict leapfrogging (high_water one
    too high), trips=5 an admit at the instant of an earlier item's
    release, which counts after it."""
    blocks_src = {"b0": "    MULU    D1,D2\n    MULU    D1,D2"}
    plan = _simd_plan([((0,), "b0", trips)])
    seeds = [0, 0, 0, 0]
    assert (_simd_signature("lockstep", plan, blocks_src, seeds)
            == _simd_signature("pure-events", plan, blocks_src, seeds))


def test_same_schedule_instant_admit_tie_identical():
    """Found by a random-program test: PE 0 alone fetches ADDQ at t=275
    and the controller starts transferring the HALT block at t=275 too.
    The PE's next request and the HALT admit both land at t=279, where
    the pure event heap orders them by sequence, an order lockstep does
    not know.  The statistics do not depend on it: both tiers read an
    empty stall of 84."""
    program = (_simd_plan([((0,), "b0", 4)]),
               {"b0": "    ADDQ.W  #1,D2\n    MULS    D1,D3"},
               [1289, 0, 0, 0])
    pure = _simd_signature("pure-events", *program)
    assert _simd_signature("lockstep", *program) == pure
    assert pure["queue_stats"][0]["empty_stall_cycles"] == 84


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
