"""Stamped network transfers against the store-and-mover model.

On the fast tier each circuit's bytes settle as a max-plus recurrence on
a :class:`~repro.network.transfer.Pipe`: a PE's ``NETTX``/``NETRX``
access passes its bus-true stamp and continues locally from the settled
term, and only an access whose term waits on a partner's stamp parks,
on one carrier event.  The pure-event tier keeps the 1-deep register
stores and a mover process per circuit, and is the oracle here.

The status register and the Fetch Unit's command register are stamped
channels of the same kind: a status read answers from the pipes without
a flush when its bits are decided, and an MC's command is accepted or
parked by the register's own recurrence.

The differential property draws transfer programs in all three parallel
modes — SIMD broadcast blocks under random MC programs, S/MIMD programs
with barriers and poll-heavy MIMD programs — with random private work
between the accesses, on 2, 4 or 8 PEs, and varies the byte latency,
the queue depth and the wait states of the status and data registers,
including the same-instant tie ``net_byte_latency == 4 + ws_status``
that the calibrated constants never reach.  The MC programs nest
``Loop``, ``EnqueueBlock`` and ``EnqueueSync`` (behind barrier-read
blocks), and on one MC group a ``SetMask`` behind ``WaitController``;
at p = 8 two MC groups share the network, so one MC's command register
parks while the other's runs ahead.  MIMD programs poll back to back,
poll without an access after, and access unguarded, so a PE polls while
its partner is parked on a pipe.  Both tiers must agree on cycles,
per-PE categories, queue and MC statistics, every PE's wait spans and
final registers.  Fail-stop cases that random programs found are pinned
below.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import PEFailStopError
from repro.faults import FaultPlan, PEFailStop
from repro.m68k.assembler import assemble
from repro.machine import PASMMachine
from repro.machine.partition import Partition
from repro.mc import EnqueueBlock, EnqueueSync, Loop, SetMask, WaitController
from repro.network import CircuitSwitchedNetwork, ExtraStageCubeTopology
from repro.network.transfer import NetworkFabric, Pipe, TransferPort
from repro.sim import Environment
from tests.engines import CFG, ENGINES, result_signature

# ---------------------------------------------------------------------------
# The recurrence on its own


def _pipe(env, latency):
    """A pipe between two fast-tier ports, its writer's and its reader's."""
    return Pipe(env, latency, TransferPort(env, 0, True),
                TransferPort(env, 1, True))


def test_pipe_recurrence_by_hand():
    """Latency 10, reader slow: the fourth write waits for the first
    read (TX, mover and RX hold three bytes), and every term is the
    documented max."""
    env = Environment()
    pipe = _pipe(env, 10)
    # W_0 = 0; W_1 = max(1, G_0 = 0); W_2 = max(2, G_1 = P_0 = 10).
    assert [pipe.settle(t, v) for t, v in ((0, 1), (1, 2), (2, 3))] \
        == [(0, None), (1, None), (10, None)]
    assert pipe.settle(3, 4) is None  # G_2 waits on P_1, so on R_0
    ev = pipe.park(3, 4)
    assert pipe.horizon() == 20  # G_1 + L: the mover's latency timeout
    # R_0 = 100 settles P_1 = 100, G_2 = 100 and so W_3 = 100.
    assert pipe.settle(100) == (100, 1)
    assert ev._value == (100, None) and pipe.carriers == 1
    assert pipe.horizon() == 110  # G_2 + L
    assert not pipe.tx_ready(100)  # G_3 = P_2 = max(G_2 + 10, R_1)
    assert pipe.settle(101) == (101, 2)
    assert pipe.tx_ready(111) and not pipe.tx_ready(110)  # G_3 = 110
    # P_2 = G_2 + 10 = 110: delivered at a sample at 110 only if the
    # latency timeout was scheduled (at G_2 = 100) before the access.
    assert not pipe.rx_valid(109, 4)
    assert pipe.rx_valid(110, 4) and not pipe.rx_valid(110, 10)
    assert pipe.settle(105) == (110, 3)
    assert pipe.settle(200) == (200, 4)  # P_3 = max(G_3 + 10, R_2) = 120
    assert pipe.settle(300) is None
    assert (pipe.writer.bytes_sent, pipe.reader.bytes_received) == (4, 4)


def test_pipe_status_waits_on_the_partner_clock():
    """A status bit whose term is not settled is undecided (None) until
    the partner PE's clock shows that no stamp of it lands before the
    sample: the writer's clock for RX_VALID, the reader's for
    TX_READY."""
    env = Environment()
    pipe = _pipe(env, 10)
    assert pipe.rx_valid(50, 4) is None  # nothing written, writer at 0
    pipe.writer.clock = 45  # its write lands at 45 at the earliest
    assert pipe.rx_valid(50, 4) is False  # ... and arrives after 55
    assert pipe.rx_valid(60, 4) is None
    for t in (0, 1, 2):
        pipe.settle(t, t)
    assert pipe.tx_ready(30) is None  # G_2 waits on the first read
    pipe.reader.clock = 30
    assert pipe.tx_ready(30) is False


def test_pipe_keeps_no_history():
    """A long transfer leaves the pipe the same size: settled terms are
    kept one per sequence, and only unread bytes are buffered."""
    env = Environment()
    pipe = _pipe(env, 3)
    for k in range(10_000):
        assert pipe.settle(10 * k, k) is not None
        assert pipe.settle(10 * k + 5) is not None
    assert len(pipe._bytes) == 0
    assert not hasattr(pipe, "__dict__")


def test_unconnected_pipe_holds_one_byte():
    """A terminal with no circuit: the first byte sits in TX for good,
    the second write and every read park forever."""
    env = Environment()
    port = TransferPort(env, 0, True)
    pipe = port.tx_pipe
    assert pipe.tx_ready(0)
    assert pipe.settle(5, 1) == (5, None)
    assert pipe.tx_ready(1e9) is False
    assert pipe.settle(6, 2) is None
    assert port.rx_pipe.settle(7) is None
    assert port.rx_pipe.rx_valid(1e9, 4) is False


def test_fast_fabric_has_no_mover_or_stores():
    env = Environment()
    net = CircuitSwitchedNetwork(ExtraStageCubeTopology(16))
    fabric = NetworkFabric(env, net, byte_latency=8, fast_path=True)
    fabric.connect(2, 1)
    assert env.peek() == float("inf")  # no mover process started
    assert all(port._tx is None and port._rx is None for port in fabric.ports)
    assert fabric.ports[2].tx_pipe is fabric.ports[1].rx_pipe


# ---------------------------------------------------------------------------
# Random transfer programs on both tiers

#: Private work between network accesses: data-dependent multiplies
#: (D1 holds each PE's seed) and short fixed-time instructions.
_WORK = (
    "    MULU    D1,D2",
    "    ADDQ.W  #3,D2",
    "    MOVE.W  D2,D3",
    "    LSR.W   #1,D2",
    "    MULU    D1,D3",
)

#: A status sample whose value shows in timing (MULU by it costs 2
#: cycles per set bit) and in the final registers.
_SAMPLE = ("    MOVE.W  NETSTAT,D5", "    ADD.W   D5,D7", "    MULU    D5,D4")

_WRITE = ("    MOVE.B  D2,NETTX",)
_READ = ("    MOVE.B  NETRX,D3", "    ADD.W   D3,D6")

#: Work ops a round draws between its accesses: private work, a status
#: sample, and two samples back to back.
_OPS = _WORK + ("sample", "sample2")


@st.composite
def _round(draw, label):
    """One transfer round: j <= 3 writes and j reads, the k-th read
    after the k-th write (so the ring never deadlocks), with private
    work and status samples drawn around them."""
    j = draw(st.integers(1, 3), label=f"{label}.j")
    order = []
    w = r = 0
    while r < j:
        if w < j and (w == r or draw(st.booleans())):
            order.append("w")
            w += 1
        else:
            order.append("r")
            r += 1
    ops = []
    for kind in order:
        ops += draw(st.lists(st.sampled_from(_OPS), max_size=3),
                    label=f"{label}.work")
        ops.append(kind)
    return ops


def _lines(ops, *, poll, delay, tag: str) -> list[str]:
    """Assembly for ``ops``.  ``poll`` guards an access with a
    status-register loop: False never, True always, or a callable drawn
    per access — 0 no guard, 1 a guard, 2 a guard, private work, and the
    guard again (a poll with no access after it).  ``delay`` draws an
    extra DBRA delay before an access (None: no delays, for broadcast
    blocks)."""
    lines = []
    for i, op in enumerate(ops):
        if op in ("w", "r"):
            if delay is not None:
                n = delay()
                if n:
                    lines += [f"    MOVE.W  #{n},D0",
                              f"{tag}d{i}: DBRA D0,{tag}d{i}"]
            guard = poll() if callable(poll) else int(poll)
            bit = 1 if op == "w" else 2
            for g in range(guard):
                if g:
                    lines.append(_WORK[1])
                lines += [f"{tag}p{i}g{g}: MOVE.W  NETSTAT,D5",
                          f"    AND.W   #{bit},D5", f"    BEQ     {tag}p{i}g{g}"]
            lines += list(_WRITE if op == "w" else _READ)
            if op == "w":
                lines.append("    ADDQ.W  #1,D2")
        elif op == "sample":
            lines += list(_SAMPLE)
        elif op == "sample2":
            lines += list(_SAMPLE[:2] + _SAMPLE)
        else:
            lines.append(op)
    return lines


def _cfg(p: int, latency: int, ws_status: int, ws_device: int,
         capacity: int = CFG.queue_capacity_words):
    # Partitions smaller than an MC group need smaller groups.
    return CFG.with_overrides(net_byte_latency=latency, ws_status=ws_status,
                              ws_device=ws_device,
                              queue_capacity_words=capacity,
                              n_mcs=8 if p == 2 else CFG.n_mcs)


def _data(cfg, seed: int, text: str = "    HALT"):
    return assemble(f"{text}\n    .data\n    .org $4000\nmul: .dc.w {seed}",
                    predefined=cfg.device_symbols())


def _run(engine, cfg, mode, p, spec, *, traced, fault_plan=None) -> dict:
    machine = PASMMachine(cfg, partition_size=p, fault_plan=fault_plan,
                          **ENGINES[engine])
    if traced:
        machine.enable_tracing()
    machine.connect_shift_circuit()
    if mode == "simd":
        rounds, trips, seeds, *stages = spec
        blocks_src = {"init": "    MOVE.W  $4000,D1\n    MOVE.W  D1,D2",
                      "fini": "    HALT",
                      "bar": "    MOVE.W  SIMDSPACE,D0"}
        plan = [EnqueueBlock("init")]
        for i, (ops, n) in enumerate(zip(rounds, trips)):
            blocks_src[f"r{i}"] = "\n".join(
                _lines(ops, poll=False, delay=None, tag=f"r{i}"))
            kind, arg = stages[0][i] if stages else ("loop", None)
            plan += _stage(kind, arg, f"r{i}", n, p, blocks_src)
        plan.append(EnqueueBlock("fini"))
        blocks = {name: assemble(src, predefined=cfg.device_symbols())
                  .instruction_list() for name, src in blocks_src.items()}
        result = machine.run_simd(plan, blocks,
                                  data_programs=[_data(cfg, s) for s in seeds])
    else:
        texts, seeds, barriers = spec
        programs = [_data(cfg, s, t) for s, t in zip(seeds, texts)]
        if mode == "mimd":
            result = machine.run_mimd(programs)
        else:
            result = machine.run_smimd(programs, barriers)
    sig = result_signature(machine, result)
    sig["regs"] = [list(machine.pe(i).cpu.regs.d) for i in range(p)]
    if traced:
        sig["waits"] = [list(machine.pe(i).bus.wait_spans) for i in range(p)]
    return sig


def _stage(kind, arg, block, n, p, blocks_src):
    """MC ops running transfer block ``block`` ``n`` times, as stage
    ``kind`` shapes it (``arg``: its drawn detail)."""
    run = Loop(n, (EnqueueBlock(block),))
    if kind == "mixed":  # transfers and private work in one loop body
        blocks_src[f"{block}w"] = "\n".join(
            _lines(arg, poll=False, delay=None, tag=f"{block}w"))
        return [Loop(n, (EnqueueBlock(block), EnqueueBlock(f"{block}w")))]
    if kind == "barrier":  # a barrier read and the sync word it consumes
        return [run, EnqueueBlock("bar"), EnqueueSync(1)]
    if kind == "wait":
        return [WaitController(), run]
    if kind == "masked":  # private work on a subset of the group
        blocks_src[f"{block}m"] = "\n".join(
            _lines(arg[1], poll=False, delay=None, tag=f"{block}m"))
        return [WaitController(), SetMask(arg[0]),
                Loop(n, (EnqueueBlock(f"{block}m"),)),
                WaitController(), SetMask(tuple(range(p))), run]
    return [run]


@st.composite
def _simd_stage(draw, label, p, groups):
    """A stage kind for a SIMD round, and what it needs drawn."""
    kinds = ["loop", "mixed", "barrier", "wait"] + (["masked"] if groups == 1
                                                    else [])
    kind = draw(st.sampled_from(kinds), label=f"{label}.kind")
    work = st.lists(st.sampled_from(_OPS), min_size=1, max_size=4)
    if kind == "mixed":
        return kind, draw(work, label=f"{label}.work")
    if kind == "masked":
        mask = draw(st.sets(st.integers(0, p - 1), min_size=1),
                    label=f"{label}.mask")
        return kind, (tuple(sorted(mask)), draw(work, label=f"{label}.work"))
    return kind, None


@st.composite
def _transfer_case(draw):
    mode = draw(st.sampled_from(["simd", "smimd", "mimd"]), label="mode")
    p = draw(st.sampled_from([2, 4, 8]), label="p")
    ws_status = draw(st.sampled_from([0, 2, 20, 104]), label="ws_status")
    if draw(st.booleans(), label="tie"):
        latency = 4 + ws_status
    else:
        latency = draw(st.sampled_from([1, 2, 24, 100]), label="latency")
    ws_device = draw(st.sampled_from([0, 1, 3]), label="ws_device")
    seeds = [draw(st.integers(0, 0xFFFF), label=f"seed{i}") for i in range(p)]
    n_rounds = draw(st.integers(1, 3), label="rounds")
    capacity = draw(st.sampled_from([6, 16, CFG.queue_capacity_words]),
                    label="capacity")
    cfg = _cfg(p, latency, ws_status, ws_device, capacity)
    if mode == "simd":
        groups = p // (cfg.n_pes // cfg.n_mcs)
        rounds = [draw(_round(f"r{i}")) for i in range(n_rounds)]
        trips = [draw(st.integers(1, 3), label=f"trips{i}")
                 for i in range(n_rounds)]
        stages = [draw(_simd_stage(f"s{i}", p, groups))
                  for i in range(n_rounds)]
        spec = (rounds, trips, seeds, stages)
    else:
        # Barriers sit at round boundaries, the same ones on every PE.
        barrier_at = [mode == "smimd" and draw(st.booleans(),
                                               label=f"barrier{i}")
                      for i in range(n_rounds)]
        # MIMD guards most accesses with a poll, some with two, and
        # leaves some to block on the pipe.
        guard = ((lambda: draw(st.sampled_from([0, 1, 1, 2]), label="guard"))
                 if mode == "mimd" else False)
        js = [None] * n_rounds
        texts = []
        for pe in range(p):
            lines = ["    MOVE.W  $4000,D1", "    MOVE.W  D1,D2"]
            for i in range(n_rounds):
                ops = draw(_round(f"pe{pe}.r{i}"))
                j = ops.count("w")
                if js[i] is None:
                    js[i] = j
                # Every PE moves the same bytes in a round.
                ops = _match_round(ops, js[i])
                if barrier_at[i]:
                    lines.append("    MOVE.W  SIMDSPACE,D0")
                lines += _lines(
                    ops, poll=guard, tag=f"q{i}",
                    delay=lambda: draw(st.integers(0, 12), label="delay"))
            texts.append("\n".join(lines + ["    HALT"]))
        spec = (texts, seeds, sum(barrier_at))
    return mode, p, cfg, spec


def _match_round(ops, j):
    """``ops`` with its transfers cut or padded to ``j`` writes and
    ``j`` reads, keeping each read after its write."""
    out, w, r = [], 0, 0
    for op in ops:
        if op == "w":
            if w == j:
                continue
            w += 1
        elif op == "r":
            if r == j or r == w:
                continue
            r += 1
        out.append(op)
    out += ["w"] * (j - w) + ["r"] * (j - r)
    return out


def _check_case(case):
    mode, p, cfg, spec = case
    pure = _run("pure-events", cfg, mode, p, spec, traced=True)
    assert _run("lockstep", cfg, mode, p, spec, traced=True) == pure
    del pure["waits"]
    assert _run("lockstep", cfg, mode, p, spec, traced=False) == pure


@settings(deadline=None, max_examples=100)
@given(case=_transfer_case())
def test_random_transfer_programs_identical(case):
    _check_case(case)


@pytest.mark.slow
@settings(deadline=None, max_examples=2_000)
@given(case=_transfer_case())
def test_random_transfer_programs_identical_deep(case):
    _check_case(case)


#: Fail-stop cases random transfer programs found: ``(mode, p, latency,
#: ws_status, ws_device, spec, victim, strike)``.
_FAILSTOP_CASES = {
    # The victim dies before its first write while the others' bytes are
    # in flight: the pure tier's heap runs on to the mover's deliveries,
    # so the watchdog must count settled terms, not parked stamps alone.
    "bytes-in-flight": ("simd", 4, 24, 20, 0,
                        ([["w", "r"]], [1], [0, 0, 0, 0]), 0, 58),
    # The victim's request at the strike instant is released before the
    # kill reaches it: lockstep runs the board on to its next request,
    # which must never register.
    "served-at-strike": (
        "simd", 2, 108, 104, 0,
        ([[_WORK[0], "sample", "sample", "w", _WORK[0], "w", _WORK[1],
           _WORK[3], _WORK[3], "r", _WORK[0], _WORK[0], _WORK[1], "r"],
          ["w", "r"]], [3, 1], [0, 759]),
        0, 1876),
    # The victim's write lies past its strike: unflushed, its stamp would
    # put a byte in the pipe that the pure tier's dead board never sent.
    "write-after-strike": (
        "smimd", 2, 1, 0, 0,
        (["\n".join(["    MOVE.W  $4000,D1", "    MOVE.W  D1,D2"]
                    + _lines(["w", "r"], poll=False, delay=None, tag="s")
                    + ["    HALT"])] * 2, [0, 0], 0),
        0, 20),
}


def _failstop_outcome(engine, mode, p, cfg, spec, victim, at):
    """What a run with logical PE ``victim`` struck at ``at`` ends in:
    the detected fail-stop, or the run's signature if the PE finished
    first."""
    plan = FaultPlan(failstops=(PEFailStop(
        Partition(cfg, p).physical_pe(victim), float(at)),),
        failstop_timeout=2_000.0)
    try:
        return _run(engine, cfg, mode, p, spec, traced=False,
                    fault_plan=plan)
    except PEFailStopError as exc:
        return exc.pes, exc.detected_at


@pytest.mark.parametrize("name", list(_FAILSTOP_CASES))
def test_failstop_cases_identical(name):
    mode, p, latency, ws_status, ws_device, spec, victim, at = \
        _FAILSTOP_CASES[name]
    cfg = _cfg(p, latency, ws_status, ws_device)
    outcomes = [_failstop_outcome(engine, mode, p, cfg, spec, victim, at)
                for engine in ("pure-events", "lockstep")]
    assert type(outcomes[0]) is tuple
    assert outcomes[0] == outcomes[1]


@st.composite
def _failstop_case(draw):
    mode, p, cfg, spec = draw(_transfer_case())
    victim = draw(st.integers(0, p - 1), label="victim")
    at = draw(st.integers(0, 1_500), label="strike")
    return mode, p, cfg, spec, victim, at


def _check_failstop_case(case):
    outcomes = [_failstop_outcome(engine, *case)
                for engine in ("pure-events", "lockstep")]
    assert outcomes[0] == outcomes[1]


#: The stale flush: the victim, struck at 0 while running its delay
#: loop, was sleeping to the flush before its first write (81); the
#: event schedule's dead board never gets there, and both tiers detect
#: the fail-stop when the heap drains, at 66.
_STALE_FLUSH = (
    "smimd", 2, _cfg(2, 1, 0, 0),
    (["\n".join(["    MOVE.W  $4000,D1", "    MOVE.W  D1,D2"]
                + _lines(["w", "r"], poll=False, tag="q0",
                         delay=iter([d, 0]).__next__)
                + ["    HALT"]) for d in (1, 0)], [0, 0], 0),
    0, 0)


def test_stale_flush_detected_when_the_heap_drains():
    assert [_failstop_outcome(engine, *_STALE_FLUSH)
            for engine in ("pure-events", "lockstep")] == [((0,), 66.0)] * 2


@settings(deadline=None, max_examples=100)
@given(case=_failstop_case())
@example(case=_STALE_FLUSH)
def test_random_failstop_transfer_programs_identical(case):
    _check_failstop_case(case)


@pytest.mark.slow
@settings(deadline=None, max_examples=2_000)
@given(case=_failstop_case())
@example(case=_STALE_FLUSH)
def test_random_failstop_transfer_programs_identical_deep(case):
    _check_failstop_case(case)


# ---------------------------------------------------------------------------
# Edges the random programs cannot aim at


def test_status_ties_identical(monkeypatch):
    """The two same-instant ties of a status sample, aimed at:

    * ``net_byte_latency == 4 + ws_status``: a byte's latency timeout
      and a status access issued at its take land on the same instant,
      and the sample comes first (RX_VALID clear).  PE 1 writes after a
      swept delay while PE 0 polls for the byte.
    * a take at the very instant of a TX_READY sample comes after it
      (TX_READY clear).  With a 105-cycle latency the mover takes each
      PE's second byte exactly when its poll before the third write
      samples.

    Both ties must be hit, and both tiers must agree on every run."""
    ties = {"rx": 0, "tx": 0}
    rx_valid, tx_ready = Pipe.rx_valid, Pipe.tx_ready

    def rx_spy(pipe, t, c):
        if pipe.n_p > pipe.n_r and pipe.P == t and pipe.Pg == t - c:
            ties["rx"] += 1
        return rx_valid(pipe, t, c)

    def tx_spy(pipe, t):
        if pipe.n_w and pipe.n_g == pipe.n_w and pipe.G == t:
            ties["tx"] += 1
        return tx_ready(pipe, t)

    monkeypatch.setattr(Pipe, "rx_valid", rx_spy)
    monkeypatch.setattr(Pipe, "tx_ready", tx_spy)

    def check(cfg, texts):
        spec = (texts, [1, 2, 3, 4], 0)
        pure = _run("pure-events", cfg, "mimd", 4, spec, traced=True)
        assert _run("lockstep", cfg, "mimd", 4, spec, traced=True) == pure

    for delay in range(12):
        for pad in range(3):
            texts = []
            for pe in range(4):
                ops = ["    ADDQ.W  #3,D2"] * (pad if pe == 1 else 0) + [
                    "w", "w", "r", "r"]
                texts.append("\n".join(_lines(
                    ops, poll=True, tag="t",
                    delay=lambda pe=pe: delay if pe == 1 else 0)
                    + ["    HALT"]))
            check(_cfg(4, 8, 4, 1), texts)
    text = "\n".join(_lines(["w", "w", "w", "r", "r", "r"], poll=True,
                            tag="t", delay=None) + ["    HALT"])
    for latency in (104, 105, 106):
        check(_cfg(4, latency, 4, 1), [text] * 4)
    assert ties["rx"] and ties["tx"]
