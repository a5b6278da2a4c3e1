"""Symmetric-ring pipeline model for the network transfer phase.

During a rotation step every PE sends its outgoing column to its left
neighbor, element by element, over the circuit-switched ring.  All PEs run
the same code at the same rate, so the timeline of one PE (with its
incoming bytes arriving on its *own* send schedule, by symmetry) captures
the whole phase:

* a transmit-register write blocks until the circuit's mover has picked up
  the previous byte (1-deep register);
* a mover carries one byte at a time with latency L and cannot pick up the
  next byte until the destination register has been drained;
* in polling mode (pure MIMD), every network access is preceded by a
  status poll loop, which both costs instructions and quantizes waits to
  the poll period.

The model walks the actual transfer-fragment instructions with the same
manual timings the micro engine charges, so its per-element period matches
the micro engine's measured comm time to within start-up effects (enforced
by the cross-engine tests).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.m68k.addressing import Mode, dreg, imm
from repro.m68k.instructions import Instruction
from repro.machine.config import PrototypeConfig
from repro.programs.common import xfer_element_source
from repro.timing_model.fragments import CostEnv, instruction_cost


@dataclass(frozen=True)
class CommPhase:
    """Cost of one n-element transfer phase."""

    cycles: float  #: total phase duration (setup + all elements)
    per_element_steady: float  #: steady-state element period
    setup_cycles: float  #: loop-counter setup before the first element


def _classify(instr: Instruction, config: PrototypeConfig) -> str:
    for op in instr.operands:
        if op.mode in (Mode.ABS_L, Mode.ABS_W) and isinstance(op.value, int):
            if op.value == config.net_tx_addr:
                return "tx"
            if op.value == config.net_rx_addr:
                return "rx"
            if op.value == config.net_status_addr:
                return "status"
    return "plain"


def _xfer_instructions(config: PrototypeConfig) -> list[Instruction]:
    """The non-polling transfer fragment, assembled once."""
    from repro.m68k.assembler import assemble

    source = xfer_element_source(polling=False)
    return assemble(
        source, predefined=config.device_symbols()
    ).instruction_list()


def _poll_costs(env: CostEnv, config: PrototypeConfig):
    """(sample_offset, iter_cost, exit_cost) of one status-poll loop.

    The loop is ``MOVE.W NETSTAT,Dn / AND.W #bit,Dn / BEQ back``; the
    status is sampled when the MOVE's device access completes.
    """
    from repro.m68k.addressing import absl

    move = Instruction("MOVE", None, (absl(config.net_status_addr), dreg(5)))
    and_i = Instruction("AND", None, (imm(1), dreg(5)))
    beq = Instruction("BEQ", None, (), target=0)
    move_c, _ = instruction_cost(move, env, config)
    and_c, _ = instruction_cost(and_i, env, config)
    taken_c, _ = instruction_cost(beq, env, config, branch_taken=True)
    exit_c, _ = instruction_cost(beq, env, config, branch_taken=False)
    return move_c, and_c + taken_c, and_c + exit_c


@functools.lru_cache(maxsize=256)
def comm_pipeline(
    config: PrototypeConfig,
    env: CostEnv,
    *,
    polling: bool,
    n_elements: int,
    pe_loop: bool = True,
) -> CommPhase:
    """Walk one transfer phase of ``n_elements`` 16-bit elements.

    ``pe_loop=False`` models SIMD mode, where the element loop runs on the
    MC and the PE sees only the broadcast element blocks (no counter setup
    or DBRA).

    Memoised: a pure function of frozen inputs whose walk is O(n) in
    Python, and an exhibits pass asks for the same few phases per point.
    """
    instrs = _xfer_instructions(config)
    kinds = [_classify(i, config) for i in instrs]
    device_access = 4 + env.ws_device

    # Pre-compute fixed instruction costs; net instructions split into
    # (pre, access) so blocking lands at the device-access point.
    costs = []
    for instr, kind in zip(instrs, kinds):
        total, _ = instruction_cost(instr, env, config)
        if kind in ("tx", "rx"):
            costs.append((kind, total - device_access, device_access))
        else:
            costs.append((kind, total, 0.0))

    # Loop machinery: counter setup once, DBRA per element.
    dbra = Instruction("DBRA", None, (dreg(2),), target=0)
    dbra_taken, _ = instruction_cost(dbra, env, config, branch_taken=True)
    dbra_exp, _ = instruction_cost(
        dbra, env, config, branch_taken=False, dbcc_expired=True
    )
    setup = Instruction("MOVE", None, (imm(0), dreg(2)))
    setup_c, _ = instruction_cost(setup, env, config)

    if polling:
        poll_sample, poll_iter, poll_exit = _poll_costs(env, config)

    L = config.net_byte_latency
    t = 0.0
    tx_free = 0.0  # mover picked up the previous outgoing byte
    deliver_prev = -1e18  # mover free after delivering previous byte
    arrivals: list[float] = []  # delivery times of incoming bytes
    last_read = -1e18  # my rx register drained at this time
    next_in = 0  # index of next incoming byte to read
    out_idx = 0  # outgoing byte counter
    periods = []

    def wait_until(cond_time: float) -> float:
        """Advance t past a poll loop (polling) or return block target."""
        nonlocal t
        if not polling:
            t = max(t, cond_time)
            return t
        while True:
            sample = t + poll_sample
            if cond_time <= sample:
                t = sample + poll_exit
                return t
            t = sample + poll_iter

    for e in range(n_elements):
        t_start = t
        for kind, pre, access in costs:
            if kind == "plain":
                t += pre
            elif kind == "tx":
                t += pre
                # must wait for tx register free (previous byte picked up)
                wait_until(tx_free)
                t += access
                # mover: picks up when free after previous delivery
                pickup = max(t, deliver_prev)
                deliver = max(pickup + L, last_read)
                arrivals.append(deliver)
                tx_free = pickup
                deliver_prev = deliver
                out_idx += 1
            elif kind == "rx":
                t += pre
                # by ring symmetry my incoming bytes follow my own send
                # schedule: arrival of byte next_in is arrivals[next_in]
                arrival = arrivals[next_in]
                wait_until(arrival)
                t += access
                last_read = t
                next_in += 1
        if pe_loop:
            t += dbra_taken if e < n_elements - 1 else dbra_exp
        periods.append(t - t_start)

    steady = periods[-1] if periods else 0.0
    setup = setup_c if pe_loop else 0.0
    return CommPhase(
        cycles=setup + t,
        per_element_steady=steady,
        setup_cycles=setup,
    )
