"""MC68000 interpreter.

The CPU executes :class:`~repro.m68k.instructions.Instruction` objects
against a *bus* object inside the discrete-event simulation.  All memory
traffic goes through the bus as generator calls so that

* per-region wait states are charged where they belong (instruction stream
  vs operand data),
* accesses to memory-mapped devices (network transfer registers, the SIMD
  instruction space) can block the CPU — which is exactly how PASM's SIMD
  instruction broadcast, implicit network synchronization, and barrier
  mechanism work.

Bus protocol.  Every bus subclasses
:class:`repro.sim.localtime.LocalTimeBus`, which fixes the protocol: the
CPU binds the same methods on every bus.  The generator methods, driven
by the sim kernel:

``fetch_instruction(addr)``
    returns the :class:`Instruction` at ``addr`` after charging its
    instruction-stream fetch accesses; may block (SIMD space rendezvous).
``fetch_stream_words(addr, n)``
    charges ``n`` extra instruction-stream accesses (branch-target
    prefetches, RTS pipeline refill).
``read(addr, size)`` / ``write(addr, value, size)``
    operand accesses; may block on device registers.
``charge(cycles)``
    pure execution time (no bus activity).
``sync()``
    flushes the bus's local clock (at halt).

Each of the four access calls has a *non-generator* fast twin —
``try_fetch_instruction(addr)``, ``try_fetch_stream_words(addr, n)``,
``try_read(addr, size)`` and ``try_write(addr, value, size)`` — that
completes a purely private access (own-DRAM traffic) on the fast tier
without creating a generator, accruing its time in the bus's local
clock, and returns ``None``/``False`` whenever the access might touch a
shared resource (and always on the pure-event tier).  The CPU attempts
the fast twin first and falls back to the generator protocol on refusal,
so blocking semantics are unchanged.  Timestamps in traces and category
totals are taken at bus-true time, ``env.now + bus._local``, so they are
identical to the pure-event path, where ``_local`` stays 0.

A PE bus on the fast tier also serves ``try_queue_fetch(addr, cpu)``
(the lockstep SIMD-space fetch) and sets ``chain_bounds``, the main-RAM
range in which the CPU replays straight-line runs as pre-decoded
superinstruction chains, reading the bus's ``instructions`` and ``map``;
the base class refuses the one and leaves the other None.  A SIMD-space
fetch parks the run loop on one request event; while it is parked the
Fetch Unit Queue's release loop may step it (:meth:`CPU.step_released`),
executing each released instruction here without resuming the
generator.

Every instruction is compiled, the first time it is resolved, into one
*handler*: a closure over everything the instruction fixes at assembly
time (operand registers, displacements and addresses, size masks, branch
targets and its TimingInfo variants), called as ``handler(cpu, pc,
next_pc)``.  A handler returns the instruction's TimingInfo, or a
generator that the run loop drives to it: the rest of the instruction
from the first access a fast twin refused (a *slow continuation*), or the
whole of a rarely executed instruction.  Every effective address follows
one rule, :func:`_ea`.

The interpreter computes results *and* the manual timing
(:func:`~repro.m68k.timing.instruction_timing`) for every executed
instruction, charging ``internal_cycles`` so the total elapsed simulated
time equals the manual time plus whatever the bus added (wait states,
queue/rendezvous stalls, device blocking).
"""

from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

from repro.errors import BusError, IllegalInstructionError, SimulationError
from repro.m68k.addressing import Mode, Operand, extension_words
from repro.m68k.instructions import (
    ALU_ADDR,
    ALU_ALL,
    ALU_IMM,
    BITOPS,
    BRANCHES,
    DBCC,
    EXTENDED,
    Instruction,
    JUMPS,
    MULDIV,
    QUICK,
    SCC,
    SHIFTS,
    UNARY,
)
from repro.m68k.registers import RegisterFile
from repro.m68k.timing import TimingInfo, instruction_timing, mul_timings
from repro.utils.bitops import sign_extend, to_signed, to_unsigned

_M32 = 0xFFFF_FFFF
_MASK = {1: 0xFF, 2: 0xFFFF, 4: _M32}
_SIGN = {1: 0x80, 2: 0x8000, 4: 0x8000_0000}


# ALU results and flags on size-masked operands ``a`` (the destination)
# and ``b`` (the source).  Each returns the value to store, or None for
# the compare family.
def _alu_add(ccr, a, b, mask, sign):
    r = a + b
    res = r & mask
    ccr.x = ccr.c = r > mask
    ccr.n = res >= sign
    ccr.z = res == 0
    ccr.v = ((a ^ b) & sign) == 0 and ((a ^ res) & sign) != 0
    return res


def _alu_sub(ccr, a, b, mask, sign):
    res = (a - b) & mask
    ccr.x = ccr.c = b > a
    ccr.n = res >= sign
    ccr.z = res == 0
    ccr.v = ((a ^ b) & sign) != 0 and ((a ^ res) & sign) != 0
    return res


def _alu_cmp(ccr, a, b, mask, sign):
    res = (a - b) & mask
    ccr.c = b > a
    ccr.n = res >= sign
    ccr.z = res == 0
    ccr.v = ((a ^ b) & sign) != 0 and ((a ^ res) & sign) != 0
    return None


def _alu_and(ccr, a, b, mask, sign):
    res = a & b
    ccr.n = res >= sign
    ccr.z = res == 0
    ccr.v = ccr.c = False
    return res


def _alu_or(ccr, a, b, mask, sign):
    res = a | b
    ccr.n = res >= sign
    ccr.z = res == 0
    ccr.v = ccr.c = False
    return res


def _alu_eor(ccr, a, b, mask, sign):
    res = a ^ b
    ccr.n = res >= sign
    ccr.z = res == 0
    ccr.v = ccr.c = False
    return res


# ADDX/SUBX add in or subtract X, and only ever clear Z, so a
# multi-precision chain's Z tests the whole of its result.
def _alu_addx(ccr, a, b, mask, sign):
    r = a + b + ccr.x
    res = r & mask
    ccr.x = ccr.c = r > mask
    ccr.n = res >= sign
    if res:
        ccr.z = False
    ccr.v = ((a ^ b) & sign) == 0 and ((a ^ res) & sign) != 0
    return res


def _alu_subx(ccr, a, b, mask, sign):
    x = ccr.x
    res = (a - b - x) & mask
    ccr.x = ccr.c = b + x > a
    ccr.n = res >= sign
    if res:
        ccr.z = False
    ccr.v = ((a ^ b) & sign) != 0 and ((a ^ res) & sign) != 0
    return res


_ALU_OPS = {"ADD": _alu_add, "SUB": _alu_sub, "CMP": _alu_cmp,
            "AND": _alu_and, "OR": _alu_or, "EOR": _alu_eor,
            "ADDX": _alu_addx, "SUBX": _alu_subx}


def _alu_tas(ccr, v, mask, sign):
    _alu_cmp(ccr, v, 0, mask, sign)  # the flags test the old byte
    return v | 0x80


#: The unary family as ALU operations on its operand ``v``.
_UNARY_OPS = {
    "CLR": lambda ccr, v, mask, sign: _alu_and(ccr, v, 0, mask, sign),
    "NOT": lambda ccr, v, mask, sign: _alu_eor(ccr, v, mask, mask, sign),
    "NEG": lambda ccr, v, mask, sign: _alu_sub(ccr, 0, v, mask, sign),
    "NEGX": lambda ccr, v, mask, sign: _alu_subx(ccr, 0, v, mask, sign),
    "TST": lambda ccr, v, mask, sign: _alu_cmp(ccr, v, 0, mask, sign),
    "TAS": _alu_tas,
}

#: The bit ops' new value from the old one and the bit (BTST: none).
_BIT_CHANGES = {"BTST": None, "BSET": int.__or__,
                "BCLR": lambda v, bit: v & ~bit, "BCHG": int.__xor__}


# Shifts and rotates by 1..63 of a size-masked ``v`` of ``bits`` bits:
# each sets C and (except ROL/ROR) X, ASL also V, and returns the result.
def _lsl(ccr, v, k, bits, mask):
    ccr.x = ccr.c = k <= bits and (v >> (bits - k)) & 1 == 1
    return (v << k) & mask


def _lsr(ccr, v, k, bits, mask):
    ccr.x = ccr.c = k <= bits and (v >> (k - 1)) & 1 == 1
    return v >> k


def _asl(ccr, v, k, bits, mask):
    if k < bits:  # V: the bits shifted through the sign were not all equal
        top = v >> (bits - 1 - k)
        ccr.v = top != 0 and top != (2 << k) - 1
    else:
        ccr.v = v != 0
    return _lsl(ccr, v, k, bits, mask)


def _asr(ccr, v, k, bits, mask):
    if v >> (bits - 1):
        v |= ~mask  # negative: Python's >> then shifts the sign in
    ccr.x = ccr.c = (v >> (k - 1)) & 1 == 1
    return (v >> k) & mask


def _rol(ccr, v, k, bits, mask):
    n = k % bits
    res = ((v << n) | (v >> (bits - n))) & mask
    ccr.c = res & 1 == 1
    return res


def _ror(ccr, v, k, bits, mask):
    n = k % bits
    res = ((v >> n) | (v << (bits - n))) & mask
    ccr.c = res >> (bits - 1) == 1
    return res


# ROXL/ROXR rotate the bits + 1 bits of X above the operand.
def _roxl(ccr, v, k, bits, mask):
    n = k % (bits + 1)
    w = ccr.x << bits | v
    w = (w << n | w >> (bits + 1 - n)) & (mask << 1 | 1)
    ccr.x = ccr.c = w >> bits == 1
    return w & mask


def _roxr(ccr, v, k, bits, mask):
    n = k % (bits + 1)
    w = ccr.x << bits | v
    w = (w >> n | w << (bits + 1 - n)) & (mask << 1 | 1)
    ccr.x = ccr.c = w >> bits == 1
    return w & mask


_SHIFT_OPS = {"LSL": _lsl, "LSR": _lsr, "ASL": _asl, "ASR": _asr,
              "ROL": _rol, "ROR": _ror, "ROXL": _roxl, "ROXR": _roxr}


class HaltReason(enum.Enum):
    """Why a CPU stopped running."""

    HALT_INSTRUCTION = "halt"


@dataclass
class InstructionRecord:
    """Instrumentation record for one executed instruction."""

    instr: Instruction
    start: float
    end: float
    timing: TimingInfo

    @property
    def elapsed(self) -> float:
        """Wall (simulated) cycles including wait states and stalls."""
        return self.end - self.start


class CPU:
    """One MC68000 core bound to a bus.

    Parameters
    ----------
    env:
        The simulation environment (time in clock cycles).
    bus:
        Object implementing the bus protocol described in the module
        docstring.
    name:
        Label used in error messages and traces.
    """

    def __init__(self, env, bus, name: str = "cpu") -> None:
        self.env = env
        self.bus = bus
        self.name = name
        # The non-generator bus calls, bound once (see module docstring).
        self._bus_try_fetch = bus.try_fetch_instruction
        self._bus_try_queue_fetch = bus.try_queue_fetch
        self._bus_try_stream = bus.try_fetch_stream_words
        self._bus_try_read = bus.try_read
        self._bus_try_write = bus.try_write
        self.regs = RegisterFile()
        self.halted: HaltReason | None = None
        self.instruction_count = 0
        #: env.now at which this CPU's run() flushed and finished (None
        #: until then).
        self.finish_time: float | None = None
        #: Per-timecat simulated-cycle totals (fed by ``run``).
        self.category_cycles: dict[str, float] = {}
        #: Optional per-instruction trace (enable with ``trace=True``).
        self.trace_records: list[InstructionRecord] = []
        self.trace = False
        #: False keeps the queue's release loop from stepping this CPU's
        #: SIMD-space fetches: a PE with a scheduled fail-stop must meet
        #: every release in its own generator, which a dead board
        #: absorbs.
        self.steppable = True
        #: Superinstruction chains (PE buses on the fast tier): straight-
        #: line main-RAM runs pre-decoded once and replayed without per-
        #: instruction fetch/dispatch overhead.  Keyed by start pc;
        #: invalidated on reset (program reload).
        self._chain_cache: dict[int, list] = {}

    # ------------------------------------------------------------------
    def reset(self, pc: int, sp: int = 0) -> None:
        """Reset the register file and start address."""
        self.regs = RegisterFile()
        self.regs.pc = pc
        self.regs.sp = sp
        self.halted = None
        self._chain_cache.clear()

    def run(self):
        """Generator process: execute until HALT.

        One instruction's fetch, dispatch and time accounting are inlined
        into the loop, so the interpreter builds one generator frame per
        *run*, not one per instruction.
        """
        env = self.env
        bus = self.bus
        bus_fast = bus.fast_path
        tf = self._bus_try_fetch
        ts = self._bus_try_stream
        cats = self.category_cycles
        # Superinstruction chains: straight-line main-RAM runs replay as
        # one pre-decoded sequence on a bus that offers ``chain_bounds``
        # (the PE bus on the fast tier; SimpleBus and the MC bus run per
        # instruction).  Tracing takes the per-instruction path.
        chains = None
        bounds = bus.chain_bounds
        if bounds is not None and not self.trace:
            chains = self._chain_cache
            ref_period, ref_steal = bus._ref_period, bus._ref_steal
            # Chains only ever start in main RAM; gating the cache lookup
            # on the region bounds keeps SIMD-space pcs (monotonically
            # increasing, so every pc is new) from flooding the cache
            # with empty entries.
            main_lo, main_hi = bounds
        tq = self._bus_try_queue_fetch
        # The release loop steps parked SIMD-space fetches outside this
        # generator; a traced CPU keeps every instruction in the loop.
        stepper = (self.step_released if self.steppable and not self.trace
                   else None)
        while self.halted is None:
            if chains is not None and main_lo <= self.regs.pc < main_hi:
                chain = chains.get(self.regs.pc)
                if chain is None:
                    chain = self._build_chain(self.regs.pc)
                    chains[self.regs.pc] = chain
                chain, count = chain
                if count:
                    # -- chain replay: same arithmetic as the per-
                    # instruction path below, minus fetch and lookup ----
                    for pc, instr, w, base, npc, h, cat in chain:
                        if h is None:
                            # A register-only run (``base`` holds its
                            # steps): the absolute clock in a local, the
                            # closed-form refresh stall per fetch, and
                            # the books once per run.
                            t = start = env.now + bus._local
                            for spc, sbase, snpc, sh in base:
                                if ref_steal:
                                    phase = t % ref_period
                                    if phase < ref_steal:
                                        t += ref_steal - phase
                                t += sbase + sh(self, spc, snpc).internal_cycles
                            bus._local = t - env.now
                            bus.stream_accesses += w
                            self.regs.pc = npc
                            try:
                                cats[cat] += t - start
                            except KeyError:
                                cats[cat] = t - start
                            continue
                        start = env.now + bus._local
                        # The fetch: LocalTimeBus._ram_cycles, inlined
                        # (the MIMD hot loop).
                        cycles = base
                        if ref_steal:
                            phase = start % ref_period
                            if phase < ref_steal:
                                cycles += ref_steal - phase
                        bus._local += cycles
                        bus.stream_accesses += w
                        self.regs.pc = npc
                        timing = h(self, pc, npc)
                        if type(timing) is not TimingInfo:
                            timing = yield from timing
                        extra_stream = timing.stream_words - w
                        if extra_stream > 0:
                            ts(self.regs.pc, extra_stream)
                        internal = timing.internal_cycles
                        if internal:
                            if internal < 0:
                                raise SimulationError(
                                    f"{self.name}: negative internal time "
                                    f"for {instr} ({timing})"
                                )
                            bus._local += internal
                        end = env.now + bus._local
                        try:
                            cats[cat] += end - start
                        except KeyError:
                            cats[cat] = end - start
                    self.instruction_count += count
                    continue  # chain ended at control flow / HALT / region edge
            # -- one instruction: fetch, dispatch, time ---------------
            start = env.now + bus._local
            pc = self.regs.pc
            instr = tf(pc)
            if instr is None and (ev := tq(pc, stepper)) is not None:
                # Lockstep SIMD-space fetch: park on the stamped request
                # event directly — one yield, no sub-generator frames.
                # When this PE's stamp completed the rendezvous the queue
                # resolves it synchronously (callbacks already None) and
                # the loop streams on without parking at all.
                got = ev._value if ev.callbacks is None else (yield ev)
                while got is not None and len(got) == 2:
                    # (item, T_r): step it here, as the release loop
                    # steps a parked PE, and fetch on from the stamp.
                    got = self.step_released(got[0], got[1], start)
                    if type(got) is not float:
                        break
                    start = got
                    ev = bus.request_queue_fetch(got, stepper)
                    got = ev._value if ev.callbacks is None else (yield ev)
                if got is None:
                    continue  # retired; the pc left SIMD space, or HALT
                # A handler's generator: drive it, then retire below.
                timing, instr, w, start = got
                timing = yield from timing
            else:
                if instr is None:
                    instr = yield from bus.fetch_instruction(pc)
                    if not isinstance(instr, Instruction):
                        raise SimulationError(
                            f"{self.name}: no instruction at {pc:#x} "
                            f"(got {instr!r})"
                        )
                w = instr._encoded_words_cache
                if w is None:
                    w = instr.encoded_words()
                next_pc = pc + 2 * w
                self.regs.pc = next_pc  # may be overridden by control flow

                h = instr._exec_handler_cache
                if h is None:
                    h = instr._exec_handler_cache = _resolve_handler(instr)
                timing = h(self, pc, next_pc)
                if type(timing) is not TimingInfo:
                    timing = yield from timing

            extra_stream = timing.stream_words - w
            if extra_stream > 0:
                if not ts(self.regs.pc, extra_stream):
                    yield from bus.fetch_stream_words(
                        self.regs.pc, extra_stream
                    )
            internal = timing.internal_cycles
            if internal:
                if internal < 0:
                    raise SimulationError(
                        f"{self.name}: negative internal time for {instr}"
                        f" ({timing})"
                    )
                if bus_fast:
                    bus._local += internal
                else:
                    yield from bus.charge(internal)

            end = env.now + bus._local
            self.instruction_count += 1
            cat = instr.timecat
            try:
                cats[cat] += end - start
            except KeyError:
                cats[cat] = end - start
            if self.trace:
                self.trace_records.append(
                    InstructionRecord(instr, start, end, timing)
                )
        # Flush any locally-accrued time so env.now reflects the true
        # halt time (bit-identical to the pure-event path).
        yield from bus.sync()
        self.finish_time = self.env.now
        return self.halted

    # -- SIMD-space execution on the fast tier ---------------------------
    def step_released(self, item, t_r: float, start: float):
        """Run queue ``item``'s broadcast instruction, released at ``t_r``
        to this PE's SIMD-space fetch stamped ``start``.

        Charges the fetch, runs the handler and retires the instruction.
        Returns the stamp of the PE's next fetch (its bus-true time; the
        local clock restarts from zero) when the PE stays in SIMD space;
        ``(continuation, instr, words, start)`` when the handler handed
        back a generator, which the run loop drives and retires; None at
        an edge, the instruction retired (the pc left SIMD space, or
        HALT).  The Fetch Unit Queue's release loop calls it for a
        parked PE, the run loop for a release delivered to it.
        """
        instr = item.payload
        if instr is None:
            raise SimulationError(
                f"{self.name}: fetched a bare sync word as an instruction"
            )
        # The fetch: rebase the local clock on the release instant (env.now
        # may lag behind it while the queue fast-forwards) and charge the
        # item's words from the SIMD space's static RAM, no refresh.  A
        # traced PE records its wait, from the stamp to the release.
        bus = self.bus
        if bus.trace_waits and t_r > start:
            bus.wait_spans.append(("queue_wait", start, t_r))
        n = item.words
        bus.queue_fetches += n
        bus.stream_accesses += n
        now = self.env.now
        bus._local = t_r - now + n * (4 + bus._simd_ws)
        w = instr._encoded_words_cache
        if w is None:
            w = instr.encoded_words()
        regs = self.regs
        pc = regs.pc
        next_pc = pc + 2 * w
        regs.pc = next_pc  # may be overridden by control flow
        h = instr._exec_handler_cache
        if h is None:
            h = instr._exec_handler_cache = _resolve_handler(instr)
        timing = h(self, pc, next_pc)
        if type(timing) is not TimingInfo:
            return timing, instr, w, start
        # Retire: the run loop's accounting, on the fast tier.
        extra_stream = timing.stream_words - w
        if extra_stream > 0:
            bus.try_fetch_stream_words(regs.pc, extra_stream)
        internal = timing.internal_cycles
        if internal:
            if internal < 0:
                raise SimulationError(
                    f"{self.name}: negative internal time for {instr}"
                    f" ({timing})"
                )
            bus._local += internal
        end = now + bus._local
        self.instruction_count += 1
        cats = self.category_cycles
        cat = instr.timecat
        try:
            cats[cat] += end - start
        except KeyError:
            cats[cat] = end - start
        if self.trace:
            self.trace_records.append(
                InstructionRecord(instr, start, end, timing))
        # Stamp the next fetch, as PEBus.try_queue_fetch does.
        lo, hi = bus._simd_bounds
        if self.halted is None and lo <= regs.pc < hi:
            bus._local = 0.0
            bus.lockstep_rendezvous += 1
            return end
        return None

    def run_ahead(self, steps, words: int) -> list:
        """Run register-only broadcast instructions ahead of their
        release, PE-major, and return each one's cost.

        ``steps`` holds one ``(handler, offset, next_offset, words)``
        entry per instruction, the offsets from the PE's pc; ``words`` is
        their total.  Each instruction's cost is its fetch from SIMD
        space's static RAM plus its internal cycles, which no release
        instant changes, and it touches only this PE's registers, so
        running it early changes nothing another PE or device sees
        (:meth:`repro.fetch_unit.queue.FetchUnitQueue._run_releases`).
        The PE's books are settled here but for its category time,
        which the releases decide; its pc ends past the run.
        """
        regs = self.regs
        pc = regs.pc
        bus = self.bus
        ws = 4 + bus._simd_ws
        costs = [n * ws + h(self, pc + a, pc + b).internal_cycles
                 for h, a, b, n in steps]
        regs.pc = pc + steps[-1][2]
        k = len(steps)
        self.instruction_count += k
        bus.queue_fetches += words
        bus.stream_accesses += words
        bus.lockstep_rendezvous += k
        return costs

    # ------------------------------------------------------------------
    def _build_chain(self, pc: int) -> tuple:
        """Decode the straight-line main-RAM run starting at ``pc``.

        Returns ``(entries, count)``: pre-resolved ``(pc, instr, words,
        fetch_base, next_pc, handler, timecat)`` entries for every
        consecutive instruction up to (exclusive) the first control-flow
        instruction, HALT, or non-main-RAM address, and the number of
        instructions; no entries when ``pc`` itself is not chainable
        (the caller then takes the per-instruction path).
        ``fetch_base`` is the refresh-free fetch charge — the replay adds
        the closed-form refresh stall, which depends on absolute time.
        A maximal run of two or more register-only entries of one
        timecat becomes one ``(pc, None, words, steps, next_pc, None,
        timecat)`` entry, its ``steps`` the ``(pc, fetch_base, next_pc,
        handler)`` of each instruction and ``words`` their total.
        """
        from repro.memory.map import RegionKind

        bus = self.bus
        instructions = bus.instructions
        lookup = bus.map.lookup
        entries: list = []
        while True:
            try:
                region = lookup(pc)
            except BusError:
                break
            if region.kind is not RegionKind.MAIN_RAM:
                break
            instr = instructions.get(pc)
            if instr is None or instr.mnemonic in _CHAIN_BREAKERS:
                break
            w = instr._encoded_words_cache
            if w is None:
                w = instr.encoded_words()
            h = instr._exec_handler_cache
            if h is None:
                h = instr._exec_handler_cache = _resolve_handler(instr)
            next_pc = pc + 2 * w
            entries.append(
                (pc, instr, w, w * (4 + region.wait_states), next_pc, h,
                 instr.timecat)
            )
            pc = next_pc
        chain: list = []
        for (reg_only, cat), run in groupby(
                entries, key=lambda e: (e[5].register_only, e[6])):
            run = list(run)
            if reg_only and len(run) > 1:
                chain.append((run[0][0], None, sum(e[2] for e in run),
                              tuple((e[0], e[3], e[4], e[5]) for e in run),
                              run[-1][4], None, cat))
            else:
                chain.extend(run)
        return chain, len(entries)

    # -- operand access for the generator handlers ----------------------
    def _load(self, addr: int, size: int):
        """Generator: the ``size``-byte value at ``addr``, through the
        fast twin when it serves the access."""
        value = self._bus_try_read(addr, size)
        if value is None:
            value = (yield from self.bus.read(addr, size)) & _MASK[size]
        return value

    def _store(self, addr: int, value: int, size: int):
        """Generator: write ``value`` at ``addr``, through the fast twin
        when it serves the access."""
        if not self._bus_try_write(addr, value, size):
            yield from self.bus.write(addr, value, size)


#: Instructions that end a superinstruction chain: anything that moves the
#: pc non-linearly, plus HALT (which must be seen by the run loop).
_CHAIN_BREAKERS = (
    frozenset(BRANCHES) | frozenset(DBCC) | frozenset(JUMPS)
    | frozenset(("BSR", "JSR", "RTS", "HALT"))
)


def _alu_base(m: str) -> str:
    """Family base mnemonic: ADDI/ADDQ/ADDA → ADD, CMPA/CMPI → CMP, …"""
    if m in ALU_IMM or m in QUICK or m in ("ADDA", "SUBA", "CMPA"):
        return m[:-1]
    return m


# ----------------------------------------------------------------------
# Effective addresses.

#: :func:`_ea`'s base for a PC-relative operand.
_PC = 8

#: The memory modes the hot handlers address inline.
_AN_MODES = (Mode.IND, Mode.POSTINC, Mode.PREDEC, Mode.DISP)


def _ea(op: Operand, size: int, ext: int = 0) -> tuple:
    """The effective-address rule of a memory operand: ``(base, disp,
    index, post)``.

    The address is ``B + disp`` plus, for ``d8(An,Xn)``, the sign-extended
    low word of the index register ``index`` (``("D"|"A", n)``), mod
    2**32.  ``B`` is ``a[base]`` for an address register, 0 for an
    absolute address (``base`` None), and the address of the operand's
    extension word for ``d16(PC)`` (``base`` ``_PC``: the instruction's
    address plus 2, plus 2 for each of the ``ext`` extension words ahead
    of the operand's own).  Unless ``post`` is None, ``a[base]`` becomes
    the address plus ``post`` once the operand is addressed: ``(An)+``
    steps past the operand, ``-(An)`` keeps the address it stepped down
    to.  The step is the operand size, but 2 for a byte on A7: the
    stack stays word-aligned.
    """
    mode = op.mode
    r = op.reg
    step = 2 if r == 7 and size == 1 else size
    if mode is Mode.IND:
        return r, 0, None, None
    if mode is Mode.POSTINC:
        return r, 0, None, step
    if mode is Mode.PREDEC:
        return r, -step, None, 0
    if mode is Mode.DISP:
        return r, sign_extend(op.disp, 16), None, None
    if mode is Mode.INDEX:
        return r, sign_extend(op.disp, 8), op.index_reg, None
    if mode is Mode.ABS_W:
        return None, sign_extend(int(op.value), 16) & _M32, None, None
    if mode is Mode.ABS_L:
        return None, int(op.value) & _M32, None, None
    if mode is Mode.PCDISP:
        return _PC, 2 + 2 * ext + sign_extend(op.disp, 16), None, None
    raise IllegalInstructionError(f"no address for mode {mode}")


def _addresser(op: Operand, size: int, ext: int = 0):
    """``at(regs, pc)``: the address of memory operand ``op`` of an
    instruction at ``pc`` under :func:`_ea`, its register update
    applied."""
    base, disp, index, post = _ea(op, size, ext)
    if index is not None:
        data, x = index[0] == "D", index[1]

        def at(regs, pc):
            i = (regs.d if data else regs.a)[x] & 0xFFFF
            return (regs.a[base] + disp + ((i ^ 0x8000) - 0x8000)) & _M32
    elif base is None:
        def at(regs, pc):
            return disp
    elif base == _PC:
        def at(regs, pc):
            return (pc + disp) & _M32
    elif post is None:
        def at(regs, pc):
            return (regs.a[base] + disp) & _M32
    else:
        def at(regs, pc):
            ar = regs.a
            addr = (ar[base] + disp) & _M32
            ar[base] = (addr + post) & _M32
            return addr
    return at


def _operand(op: Operand, size: int, ext: int = 0) -> tuple:
    """How a hot handler reaches ``op``: ``(imm, is_d, reg, pre, post,
    at)``.

    ``imm`` is a masked immediate, else None.  A register operand is
    register ``reg`` of the data bank (``is_d``) or the address bank.
    An ``(An)``-family operand is addressed inline from ``reg``, ``pre``
    and ``post``, :func:`_ea`'s ``base``, ``disp`` and ``post``; any other
    memory operand by its addresser ``at``.
    """
    mode = op.mode
    if mode is Mode.IMM:
        return to_unsigned(int(op.value), size), False, 0, 0, None, None
    if mode is Mode.DREG or mode is Mode.AREG:
        return None, mode is Mode.DREG, op.reg, 0, None, None
    if mode in _AN_MODES:
        reg, pre, _, post = _ea(op, size)
        return None, False, reg, pre, post, None
    return None, False, 0, 0, None, _addresser(op, size, ext)


# ----------------------------------------------------------------------
# Slow continuations: the rest of an instruction from the access a fast
# twin refused, driven by the run loop through the generator protocol.

def _resume(handler, cpu, addr, size, pc, next_pc):
    """Generator: the source read at ``addr``, then the rest of
    ``handler`` (a MOVE, ALU or MUL handler) from the value read."""
    value = (yield from cpu.bus.read(addr, size)) & _MASK[size]
    t = handler(cpu, pc, next_pc, value)
    if type(t) is not TimingInfo:
        t = yield from t
    return t


def _finish_write(bus, addr, value, size, t):
    """Generator: the write at ``addr``, then the timing ``t``."""
    yield from bus.write(addr, value, size)
    return t


def _write(cpu, addr, value, size, t):
    """Write through the fast twin and return ``t``, or return the
    write's slow continuation."""
    if cpu._bus_try_write(addr, value, size):
        return t
    return _finish_write(cpu.bus, addr, value, size, t)


# ----------------------------------------------------------------------
# Compiled handlers.
#
# One compiler per instruction family builds the handler when the
# instruction is first resolved.  A handler binds nothing of a CPU (a
# SIMD broadcast shares one Instruction object across PEs) and nothing of
# one instruction object (equal instructions share it, see
# ``_compiled``).  MOVE, the ALU families, MUL, Bcc, DBcc and the shifts
# are plain calls, MOVE and the ALU addressing the (An) family inline;
# the other families with bus traffic are generator functions that take
# every memory operand through :func:`_addresser`.  A shape ``validate``
# lets through but no family executes (``ADD D0,A0``, ``CLR A0``) raises
# IllegalInstructionError when compiled.

def _compile_move(instr: Instruction):
    """MOVE and MOVEA."""
    src, dst = instr.operands
    size = instr.size_bytes
    to_d = dst.mode is Mode.DREG
    to_a = dst.mode is Mode.AREG
    s_mem = src.mode.is_memory
    imm, s_d, sr, spre, spost, s_at = _operand(src, size)
    _, _, d, dpre, dpost, d_at = _operand(
        dst, size, extension_words(src, size))
    mask, sign = _MASK[size], _SIGN[size]
    keep = _M32 ^ mask
    wext = size == 2  # MOVEA.W sign-extends into the full register
    t = instruction_timing(instr)

    def move(cpu, pc, next_pc, v=None):
        regs = cpu.regs
        if s_mem:
            if v is None:
                if s_at is None:
                    ar = regs.a
                    addr = (ar[sr] + spre) & _M32
                    if spost is not None:
                        ar[sr] = (addr + spost) & _M32
                else:
                    addr = s_at(regs, pc)
                v = cpu._bus_try_read(addr, size)
                if v is None:
                    return _resume(move, cpu, addr, size, pc, next_pc)
        elif imm is None:
            v = (regs.d if s_d else regs.a)[sr] & mask
        else:
            v = imm
        if to_a:
            regs.a[d] = ((v ^ 0x8000) - 0x8000) & _M32 if wext else v
            return t
        ccr = regs.ccr
        ccr.n = v >= sign
        ccr.z = v == 0
        ccr.v = ccr.c = False
        if to_d:
            dr = regs.d
            dr[d] = (dr[d] & keep) | v
            return t
        if d_at is None:
            ar = regs.a
            addr = (ar[d] + dpre) & _M32
            if dpost is not None:
                ar[d] = (addr + dpost) & _M32
        else:
            addr = d_at(regs, pc)
        if cpu._bus_try_write(addr, v, size):
            return t
        return _finish_write(cpu.bus, addr, v, size, t)

    return move


def _compile_alu(instr: Instruction):
    """The ADD/SUB/CMP/AND/OR/EOR families, with their A, I and Q forms."""
    m = instr.mnemonic
    src, dst = instr.operands
    size = instr.size_bytes
    to_d = dst.mode is Mode.DREG
    to_a = dst.mode is Mode.AREG
    if to_a and not (m in ALU_ADDR or m in QUICK):
        raise IllegalInstructionError(f"{m} cannot target {dst}")
    base = _alu_base(m)
    op = _ALU_OPS[base]
    s_mem = src.mode.is_memory
    imm, s_d, sr, spre, spost, s_at = _operand(src, size)
    sext = size == 2  # word sources to An sign-extend
    if to_a and m in QUICK:  # ADDQ/SUBQ #n,An: the count, unextended
        imm, sext = int(src.value), False
    _, _, d, dpre, dpost, d_at = _operand(
        dst, size, extension_words(src, size))
    mask, sign = _MASK[size], _SIGN[size]
    keep = _M32 ^ mask
    t = instruction_timing(instr)

    def alu(cpu, pc, next_pc, v=None):
        regs = cpu.regs
        if s_mem:
            if v is None:
                if s_at is None:
                    ar = regs.a
                    addr = (ar[sr] + spre) & _M32
                    if spost is not None:
                        ar[sr] = (addr + spost) & _M32
                else:
                    addr = s_at(regs, pc)
                v = cpu._bus_try_read(addr, size)
                if v is None:
                    return _resume(alu, cpu, addr, size, pc, next_pc)
        elif imm is None:
            v = (regs.d if s_d else regs.a)[sr] & mask
        else:
            v = imm
        if to_d:
            dr = regs.d
            res = op(regs.ccr, dr[d] & mask, v, mask, sign)
            if res is not None:
                dr[d] = (dr[d] & keep) | res
            return t
        ar = regs.a
        if to_a:  # 32-bit, flags only for CMPA
            if sext:
                v = ((v ^ 0x8000) - 0x8000) & _M32
            if base == "ADD":
                ar[d] = (ar[d] + v) & _M32
            elif base == "SUB":
                ar[d] = (ar[d] - v) & _M32
            else:
                _alu_cmp(regs.ccr, ar[d], v, _M32, _SIGN[4])
            return t
        # memory destination: read-modify-write
        if d_at is None:
            addr = (ar[d] + dpre) & _M32
            if dpost is not None:
                ar[d] = (addr + dpost) & _M32
        else:
            addr = d_at(regs, pc)
        old = cpu._bus_try_read(addr, size)
        if old is None:
            return modify(cpu, addr, v)
        res = op(regs.ccr, old, v, mask, sign)
        if res is None:
            return t
        if cpu._bus_try_write(addr, res, size):
            return t
        return _finish_write(cpu.bus, addr, res, size, t)

    def modify(cpu, addr, v):
        """Generator: the memory destination from its refused read."""
        old = (yield from cpu.bus.read(addr, size)) & mask
        res = op(cpu.regs.ccr, old, v, mask, sign)
        if res is not None:
            yield from cpu._store(addr, res, size)
        return t

    return alu


def _compile_muldiv(instr: Instruction):
    """MULU/MULS/DIVU/DIVS.

    A multiply indexes its :func:`mul_timings` table by the ones (MULU)
    or the transitions (MULS) of the multiplier; a divide has one timing.
    """
    m = instr.mnemonic
    src, dst = instr.operands
    s_d, s = src.mode is Mode.DREG, src.reg
    imm = to_unsigned(int(src.value), 2) if src.mode is Mode.IMM else None
    at = _addresser(src, 2) if src.mode.is_memory else None
    d = dst.reg
    signed = m in ("MULS", "DIVS")

    if m in ("MULU", "MULS"):
        table = mul_timings(instr)

        def mul(cpu, pc, next_pc, v=None):
            regs = cpu.regs
            dr = regs.d
            if s_d:
                v = dr[s] & 0xFFFF
            elif v is None:
                if at is None:
                    v = imm
                else:
                    addr = at(regs, pc)
                    v = cpu._bus_try_read(addr, 2)
                    if v is None:
                        return _resume(mul, cpu, addr, 2, pc, next_pc)
            if signed:
                r = (((v ^ 0x8000) - 0x8000)
                     * (((dr[d] & 0xFFFF) ^ 0x8000) - 0x8000)) & _M32
                w = v << 1  # transitions, with a 0 appended at the LSB end
                n = ((w ^ (w >> 1)) & 0xFFFF).bit_count()
            else:
                r = v * (dr[d] & 0xFFFF)
                n = v.bit_count()
            dr[d] = r
            ccr = regs.ccr
            ccr.n = r >= 0x8000_0000
            ccr.z = r == 0
            ccr.v = ccr.c = False
            return table[n]

        return mul
    t = instruction_timing(instr)

    def div(cpu, pc, next_pc):
        regs = cpu.regs
        dr = regs.d
        if s_d:
            v = dr[s] & 0xFFFF
        elif at is None:
            v = imm
        else:
            v = yield from cpu._load(at(regs, pc), 2)
        if v == 0:
            raise IllegalInstructionError(f"{cpu.name}: divide by zero")
        if signed:
            divisor = (v ^ 0x8000) - 0x8000
            dividend = to_signed(dr[d], 4)
            quot = int(dividend / divisor)  # trunc toward zero
            rem = dividend - quot * divisor
            overflow = not -0x8000 <= quot <= 0x7FFF
        else:
            quot, rem = divmod(dr[d], v)
            overflow = quot > 0xFFFF
        ccr = regs.ccr
        ccr.c = False
        if overflow:
            ccr.v = True  # the register is unchanged, N and Z undefined
            return t
        quot &= 0xFFFF
        dr[d] = (rem & 0xFFFF) << 16 | quot
        ccr.n = quot >= 0x8000
        ccr.z = quot == 0
        ccr.v = False
        return t

    return div


def _compile_dbcc(instr: Instruction):
    """DBcc: the loop target and the three outcome timings bound."""
    target = int(instr.target)
    reg = instr.operands[0].reg
    cond = instr.condition
    taken = instruction_timing(instr, branch_taken=True)
    expired = instruction_timing(instr, branch_taken=False, dbcc_expired=True)
    held = instruction_timing(instr, branch_taken=False)  # condition true

    def dbcc(cpu, pc, next_pc):
        regs = cpu.regs
        if cond != "F" and regs.ccr.test(cond):
            return held
        dr = regs.d
        old = dr[reg]
        counter = (old - 1) & 0xFFFF
        dr[reg] = (old & 0xFFFF_0000) | counter
        if counter == 0xFFFF:
            return expired
        regs.pc = target
        return taken

    return dbcc


def _compile_shift(instr: Instruction):
    """Shifts and rotates of a data register, by an immediate count or
    by a data register's mod 64."""
    m = instr.mnemonic
    count_op, reg_op = instr.operands
    size = instr.size_bytes
    bits = 8 * size
    r = reg_op.reg
    mask, sign = _MASK[size], _SIGN[size]
    keep = _M32 ^ mask
    op = _SHIFT_OPS[m]
    rox = m in ("ROXL", "ROXR")
    by_reg = count_op.mode is not Mode.IMM
    c, count = count_op.reg, None if by_reg else int(count_op.value)
    timings = [instruction_timing(instr, shift_count=k) for k in range(64)]

    def shift(cpu, pc, next_pc):
        regs = cpu.regs
        dr = regs.d
        k = dr[c] % 64 if by_reg else count
        v = dr[r] & mask
        ccr = regs.ccr
        ccr.v = False
        if k:
            v = op(ccr, v, k, bits, mask)
        else:  # flags only; a rotate through X reports X in C
            ccr.c = rox and ccr.x
        dr[r] = (dr[r] & keep) | v
        ccr.n = v >= sign
        ccr.z = v == 0
        return timings[k]

    return shift


def _compile_branch(instr: Instruction):
    """BRA, Bcc and BSR."""
    target = int(instr.target)
    if instr.mnemonic == "BSR":
        t = instruction_timing(instr)

        def bsr(cpu, pc, next_pc):
            regs = cpu.regs
            sp = regs.sp = (regs.sp - 4) & _M32
            regs.pc = target
            return _write(cpu, sp, next_pc, 4, t)

        return bsr
    cond = instr.condition  # None for BRA
    taken = instruction_timing(instr, branch_taken=True)
    fallthrough = instruction_timing(instr, branch_taken=False)

    def branch(cpu, pc, next_pc):
        if cond is None or cpu.regs.ccr.test(cond):
            cpu.regs.pc = target
            return taken
        return fallthrough

    return branch


def _compile_unary(instr: Instruction):
    """CLR, NOT, NEG, NEGX, TST and TAS; the 68000 reads a memory operand
    even to clear it."""
    m = instr.mnemonic
    size = instr.size_bytes
    dst = instr.operands[0]
    op = _UNARY_OPS[m]
    mask, sign = _MASK[size], _SIGN[size]
    keep = _M32 ^ mask
    is_d, r = dst.mode is Mode.DREG, dst.reg
    imm = to_unsigned(int(dst.value), size) if dst.mode is Mode.IMM else None
    # TST also reads An and #imm; a register operand is otherwise Dn
    in_reg = is_d or (m == "TST" and not dst.mode.is_memory)
    at = None if in_reg else _addresser(dst, size)
    t = instruction_timing(instr)

    def unary(cpu, pc, next_pc):
        regs = cpu.regs
        if at is None:
            bank = regs.d if is_d else regs.a
            new = op(regs.ccr, bank[r] & mask if imm is None else imm,
                     mask, sign)
            if new is not None:
                bank[r] = (bank[r] & keep) | new
            return t
        addr = at(regs, pc)
        old = yield from cpu._load(addr, size)
        new = op(regs.ccr, old, mask, sign)
        if new is not None:
            yield from cpu._store(addr, new, size)
        return t

    return unary


def _compile_bitop(instr: Instruction):
    """BTST/BSET/BCLR/BCHG: Z is the tested bit, before any change.  A
    data register is a long (bit number mod 32), memory a byte (mod 8)."""
    bit, dst = instr.operands
    change = _BIT_CHANGES[instr.mnemonic]
    imm = int(bit.value) if bit.mode is Mode.IMM else None
    b = bit.reg
    r = dst.reg
    at = None if dst.mode is Mode.DREG else _addresser(
        dst, 1, extension_words(bit, 1))
    width = 32 if at is None else 8
    t = instruction_timing(instr)

    def bitop(cpu, pc, next_pc):
        regs = cpu.regs
        mask = 1 << (regs.d[b] if imm is None else imm) % width
        if at is None:
            old = regs.d[r]
            regs.ccr.z = not old & mask
            if change is not None:
                regs.d[r] = change(old, mask)
            return t
        addr = at(regs, pc)
        old = yield from cpu._load(addr, 1)
        regs.ccr.z = not old & mask
        if change is not None:
            yield from cpu._store(addr, change(old, mask), 1)
        return t

    return bitop


def _compile_scc(instr: Instruction):
    """Scc: 0xFF into the byte when the condition holds, else 0; memory
    is read first, like the hardware's read-modify-write."""
    cond = instr.condition
    dst = instr.operands[0]
    r = dst.reg
    at = None if dst.mode is Mode.DREG else _addresser(dst, 1)
    t_true = instruction_timing(instr, branch_taken=True)
    t_false = instruction_timing(instr, branch_taken=False)

    def scc(cpu, pc, next_pc):
        regs = cpu.regs
        true = regs.ccr.test(cond)
        value = 0xFF if true else 0x00
        if at is None:
            dr = regs.d
            dr[r] = (dr[r] & 0xFFFF_FF00) | value
        else:
            addr = at(regs, pc)
            yield from cpu._load(addr, 1)
            yield from cpu._store(addr, value, 1)
        return t_true if true else t_false

    return scc


def _compile_addx(instr: Instruction):
    """ADDX/SUBX Dy,Dx and -(Ay),-(Ax)."""
    src, dst = instr.operands
    size = instr.size_bytes
    op = _ALU_OPS[instr.mnemonic]
    mask, sign = _MASK[size], _SIGN[size]
    keep = _M32 ^ mask
    s, d = src.reg, dst.reg
    in_reg = src.mode is Mode.DREG
    s_at = None if in_reg else _addresser(src, size)
    d_at = None if in_reg else _addresser(dst, size)
    t = instruction_timing(instr)

    def addx(cpu, pc, next_pc):
        regs = cpu.regs
        if in_reg:
            dr = regs.d
            dr[d] = (dr[d] & keep) | op(regs.ccr, dr[d] & mask, dr[s] & mask,
                                        mask, sign)
            return t
        v = yield from cpu._load(s_at(regs, pc), size)
        addr = d_at(regs, pc)
        old = yield from cpu._load(addr, size)
        yield from cpu._store(addr, op(regs.ccr, old, v, mask, sign), size)
        return t

    return addx


def _compile_cmpm(instr: Instruction):
    """CMPM (Ay)+,(Ax)+."""
    src, dst = instr.operands
    size = instr.size_bytes
    mask, sign = _MASK[size], _SIGN[size]
    s_at, d_at = _addresser(src, size), _addresser(dst, size)
    t = instruction_timing(instr)

    def cmpm(cpu, pc, next_pc):
        regs = cpu.regs
        v = yield from cpu._load(s_at(regs, pc), size)
        old = yield from cpu._load(d_at(regs, pc), size)
        _alu_cmp(regs.ccr, old, v, mask, sign)
        return t

    return cmpm


def _compile_movem(instr: Instruction):
    """MOVEM: registers in D0..A7 order, but A7..D0 downward for a
    -(An) store.  A stored register stores its value from before the
    instruction; a (An)+ load leaves An past the last register loaded,
    over a value loaded into An; a word load sign-extends."""
    size = instr.size_bytes
    ea = instr.operands[0]
    store = instr.movem_store
    order = [(kind == "D", num) for kind, num in
             sorted(instr.reg_list, key=lambda r: (r[0] == "A", r[1]))]
    down = store and ea.mode is Mode.PREDEC
    walk = down or (not store and ea.mode is Mode.POSTINC)
    if down:
        order.reverse()
    an = ea.reg
    # the register mask word precedes the EA's extension words
    at = None if walk else _addresser(ea, size, 1)
    mask = _MASK[size]
    t = instruction_timing(instr)

    def movem(cpu, pc, next_pc):
        regs = cpu.regs
        addr = regs.a[an] if walk else at(regs, pc)
        if store:
            for v in [(regs.d if is_d else regs.a)[n] & mask
                      for is_d, n in order]:
                if down:
                    addr = (addr - size) & _M32
                yield from cpu._store(addr, v, size)
                if not down:
                    addr += size
        else:
            for is_d, n in order:
                v = yield from cpu._load(addr, size)
                if size == 2:
                    v = ((v ^ 0x8000) - 0x8000) & _M32
                (regs.d if is_d else regs.a)[n] = v
                addr += size
        if walk:
            regs.a[an] = addr & _M32
        return t

    return movem


def _compile_lea(instr: Instruction):
    src, dst = instr.operands
    at = _addresser(src, 4)
    r = dst.reg
    t = instruction_timing(instr)

    def lea(cpu, pc, next_pc):
        regs = cpu.regs
        regs.a[r] = at(regs, pc)
        return t

    return lea


def _compile_pea(instr: Instruction):
    at = _addresser(instr.operands[0], 4)
    t = instruction_timing(instr)

    def pea(cpu, pc, next_pc):
        regs = cpu.regs
        addr = at(regs, pc)
        sp = regs.sp = (regs.sp - 4) & _M32
        return _write(cpu, sp, addr, 4, t)

    return pea


def _compile_jump(instr: Instruction):
    """JMP and JSR."""
    at = _addresser(instr.operands[0], 4)
    t = instruction_timing(instr)
    if instr.mnemonic == "JSR":
        def jsr(cpu, pc, next_pc):
            regs = cpu.regs
            regs.pc = at(regs, pc)
            sp = regs.sp = (regs.sp - 4) & _M32
            return _write(cpu, sp, next_pc, 4, t)

        return jsr

    def jmp(cpu, pc, next_pc):
        regs = cpu.regs
        regs.pc = at(regs, pc)
        return t

    return jmp


def _compile_rts(instr: Instruction):
    t = instruction_timing(instr)

    def rts(cpu, pc, next_pc):
        regs = cpu.regs
        addr = yield from cpu._load(regs.sp, 4)
        regs.sp = (regs.sp + 4) & _M32
        regs.pc = addr
        return t

    return rts


def _compile_link(instr: Instruction):
    an, disp = instr.operands
    r = an.reg
    d = to_signed(int(disp.value), 2)
    t = instruction_timing(instr)

    def link(cpu, pc, next_pc):
        regs = cpu.regs
        sp = regs.sp = (regs.sp - 4) & _M32
        value = regs.a[r]
        regs.a[r] = sp
        regs.sp = (sp + d) & _M32
        return _write(cpu, sp, value, 4, t)

    return link


def _compile_unlk(instr: Instruction):
    r = instr.operands[0].reg
    t = instruction_timing(instr)

    def unlk(cpu, pc, next_pc):
        regs = cpu.regs
        regs.sp = regs.a[r]
        regs.a[r] = yield from cpu._load(regs.sp, 4)
        regs.sp = (regs.sp + 4) & _M32
        return t

    return unlk


def _compile_moveq(instr: Instruction):
    value = to_signed(int(instr.operands[0].value) & 0xFF, 1) & _M32
    r = instr.operands[1].reg
    t = instruction_timing(instr)

    def moveq(cpu, pc, next_pc):
        regs = cpu.regs
        regs.d[r] = value
        regs.ccr.set_nz(value, 4)
        return t

    return moveq


def _compile_exg(instr: Instruction):
    a, b = instr.operands
    a_d, b_d = a.mode is Mode.DREG, b.mode is Mode.DREG
    ra, rb = a.reg, b.reg
    t = instruction_timing(instr)

    def exg(cpu, pc, next_pc):
        regs = cpu.regs
        x = regs.d if a_d else regs.a
        y = regs.d if b_d else regs.a
        x[ra], y[rb] = y[rb], x[ra]
        return t

    return exg


def _compile_swap(instr: Instruction):
    r = instr.operands[0].reg
    t = instruction_timing(instr)

    def swap(cpu, pc, next_pc):
        regs = cpu.regs
        v = regs.d[r]
        v = ((v >> 16) | (v << 16)) & _M32
        regs.d[r] = v
        regs.ccr.set_nz(v, 4)
        return t

    return swap


def _compile_ext(instr: Instruction):
    """EXT.W (byte to word) and EXT.L (word to long)."""
    r = instr.operands[0].reg
    size = 2 if instr.size_bytes == 2 else 4
    half = 0x80 if size == 2 else 0x8000
    low, mask = 2 * half - 1, _MASK[size]
    keep = _M32 ^ mask
    t = instruction_timing(instr)

    def ext(cpu, pc, next_pc):
        regs = cpu.regs
        dr = regs.d
        v = (((dr[r] & low) ^ half) - half) & mask
        dr[r] = (dr[r] & keep) | v
        regs.ccr.set_nz(v, size)
        return t

    return ext


def _compile_nop(instr: Instruction):
    t = instruction_timing(instr)

    def nop(cpu, pc, next_pc):
        return t

    return nop


def _compile_halt(instr: Instruction):
    t = instruction_timing(instr)

    def halt(cpu, pc, next_pc):
        cpu.halted = HaltReason.HALT_INSTRUCTION
        return t

    return halt


#: Each mnemonic's compiler.
_COMPILERS = {
    **dict.fromkeys(("MOVE", "MOVEA"), _compile_move),
    **dict.fromkeys(ALU_ALL, _compile_alu),
    **dict.fromkeys(MULDIV, _compile_muldiv),
    **dict.fromkeys(DBCC, _compile_dbcc),
    **dict.fromkeys(SHIFTS, _compile_shift),
    **dict.fromkeys(BRANCHES, _compile_branch),
    **dict.fromkeys(UNARY, _compile_unary),
    **dict.fromkeys(BITOPS, _compile_bitop),
    **dict.fromkeys(SCC, _compile_scc),
    **dict.fromkeys(EXTENDED, _compile_addx),
    **dict.fromkeys(JUMPS, _compile_jump),
    "CMPM": _compile_cmpm, "MOVEM": _compile_movem, "LEA": _compile_lea,
    "PEA": _compile_pea, "RTS": _compile_rts, "LINK": _compile_link,
    "UNLK": _compile_unlk, "MOVEQ": _compile_moveq, "EXG": _compile_exg,
    "SWAP": _compile_swap, "EXT": _compile_ext, "NOP": _compile_nop,
    "HALT": _compile_halt,
}


@lru_cache(maxsize=4096)
def _compiled(mnemonic, size, operands, target, reg_list, movem_store):
    """The handler of an instruction with these fields, its
    ``register_only`` attribute set (:func:`_register_only`).

    Equal instructions share one handler (a matmul program repeats
    ``MULU D1,D5`` m times, and every build of a program repeats all of
    them), so the closures cost memory per distinct form, not per
    instruction.  The compiler sees only the fields of the key.
    """
    instr = Instruction(mnemonic, size, operands, target, reg_list=reg_list,
                        movem_store=movem_store)
    handler = _COMPILERS[mnemonic](instr)
    handler.register_only = _register_only(instr, handler)
    return handler


def _register_only(instr: Instruction, handler) -> bool:
    """The register-only rule: ``handler`` is a plain call that returns
    ``instr``'s TimingInfo, and ``instr`` has no memory operand, makes
    no data access (LINK and UNLK use the stack through register
    operands), is not control flow or HALT, and cannot raise (no
    divide).

    Such an instruction reads and writes only its CPU's registers, and
    its cost is its fetch plus internal cycles that depend on register
    values alone: its instruction-stream words are its encoded words
    in every timing variant (the shift count and the multiplier change
    internal cycles only).  The broadcast release loop runs it ahead of
    its release, and a chain replays a run of them on a local clock.
    """
    m = instr.mnemonic
    if (inspect.isgeneratorfunction(handler) or m in _CHAIN_BREAKERS
            or m in ("DIVU", "DIVS")
            or any(op.mode.is_memory for op in instr.operands)):
        return False
    timing = instruction_timing(instr, shift_count=0, src_value=0)
    return (timing.data_reads == timing.data_writes == 0
            and timing.stream_words == instr.encoded_words())


def _resolve_handler(instr: Instruction):
    """The execute handler of ``instr``.

    It depends only on fields fixed at assembly time, so the caller
    caches it on the instruction.
    """
    return _compiled(instr.mnemonic, instr.size, instr.operands,
                     instr.target, instr.reg_list, instr.movem_store)
