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

Bus protocol (all methods are generators driven by the sim kernel):

``fetch_instruction(addr)``
    returns the :class:`Instruction` at ``addr`` after charging its
    instruction-stream fetch accesses; may block (SIMD space rendezvous).
``fetch_stream_words(addr, n)``
    charges ``n`` extra instruction-stream accesses (branch-target
    prefetches, RTS pipeline refill).
``read(addr, size)`` / ``write(addr, value, size)``
    operand accesses; may block on device registers.
``internal(cycles)``
    pure execution time (no bus activity).

Buses may additionally provide the local-time fast-path extensions of
:class:`repro.sim.localtime.LocalTimeBus` — ``now`` (bus-true current
time), ``try_charge(cycles)`` (absorb pure execution time into the local
clock) and ``sync()`` (flush the local clock) — which the CPU discovers
with ``getattr`` and uses when present.  Timestamps in traces and
category totals are then taken from ``bus.now`` so they remain identical
to the pure-event path.

Buses can also expose *non-generator* twins of the four bus calls —
``try_fetch_instruction(addr)``, ``try_fetch_stream_words(addr, n)``,
``try_read(addr, size)`` and ``try_write(addr, value, size)`` — that
complete a purely private access (own-DRAM traffic) without creating a
generator, returning ``None``/``False`` whenever the access might touch
a shared resource.  The CPU attempts the fast twin first and falls back
to the generator protocol on refusal, so blocking semantics are
unchanged.

A PE bus on the fast tier also offers ``try_queue_fetch(addr)`` (the
lockstep SIMD-space fetch) and ``chain_bounds``, the main-RAM range in
which the CPU replays straight-line runs as pre-decoded superinstruction
chains, reading the bus's ``instructions`` and ``map``.

The interpreter computes results *and* the manual timing
(:func:`~repro.m68k.timing.instruction_timing`) for every executed
instruction, charging ``internal_cycles`` so the total elapsed simulated
time equals the manual time plus whatever the bus added (wait states,
queue/rendezvous stalls, device blocking).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import BusError, IllegalInstructionError, SimulationError
from repro.m68k.addressing import Mode, Operand
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


def _static_timing(instr: Instruction) -> TimingInfo:
    """Static-instruction timing via the per-instruction cache.

    Equivalent to ``instruction_timing(instr)`` for instructions whose
    timing has no dynamic arguments; skips the function call and dispatch
    once the cache is warm.
    """
    t = instr._static_timing_cache
    return t if t is not None else instruction_timing(instr)


_M32 = 0xFFFF_FFFF
_MASK = {1: 0xFF, 2: 0xFFFF, 4: _M32}
_SIGN = {1: 0x80, 2: 0x8000, 4: 0x8000_0000}


# ALU results and flags on size-masked operands, for the generic and the
# compiled handlers alike.  Each returns the value to store, or None for
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


_ALU_OPS = {"ADD": _alu_add, "SUB": _alu_sub, "CMP": _alu_cmp,
            "AND": _alu_and, "OR": _alu_or, "EOR": _alu_eor}


class HaltReason(enum.Enum):
    """Why a CPU stopped running."""

    HALT_INSTRUCTION = "halt"
    EXTERNAL = "external"


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
        # Optional fast-path bus extensions (see module docstring).
        self._bus_sync = getattr(bus, "sync", None)
        self._bus_try_charge = getattr(bus, "try_charge", None)
        self._bus_try_fetch = getattr(bus, "try_fetch_instruction", None)
        self._bus_try_queue_fetch = getattr(bus, "try_queue_fetch", None)
        self._bus_chain_bounds = getattr(bus, "chain_bounds", None)
        self._bus_try_stream = getattr(bus, "try_fetch_stream_words", None)
        self._bus_try_read = getattr(bus, "try_read", None)
        self._bus_try_write = getattr(bus, "try_write", None)
        self._bus_now = self._bus_sync is not None
        #: Address computed by ``_read_operand_now``/``_write_operand_now``
        #: when the fast twin refused; the caller replays the access through
        #: the generator protocol without re-running EA side effects.
        self._pending_addr = 0
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

    def run(self, max_instructions: int | None = None):
        """Generator process: execute until HALT (or an instruction cap).

        One instruction's fetch, dispatch and time accounting are inlined
        into the loop, so the interpreter builds one generator frame per
        *run*, not one per instruction.
        """
        env = self.env
        bus = self.bus
        fast = self._bus_now
        bus_fast = fast and bus.fast_path
        tf = self._bus_try_fetch
        ts = self._bus_try_stream
        cats = self.category_cycles
        executed = 0
        # Superinstruction chains: straight-line main-RAM runs replay as
        # one pre-decoded sequence on a bus that offers ``chain_bounds``
        # (the PE bus on the fast tier; SimpleBus and the MC bus run per
        # instruction).  Tracing and instruction caps take the
        # per-instruction path.
        chains = None
        bounds = self._bus_chain_bounds
        if bounds is not None and not self.trace and max_instructions is None:
            chains = self._chain_cache
            ref_period, ref_steal = bus._ref_period, bus._ref_steal
            # Chains only ever start in main RAM; gating the cache lookup
            # on the region bounds keeps SIMD-space pcs (monotonically
            # increasing, so every pc is new) from flooding the cache
            # with empty entries.
            main_lo, main_hi = bounds
        tq = self._bus_try_queue_fetch
        while self.halted is None:
            if chains is not None and main_lo <= self.regs.pc < main_hi:
                chain = chains.get(self.regs.pc)
                if chain is None:
                    chain = self._build_chain(self.regs.pc)
                    chains[self.regs.pc] = chain
                if chain:
                    # -- chain replay: same arithmetic as the per-
                    # instruction path below, minus fetch and lookup ----
                    for pc, instr, w, base, npc, k, h, cat in chain:
                        start = env.now + bus._local
                        cycles = base
                        if ref_steal:
                            phase = start % ref_period
                            if phase < ref_steal:
                                cycles += ref_steal - phase
                        bus._local += cycles
                        bus._lc = cycles
                        bus.stream_accesses += w
                        self.regs.pc = npc
                        if k:
                            timing = h(self, instr, pc, npc)
                            if k == 2 and type(timing) is not TimingInfo:
                                timing = yield from timing
                        else:
                            timing = yield from h(self, instr, pc, npc)
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
                            bus._lc = internal
                        end = env.now + bus._local
                        try:
                            cats[cat] += end - start
                        except KeyError:
                            cats[cat] = end - start
                    self.instruction_count += len(chain)
                    continue  # chain ended at control flow / HALT / region edge
            # -- one instruction: fetch, dispatch, time ---------------
            start = env.now + bus._local if fast else env.now
            pc = self.regs.pc
            instr = tf(pc) if tf is not None else None
            if instr is None:
                # Lockstep SIMD-space fetch: park on the stamped request
                # event directly — one yield, no sub-generator frames.
                # When this PE's stamp completed the rendezvous the queue
                # resolves it synchronously (callbacks already None) and
                # the loop streams on without parking at all.
                ev = tq(pc) if tq is not None else None
                if ev is not None:
                    pair = ev._value if ev.callbacks is None else (yield ev)
                    instr = bus.finish_queue_fetch(pair)
                else:
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

            hc = instr._exec_handler_cache
            if hc is None:
                hc = _resolve_handler(instr)
                instr._exec_handler_cache = hc
            k = hc[0]
            if k:
                timing = hc[1](self, instr, pc, next_pc)
                if k == 2 and type(timing) is not TimingInfo:
                    timing = yield from timing
            else:
                timing = yield from hc[1](self, instr, pc, next_pc)

            extra_stream = timing.stream_words - w
            if extra_stream > 0:
                if ts is None or not ts(self.regs.pc, extra_stream):
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
                    bus._lc = internal
                else:
                    tc = self._bus_try_charge
                    if tc is None or not tc(internal):
                        yield from bus.internal(internal)

            end = env.now + bus._local if fast else env.now
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
            executed += 1
            if max_instructions is not None and executed >= max_instructions:
                self.halted = HaltReason.EXTERNAL
        if self._bus_sync is not None:
            # Flush any locally-accrued time so env.now reflects the true
            # halt time (bit-identical to the pure-event path).
            yield from self._bus_sync()
        self.finish_time = self.env.now
        return self.halted

    # ------------------------------------------------------------------
    def _build_chain(self, pc: int) -> list:
        """Decode the straight-line main-RAM run starting at ``pc``.

        Returns pre-resolved ``(pc, instr, words, fetch_base, next_pc,
        kind, handler, timecat)`` entries for every consecutive
        instruction up to (exclusive) the first control-flow instruction,
        HALT, or non-main-RAM address; empty when ``pc`` itself is not
        chainable (the caller then takes the per-instruction path).
        ``fetch_base`` is the refresh-free fetch charge — the replay adds
        the closed-form refresh stall, which depends on absolute time.
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
            hc = instr._exec_handler_cache
            if hc is None:
                hc = _resolve_handler(instr)
                instr._exec_handler_cache = hc
            next_pc = pc + 2 * w
            entries.append(
                (pc, instr, w, w * (4 + region.wait_states), next_pc,
                 hc[0], hc[1], instr.timecat)
            )
            pc = next_pc
        return entries

    # ------------------------------------------------------------------
    # effective addresses and operand access
    def _ea_address(self, op: Operand, size: int, instr_addr: int) -> int:
        """Compute the operand address, applying side effects once."""
        mode = op.mode
        r = self.regs
        if mode is Mode.IND:
            return r.a[op.reg]
        if mode is Mode.POSTINC:
            addr = r.a[op.reg]
            step = size
            if op.reg == 7 and size == 1:
                step = 2  # A7 stays word-aligned on the 68000
            r.a[op.reg] = (addr + step) & 0xFFFF_FFFF
            return addr
        if mode is Mode.PREDEC:
            step = size
            if op.reg == 7 and size == 1:
                step = 2
            r.a[op.reg] = (r.a[op.reg] - step) & 0xFFFF_FFFF
            return r.a[op.reg]
        if mode is Mode.DISP:
            return (r.a[op.reg] + sign_extend(op.disp, 16)) & 0xFFFF_FFFF
        if mode is Mode.INDEX:
            kind, num = op.index_reg
            idx = r.d[num] if kind == "D" else r.a[num]
            idx = sign_extend(idx, 16)  # .W index form
            return (r.a[op.reg] + sign_extend(op.disp, 8) + idx) & 0xFFFF_FFFF
        if mode is Mode.ABS_W:
            return sign_extend(int(op.value), 16) & 0xFFFF_FFFF
        if mode is Mode.ABS_L:
            return int(op.value) & 0xFFFF_FFFF
        if mode is Mode.PCDISP:
            return (instr_addr + 2 + sign_extend(op.disp, 16)) & 0xFFFF_FFFF
        raise IllegalInstructionError(f"no address for mode {mode}")

    def _read_operand_now(self, op: Operand, size: int, instr_addr: int):
        """Operand value (unsigned) without a generator, or ``None``.

        ``None`` means the access may block: the EA (side effects applied
        exactly once) is parked in ``_pending_addr`` and the caller must
        replay ``bus.read(self._pending_addr, size)`` through the
        generator protocol.  Register/immediate operands never block.
        """
        mode = op.mode
        if mode is Mode.DREG:
            return self.regs.read_d(op.reg, size)
        if mode is Mode.AREG:
            return self.regs.read_a(op.reg, size)
        if mode is Mode.IMM:
            return to_unsigned(int(op.value), size)
        # The three hottest memory modes are inlined (same arithmetic and
        # side effects as _ea_address; keep them in sync).
        if mode is Mode.IND:
            addr = self.regs.a[op.reg]
        elif mode is Mode.POSTINC:
            regs = self.regs
            addr = regs.a[op.reg]
            step = size
            if op.reg == 7 and size == 1:
                step = 2  # A7 stays word-aligned on the 68000
            regs.a[op.reg] = (addr + step) & 0xFFFF_FFFF
        elif mode is Mode.DISP:
            d = op.disp & 0xFFFF
            if d & 0x8000:
                d -= 0x10000
            addr = (self.regs.a[op.reg] + d) & 0xFFFF_FFFF
        else:
            addr = self._ea_address(op, size, instr_addr)
        tr = self._bus_try_read
        if tr is not None:
            value = tr(addr, size)
            if value is not None:
                # Fast twins serve plain RAM only: already unsigned.
                return value
        self._pending_addr = addr
        return None

    def _write_operand_now(
        self, op: Operand, value: int, size: int, instr_addr: int
    ) -> bool:
        """Write ``value`` to the operand without a generator, if possible.

        Returns False when the access may block (EA parked in
        ``_pending_addr``; caller replays through ``bus.write``).
        """
        mode = op.mode
        if mode is Mode.DREG:
            self.regs.write_d(op.reg, value, size)
            return True
        if mode is Mode.AREG:
            self.regs.write_a(op.reg, value, size)
            return True
        # Hot memory modes inlined; see _read_operand_now.
        if mode is Mode.IND:
            addr = self.regs.a[op.reg]
        elif mode is Mode.POSTINC:
            regs = self.regs
            addr = regs.a[op.reg]
            step = size
            if op.reg == 7 and size == 1:
                step = 2  # A7 stays word-aligned on the 68000
            regs.a[op.reg] = (addr + step) & 0xFFFF_FFFF
        elif mode is Mode.DISP:
            d = op.disp & 0xFFFF
            if d & 0x8000:
                d -= 0x10000
            addr = (self.regs.a[op.reg] + d) & 0xFFFF_FFFF
        else:
            addr = self._ea_address(op, size, instr_addr)
        tw = self._bus_try_write
        if tw is not None and tw(addr, to_unsigned(value, size), size):
            return True
        self._pending_addr = addr
        return False

    def _read_operand(self, op: Operand, size: int, instr_addr: int):
        """Generator: operand value (unsigned), charging bus time."""
        value = self._read_operand_now(op, size, instr_addr)
        if value is None:
            value = yield from self.bus.read(self._pending_addr, size)
            value = to_unsigned(value, size)
        return value

    def _write_operand(self, op: Operand, value: int, size: int, instr_addr: int):
        """Generator: write ``value`` to the operand location."""
        if not self._write_operand_now(op, value, size, instr_addr):
            yield from self.bus.write(
                self._pending_addr, to_unsigned(value, size), size
            )

    def _pending_read(self, size: int):
        """Generator: replay a refused operand read at ``_pending_addr``."""
        value = yield from self.bus.read(self._pending_addr, size)
        return to_unsigned(value, size)

    def _try_read(self, addr: int, size: int):
        """Fast-twin read: the value, or None to fall back to bus.read."""
        tr = self._bus_try_read
        return tr(addr, size) if tr is not None else None

    def _try_write(self, addr: int, value: int, size: int) -> bool:
        """Fast-twin write: True when done, False to fall back."""
        tw = self._bus_try_write
        return tw is not None and tw(addr, value, size)

    # -- synchronous handlers ------------------------------------------
    # Plain calls for instructions the resolver proved bus-free (all
    # operands in registers or the instruction stream): no generator is
    # created for them.  Semantics are byte-for-byte those of the
    # generator handlers below restricted to register/immediate operands.
    # The hottest families (MOVE, ALU, MUL/DIV, DBcc, shifts) are compiled
    # instead; see "Compiled handlers" below the class.
    def _exec_branch(self, instr, pc, next_pc):
        target = int(instr.target)
        taken = True if instr.mnemonic == "BRA" \
            else self.regs.ccr.test(instr.condition)
        if taken:
            self.regs.pc = target
        return instruction_timing(instr, branch_taken=taken)

    def _exec_unary_reg(self, instr, pc, next_pc):
        m = instr.mnemonic
        size = instr.size_bytes
        dst = instr.operands[0]
        regs = self.regs
        if m == "TST":
            if dst.mode is Mode.DREG:
                value = regs.read_d(dst.reg, size)
            elif dst.mode is Mode.AREG:
                value = regs.read_a(dst.reg, size)
            else:  # IMM
                value = to_unsigned(int(dst.value), size)
            regs.ccr.set_nz(value, size)
            return _static_timing(instr)
        # read-modify-write on a data register
        old = regs.read_d(dst.reg, size)
        new, _flags_from = self._unary_result(m, old, size)
        regs.write_d(dst.reg, new, size)
        self._unary_flags(m, old, new, size)
        return _static_timing(instr)

    def _exec_halt(self, instr, pc, next_pc):
        self.halted = HaltReason.HALT_INSTRUCTION
        return _static_timing(instr)

    def _exec_nop(self, instr, pc, next_pc):
        return _static_timing(instr)

    def _exec_moveq(self, instr, pc, next_pc):
        ops = instr.operands
        value = to_signed(int(ops[0].value) & 0xFF, 1)
        self.regs.write_d(ops[1].reg, value & 0xFFFF_FFFF, 4)
        self.regs.ccr.set_nz(value & 0xFFFF_FFFF, 4)
        return _static_timing(instr)

    def _exec_lea(self, instr, pc, next_pc):
        ops = instr.operands
        addr = self._ea_address(ops[0], 4, pc)
        self.regs.write_a(ops[1].reg, addr, 4)
        return _static_timing(instr)

    def _exec_exg(self, instr, pc, next_pc):
        a, b = instr.operands
        va = self.regs.d[a.reg] if a.mode is Mode.DREG else self.regs.a[a.reg]
        vb = self.regs.d[b.reg] if b.mode is Mode.DREG else self.regs.a[b.reg]
        if a.mode is Mode.DREG:
            self.regs.d[a.reg] = vb
        else:
            self.regs.a[a.reg] = vb
        if b.mode is Mode.DREG:
            self.regs.d[b.reg] = va
        else:
            self.regs.a[b.reg] = va
        return _static_timing(instr)

    def _exec_swap(self, instr, pc, next_pc):
        r = instr.operands[0].reg
        v = self.regs.d[r]
        v = ((v >> 16) | (v << 16)) & 0xFFFF_FFFF
        self.regs.d[r] = v
        self.regs.ccr.set_nz(v, 4)
        return _static_timing(instr)

    def _exec_ext(self, instr, pc, next_pc):
        r = instr.operands[0].reg
        if instr.size_bytes == 2:  # byte → word
            self.regs.write_d(r, sign_extend(self.regs.read_d(r, 1), 8), 2)
            self.regs.ccr.set_nz(self.regs.read_d(r, 2), 2)
        else:  # word → long
            self.regs.write_d(r, sign_extend(self.regs.read_d(r, 2), 16), 4)
            self.regs.ccr.set_nz(self.regs.read_d(r, 4), 4)
        return _static_timing(instr)

    def _exec_jmp(self, instr, pc, next_pc):
        self.regs.pc = self._ea_address(instr.operands[0], 4, pc)
        return _static_timing(instr)

    def _exec_scc_reg(self, instr, pc, next_pc):
        taken = self.regs.ccr.test(instr.condition)
        self.regs.write_d(instr.operands[0].reg, 0xFF if taken else 0x00, 1)
        return instruction_timing(instr, branch_taken=taken)

    def _exec_bitop_reg(self, instr, pc, next_pc):
        m = instr.mnemonic
        bit_src, dst = instr.operands
        if bit_src.mode is Mode.IMM:
            bit = int(bit_src.value)
        else:
            bit = self.regs.read_d(bit_src.reg, 4)
        bit %= 32
        old = self.regs.read_d(dst.reg, 4)
        mask = 1 << bit
        self.regs.ccr.z = not (old & mask)
        if m == "BSET":
            self.regs.write_d(dst.reg, old | mask, 4)
        elif m == "BCLR":
            self.regs.write_d(dst.reg, old & ~mask, 4)
        elif m == "BCHG":
            self.regs.write_d(dst.reg, old ^ mask, 4)
        return _static_timing(instr)

    def _exec_addx_reg(self, instr, pc, next_pc):
        src, dst = instr.operands
        size = instr.size_bytes
        x_in = int(self.regs.ccr.x)
        src_val = self.regs.read_d(src.reg, size)
        dst_val = self.regs.read_d(dst.reg, size)
        r = self._addx_core(instr.mnemonic, src_val, dst_val, x_in, size)
        self.regs.write_d(dst.reg, r, size)
        return _static_timing(instr)

    # -- shared result/flag cores (no bus traffic) ---------------------
    def _muldiv_core(self, m: str, src_val: int, dst) -> None:
        regs = self.regs
        ccr = regs.ccr
        if m == "MULU":
            result = src_val * regs.read_d(dst.reg, 2)
            regs.write_d(dst.reg, result & 0xFFFF_FFFF, 4)
            ccr.set_nz(result & 0xFFFF_FFFF, 4)
        elif m == "MULS":
            result = to_signed(src_val, 2) * to_signed(regs.read_d(dst.reg, 2), 2)
            regs.write_d(dst.reg, result & 0xFFFF_FFFF, 4)
            ccr.set_nz(result & 0xFFFF_FFFF, 4)
        elif m == "DIVU":
            divisor = src_val
            if divisor == 0:
                raise IllegalInstructionError(f"{self.name}: divide by zero")
            dividend = regs.read_d(dst.reg, 4)
            quot, rem = divmod(dividend, divisor)
            if quot > 0xFFFF:
                ccr.v = True  # overflow: register unchanged
            else:
                regs.write_d(dst.reg, (rem << 16) | quot, 4)
                ccr.set_nz(quot, 2)
        else:  # DIVS
            divisor = to_signed(src_val, 2)
            if divisor == 0:
                raise IllegalInstructionError(f"{self.name}: divide by zero")
            dividend = to_signed(regs.read_d(dst.reg, 4), 4)
            quot = int(dividend / divisor)  # trunc toward zero
            rem = dividend - quot * divisor
            if not -0x8000 <= quot <= 0x7FFF:
                ccr.v = True
            else:
                regs.write_d(
                    dst.reg,
                    ((to_unsigned(rem, 2)) << 16) | to_unsigned(quot, 2),
                    4,
                )
                ccr.set_nz(to_unsigned(quot, 2), 2)

    def _addx_core(self, m: str, src_val: int, dst_val: int, x_in: int,
                   size: int) -> int:
        """ADDX/SUBX arithmetic + flags; returns the unsigned result."""
        ccr = self.regs.ccr
        if m == "ADDX":
            result = dst_val + src_val + x_in
            self._add_flags(dst_val, src_val + x_in, result, size)
        else:
            result = dst_val - src_val - x_in
            borrow = (src_val + x_in) > dst_val
            bits = size * 8
            r = result & ((1 << bits) - 1)
            ccr.n = bool(r >> (bits - 1))
            ccr.c = ccr.x = borrow
            sa, sb = dst_val >> (bits - 1), src_val >> (bits - 1)
            ccr.v = (sa != sb) and ((r >> (bits - 1)) != sa)
        r = to_unsigned(result, size)
        # Z accumulates across a multi-precision chain: only cleared.
        if r != 0:
            ccr.z = False
        return r

    # -- hybrid handlers -----------------------------------------------
    # Plain calls that return a TimingInfo when every bus access was
    # absorbed by the fast twins, or a *generator* (the ``_slow``
    # continuation) the caller must drive when an access may block.  EA
    # side effects have already been applied exactly once by then.
    def _exec_move_mem(self, instr, pc, next_pc):
        src, dst = instr.operands
        size = instr.size_bytes
        value = self._read_operand_now(src, size, pc)
        if value is None:
            return self._move_load_slow(instr, pc)
        if instr.mnemonic == "MOVEA" or dst.mode is Mode.AREG:
            self.regs.write_a(dst.reg, value, size)
            return _static_timing(instr)
        if self._write_operand_now(dst, value, size, pc):
            self.regs.ccr.set_nz(value, size)
            return _static_timing(instr)
        return self._move_store_slow(instr, value)

    def _move_load_slow(self, instr, pc):
        """Generator: MOVE whose source read was refused by the fast twin."""
        size = instr.size_bytes
        value = yield from self._pending_read(size)
        dst = instr.operands[1]
        if instr.mnemonic == "MOVEA" or dst.mode is Mode.AREG:
            self.regs.write_a(dst.reg, value, size)
        else:
            if not self._write_operand_now(dst, value, size, pc):
                yield from self.bus.write(
                    self._pending_addr, to_unsigned(value, size), size
                )
            self.regs.ccr.set_nz(value, size)
        return _static_timing(instr)

    def _move_store_slow(self, instr, value):
        """Generator: MOVE whose destination write was refused."""
        size = instr.size_bytes
        yield from self.bus.write(
            self._pending_addr, to_unsigned(value, size), size
        )
        self.regs.ccr.set_nz(value, size)
        return _static_timing(instr)

    def _exec_bsr(self, instr, pc, next_pc):
        self.regs.sp = (self.regs.sp - 4) & 0xFFFF_FFFF
        if not self._try_write(self.regs.sp, next_pc, 4):
            yield from self.bus.write(self.regs.sp, next_pc, 4)
        self.regs.pc = int(instr.target)
        return _static_timing(instr)

    def _exec_muldiv_mem(self, instr, pc, next_pc):
        src, dst = instr.operands
        src_val = self._read_operand_now(src, 2, pc)
        if src_val is None:
            return self._muldiv_slow(instr)
        self._muldiv_core(instr.mnemonic, src_val, dst)
        return instruction_timing(instr, src_value=src_val)

    def _muldiv_slow(self, instr):
        """Generator: MUL/DIV whose source read was refused."""
        src_val = yield from self._pending_read(2)
        self._muldiv_core(instr.mnemonic, src_val, instr.operands[1])
        return instruction_timing(instr, src_value=src_val)

    def _exec_unary_mem(self, instr, pc, next_pc):
        m = instr.mnemonic
        size = instr.size_bytes
        dst = instr.operands[0]
        if m == "TST":
            value = self._read_operand_now(dst, size, pc)
            if value is None:
                return self._tst_slow(instr)
            self.regs.ccr.set_nz(value, size)
            return _static_timing(instr)
        # read-modify-write (the 68000 reads even for CLR)
        addr = self._ea_address(dst, size, pc)
        old = self._try_read(addr, size)
        if old is None:
            return self._unary_rmw_slow(instr, addr)
        new, _flags_from = self._unary_result(m, old, size)
        if not self._try_write(addr, new, size):
            return self._unary_store_slow(instr, addr, old, new)
        self._unary_flags(m, old, new, size)
        return _static_timing(instr)

    def _tst_slow(self, instr):
        """Generator: TST whose operand read was refused."""
        size = instr.size_bytes
        value = yield from self._pending_read(size)
        self.regs.ccr.set_nz(value, size)
        return _static_timing(instr)

    def _unary_rmw_slow(self, instr, addr):
        """Generator: unary read-modify-write whose read was refused."""
        m = instr.mnemonic
        size = instr.size_bytes
        old = yield from self.bus.read(addr, size)
        new, _flags_from = self._unary_result(m, old, size)
        if not self._try_write(addr, new, size):
            yield from self.bus.write(addr, new, size)
        self._unary_flags(m, old, new, size)
        return _static_timing(instr)

    def _unary_store_slow(self, instr, addr, old, new):
        """Generator: unary read-modify-write whose write-back was refused."""
        size = instr.size_bytes
        yield from self.bus.write(addr, new, size)
        self._unary_flags(instr.mnemonic, old, new, size)
        return _static_timing(instr)

    def _exec_jsr(self, instr, pc, next_pc):
        addr = self._ea_address(instr.operands[0], 4, pc)
        self.regs.sp = (self.regs.sp - 4) & 0xFFFF_FFFF
        if not self._try_write(self.regs.sp, next_pc, 4):
            yield from self.bus.write(self.regs.sp, next_pc, 4)
        self.regs.pc = addr
        return _static_timing(instr)

    def _exec_rts(self, instr, pc, next_pc):
        addr = self._try_read(self.regs.sp, 4)
        if addr is None:
            addr = yield from self.bus.read(self.regs.sp, 4)
        self.regs.sp = (self.regs.sp + 4) & 0xFFFF_FFFF
        self.regs.pc = addr & 0xFFFF_FFFF
        return _static_timing(instr)

    def _exec_pea(self, instr, pc, next_pc):
        addr = self._ea_address(instr.operands[0], 4, pc)
        self.regs.sp = (self.regs.sp - 4) & 0xFFFF_FFFF
        if not self._try_write(self.regs.sp, addr, 4):
            yield from self.bus.write(self.regs.sp, addr, 4)
        return _static_timing(instr)

    def _exec_link(self, instr, pc, next_pc):
        an, disp = instr.operands
        self.regs.sp = (self.regs.sp - 4) & 0xFFFF_FFFF
        if not self._try_write(self.regs.sp, self.regs.a[an.reg], 4):
            yield from self.bus.write(self.regs.sp, self.regs.a[an.reg], 4)
        self.regs.a[an.reg] = self.regs.sp
        self.regs.sp = (self.regs.sp + to_signed(int(disp.value), 2)) \
            & 0xFFFF_FFFF
        return _static_timing(instr)

    def _exec_unlk(self, instr, pc, next_pc):
        an = instr.operands[0].reg
        self.regs.sp = self.regs.a[an]
        value = self._try_read(self.regs.sp, 4)
        if value is None:
            value = yield from self.bus.read(self.regs.sp, 4)
        self.regs.a[an] = value
        self.regs.sp = (self.regs.sp + 4) & 0xFFFF_FFFF
        return _static_timing(instr)

    def _exec_cmpm(self, instr, pc, next_pc):
        ops = instr.operands
        size = instr.size_bytes
        src_val = self._read_operand_now(ops[0], size, pc)
        if src_val is None:
            src_val = yield from self._pending_read(size)
        dst_val = self._read_operand_now(ops[1], size, pc)
        if dst_val is None:
            dst_val = yield from self._pending_read(size)
        _alu_cmp(self.regs.ccr, dst_val, src_val, _MASK[size], _SIGN[size])
        return _static_timing(instr)

    def _exec_scc_mem(self, instr, pc, next_pc):
        taken = self.regs.ccr.test(instr.condition)
        value = 0xFF if taken else 0x00
        addr = self._ea_address(instr.operands[0], 1, pc)
        # read-modify-write like the hardware
        if self._try_read(addr, 1) is None:
            yield from self.bus.read(addr, 1)
        if not self._try_write(addr, value, 1):
            yield from self.bus.write(addr, value, 1)
        return instruction_timing(instr, branch_taken=taken)

    def _exec_illegal(self, instr, pc, next_pc):
        raise IllegalInstructionError(
            f"{self.name}: cannot execute {instr.mnemonic}"
        )
        yield  # pragma: no cover — registered as a generator handler

    # ------------------------------------------------------------------
    def _addx_subx(self, instr, pc, next_pc):
        """ADDX/SUBX -(Ay),-(Ax): multi-precision through memory.

        The register form is handled synchronously by
        :meth:`_exec_addx_reg`.
        """
        m = instr.mnemonic
        size = instr.size_bytes
        src, dst = instr.operands
        x_in = int(self.regs.ccr.x)
        src_addr = self._ea_address(src, size, pc)
        src_val = self._try_read(src_addr, size)
        if src_val is None:
            src_val = yield from self.bus.read(src_addr, size)
        dst_addr = self._ea_address(dst, size, pc)
        dst_val = self._try_read(dst_addr, size)
        if dst_val is None:
            dst_val = yield from self.bus.read(dst_addr, size)
        r = self._addx_core(m, src_val, dst_val, x_in, size)
        if not self._try_write(dst_addr, r, size):
            yield from self.bus.write(dst_addr, r, size)
        return _static_timing(instr)

    def _exec_bitop_mem(self, instr, pc, next_pc):
        """BTST/BSET/BCLR/BCHG on memory: Z is the tested (pre-change) bit.

        The data-register form is handled synchronously by
        :meth:`_exec_bitop_reg`.
        """
        m = instr.mnemonic
        bit_src, dst = instr.operands
        if bit_src.mode is Mode.IMM:
            bit = int(bit_src.value)
        else:
            bit = self.regs.read_d(bit_src.reg, 4)
        bit %= 8
        addr = self._ea_address(dst, 1, pc)
        old = self._try_read(addr, 1)
        if old is None:
            old = yield from self.bus.read(addr, 1)
        mask = 1 << bit
        self.regs.ccr.z = not (old & mask)
        if m != "BTST":
            new = {"BSET": old | mask, "BCLR": old & ~mask,
                   "BCHG": old ^ mask}[m]
            if not self._try_write(addr, new, 1):
                yield from self.bus.write(addr, new, 1)
        return _static_timing(instr)

    def _movem(self, instr, pc, next_pc):
        """MOVEM: multi-register transfer.

        Loads/stores proceed in mask order (D0→A7 ascending), except the
        pre-decrement store form which runs A7→D0 with the address moving
        downward, exactly like the hardware.
        """
        size = instr.size_bytes
        ea = instr.operands[0]
        regs = sorted(
            instr.reg_list,
            key=lambda r: (r[0] == "A", r[1]),
        )

        def read_reg(kind, num):
            return self.regs.d[num] if kind == "D" else self.regs.a[num]

        def write_reg(kind, num, value):
            # MOVEM.W loads sign-extend into the full register.
            if size == 2:
                value = to_unsigned(sign_extend(value, 16), 4)
            if kind == "D":
                self.regs.d[num] = value & 0xFFFF_FFFF
            else:
                self.regs.a[num] = value & 0xFFFF_FFFF

        if instr.movem_store:
            if ea.mode is Mode.PREDEC:
                for kind, num in reversed(regs):
                    self.regs.a[ea.reg] = (self.regs.a[ea.reg] - size) \
                        & 0xFFFF_FFFF
                    v = to_unsigned(read_reg(kind, num), size)
                    if not self._try_write(self.regs.a[ea.reg], v, size):
                        yield from self.bus.write(
                            self.regs.a[ea.reg], v, size
                        )
            else:
                addr = self._ea_address(ea, size, pc) \
                    if ea.mode is not Mode.IND else self.regs.a[ea.reg]
                for kind, num in regs:
                    v = to_unsigned(read_reg(kind, num), size)
                    if not self._try_write(addr, v, size):
                        yield from self.bus.write(addr, v, size)
                    addr += size
        else:
            if ea.mode is Mode.POSTINC:
                for kind, num in regs:
                    value = self._try_read(self.regs.a[ea.reg], size)
                    if value is None:
                        value = yield from self.bus.read(
                            self.regs.a[ea.reg], size
                        )
                    write_reg(kind, num, value)
                    self.regs.a[ea.reg] = (self.regs.a[ea.reg] + size) \
                        & 0xFFFF_FFFF
            else:
                addr = self._ea_address(ea, size, pc) \
                    if ea.mode is not Mode.IND else self.regs.a[ea.reg]
                for kind, num in regs:
                    value = self._try_read(addr, size)
                    if value is None:
                        value = yield from self.bus.read(addr, size)
                    write_reg(kind, num, value)
                    addr += size
        return _static_timing(instr)

    # ------------------------------------------------------------------
    def _unary_result(self, m: str, old: int, size: int) -> tuple[int, int]:
        if m == "CLR":
            return 0, 0
        if m == "NOT":
            return to_unsigned(~old, size), 0
        if m == "NEG":
            return to_unsigned(-old, size), 0
        if m == "NEGX":
            x_in = int(self.regs.ccr.x)
            return to_unsigned(-old - x_in, size), x_in
        if m == "TAS":
            return to_unsigned(old | 0x80, 1), 0
        raise AssertionError(m)

    def _unary_flags(self, m: str, old: int, new: int, size: int) -> None:
        ccr = self.regs.ccr
        if m == "CLR":
            ccr.n, ccr.z, ccr.v, ccr.c = False, True, False, False
        elif m == "NOT":
            ccr.set_nz(new, size)
        elif m == "NEG":
            ccr.set_nz(new, size)
            ccr.c = new != 0
            ccr.x = ccr.c
            ccr.v = old == (1 << (size * 8 - 1))  # -MIN overflows
        elif m == "NEGX":
            # Z is only *cleared*, never set (multi-precision chains
            # preserve a zero result built up across words).
            was_z = ccr.z
            ccr.set_nz(new, size)
            ccr.z = was_z and ccr.z
            # Borrow out of 0 − old − X happens unless old == X == 0.
            ccr.c = (old != 0) or (new != 0)
            ccr.x = ccr.c
            sign_bit = 1 << (size * 8 - 1)
            ccr.v = bool(old & sign_bit) and bool(new & sign_bit)
        elif m == "TAS":
            # Flags reflect the *tested* (pre-set) value.
            self.regs.ccr.set_nz(old, 1)

    def _shift(self, m: str, value: int, count: int, size: int) -> int:
        """Apply a shift/rotate; sets flags; returns the new value."""
        bits = size * 8
        mask = (1 << bits) - 1
        ccr = self.regs.ccr
        value &= mask
        if count == 0:
            ccr.set_nz(value, size)
            # Rotates through X report X in C even for a zero count.
            ccr.c = ccr.x if m in ("ROXL", "ROXR") else False
            return value
        carry = False
        if m in ("LSL", "ASL"):
            overflow = False
            for _ in range(count):
                carry = bool(value >> (bits - 1))
                shifted = (value << 1) & mask
                if m == "ASL" and (value >> (bits - 1)) != (shifted >> (bits - 1)):
                    overflow = True
                value = shifted
            ccr.set_nz(value, size)
            ccr.c = ccr.x = carry
            ccr.v = overflow if m == "ASL" else False
        elif m == "LSR":
            for _ in range(count):
                carry = bool(value & 1)
                value >>= 1
            ccr.set_nz(value, size)
            ccr.c = ccr.x = carry
        elif m == "ASR":
            sign = value >> (bits - 1)
            for _ in range(count):
                carry = bool(value & 1)
                value = (value >> 1) | (sign << (bits - 1))
            ccr.set_nz(value, size)
            ccr.c = ccr.x = carry
        elif m == "ROL":
            for _ in range(count):
                top = value >> (bits - 1)
                value = ((value << 1) | top) & mask
                carry = bool(top)
            ccr.set_nz(value, size)
            ccr.c = carry
        elif m == "ROR":
            for _ in range(count):
                low = value & 1
                value = (value >> 1) | (low << (bits - 1))
                carry = bool(low)
            ccr.set_nz(value, size)
            ccr.c = carry
        elif m == "ROXL":
            x = ccr.x
            for _ in range(count):
                top = bool(value >> (bits - 1))
                value = ((value << 1) | int(x)) & mask
                x = top
            ccr.set_nz(value, size)
            ccr.c = ccr.x = x
        elif m == "ROXR":
            x = ccr.x
            for _ in range(count):
                low = bool(value & 1)
                value = (value >> 1) | (int(x) << (bits - 1))
                x = low
            ccr.set_nz(value, size)
            ccr.c = ccr.x = x
        else:  # pragma: no cover
            raise AssertionError(m)
        return value

    # ------------------------------------------------------------------
    def _alu(self, instr, pc, next_pc):
        """Hybrid handler for the ADD/SUB/CMP/logic families (all variants).

        Covers the forms :func:`_compile_alu` leaves (absolute, indexed
        and PC-relative operands), returning a slow-continuation
        generator when a bus access was refused.
        """
        src_val = self._read_operand_now(
            instr.operands[0], instr.size_bytes, pc
        )
        if src_val is None:
            return self._alu_src_slow(instr, pc)
        return self._alu_finish(instr, pc, src_val)

    def _alu_src_slow(self, instr, pc):
        """Generator: ALU op whose source read was refused."""
        src_val = yield from self._pending_read(instr.size_bytes)
        t = self._alu_finish(instr, pc, src_val)
        if type(t) is not TimingInfo:
            t = yield from t
        return t

    def _alu_finish(self, instr, pc, src_val):
        """Rest of an ALU op once the source value is in hand.

        Returns the TimingInfo, or a generator when the destination
        access was refused.
        """
        m = instr.mnemonic
        size = instr.size_bytes
        dst = instr.operands[1]
        regs = self.regs
        base = instr._alu_base_cache
        if base is None:
            base = _alu_base(m)
            instr._alu_base_cache = base

        if m in ALU_ADDR:
            # Word sources sign-extend; operation is on the full 32 bits.
            if size == 2:
                src_val32 = to_unsigned(sign_extend(src_val, 16), 4)
            else:
                src_val32 = src_val
            dst_val = regs.read_a(dst.reg, 4)
            if base == "ADD":
                regs.write_a(dst.reg, dst_val + src_val32, 4)
            elif base == "SUB":
                regs.write_a(dst.reg, dst_val - src_val32, 4)
            else:  # CMPA
                _alu_cmp(regs.ccr, dst_val, src_val32, _M32, _SIGN[4])
            return _static_timing(instr)

        if dst.mode is Mode.AREG:
            # ADDQ/SUBQ #n,An (no flags); other An destinations are
            # rejected below by _ea_address, as before the registry.
            if m in QUICK:
                dst_val = regs.read_a(dst.reg, 4)
                delta = int(instr.operands[0].value)
                if base == "ADD":
                    regs.write_a(dst.reg, dst_val + delta, 4)
                else:
                    regs.write_a(dst.reg, dst_val - delta, 4)
                return _static_timing(instr)

        op = _ALU_OPS[base]
        if dst.mode is Mode.DREG:
            dst_val = regs.read_d(dst.reg, size)
            result = op(regs.ccr, dst_val, src_val, _MASK[size], _SIGN[size])
            if result is not None:
                regs.write_d(dst.reg, result, size)
            return _static_timing(instr)

        dst_addr = self._ea_address(dst, size, pc)
        dst_val = self._try_read(dst_addr, size)
        if dst_val is None:
            return self._alu_mem_slow(instr, dst_addr, src_val)
        result = op(regs.ccr, dst_val, src_val, _MASK[size], _SIGN[size])
        if result is not None and not self._try_write(dst_addr, result, size):
            return self._alu_store_slow(instr, dst_addr, result)
        return _static_timing(instr)

    def _alu_mem_slow(self, instr, dst_addr, src_val):
        """Generator: ALU memory destination whose read was refused."""
        size = instr.size_bytes
        dst_val = yield from self.bus.read(dst_addr, size)
        result = _ALU_OPS[instr._alu_base_cache](
            self.regs.ccr, dst_val, src_val, _MASK[size], _SIGN[size]
        )
        if result is not None and not self._try_write(dst_addr, result, size):
            yield from self.bus.write(dst_addr, result, size)
        return _static_timing(instr)

    def _alu_store_slow(self, instr, dst_addr, result):
        """Generator: ALU memory destination whose write-back was refused."""
        yield from self.bus.write(dst_addr, result, instr.size_bytes)
        return _static_timing(instr)

    def _add_flags(self, a: int, b: int, result: int, size: int) -> None:
        bits = size * 8
        mask = (1 << bits) - 1
        ccr = self.regs.ccr
        r = result & mask
        ccr.z = r == 0
        ccr.n = bool(r >> (bits - 1))
        ccr.c = result > mask
        ccr.x = ccr.c
        sa, sb, sr = a >> (bits - 1), b >> (bits - 1), r >> (bits - 1)
        ccr.v = (sa == sb) and (sr != sa)


# ----------------------------------------------------------------------
# Execute-handler registry.
#
# ``_resolve_handler`` maps an assembled instruction to its handler once;
# the ``(kind, function)`` pair is cached on the instruction.  Kinds:
#
# 0 — generator handler: driven through the bus protocol as usual.
# 1 — sync handler: a plain function; the resolver proved, from the
#     mnemonic and operand modes alone, that execution can never touch
#     the bus, so the interpreter skips the generator machinery.
# 2 — hybrid handler: a plain function that returns a TimingInfo when
#     all bus accesses were absorbed by the fast twins, or a generator
#     continuation when one was refused (possible blocking access).

_GEN, _SYNC, _HYBRID = 0, 1, 2

_REG_OR_IMM = (Mode.DREG, Mode.AREG, Mode.IMM)

_SYNC_SINGLETONS = {
    "HALT": CPU._exec_halt,
    "NOP": CPU._exec_nop,
    "MOVEQ": CPU._exec_moveq,
    "LEA": CPU._exec_lea,
    "EXG": CPU._exec_exg,
    "SWAP": CPU._exec_swap,
    "EXT": CPU._exec_ext,
}

_GEN_SINGLETONS = {
    "RTS": CPU._exec_rts,
    "PEA": CPU._exec_pea,
    "LINK": CPU._exec_link,
    "UNLK": CPU._exec_unlk,
    "CMPM": CPU._exec_cmpm,
    "MOVEM": CPU._movem,
}

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
# Compiled handlers.
#
# The hot instruction forms are compiled, when first resolved, into a
# closure over everything the instruction fixes at assembly time: operand
# registers, size masks and sign bits, displacements, branch targets and
# the instruction's TimingInfo variants.  A closure binds nothing of a CPU
# (a SIMD broadcast shares one Instruction object across PEs) and nothing
# of one instruction object (equal instructions share it, see
# ``_compiled``); it takes the same ``(cpu, instr, pc, next_pc)``
# arguments as the CPU methods and, where a fast twin refuses an access,
# returns the same ``_slow`` continuation the generic hybrid handler
# would.  A compiler returns None for forms it leaves to the generic
# handlers: absolute, indexed and PC-relative operands, and shapes
# ``validate`` rejects.

#: Memory modes the compiled handlers address inline.
_AN_MODES = (Mode.IND, Mode.POSTINC, Mode.PREDEC, Mode.DISP)


def _an_ea(op: Operand, size: int) -> tuple[int, int, int, bool]:
    """``(reg, pre, post, writeback)`` of a register or ``_AN_MODES``
    operand.

    A memory operand's address is ``a[reg] + pre``; with writeback
    ``a[reg]`` then becomes the address plus ``post`` (the arithmetic of
    :meth:`CPU._ea_address`).
    """
    step = 2 if op.reg == 7 and size == 1 else size  # A7 stays word-aligned
    if op.mode is Mode.POSTINC:
        return op.reg, 0, step, True
    if op.mode is Mode.PREDEC:
        return op.reg, -step, 0, True
    if op.mode is Mode.DISP:
        return op.reg, sign_extend(op.disp, 16), 0, False
    return op.reg, 0, 0, False


def _source(op: Operand, size: int) -> tuple:
    """``(imm, is_d, reg, pre, post, writeback)`` of a compiled source.

    ``imm`` is the masked immediate or None; ``is_d`` picks the data
    register bank; the rest is :func:`_an_ea`.
    """
    if op.mode is Mode.IMM:
        return to_unsigned(int(op.value), size), False, 0, 0, 0, False
    return (None, op.mode is Mode.DREG) + _an_ea(op, size)


def _compile_move(instr: Instruction):
    """MOVE/MOVEA between registers, immediates and ``_AN_MODES``."""
    src, dst = instr.operands
    size = instr.size_bytes
    to_d = dst.mode is Mode.DREG
    to_a = dst.mode is Mode.AREG
    if (
        (instr.mnemonic == "MOVEA" and not to_a)
        or (to_a and size == 1)
        or not (to_d or to_a or dst.mode in _AN_MODES)
        or src.mode not in _REG_OR_IMM + _AN_MODES
    ):
        return None
    imm, s_d, sr, spre, spost, swb = _source(src, size)
    s_mem = src.mode in _AN_MODES
    d, dpre, dpost, dwb = _an_ea(dst, size)
    mask, sign = _MASK[size], _SIGN[size]
    keep = _M32 ^ mask
    wext = size == 2  # MOVEA.W sign-extends into the full register
    t = instruction_timing(instr)

    def move(cpu, instr, pc, next_pc):
        regs = cpu.regs
        if s_mem:
            ar = regs.a
            addr = (ar[sr] + spre) & _M32
            if swb:
                ar[sr] = (addr + spost) & _M32
            tr = cpu._bus_try_read
            v = tr(addr, size) if tr is not None else None
            if v is None:
                cpu._pending_addr = addr
                return cpu._move_load_slow(instr, pc)
        elif imm is None:
            v = (regs.d if s_d else regs.a)[sr] & mask
        else:
            v = imm
        if to_d:
            dr = regs.d
            dr[d] = (dr[d] & keep) | v
        elif to_a:
            regs.a[d] = ((v ^ 0x8000) - 0x8000) & _M32 if wext else v
            return t
        else:
            ar = regs.a
            addr = (ar[d] + dpre) & _M32
            if dwb:
                ar[d] = (addr + dpost) & _M32
            tw = cpu._bus_try_write
            if tw is None or not tw(addr, v, size):
                cpu._pending_addr = addr
                return cpu._move_store_slow(instr, v)
        ccr = regs.ccr
        ccr.n = v >= sign
        ccr.z = v == 0
        ccr.v = ccr.c = False
        return t

    return (_HYBRID if s_mem or not (to_d or to_a) else _SYNC, move)


def _compile_alu(instr: Instruction):
    """The ADD/SUB/CMP/AND/OR/EOR families (incl. the A, I and Q forms)
    with register, immediate and ``_AN_MODES`` operands."""
    m = instr.mnemonic
    src, dst = instr.operands
    size = instr.size_bytes
    to_d = dst.mode is Mode.DREG
    to_a = dst.mode is Mode.AREG
    s_mem = src.mode in _AN_MODES
    if (
        (to_a and (size == 1 or not (m in ALU_ADDR or m in QUICK)))
        or not (to_d or to_a or (dst.mode in _AN_MODES and not s_mem))
        or src.mode not in _REG_OR_IMM + _AN_MODES
    ):
        return None
    base = _alu_base(m)
    imm, s_d, sr, spre, spost, swb = _source(src, size)
    sext = size == 2  # word sources to An sign-extend
    if to_a and m in QUICK:  # ADDQ/SUBQ #n,An: the count, unextended
        imm, sext = int(src.value), False
    d, dpre, dpost, dwb = _an_ea(dst, size)
    op = _ALU_OPS[base]
    mask, sign = _MASK[size], _SIGN[size]
    keep = _M32 ^ mask
    t = instruction_timing(instr)

    def alu(cpu, instr, pc, next_pc):
        regs = cpu.regs
        if s_mem:
            ar = regs.a
            addr = (ar[sr] + spre) & _M32
            if swb:
                ar[sr] = (addr + spost) & _M32
            tr = cpu._bus_try_read
            v = tr(addr, size) if tr is not None else None
            if v is None:
                cpu._pending_addr = addr
                return cpu._alu_src_slow(instr, pc)
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
        addr = (ar[d] + dpre) & _M32
        if dwb:
            ar[d] = (addr + dpost) & _M32
        tr = cpu._bus_try_read
        old = tr(addr, size) if tr is not None else None
        if old is None:
            return cpu._alu_mem_slow(instr, addr, v)
        res = op(regs.ccr, old, v, mask, sign)
        if res is not None:
            tw = cpu._bus_try_write
            if tw is None or not tw(addr, res, size):
                return cpu._alu_store_slow(instr, addr, res)
        return t

    return (_HYBRID if s_mem or not (to_d or to_a) else _SYNC, alu)


def _compile_muldiv(instr: Instruction):
    """MULU/MULS/DIVU/DIVS with a data-register or immediate source.

    MULU/MULS Dn,Dn index their :func:`mul_timings` table by the ones or
    transitions of the multiplier; the other forms have one timing.
    """
    m = instr.mnemonic
    src, dst = instr.operands
    if src.mode is Mode.IMM:
        imm, s = to_unsigned(int(src.value), 2), 0
    elif src.mode is Mode.DREG:
        imm, s = None, src.reg
    else:
        return None
    d = dst.reg
    if imm is None and m == "MULU":
        table = mul_timings(instr)

        def mulu(cpu, instr, pc, next_pc):
            regs = cpu.regs
            dr = regs.d
            v = dr[s] & 0xFFFF
            r = v * (dr[d] & 0xFFFF)
            dr[d] = r
            ccr = regs.ccr
            ccr.n = r >= 0x8000_0000
            ccr.z = r == 0
            ccr.v = ccr.c = False
            return table[v.bit_count()]

        return (_SYNC, mulu)
    if imm is None and m == "MULS":
        table = mul_timings(instr)

        def muls(cpu, instr, pc, next_pc):
            regs = cpu.regs
            dr = regs.d
            v = dr[s] & 0xFFFF
            r = (((v ^ 0x8000) - 0x8000)
                 * (((dr[d] & 0xFFFF) ^ 0x8000) - 0x8000)) & _M32
            dr[d] = r
            ccr = regs.ccr
            ccr.n = r >= 0x8000_0000
            ccr.z = r == 0
            ccr.v = ccr.c = False
            w = v << 1  # transitions, with a 0 appended at the LSB end
            return table[((w ^ (w >> 1)) & 0xFFFF).bit_count()]

        return (_SYNC, muls)
    t = instruction_timing(instr, src_value=imm)  # DIVU/DIVS or MUL #imm

    def muldiv(cpu, instr, pc, next_pc):
        cpu._muldiv_core(
            m, cpu.regs.d[s] & 0xFFFF if imm is None else imm, dst
        )
        return t

    return (_SYNC, muldiv)


def _compile_dbcc(instr: Instruction):
    """DBcc: the loop target and the three outcome timings bound."""
    target = int(instr.target)
    reg = instr.operands[0].reg
    cond = instr.condition
    taken = instruction_timing(instr, branch_taken=True)
    expired = instruction_timing(instr, branch_taken=False, dbcc_expired=True)
    held = instruction_timing(instr, branch_taken=False)  # condition true

    def dbcc(cpu, instr, pc, next_pc):
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

    return (_SYNC, dbcc)


def _compile_shift(instr: Instruction):
    """Shifts and rotates of a data register.

    LSL/LSR by an immediate 1..8 (the only counts ``validate`` accepts)
    are computed inline; the other forms call :meth:`CPU._shift`, with
    the timing bound for an immediate count or looked up by the
    register count.
    """
    m = instr.mnemonic
    count_op, reg_op = instr.operands
    size = instr.size_bytes
    r = reg_op.reg
    mask, sign = _MASK[size], _SIGN[size]
    keep = _M32 ^ mask
    if count_op.mode is not Mode.IMM:
        c = count_op.reg
        timings: list = [None] * 64

        def shift_by_reg(cpu, instr, pc, next_pc):
            dr = cpu.regs.d
            k = dr[c] % 64
            old = dr[r]
            dr[r] = (old & keep) | cpu._shift(m, old & mask, k, size)
            t = timings[k]
            if t is None:
                t = timings[k] = instruction_timing(instr, shift_count=k)
            return t

        return (_SYNC, shift_by_reg)
    k = int(count_op.value)
    t = instruction_timing(instr, shift_count=k)
    if m in ("LSL", "LSR") and 1 <= k <= 8:
        left = m == "LSL"
        out = 8 * size - k if left else k - 1  # the last bit shifted out

        def logical_shift(cpu, instr, pc, next_pc):
            regs = cpu.regs
            dr = regs.d
            old = dr[r]
            v = old & mask
            res = (v << k) & mask if left else v >> k
            dr[r] = (old & keep) | res
            ccr = regs.ccr
            ccr.x = ccr.c = (v >> out) & 1 == 1
            ccr.n = res >= sign
            ccr.z = res == 0
            ccr.v = False
            return t

        return (_SYNC, logical_shift)

    def shift(cpu, instr, pc, next_pc):
        dr = cpu.regs.d
        old = dr[r]
        dr[r] = (old & keep) | cpu._shift(m, old & mask, k, size)
        return t

    return (_SYNC, shift)


@lru_cache(maxsize=4096)
def _compiled(compiler, mnemonic, size, operands, target):
    """``compiler``'s handler for an instruction of these fields.

    Equal instructions share one handler (a matmul program repeats
    ``MULU D1,D5`` m times, and every build of a program repeats all of
    them), so the closures cost memory per distinct form, not per
    instruction.  The compiler sees only the fields of the key.
    """
    return compiler(Instruction(mnemonic, size, operands, target))


def _compile(instr: Instruction, compiler):
    return _compiled(compiler, instr.mnemonic, instr.size, instr.operands,
                     instr.target)


def _resolve_handler(instr: Instruction) -> tuple:
    """Pick, or compile, the execute handler for ``instr``:
    ``(kind, function)``.

    The choice depends only on fields fixed at assembly time (mnemonic,
    size, operands and branch target), so the caller caches it on the
    instruction.
    """
    m = instr.mnemonic
    ops = instr.operands
    if m == "MOVE" or m == "MOVEA":
        return _compile(instr, _compile_move) or (_HYBRID, CPU._exec_move_mem)
    if m in ALU_ALL:
        instr._alu_base_cache = _alu_base(m)  # read by _alu_mem_slow
        return _compile(instr, _compile_alu) or (_HYBRID, CPU._alu)
    if m in DBCC:
        return _compile(instr, _compile_dbcc)
    if m in BRANCHES:
        if m == "BSR":
            return (_GEN, CPU._exec_bsr)
        return (_SYNC, CPU._exec_branch)
    if m in MULDIV:
        return _compile(instr, _compile_muldiv) \
            or (_HYBRID, CPU._exec_muldiv_mem)
    if m in UNARY:
        dst = ops[0]
        if dst.mode is Mode.DREG or (m == "TST" and dst.mode in _REG_OR_IMM):
            return (_SYNC, CPU._exec_unary_reg)
        return (_HYBRID, CPU._exec_unary_mem)
    if m in SHIFTS:
        return _compile(instr, _compile_shift)
    fn = _SYNC_SINGLETONS.get(m)
    if fn is not None:
        return (_SYNC, fn)
    if m in JUMPS:
        if m == "JSR":
            return (_GEN, CPU._exec_jsr)
        return (_SYNC, CPU._exec_jmp)
    if m in EXTENDED:
        if ops[0].mode is Mode.DREG:
            return (_SYNC, CPU._exec_addx_reg)
        return (_GEN, CPU._addx_subx)
    if m in SCC:
        if ops[0].mode is Mode.DREG:
            return (_SYNC, CPU._exec_scc_reg)
        return (_GEN, CPU._exec_scc_mem)
    if m in BITOPS:
        if ops[1].mode is Mode.DREG:
            return (_SYNC, CPU._exec_bitop_reg)
        return (_GEN, CPU._exec_bitop_mem)
    fn = _GEN_SINGLETONS.get(m)
    if fn is not None:
        return (_GEN, fn)
    return (_GEN, CPU._exec_illegal)
