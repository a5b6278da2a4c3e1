"""MC68000 instruction timing (M68000UM Section 8 tables).

Every instruction's cost is expressed as a :class:`TimingInfo`:

``cycles``
    total clock cycles assuming zero-wait-state memory (the manual's
    numbers),
``stream_words``
    16-bit *instruction-stream* accesses (opcode, extension words,
    immediates, branch-target prefetches) — these come from the Fetch Unit
    Queue in SIMD mode and from PE main memory in MIMD mode,
``data_reads`` / ``data_writes``
    16-bit operand accesses — always main memory (or a memory-mapped
    device).

The decomposition satisfies ``cycles >= 4 * (stream_words + data_reads +
data_writes)``; the remainder is internal execution time.  Wait states
stretch each access of the corresponding class by a fixed number of cycles,
which is how the paper's "the queue can deliver data with one less wait
state than can the PEs' main memories" becomes a model parameter.

Data-dependent times:

* ``MULU <ea>,Dn`` — ``38 + 2n`` cycles plus EA time, ``n`` = number of 1
  bits in the source (multiplier) operand.
* ``MULS <ea>,Dn`` — ``38 + 2n``, ``n`` = number of 10/01 patterns in the
  source operand with a zero appended at its LSB end.
* shifts — ``6 + 2n`` (word) / ``8 + 2n`` (long), ``n`` = shift count.
* ``Bcc/DBcc`` — taken/not-taken/expired variants.

These formulas are exactly the mechanism the paper studies: in SIMD mode a
broadcast multiply costs the *maximum* of the per-PE times; decoupled into
MIMD streams each PE pays only its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import IllegalInstructionError
from repro.m68k.addressing import Mode, Operand, ea_timing
from repro.m68k.instructions import (
    ALU_ADDR,
    ALU_IMM,
    ALU_REG,
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
    SINGLE_REG,
    Size,
    UNARY,
)
from repro.utils.bitops import transitions_count

#: The PASM prototype clock: 8 MHz MC68000s.
CLOCK_HZ = 8_000_000
#: Seconds per clock cycle (125 ns).
CYCLE_SECONDS = 1.0 / CLOCK_HZ


@dataclass(frozen=True)
class TimingInfo:
    """Cost of one instruction execution at zero wait states."""

    cycles: int
    stream_words: int
    data_reads: int = 0
    data_writes: int = 0
    #: Cycles not spent on the bus (ALU/microcode time).  Derived in
    #: ``__post_init__`` — a plain attribute because it is read once per
    #: simulated instruction.
    internal_cycles: int = field(init=False, default=0, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "internal_cycles",
            self.cycles
            - 4 * (self.stream_words + self.data_reads + self.data_writes),
        )

    @property
    def accesses(self) -> int:
        """Total 16-bit bus accesses."""
        return self.stream_words + self.data_reads + self.data_writes

    def with_wait_states(self, ws_stream: float, ws_data: float) -> float:
        """Total cycles with per-access wait states applied."""
        return (
            self.cycles
            + ws_stream * self.stream_words
            + ws_data * (self.data_reads + self.data_writes)
        )

    def __add__(self, other: "TimingInfo") -> "TimingInfo":
        return TimingInfo(
            self.cycles + other.cycles,
            self.stream_words + other.stream_words,
            self.data_reads + other.data_reads,
            self.data_writes + other.data_writes,
        )


def mulu_cycles(multiplier: int) -> int:
    """``MULU`` execution cycles (excluding EA) for a 16-bit multiplier."""
    return 38 + 2 * (multiplier & 0xFFFF).bit_count()

def muls_cycles(multiplier: int) -> int:
    """``MULS`` execution cycles (excluding EA) for a 16-bit multiplier."""
    return 38 + 2 * transitions_count(multiplier, 16)


#: MOVE destination adders, (cycles, extra stream words, data writes),
#: word/byte sizes.
_MOVE_DEST_W = {
    Mode.DREG: (0, 0, 0),
    Mode.AREG: (0, 0, 0),
    Mode.IND: (4, 0, 1),
    Mode.POSTINC: (4, 0, 1),
    Mode.PREDEC: (4, 0, 1),
    Mode.DISP: (8, 1, 1),
    Mode.INDEX: (10, 1, 1),
    Mode.ABS_W: (8, 1, 1),
    Mode.ABS_L: (12, 2, 1),
}
#: MOVE destination adders for long size.
_MOVE_DEST_L = {
    Mode.DREG: (0, 0, 0),
    Mode.AREG: (0, 0, 0),
    Mode.IND: (8, 0, 2),
    Mode.POSTINC: (8, 0, 2),
    Mode.PREDEC: (8, 0, 2),
    Mode.DISP: (12, 1, 2),
    Mode.INDEX: (14, 1, 2),
    Mode.ABS_W: (12, 1, 2),
    Mode.ABS_L: (16, 2, 2),
}

#: LEA effective-address times (cycles, stream words).
_LEA_TIME = {
    Mode.IND: (4, 1),
    Mode.DISP: (8, 2),
    Mode.INDEX: (12, 2),
    Mode.ABS_W: (8, 2),
    Mode.ABS_L: (12, 3),
    Mode.PCDISP: (8, 2),
}

#: JMP times (cycles, stream words).
_JMP_TIME = {
    Mode.IND: (8, 2),
    Mode.DISP: (10, 2),
    Mode.INDEX: (14, 3),
    Mode.ABS_W: (10, 2),
    Mode.ABS_L: (12, 3),
    Mode.PCDISP: (10, 2),
}

#: PEA times (cycles, stream words); all push a long address (2 writes).
_PEA_TIME = {
    Mode.IND: (12, 1),
    Mode.DISP: (16, 2),
    Mode.INDEX: (20, 2),
    Mode.ABS_W: (16, 2),
    Mode.ABS_L: (20, 3),
    Mode.PCDISP: (16, 2),
}

#: JSR times (cycles, stream words); all push a long return address.
_JSR_TIME = {
    Mode.IND: (16, 2),
    Mode.DISP: (18, 2),
    Mode.INDEX: (22, 2),
    Mode.ABS_W: (18, 2),
    Mode.ABS_L: (20, 3),
    Mode.PCDISP: (18, 2),
}


#: The two truly data-dependent multiplies (DIVU/DIVS are modelled with
#: constant worst-case times, so they cache like static instructions).
_MUL = frozenset(("MULU", "MULS"))

#: Families whose timing depends on runtime values/outcomes.  MUL reads
#: the 17-entry :func:`mul_timings` table of its source mode; the others
#: are memoized per *variant* on the instruction object: shifts by
#: count, branches/DBcc/Scc by outcome.
_DYNAMIC_TIMING = _MUL | SHIFTS | BRANCHES | DBCC | SCC


def instruction_timing(
    instr: Instruction,
    *,
    src_value: int | None = None,
    shift_count: int | None = None,
    branch_taken: bool | None = None,
    dbcc_expired: bool = False,
) -> TimingInfo:
    """Compute the manual timing of one execution of ``instr``.

    Parameters
    ----------
    src_value:
        Runtime source-operand value; required for ``MULU``/``MULS`` (the
        data-dependent multiplier).
    shift_count:
        Runtime shift count for the shift family (register-count form).
    branch_taken:
        Whether a conditional branch was taken (``BRA`` is always taken).
    dbcc_expired:
        For DBcc with the condition false: whether the counter expired
        (loop exit) rather than branching back.

    All timings are memoized — the interpreter's hottest path.  Static
    instructions cache a single :class:`TimingInfo` on the instruction;
    ``MULU``/``MULS`` index the shared :func:`mul_timings` table; the
    other data/outcome-dependent families cache one per variant (shift
    count, branch outcome) on the instruction, computed on first
    encounter.
    """
    cached = instr._static_timing_cache
    if cached is not None:
        return cached
    m = instr.mnemonic
    if m not in _DYNAMIC_TIMING:
        t = _instruction_timing_impl(
            instr,
            shift_count=shift_count,
            branch_taken=branch_taken,
            dbcc_expired=dbcc_expired,
        )
        instr._static_timing_cache = t
        return t
    if m in _MUL:
        if src_value is None:
            raise IllegalInstructionError(f"{m}: src_value required")
        n = (src_value & 0xFFFF).bit_count() if m == "MULU" \
            else transitions_count(src_value, 16)
        return mul_timings(instr)[n]
    variants = instr._variant_timing_cache
    if variants is None:
        variants = instr._variant_timing_cache = {}
    key = shift_count if m in SHIFTS else (branch_taken, dbcc_expired)
    t = variants.get(key)
    if t is None:
        t = _instruction_timing_impl(
            instr,
            shift_count=shift_count,
            branch_taken=branch_taken,
            dbcc_expired=dbcc_expired,
        )
        variants[key] = t
    return t


def mul_timings(instr: Instruction) -> tuple[TimingInfo, ...]:
    """The 17 timings of a ``MULU``/``MULS``, indexed by the ``n`` of
    ``38 + 2n`` (ones or transitions of the multiplier), plus EA time.

    The table depends only on the source's addressing mode, so every
    instruction with that mode shares one (TimingInfo is immutable).
    """
    return _mul_table(instr.operands[0].mode)


@lru_cache(maxsize=None)  # one entry per addressing mode
def _mul_table(mode: Mode) -> tuple[TimingInfo, ...]:
    ea = ea_timing(Operand(mode), 2)  # word source
    return tuple(
        TimingInfo(
            cycles=38 + 2 * n + ea.cycles,
            stream_words=1 + ea.stream_words,
            data_reads=ea.data_reads,
        )
        for n in range(17)
    )


def _instruction_timing_impl(
    instr: Instruction,
    *,
    shift_count: int | None = None,
    branch_taken: bool | None = None,
    dbcc_expired: bool = False,
) -> TimingInfo:
    m = instr.mnemonic
    size = instr.size or Size.WORD
    sz = size.bytes
    ops = instr.operands
    is_long = sz == 4

    if m == "MOVE" or m == "MOVEA":
        src, dst = ops
        ea = ea_timing(src, sz)
        dest_table = _MOVE_DEST_L if is_long else _MOVE_DEST_W
        dc, dw_stream, dw = dest_table[dst.mode]
        base = 4
        return TimingInfo(
            cycles=base + ea.cycles + dc,
            stream_words=1 + ea.stream_words + dw_stream,
            data_reads=ea.data_reads,
            data_writes=dw,
        )

    if m == "MOVEQ":
        return TimingInfo(4, 1)

    if m == "LEA":
        cycles, words = _LEA_TIME[ops[0].mode]
        return TimingInfo(cycles, words)

    if m == "EXG":
        return TimingInfo(6, 1)

    if m == "NOP":
        return TimingInfo(4, 1)

    if m == "HALT":
        return TimingInfo(4, 1)

    if m == "RTS":
        return TimingInfo(16, stream_words=2, data_reads=2)

    if m in SINGLE_REG:  # SWAP, EXT
        return TimingInfo(4, 1)

    if m in JUMPS:
        table = _JMP_TIME if m == "JMP" else _JSR_TIME
        cycles, words = table[ops[0].mode]
        writes = 2 if m == "JSR" else 0
        return TimingInfo(cycles, words, data_writes=writes)

    if m == "PEA":
        cycles, words = _PEA_TIME[ops[0].mode]
        return TimingInfo(cycles, words, data_writes=2)

    if m == "LINK":
        return TimingInfo(16, stream_words=2, data_writes=2)

    if m == "UNLK":
        return TimingInfo(12, stream_words=1, data_reads=2)

    if m == "CMPM":
        if is_long:
            return TimingInfo(20, stream_words=1, data_reads=4)
        return TimingInfo(12, stream_words=1, data_reads=2)

    if m in EXTENDED:  # ADDX / SUBX
        if ops[0].mode is Mode.DREG:
            return TimingInfo(8 if is_long else 4, 1)
        if is_long:
            return TimingInfo(30, stream_words=1, data_reads=4, data_writes=2)
        return TimingInfo(18, stream_words=1, data_reads=2, data_writes=1)

    if m in SCC:
        dst = ops[0]
        if dst.mode is Mode.DREG:
            if branch_taken is None:
                raise IllegalInstructionError(f"{m}: condition outcome required")
            return TimingInfo(6 if branch_taken else 4, 1)
        ea = ea_timing(dst, 1)
        return TimingInfo(
            8 + ea.cycles,
            1 + ea.stream_words,
            data_reads=ea.data_reads,
            data_writes=1,
        )

    if m in BITOPS:
        bit_src, dst = ops
        static = bit_src.mode is Mode.IMM
        extra_words = 1 if static else 0
        if dst.mode is Mode.DREG:
            base = {"BTST": 6, "BCHG": 8, "BSET": 8, "BCLR": 10}[m]
            if static:
                base += 4
            return TimingInfo(base, 1 + extra_words)
        ea = ea_timing(dst, 1)
        if m == "BTST":
            base = 8 if static else 4
            return TimingInfo(
                base + ea.cycles,
                1 + extra_words + ea.stream_words,
                data_reads=ea.data_reads,
            )
        base = 12 if static else 8
        return TimingInfo(
            base + ea.cycles,
            1 + extra_words + ea.stream_words,
            data_reads=ea.data_reads,
            data_writes=1,
        )

    if m == "MOVEM":
        n_regs = len(instr.reg_list or ())
        ea_words = instr.encoded_words() - 2  # EA extension words
        per_reg = 8 if is_long else 4
        if instr.movem_store:  # registers → memory
            cycles = 8 + per_reg * n_regs + 4 * ea_words
            return TimingInfo(
                cycles,
                stream_words=2 + ea_words,
                data_writes=(2 if is_long else 1) * n_regs,
            )
        # memory → registers; the hardware's extra prefetch read is folded
        # into internal time so the interpreter's bus-call count matches.
        cycles = 12 + per_reg * n_regs + 4 * ea_words
        return TimingInfo(
            cycles,
            stream_words=2 + ea_words,
            data_reads=(2 if is_long else 1) * n_regs,
        )

    if m in BRANCHES:
        if m == "BSR":
            return TimingInfo(18, stream_words=2, data_writes=2)
        taken = True if m == "BRA" else branch_taken
        if taken is None:
            raise IllegalInstructionError(f"{m}: branch_taken outcome required")
        if taken:
            return TimingInfo(10, 2)
        # Word-displacement encoding: not-taken costs 12(2/0).
        return TimingInfo(12, 2)

    if m in DBCC:
        if branch_taken is None:
            raise IllegalInstructionError(f"{m}: branch_taken outcome required")
        if branch_taken:  # condition false, counter not expired: loop back
            return TimingInfo(10, 2)
        if dbcc_expired:  # condition false, counter expired: fall through
            return TimingInfo(14, 3)
        return TimingInfo(12, 2)  # condition true: fall through

    if m in MULDIV:  # DIVU / DIVS (MULU/MULS: mul_timings)
        ea = ea_timing(ops[0], 2)  # word source
        # Worst-case constants; documented approximation (the exact
        # data-dependent divide time is not exercised by the paper).
        base = 140 if m == "DIVU" else 158
        return TimingInfo(
            cycles=base + ea.cycles,
            stream_words=1 + ea.stream_words,
            data_reads=ea.data_reads,
        )

    if m in SHIFTS:
        if shift_count is None:
            if ops[0].mode is Mode.IMM and isinstance(ops[0].value, int):
                shift_count = ops[0].value
            else:
                raise IllegalInstructionError(f"{m}: shift_count required")
        base = (8 if is_long else 6) + 2 * shift_count
        return TimingInfo(base, instr.encoded_words())

    if m in UNARY:  # CLR, NOT, NEG, TST
        dst = ops[0]
        if m == "TST":
            ea = ea_timing(dst, sz)
            return TimingInfo(
                4 + ea.cycles,
                1 + ea.stream_words,
                data_reads=ea.data_reads,
            )
        if dst.mode is Mode.DREG:
            return TimingInfo(6 if is_long else 4, 1)
        ea = ea_timing(dst, sz)
        base = 10 if m == "TAS" else (12 if is_long else 8)
        # CLR/NOT/NEG/NEGX/TAS on memory: read-modify-write; the EA read
        # is counted in ea, the write in data_writes.
        return TimingInfo(
            base + ea.cycles,
            1 + ea.stream_words,
            data_reads=ea.data_reads,
            data_writes=2 if is_long else 1,
        )

    if m in QUICK:  # ADDQ / SUBQ (#imm in opcode word)
        dst = ops[1]
        if dst.mode is Mode.DREG:
            return TimingInfo(8 if is_long else 4, 1)
        if dst.mode is Mode.AREG:
            return TimingInfo(8, 1)
        ea = ea_timing(dst, sz)
        base = 12 if is_long else 8
        return TimingInfo(
            base + ea.cycles,
            1 + ea.stream_words,
            data_reads=ea.data_reads,
            data_writes=2 if is_long else 1,
        )

    if m in ALU_IMM:  # ADDI/SUBI/ANDI/ORI/EORI/CMPI
        dst = ops[1]
        imm_words = 2 if is_long else 1
        if dst.mode is Mode.DREG:
            if m == "CMPI":
                cycles = 14 if is_long else 8
            else:
                cycles = 16 if is_long else 8
            return TimingInfo(cycles, 1 + imm_words)
        ea = ea_timing(dst, sz)
        if m == "CMPI":
            base = 12 if is_long else 8
            return TimingInfo(
                base + ea.cycles,
                1 + imm_words + ea.stream_words,
                data_reads=ea.data_reads,
            )
        base = 20 if is_long else 12
        return TimingInfo(
            base + ea.cycles,
            1 + imm_words + ea.stream_words,
            data_reads=ea.data_reads,
            data_writes=2 if is_long else 1,
        )

    if m in ALU_ADDR:  # ADDA / SUBA / CMPA
        src = ops[0]
        ea = ea_timing(src, sz)
        if m == "CMPA":
            base = 6
        elif is_long:
            base = 8 if src.mode in (Mode.DREG, Mode.AREG, Mode.IMM) else 6
        else:
            base = 8
        return TimingInfo(
            base + ea.cycles,
            1 + ea.stream_words,
            data_reads=ea.data_reads,
        )

    if m in ALU_REG:  # ADD/SUB/AND/OR/EOR/CMP
        src, dst = ops
        if dst.mode is Mode.DREG:
            ea = ea_timing(src, sz)
            if m == "CMP":
                base = 6 if is_long else 4
            elif is_long:
                base = 8 if src.mode in (Mode.DREG, Mode.AREG, Mode.IMM) else 6
            else:
                base = 4
            return TimingInfo(
                base + ea.cycles,
                1 + ea.stream_words,
                data_reads=ea.data_reads,
            )
        # memory destination (read-modify-write); source is Dn
        ea = ea_timing(dst, sz)
        base = 12 if is_long else 8
        return TimingInfo(
            base + ea.cycles,
            1 + ea.stream_words,
            data_reads=ea.data_reads,
            data_writes=2 if is_long else 1,
        )

    raise IllegalInstructionError(f"no timing rule for {m}")  # pragma: no cover
