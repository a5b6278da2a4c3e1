"""MC68000 addressing modes: representation, extension words, and EA timing.

Each operand of an instruction is an :class:`Operand` with a :class:`Mode`.
Two tables drive the timing model:

* :data:`EXTENSION_WORDS` — how many instruction-stream extension words the
  operand occupies (these are fetched from the Fetch Unit Queue in SIMD
  mode, from PE main memory in MIMD mode);
* :func:`ea_timing` — the manual's effective-address calculation times,
  split into cycles / instruction-stream reads / operand (data) reads.

Values are the published MC68000 tables (M68000UM, "Effective Address
Operand Calculation Timing").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class Mode(Enum):
    """MC68000 addressing modes (the subset the library uses)."""

    DREG = "Dn"  #: data register direct
    AREG = "An"  #: address register direct
    IND = "(An)"  #: address register indirect
    POSTINC = "(An)+"  #: indirect with post-increment
    PREDEC = "-(An)"  #: indirect with pre-decrement
    DISP = "d16(An)"  #: indirect with 16-bit displacement
    INDEX = "d8(An,Xn)"  #: indirect with index register
    ABS_W = "xxx.W"  #: absolute short
    ABS_L = "xxx.L"  #: absolute long
    PCDISP = "d16(PC)"  #: PC-relative with displacement
    IMM = "#imm"  #: immediate

    @property
    def is_register(self) -> bool:
        return self in (Mode.DREG, Mode.AREG)

    @property
    def is_memory(self) -> bool:
        """True when the operand dereferences memory (not reg / immediate)."""
        return not self.is_register and self is not Mode.IMM

    @property
    def is_alterable(self) -> bool:
        """True when the mode is a legal destination."""
        return self not in (Mode.PCDISP, Mode.IMM)


@dataclass(frozen=True)
class Operand:
    """One instruction operand.

    Attributes
    ----------
    mode:
        The addressing mode.
    reg:
        Register number for register-based modes.
    disp:
        Displacement for :attr:`Mode.DISP` / :attr:`Mode.INDEX` /
        :attr:`Mode.PCDISP`.
    value:
        Immediate value (:attr:`Mode.IMM`) or absolute address
        (:attr:`Mode.ABS_W` / :attr:`Mode.ABS_L`).  May be a string label
        before the assembler's second pass resolves it.
    index_reg:
        ``("D"|"A", number)`` for :attr:`Mode.INDEX`.
    """

    mode: Mode
    reg: int | None = None
    disp: int = 0
    value: int | str | None = None
    index_reg: tuple[str, int] | None = None

    def __str__(self) -> str:
        m = self.mode
        if m is Mode.DREG:
            return f"D{self.reg}"
        if m is Mode.AREG:
            return f"A{self.reg}"
        if m is Mode.IND:
            return f"(A{self.reg})"
        if m is Mode.POSTINC:
            return f"(A{self.reg})+"
        if m is Mode.PREDEC:
            return f"-(A{self.reg})"
        if m is Mode.DISP:
            return f"{self.disp}(A{self.reg})"
        if m is Mode.INDEX:
            kind, num = self.index_reg  # type: ignore[misc]
            return f"{self.disp}(A{self.reg},{kind}{num}.W)"
        if m is Mode.ABS_W:
            return f"({self.value}).W"
        if m is Mode.ABS_L:
            return f"({self.value}).L"
        if m is Mode.PCDISP:
            return f"{self.disp}(PC)"
        if m is Mode.IMM:
            return f"#{self.value}"
        raise AssertionError(m)


def dreg(n: int) -> Operand:
    """Shorthand constructor for a data-register operand."""
    return Operand(Mode.DREG, reg=n)


def areg(n: int) -> Operand:
    """Shorthand constructor for an address-register operand."""
    return Operand(Mode.AREG, reg=n)


def imm(value: int | str) -> Operand:
    """Shorthand constructor for an immediate operand."""
    return Operand(Mode.IMM, value=value)


def absl(value: int | str) -> Operand:
    """Shorthand constructor for an absolute-long operand."""
    return Operand(Mode.ABS_L, value=value)


#: Instruction-stream extension words per mode (word/byte operations).
#: Immediates of long size need one extra word (handled in extension_words).
EXTENSION_WORDS = {
    Mode.DREG: 0,
    Mode.AREG: 0,
    Mode.IND: 0,
    Mode.POSTINC: 0,
    Mode.PREDEC: 0,
    Mode.DISP: 1,
    Mode.INDEX: 1,
    Mode.ABS_W: 1,
    Mode.ABS_L: 2,
    Mode.PCDISP: 1,
    Mode.IMM: 1,
}


def extension_words(operand: Operand, size_bytes: int) -> int:
    """Number of extension words ``operand`` adds to the instruction."""
    n = EXTENSION_WORDS[operand.mode]
    if operand.mode is Mode.IMM and size_bytes == 4:
        n += 1
    return n


# (cycles, total_reads) for effective-address *operand fetch*; writes are
# accounted by the instruction tables.  Keyed by mode, for (byte/word, long).
_EA_TIME = {
    Mode.DREG: ((0, 0), (0, 0)),
    Mode.AREG: ((0, 0), (0, 0)),
    Mode.IND: ((4, 1), (8, 2)),
    Mode.POSTINC: ((4, 1), (8, 2)),
    Mode.PREDEC: ((6, 1), (10, 2)),
    Mode.DISP: ((8, 2), (12, 3)),
    Mode.INDEX: ((10, 2), (14, 3)),
    Mode.ABS_W: ((8, 2), (12, 3)),
    Mode.ABS_L: ((12, 3), (16, 4)),
    Mode.PCDISP: ((8, 2), (12, 3)),
    Mode.IMM: ((4, 1), (8, 2)),
}


@dataclass(frozen=True)
class EATime:
    """Effective-address cost split into stream fetches vs data reads."""

    cycles: int
    stream_words: int  #: extension words (instruction-stream reads)
    data_reads: int  #: operand memory reads (16-bit accesses)


@lru_cache(maxsize=None)
def _ea_time_cached(mode: Mode, is_long: bool) -> EATime:
    """The EA time depends only on (mode, long-or-not): 22 entries total."""
    cycles, reads = _EA_TIME[mode][1 if is_long else 0]
    if mode is Mode.IMM:
        # All immediate reads are instruction-stream fetches.
        stream, data = reads, 0
    else:
        stream = EXTENSION_WORDS[mode]
        data = reads - stream
    assert data >= 0, (mode, is_long)
    return EATime(cycles=cycles, stream_words=stream, data_reads=data)


def ea_timing(operand: Operand, size_bytes: int) -> EATime:
    """Manual EA time for *reading* the operand of the given size.

    The manual's read counts lump instruction-stream extension-word fetches
    with operand data reads; we split them so that per-region wait states
    (Fetch Unit Queue vs PE main memory) can be applied to the right
    accesses.
    """
    return _ea_time_cached(operand.mode, size_bytes == 4)
