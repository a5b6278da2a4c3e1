"""Instruction representation and static properties.

Instructions are kept as structured objects rather than binary encodings;
the *encoded word length* (opcode word + extension words) is still computed
exactly, because instruction-stream fetch counts are what the SIMD
Fetch-Unit-Queue speed advantage applies to.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ProgramError
from repro.m68k.addressing import Mode, Operand, extension_words


class Size(Enum):
    """Operation size suffix."""

    BYTE = 1
    WORD = 2
    LONG = 4

    @property
    def bytes(self) -> int:
        return self.value

    @property
    def suffix(self) -> str:
        return {1: "B", 2: "W", 4: "L"}[self.value]

    @classmethod
    def from_suffix(cls, s: str) -> "Size":
        try:
            return {"B": cls.BYTE, "W": cls.WORD, "L": cls.LONG}[s.upper()]
        except KeyError:
            raise ProgramError(f"unknown size suffix .{s}") from None


#: Branch condition mnemonics accepted for Bcc / DBcc.
CONDITIONS = (
    "T", "F", "HI", "LS", "CC", "HS", "CS", "LO", "NE", "EQ",
    "VC", "VS", "PL", "MI", "GE", "LT", "GT", "LE",
)

#: Instruction families, used by the interpreter dispatch and timing model.
ALU_REG = {"ADD", "SUB", "AND", "OR", "EOR", "CMP"}
ALU_ADDR = {"ADDA", "SUBA", "CMPA"}
ALU_IMM = {"ADDI", "SUBI", "ANDI", "ORI", "EORI", "CMPI"}
QUICK = {"ADDQ", "SUBQ"}
SHIFTS = {"LSL", "LSR", "ASL", "ASR", "ROL", "ROR", "ROXL", "ROXR"}
MULDIV = {"MULU", "MULS", "DIVU", "DIVS"}
UNARY = {"CLR", "NOT", "NEG", "NEGX", "TST", "TAS"}
SINGLE_REG = {"SWAP", "EXT"}
BRANCHES = {"BRA", "BSR"} | {f"B{c}" for c in CONDITIONS if c not in ("T", "F")}
DBCC = {f"DB{c}" for c in CONDITIONS} | {"DBRA"}
SCC = {f"S{c}" for c in CONDITIONS}
JUMPS = {"JMP", "JSR"}
BITOPS = {"BTST", "BSET", "BCLR", "BCHG"}
EXTENDED = {"ADDX", "SUBX"}  #: multi-precision arithmetic through X
#: The whole two-operand ALU family, for one-test interpreter dispatch.
ALU_ALL = frozenset(QUICK | ALU_IMM | ALU_ADDR | ALU_REG)
NO_OPERAND = {"NOP", "RTS", "HALT"}

#: All supported mnemonics.
ALL_MNEMONICS = (
    {"MOVE", "MOVEA", "MOVEQ", "LEA", "PEA", "EXG", "CMPM", "MOVEM",
     "LINK", "UNLK"}
    | ALU_REG | ALU_ADDR | ALU_IMM | QUICK | SHIFTS | MULDIV
    | UNARY | SINGLE_REG | BRANCHES | DBCC | SCC | JUMPS | BITOPS
    | EXTENDED | NO_OPERAND
)


@dataclass
class Instruction:
    """One decoded instruction.

    Attributes
    ----------
    mnemonic:
        Canonical upper-case mnemonic (``"MOVE"``, ``"MULU"``, ``"DBRA"``...).
    size:
        Operation size; ``None`` for unsized instructions (branches, LEA...).
    operands:
        Tuple of :class:`~repro.m68k.addressing.Operand`; branch targets are
        stored in :attr:`target` instead.
    target:
        Branch/jump label (resolved to an int address by the assembler's
        second pass for branches; JMP/JSR use an operand instead).
    timecat:
        Timing category for execution-time breakdowns — one of ``"mult"``,
        ``"comm"``, ``"control"``, ``"sync"``, ``"other"``.  Assigned from
        ``.timecat`` directives in assembly source.
    address:
        Byte address assigned by the assembler.
    line_no:
        Source line for diagnostics.
    """

    mnemonic: str
    size: Size | None = None
    operands: tuple[Operand, ...] = ()
    target: int | str | None = None
    timecat: str = "other"
    address: int = 0
    line_no: int = 0
    label: str | None = None
    #: MOVEM register list: tuple of ("D"|"A", number), transfer order.
    reg_list: tuple[tuple[str, int], ...] | None = None
    #: MOVEM direction: True = registers → memory.
    movem_store: bool = False
    #: Lazy caches (interpreter hot path); not part of the public API.
    _encoded_words_cache: int | None = None
    _size_bytes_cache: int | None = None
    _static_timing_cache: object = None
    #: The execute handler compiled by the interpreter
    #: (:func:`repro.m68k.cpu._resolve_handler`).
    _exec_handler_cache: object = None
    #: Per-variant timings for outcome-dependent instructions, keyed by
    #: shift count / branch outcome.
    _variant_timing_cache: dict | None = None

    def __post_init__(self) -> None:
        if self.mnemonic not in ALL_MNEMONICS:
            raise ProgramError(f"unsupported mnemonic {self.mnemonic!r}")

    # -- static structure -------------------------------------------------
    @property
    def condition(self) -> str | None:
        """Condition code for Bcc/DBcc/Scc mnemonics (``DBRA`` → ``F``)."""
        m = self.mnemonic
        if m == "DBRA":
            return "F"
        if m in DBCC:
            return m[2:]
        if m in BRANCHES and m not in ("BRA", "BSR"):
            return m[1:]
        if m in SCC:
            return m[1:]
        return None

    @property
    def size_bytes(self) -> int:
        sb = self._size_bytes_cache
        if sb is None:
            sb = (self.size or Size.WORD).bytes
            self._size_bytes_cache = sb
        return sb

    def encoded_words(self) -> int:
        """Encoded length in 16-bit words (opcode + extension words).

        This is the number of instruction-stream fetch accesses the
        instruction costs, which is exactly what flows through the Fetch
        Unit Queue in SIMD mode.  The value is cached: it depends only on
        operand modes, which never change after assembly.
        """
        if self._encoded_words_cache is not None:
            return self._encoded_words_cache
        self._encoded_words_cache = self._encoded_words()
        return self._encoded_words_cache

    def _encoded_words(self) -> int:
        m = self.mnemonic
        words = 1
        if m in BRANCHES:
            # We always encode branches with a word displacement (the
            # prototype programs were assembled for clarity, not size).
            return 2
        if m in DBCC:
            return 2
        if m == "MOVEQ":
            return 1
        if m in SHIFTS and len(self.operands) == 2 and (
            self.operands[0].mode is Mode.IMM
        ):
            # Quick shift count is encoded in the opcode word.
            return 1 + extension_words(self.operands[1], self.size_bytes)
        if m in QUICK:
            # ADDQ/SUBQ encode the immediate in the opcode word.
            return 1 + extension_words(self.operands[1], self.size_bytes)
        if m == "MOVEM":
            # opcode + register-mask word + EA extensions (the register
            # list lives in :attr:`reg_list`; operands hold only the EA).
            return 2 + extension_words(self.operands[0], 2)
        for op in self.operands:
            words += extension_words(op, self.size_bytes)
        return words

    def encoded_bytes(self) -> int:
        w = self._encoded_words_cache
        return 2 * w if w is not None else 2 * self.encoded_words()

    def __str__(self) -> str:
        name = self.mnemonic
        if self.size is not None:
            name = f"{name}.{self.size.suffix}"
        parts = [str(op) for op in self.operands]
        if self.reg_list is not None:
            text = "/".join(f"{k}{n}" for k, n in self.reg_list)
            parts.insert(0 if self.movem_store else len(parts), text)
        if self.target is not None:
            parts.append(
                self.target if isinstance(self.target, str) else f"${self.target:X}"
            )
        ops = ",".join(parts)
        return f"{name} {ops}".strip()


def _need_quick_data(m: str, op: Operand, what: str) -> None:
    """An immediate shift count or ADDQ/SUBQ datum must be 1..8 (the
    3-bit opcode field; 0 encodes 8).  A symbol the assembler has not
    resolved yet is checked again once it is."""
    if op.mode is Mode.IMM and isinstance(op.value, int) and not (
        1 <= op.value <= 8
    ):
        raise ProgramError(f"{m} {what} must be 1..8, got {op.value}")


def validate(instr: Instruction) -> None:
    """Sanity-check operand shapes for ``instr``; raise ProgramError if bad.

    This is not a full legality checker for the MC68000, but it catches the
    mistakes that matter when writing the PASM programs: wrong operand
    counts, illegal sources and destinations, byte operations on address
    registers, and quick data (shift counts, ADDQ/SUBQ) outside 1..8.
    Every form it accepts has 68000 semantics the interpreter executes.
    """
    m = instr.mnemonic
    ops = instr.operands
    n = len(ops)

    def need(count: int) -> None:
        if n != count:
            raise ProgramError(f"{m} needs {count} operand(s), got {n}")

    if m in NO_OPERAND:
        need(0)
        return
    if m in SCC:
        need(1)
        if not ops[0].mode.is_alterable or ops[0].mode is Mode.AREG:
            raise ProgramError(f"{m} destination must be data-alterable")
        return
    if m in BITOPS:
        need(2)
        if ops[0].mode not in (Mode.DREG, Mode.IMM):
            raise ProgramError(f"{m} bit number must be Dn or immediate")
        if ops[1].mode is Mode.AREG:
            raise ProgramError(f"{m} cannot target an address register")
        if m != "BTST" and not ops[1].mode.is_alterable:
            raise ProgramError(f"{m} destination not alterable: {ops[1]}")
        return
    if m == "CMPM":
        need(2)
        if ops[0].mode is not Mode.POSTINC or ops[1].mode is not Mode.POSTINC:
            raise ProgramError("CMPM requires (Ay)+,(Ax)+ operands")
        return
    if m in EXTENDED:  # ADDX / SUBX
        need(2)
        both_d = ops[0].mode is Mode.DREG and ops[1].mode is Mode.DREG
        both_p = ops[0].mode is Mode.PREDEC and ops[1].mode is Mode.PREDEC
        if not (both_d or both_p):
            raise ProgramError(f"{m} requires Dy,Dx or -(Ay),-(Ax)")
        return
    if m == "PEA":
        need(1)
        if ops[0].mode in (Mode.DREG, Mode.AREG, Mode.IMM, Mode.POSTINC,
                           Mode.PREDEC):
            raise ProgramError(f"illegal PEA source mode {ops[0].mode}")
        return
    if m == "MOVEM":
        need(1)
        if instr.reg_list is None or not instr.reg_list:
            raise ProgramError("MOVEM requires a register list")
        if not ops[0].mode.is_memory:
            raise ProgramError("MOVEM transfers to/from memory")
        if instr.size is Size.BYTE:
            raise ProgramError("MOVEM moves words or longs")
        if instr.movem_store and (ops[0].mode is Mode.POSTINC
                                  or not ops[0].mode.is_alterable):
            raise ProgramError(f"{instr}: MOVEM cannot store to {ops[0]}")
        if not instr.movem_store and ops[0].mode is Mode.PREDEC:
            raise ProgramError(f"{instr}: MOVEM cannot load from {ops[0]}")
        return
    if m == "LINK":
        need(2)
        if ops[0].mode is not Mode.AREG or ops[1].mode is not Mode.IMM:
            raise ProgramError("LINK requires An,#displacement")
        return
    if m == "UNLK":
        need(1)
        if ops[0].mode is not Mode.AREG:
            raise ProgramError("UNLK requires an address register")
        return
    if m in BRANCHES or m in DBCC:
        if m in DBCC:
            need(1)
            if ops[0].mode is not Mode.DREG:
                raise ProgramError(f"{m} loop counter must be a data register")
        else:
            need(0)
        if instr.target is None:
            raise ProgramError(f"{m} requires a branch target")
        return
    if m in JUMPS:
        need(1)
        if ops[0].mode not in (Mode.IND, Mode.DISP, Mode.INDEX, Mode.ABS_W,
                               Mode.ABS_L, Mode.PCDISP):
            raise ProgramError(f"illegal {m} target mode {ops[0].mode}")
        return
    if m in SINGLE_REG:
        need(1)
        if ops[0].mode is not Mode.DREG:
            raise ProgramError(f"{m} operates on a data register")
        if m == "EXT" and instr.size is Size.BYTE:
            raise ProgramError(f"{instr}: EXT extends to a word or a long")
        return
    if m in UNARY:
        need(1)
        if m != "TST" and not ops[0].mode.is_alterable:
            raise ProgramError(f"{m} destination not alterable: {ops[0]}")
        if m != "TST" and ops[0].mode is Mode.AREG:
            raise ProgramError(f"{instr}: {m} cannot target an address "
                               "register")
        return
    if m == "MOVEQ":
        need(2)
        if ops[0].mode is not Mode.IMM or ops[1].mode is not Mode.DREG:
            raise ProgramError("MOVEQ needs #imm,Dn")
        return
    if m == "LEA":
        need(2)
        if ops[1].mode is not Mode.AREG:
            raise ProgramError("LEA destination must be an address register")
        if ops[0].mode in (Mode.DREG, Mode.AREG, Mode.IMM, Mode.POSTINC,
                           Mode.PREDEC):
            raise ProgramError(f"illegal LEA source mode {ops[0].mode}")
        return
    if m == "EXG":
        need(2)
        if ops[0].mode not in (Mode.DREG, Mode.AREG) or ops[1].mode not in (
            Mode.DREG, Mode.AREG
        ):
            raise ProgramError("EXG needs two registers")
        return
    if m in MULDIV:
        need(2)
        if ops[1].mode is not Mode.DREG:
            raise ProgramError(f"{m} destination must be a data register")
        if ops[0].mode is Mode.AREG:
            raise ProgramError(f"{m} source may not be an address register")
        return
    if m in SHIFTS:
        need(2)
        if ops[0].mode not in (Mode.IMM, Mode.DREG):
            raise ProgramError(f"{m} count must be immediate or data register")
        if ops[1].mode is not Mode.DREG:
            raise ProgramError(f"{m} register form shifts a data register")
        _need_quick_data(m, ops[0], "shift count")
        return
    if m in ALU_IMM:
        need(2)
        if ops[0].mode is not Mode.IMM:
            raise ProgramError(f"{m} source must be immediate")
        if ops[1].mode is Mode.AREG:
            raise ProgramError(f"{m} cannot target an address register")
        if not ops[1].mode.is_alterable:
            raise ProgramError(f"{instr}: {m} destination not alterable")
        return

    def byte_an() -> bool:  # after need(2)
        return instr.size is Size.BYTE and Mode.AREG in (
            ops[0].mode, ops[1].mode
        )

    if m in QUICK:
        need(2)
        if ops[0].mode is not Mode.IMM:
            raise ProgramError(f"{m} source must be immediate")
        _need_quick_data(m, ops[0], "data")
        if byte_an():
            raise ProgramError(f"byte {m} cannot use an address register")
        if not ops[1].mode.is_alterable:
            raise ProgramError(f"{instr}: {m} destination not alterable")
        return
    if m in ALU_ADDR:
        need(2)
        if ops[1].mode is not Mode.AREG:
            raise ProgramError(f"{m} destination must be an address register")
        if byte_an():
            raise ProgramError(f"{m} moves words or longs")
        return
    if m in ALU_REG:
        need(2)
        if byte_an() and m in ("ADD", "SUB", "CMP"):
            raise ProgramError(f"byte {m} cannot use an address register")
        if m in ("AND", "OR") and ops[0].mode is Mode.AREG:
            raise ProgramError(f"{m} source may not be an address register")
        if m == "EOR" and ops[0].mode is not Mode.DREG:
            raise ProgramError("EOR source must be a data register")
        if ops[0].mode is not Mode.DREG and ops[1].mode is not Mode.DREG:
            if not (m == "CMP" and ops[1].mode is Mode.DREG):
                raise ProgramError(f"{m} needs a data-register operand")
        if m == "CMP" and ops[1].mode is not Mode.DREG:
            raise ProgramError("CMP destination must be a data register")
        if ops[1].mode is Mode.AREG:
            hint = f" (use {m}A)" if m in ("ADD", "SUB") else ""
            raise ProgramError(f"{instr}: {m} cannot target an address "
                               f"register{hint}")
        if not ops[1].mode.is_alterable:
            raise ProgramError(f"{instr}: {m} destination not alterable")
        return
    if m in ("MOVE", "MOVEA"):
        need(2)
        if m == "MOVEA" and ops[1].mode is not Mode.AREG:
            raise ProgramError("MOVEA destination must be an address register")
        if m == "MOVE" and not ops[1].mode.is_alterable:
            raise ProgramError(f"MOVE destination not alterable: {ops[1]}")
        if instr.size is Size.BYTE and (
            ops[0].mode is Mode.AREG or ops[1].mode is Mode.AREG
        ):
            raise ProgramError("byte MOVE cannot use address registers")
        return
    raise AssertionError(f"unhandled mnemonic {m}")  # pragma: no cover
