"""Two-pass assembler for the MC68000 subset.

The PASM experiment programs were written in MC68000 assembly; this module
lets the reproduction do the same.  Source is classic Motorola syntax::

            .org    $1000
            .timecat control
            MOVEQ   #3,D4
    loop:   .timecat mult
            MOVE.W  (A0)+,D0
            MULU    D1,D0
            ADD.W   D0,(A1)+
            .timecat control
            DBRA    D4,loop
            HALT

            .data
    vec:    .dc.w   1,2,3
    buf:    .ds.w   64

Supported directives: ``.org``, ``.text``, ``.data``, ``.equ``, ``.dc.b/w/l``,
``.ds.b/w/l``, ``.even``, ``.timecat``.  Comments start with ``;`` or ``*``
(full-line).  Instructions are emitted as structured
:class:`~repro.m68k.instructions.Instruction` objects carrying their byte
address and encoded length, so instruction-stream fetch counts stay faithful
without binary encoding.

``.timecat`` tags following instructions with a timing category (``mult``,
``comm``, ``control``, ``sync``, ``other``); the machine model accumulates
per-category cycle counts from these tags, which is how the paper's
Figures 8–10 execution-time breakdowns are produced.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field

from repro.errors import AssemblerError
from repro.m68k.addressing import Mode, Operand
from repro.m68k.instructions import (
    ALL_MNEMONICS,
    BRANCHES,
    DBCC,
    Instruction,
    SCC,
    Size,
    validate,
)

#: Valid ``.timecat`` categories.
TIME_CATEGORIES = ("mult", "comm", "control", "sync", "other")

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_REG_RE = re.compile(r"^(D|A)([0-7])$", re.IGNORECASE)
_INDEX_RE = re.compile(
    r"^\(?A([0-7]),(D|A)([0-7])(?:\.([WL]))?\)$", re.IGNORECASE
)


@dataclass
class AssembledProgram:
    """Result of assembling one source file.

    Attributes
    ----------
    instructions:
        Mapping from byte address to :class:`Instruction`.
    entry:
        Address of the first instruction (or the ``.org`` of ``.text``).
    data:
        List of ``(address, bytes)`` initialized-data chunks.
    symbols:
        Label and ``.equ`` values.
    """

    instructions: dict[int, Instruction] = field(default_factory=dict)
    entry: int = 0
    data: list[tuple[int, bytes]] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)
    text_start: int = 0
    text_end: int = 0

    def listing(self) -> str:
        """Human-readable listing (address, category, instruction)."""
        lines = []
        for addr in sorted(self.instructions):
            ins = self.instructions[addr]
            label = f"{ins.label}:" if ins.label else ""
            lines.append(f"{addr:06X} {label:<12} {str(ins):<32} ;{ins.timecat}")
        return "\n".join(lines)

    def instruction_list(self) -> list[Instruction]:
        """Instructions in address order."""
        return [self.instructions[a] for a in sorted(self.instructions)]


class _Parser:
    """Operand / expression parsing helpers shared by both passes."""

    def __init__(self, symbols: dict[str, int]) -> None:
        self.symbols = symbols

    # -- expressions ------------------------------------------------------
    def eval_expr(self, text: str, line_no: int, *, allow_unresolved: bool) -> int | str:
        """Evaluate an integer expression; return the text when unresolved.

        Supports decimal, ``$hex``, ``%binary``, symbols, unary minus, and
        left-to-right ``+``/``-``/``*`` arithmetic.
        """
        text = text.strip()
        try:
            return self._eval(text)
        except KeyError:
            if allow_unresolved:
                return text
            raise AssemblerError(f"undefined symbol in {text!r}", line_no) from None
        except (ValueError, IndexError):
            raise AssemblerError(f"bad expression {text!r}", line_no) from None

    def _eval(self, text: str) -> int:
        tokens = re.findall(r"[\w.$%]+|[+\-*]", text.replace(" ", ""))
        if not tokens:
            raise ValueError("empty expression")
        # unary minus
        if tokens[0] in "+-":
            tokens.insert(0, "0")
        value = self._atom(tokens[0])
        i = 1
        while i < len(tokens):
            op, rhs = tokens[i], self._atom(tokens[i + 1])
            if op == "+":
                value += rhs
            elif op == "-":
                value -= rhs
            elif op == "*":
                value *= rhs
            else:
                raise ValueError(op)
            i += 2
        return value

    def _atom(self, tok: str) -> int:
        if tok.startswith("$"):
            return int(tok[1:], 16)
        if tok.startswith("%"):
            return int(tok[1:], 2)
        if tok[0].isdigit():
            return int(tok, 10)
        return self.symbols[tok]  # KeyError → unresolved

    # -- operands ---------------------------------------------------------
    def parse_operand(self, text: str, line_no: int) -> Operand:
        text = text.strip()
        if not text:
            raise AssemblerError("empty operand", line_no)

        # Immediate
        if text.startswith("#"):
            value = self.eval_expr(text[1:], line_no, allow_unresolved=True)
            return Operand(Mode.IMM, value=value)

        # Register direct
        m = _REG_RE.match(text)
        if m:
            kind, num = m.group(1).upper(), int(m.group(2))
            return Operand(Mode.DREG if kind == "D" else Mode.AREG, reg=num)
        if text.upper() == "SP":
            return Operand(Mode.AREG, reg=7)

        # Pre-decrement
        m = re.match(r"^-\(A([0-7])\)$", text, re.IGNORECASE)
        if m:
            return Operand(Mode.PREDEC, reg=int(m.group(1)))
        if text.upper() == "-(SP)":
            return Operand(Mode.PREDEC, reg=7)

        # Post-increment
        m = re.match(r"^\(A([0-7])\)\+$", text, re.IGNORECASE)
        if m:
            return Operand(Mode.POSTINC, reg=int(m.group(1)))
        if text.upper() == "(SP)+":
            return Operand(Mode.POSTINC, reg=7)

        # Indirect
        m = re.match(r"^\(A([0-7])\)$", text, re.IGNORECASE)
        if m:
            return Operand(Mode.IND, reg=int(m.group(1)))
        if text.upper() == "(SP)":
            return Operand(Mode.IND, reg=7)

        # Displacement / index / PC-relative: expr(...) or (...) with index
        m = re.match(r"^(.*?)\((.+)\)$", text)
        if m and not text.startswith("("):
            disp_text, inner = m.group(1), m.group(2)
            disp = self.eval_expr(disp_text, line_no, allow_unresolved=False) \
                if disp_text else 0
            inner_up = inner.upper().replace(" ", "")
            if inner_up == "PC":
                return Operand(Mode.PCDISP, disp=int(disp))
            idx = _INDEX_RE.match(inner + ")")
            if idx:
                if (idx.group(4) or "W").upper() == "L":
                    raise AssemblerError(
                        f"long index register in {text!r}: only the word "
                        "index (Xn.W) is supported", line_no
                    )
                base = int(idx.group(1))
                kind = idx.group(2).upper()
                num = int(idx.group(3))
                return Operand(
                    Mode.INDEX, reg=base, disp=int(disp), index_reg=(kind, num)
                )
            m2 = re.match(r"^A([0-7])$", inner_up)
            if m2:
                return Operand(Mode.DISP, reg=int(m2.group(1)), disp=int(disp))
            if inner_up == "SP":
                return Operand(Mode.DISP, reg=7, disp=int(disp))
            raise AssemblerError(f"bad operand {text!r}", line_no)

        # (expr).W / (expr).L absolute with explicit size
        m = re.match(r"^\((.+)\)\.([WL])$", text, re.IGNORECASE)
        if m:
            value = self.eval_expr(m.group(1), line_no, allow_unresolved=True)
            mode = Mode.ABS_W if m.group(2).upper() == "W" else Mode.ABS_L
            return Operand(mode, value=value)

        # expr.W absolute short
        m = re.match(r"^(.+)\.W$", text, re.IGNORECASE)
        if m and not _REG_RE.match(m.group(1)):
            value = self.eval_expr(m.group(1), line_no, allow_unresolved=True)
            return Operand(Mode.ABS_W, value=value)

        # bare expression → absolute long
        value = self.eval_expr(text, line_no, allow_unresolved=True)
        return Operand(Mode.ABS_L, value=value)


_REG_LIST_RE = re.compile(
    r"^(?:[DA][0-7](?:-[DA][0-7])?)(?:/(?:[DA][0-7](?:-[DA][0-7])?))*$",
    re.IGNORECASE,
)


def _parse_reg_list(text: str, line_no: int) -> tuple[tuple[str, int], ...] | None:
    """Parse a MOVEM register list like ``D0-D3/A0/A5``; None if not one."""
    text = text.strip()
    if not _REG_LIST_RE.match(text):
        return None
    regs: list[tuple[str, int]] = []
    for part in text.upper().split("/"):
        if "-" in part:
            lo, hi = part.split("-")
            if lo[0] != hi[0]:
                raise AssemblerError(
                    f"register range {part} mixes D and A registers", line_no
                )
            a, b = int(lo[1]), int(hi[1])
            if b < a:
                raise AssemblerError(f"descending register range {part}", line_no)
            regs += [(lo[0], n) for n in range(a, b + 1)]
        else:
            regs.append((part[0], int(part[1])))
    if len(set(regs)) != len(regs):
        raise AssemblerError(f"duplicate register in list {text!r}", line_no)
    return tuple(regs)


def _split_operands(text: str) -> list[str]:
    """Split an operand field on commas not inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _strip_comment(line: str) -> str:
    """Remove ``;`` comments (and ``*`` full-line comments)."""
    if line.lstrip().startswith("*"):
        return ""
    out = []
    for ch in line:
        if ch == ";":
            break
        out.append(ch)
    return "".join(out).rstrip()


#: The range each extension field of a resolved operand can hold.
_FIELDS = {
    Mode.INDEX: ("disp", -0x80, 0x7F),
    Mode.DISP: ("disp", -0x8000, 0x7FFF),
    Mode.PCDISP: ("disp", -0x8000, 0x7FFF),
    Mode.ABS_W: ("value", -0x8000, 0xFFFF),
}


def _check_fields(instr: Instruction) -> None:
    """Reject a displacement or absolute-short address that does not fit
    its extension field (it would wrap to another address)."""
    for op in instr.operands:
        field = _FIELDS.get(op.mode)
        if field is None:
            continue
        name, lo, hi = field
        value = getattr(op, name)
        if not lo <= value <= hi:
            raise AssemblerError(
                f"{op.mode.value} field {value} out of range {lo}..{hi} "
                f"in {op}", instr.line_no
            )


def _check(instr: Instruction) -> None:
    """:func:`validate`, reported as an :class:`AssemblerError` at the
    instruction's source line."""
    try:
        validate(instr)
    except Exception as exc:
        raise AssemblerError(str(exc), instr.line_no) from exc


def assemble(
    source: str,
    *,
    text_origin: int = 0x1000,
    data_origin: int = 0x8000,
    predefined: dict[str, int] | None = None,
) -> AssembledProgram:
    """Assemble ``source`` into an :class:`AssembledProgram`.

    Parameters
    ----------
    text_origin / data_origin:
        Default section origins (overridable with ``.org``).
    predefined:
        Symbols visible to the source (the machine model passes the
        memory-mapped device addresses and per-PE constants this way).
    """
    symbols: dict[str, int] = dict(predefined or {})
    parser = _Parser(symbols)
    program = AssembledProgram(symbols=symbols)

    # ---------------- pass 1: parse, lay out, collect symbols ----------
    parsed: list[Instruction] = []
    section = "text"
    counters = {"text": text_origin, "data": data_origin}
    program.text_start = text_origin
    entry_set = False
    timecat = "other"
    pending_label: str | None = None
    data_chunks: list[tuple[int, bytearray]] = []

    def here() -> int:
        return counters[section]

    def define_label(name: str, line_no: int) -> None:
        if name in symbols:
            raise AssemblerError(f"duplicate symbol {name!r}", line_no)
        symbols[name] = here()

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        # labels (possibly several, though one is typical)
        while True:
            m = _LABEL_RE.match(line.strip())
            if not m:
                break
            define_label(m.group(1), line_no)
            pending_label = m.group(1)
            line = line.strip()[m.end():]
        stmt = line.strip()
        if not stmt:
            continue

        fields = stmt.split(None, 1)
        word = fields[0]
        rest = fields[1] if len(fields) > 1 else ""

        # ---------------- directives ----------------
        if word.startswith("."):
            d = word.lower()
            if d == ".org":
                counters[section] = int(
                    parser.eval_expr(rest, line_no, allow_unresolved=False)
                )
                if section == "text" and not entry_set:
                    program.text_start = counters["text"]
            elif d == ".text":
                section = "text"
            elif d == ".data":
                section = "data"
            elif d == ".equ":
                parts = _split_operands(rest)
                if len(parts) != 2:
                    raise AssemblerError(".equ needs NAME,VALUE", line_no)
                name = parts[0]
                if name in symbols:
                    raise AssemblerError(f"duplicate symbol {name!r}", line_no)
                symbols[name] = int(
                    parser.eval_expr(parts[1], line_no, allow_unresolved=False)
                )
            elif d == ".even":
                if counters[section] % 2:
                    counters[section] += 1
            elif d == ".timecat":
                cat = rest.strip()
                if cat not in TIME_CATEGORIES:
                    raise AssemblerError(
                        f"unknown .timecat {cat!r}; expected one of "
                        f"{TIME_CATEGORIES}", line_no
                    )
                timecat = cat
            elif d in (".dc.b", ".dc.w", ".dc.l"):
                width = {"b": 1, "w": 2, "l": 4}[d[-1]]
                if section != "data":
                    raise AssemblerError(".dc only allowed in .data", line_no)
                if width > 1 and here() % 2:
                    raise AssemblerError("misaligned .dc", line_no)
                chunk = bytearray()
                for item in _split_operands(rest):
                    val = int(parser.eval_expr(item, line_no, allow_unresolved=False))
                    chunk += (val & ((1 << (8 * width)) - 1)).to_bytes(width, "big")
                data_chunks.append((here(), chunk))
                counters[section] += len(chunk)
            elif d in (".ds.b", ".ds.w", ".ds.l"):
                width = {"b": 1, "w": 2, "l": 4}[d[-1]]
                count = int(parser.eval_expr(rest, line_no, allow_unresolved=False))
                counters[section] += width * count
            else:
                raise AssemblerError(f"unknown directive {word!r}", line_no)
            continue

        # ---------------- instructions ----------------
        if section != "text":
            raise AssemblerError("instruction outside .text", line_no)
        mnemonic, _, size_suffix = word.upper().partition(".")
        size: Size | None = None
        if size_suffix:
            if mnemonic in BRANCHES or mnemonic in DBCC:
                size = None  # .S/.W on branches: encoding fixed at word disp
            else:
                size = Size.from_suffix(size_suffix)
        if mnemonic not in ALL_MNEMONICS:
            raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line_no)
        if size is None and mnemonic not in BRANCHES and mnemonic not in DBCC:
            # Default operation size is word (as in the prototype programs);
            # Scc and TAS are byte operations by definition.
            defaultable = {"MOVE", "MOVEA", "ADD", "SUB", "AND", "OR", "EOR",
                           "CMP", "ADDA", "SUBA", "CMPA", "ADDI", "SUBI",
                           "ANDI", "ORI", "EORI", "CMPI", "ADDQ", "SUBQ",
                           "CLR", "NOT", "NEG", "NEGX", "TST", "LSL", "LSR",
                           "ASL", "ASR", "ROL", "ROR", "ROXL", "ROXR", "EXT",
                           "CMPM", "ADDX", "SUBX", "MOVEM"}
            if mnemonic in defaultable:
                size = Size.WORD
            elif mnemonic == "TAS" or mnemonic in SCC:
                size = Size.BYTE

        operand_texts = _split_operands(rest)
        target: int | str | None = None
        if mnemonic in BRANCHES or mnemonic in DBCC:
            if not operand_texts:
                raise AssemblerError(f"{mnemonic} needs a target", line_no)
            target_text = operand_texts.pop()  # last operand is the target
            target = parser.eval_expr(target_text, line_no, allow_unresolved=True)

        reg_list = None
        movem_store = False
        if mnemonic == "MOVEM":
            if len(operand_texts) != 2:
                raise AssemblerError("MOVEM needs register-list,<ea> or "
                                     "<ea>,register-list", line_no)
            first_list = _parse_reg_list(operand_texts[0], line_no)
            second_list = _parse_reg_list(operand_texts[1], line_no)
            if first_list is not None and second_list is None:
                reg_list, movem_store = first_list, True
                operand_texts = [operand_texts[1]]
            elif second_list is not None and first_list is None:
                reg_list, movem_store = second_list, False
                operand_texts = [operand_texts[0]]
            else:
                raise AssemblerError(
                    "MOVEM needs exactly one register-list operand", line_no
                )

        operands = tuple(
            parser.parse_operand(t, line_no) for t in operand_texts
        )
        if mnemonic == "EOR" and operands and operands[0].mode is Mode.IMM:
            mnemonic = "EORI"  # EOR takes only Dn; #imm is EORI's spelling
        instr = Instruction(
            mnemonic=mnemonic,
            size=size,
            operands=operands,
            target=target,
            timecat=timecat,
            address=here(),
            line_no=line_no,
            label=pending_label,
            reg_list=reg_list,
            movem_store=movem_store,
        )
        pending_label = None
        _check(instr)
        parsed.append(instr)
        if not entry_set:
            program.entry = instr.address
            entry_set = True
        counters["text"] += instr.encoded_bytes()

    program.text_end = counters["text"]

    # ---------------- pass 2: resolve symbols ----------------
    def resolve_operand(op: Operand, line_no: int) -> Operand:
        if isinstance(op.value, str):
            value = parser.eval_expr(op.value, line_no, allow_unresolved=False)
            return dataclasses.replace(op, value=int(value))
        return op

    for instr in parsed:
        new_ops = tuple(resolve_operand(op, instr.line_no) for op in instr.operands)
        if new_ops != instr.operands:
            instr.operands = new_ops
            _check(instr)  # values only a resolved symbol reveals
        _check_fields(instr)
        if isinstance(instr.target, str):
            instr.target = int(
                parser.eval_expr(instr.target, instr.line_no, allow_unresolved=False)
            )
        program.instructions[instr.address] = instr

    program.data = [(addr, bytes(chunk)) for addr, chunk in data_chunks]
    return program
