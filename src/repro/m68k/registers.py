"""MC68000 register file and condition codes.

Eight 32-bit data registers (D0–D7), eight 32-bit address registers
(A0–A7, A7 doubling as the stack pointer), a program counter, and the five
condition-code flags X N Z V C.

Partial-width writes follow MC68000 semantics: a byte or word write to a
data register merges into the low bits; *any* write to an address register
writes all 32 bits (word sources are sign-extended).
"""

from __future__ import annotations

from dataclasses import dataclass, field


MASK32 = 0xFFFF_FFFF


@dataclass(slots=True)
class ConditionCodes:
    """The MC68000 CCR flags."""

    x: bool = False  #: extend
    n: bool = False  #: negative
    z: bool = False  #: zero
    v: bool = False  #: overflow
    c: bool = False  #: carry

    def set_nz(self, value: int, size: int) -> None:
        """Set N and Z from a result of ``size`` bytes; clear V and C."""
        value &= (1 << (size * 8)) - 1
        self.n = bool(value >> (size * 8 - 1))
        self.z = value == 0
        self.v = False
        self.c = False

    def test(self, cond: str) -> bool:
        """Evaluate an MC68000 condition mnemonic (``EQ``, ``NE``, ...)."""
        # Hot path of every conditional branch/DBcc/Scc: an if-chain in
        # rough dynamic-frequency order, no per-call table construction.
        z = self.z
        if cond == "NE":
            return not z
        if cond == "EQ":
            return z
        n, v = self.n, self.v
        if cond == "LT":
            return n != v
        if cond == "GE":
            return n == v
        if cond == "GT":
            return (n == v) and not z
        if cond == "LE":
            return z or (n != v)
        c = self.c
        if cond in ("CC", "HS"):
            return not c
        if cond in ("CS", "LO"):
            return c
        if cond == "HI":
            return not c and not z
        if cond == "LS":
            return c or z
        if cond == "PL":
            return not n
        if cond == "MI":
            return n
        if cond == "VC":
            return not v
        if cond == "VS":
            return v
        if cond == "T":
            return True
        if cond == "F":
            return False
        upper = cond.upper()
        if upper != cond:
            return self.test(upper)
        raise ValueError(f"unknown condition code {cond!r}")

    def as_dict(self) -> dict[str, bool]:
        return {"X": self.x, "N": self.n, "Z": self.z, "V": self.v, "C": self.c}


@dataclass(slots=True)
class RegisterFile:
    """Data/address registers plus PC and CCR."""

    d: list[int] = field(default_factory=lambda: [0] * 8)
    a: list[int] = field(default_factory=lambda: [0] * 8)
    pc: int = 0
    ccr: ConditionCodes = field(default_factory=ConditionCodes)

    # -- data registers ---------------------------------------------------
    def read_d(self, n: int, size: int = 4) -> int:
        """Read the low ``size`` bytes of Dn (unsigned)."""
        v = self.d[n]
        if size == 4:
            return v
        return v & 0xFFFF if size == 2 else v & 0xFF

    @property
    def sp(self) -> int:
        """A7, the stack pointer."""
        return self.a[7]

    @sp.setter
    def sp(self, value: int) -> None:
        self.a[7] = value & MASK32

    def snapshot(self) -> dict[str, int]:
        """Return a readable register dump (for debugging and tests)."""
        out: dict[str, int] = {f"D{i}": v for i, v in enumerate(self.d)}
        out.update({f"A{i}": v for i, v in enumerate(self.a)})
        out["PC"] = self.pc
        return out
