"""Interpreter tests: instruction semantics, flags, control flow, and
end-to-end cycle accounting on the SimpleBus."""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.m68k.assembler import assemble
from repro.m68k.bus import SimpleBus
from repro.m68k.cpu import CPU, HaltReason
from repro.sim import Environment


def run_source(source, *, ws_stream=0, ws_data=0, setup=None, **asm_kwargs):
    """Assemble and run until HALT; return (cpu, bus, env)."""
    env = Environment()
    bus = SimpleBus(env, ws_stream=ws_stream, ws_data=ws_data)
    prog = assemble(source, **asm_kwargs)
    bus.load_program(prog)
    cpu = CPU(env, bus, name="test")
    cpu.reset(pc=prog.entry, sp=0x1_F000)
    if setup:
        setup(cpu, bus)
    env.run(until=env.process(cpu.run()))
    assert cpu.halted is HaltReason.HALT_INSTRUCTION
    return cpu, bus, env


class TestDataMovement:
    def test_moveq_sign_extends(self):
        cpu, _, _ = run_source("    MOVEQ #-1,D0\n    HALT")
        assert cpu.regs.d[0] == 0xFFFF_FFFF
        assert cpu.regs.ccr.n

    def test_move_word_to_register_preserves_upper(self):
        def setup(cpu, bus):
            cpu.regs.d[1] = 0xAAAA_0000

        cpu, _, _ = run_source("    MOVE.W #$1234,D1\n    HALT", setup=setup)
        assert cpu.regs.d[1] == 0xAAAA_1234

    def test_move_memory_roundtrip(self):
        cpu, bus, _ = run_source(
            """
            MOVE.W  #$BEEF,$4000
            MOVE.W  $4000,D2
            HALT
            """
        )
        assert bus.peek(0x4000, 2) == 0xBEEF
        assert cpu.regs.d[2] & 0xFFFF == 0xBEEF

    def test_movea_sign_extends_word(self):
        cpu, _, _ = run_source("    MOVEA.W #$8000,A0\n    HALT")
        assert cpu.regs.a[0] == 0xFFFF_8000

    def test_postincrement_steps_by_size(self):
        def setup(cpu, bus):
            cpu.regs.a[0] = 0x4000
            bus.poke(0x4000, 0x1111, 2)
            bus.poke(0x4002, 0x2222, 2)

        cpu, _, _ = run_source(
            """
            MOVE.W (A0)+,D0
            MOVE.W (A0)+,D1
            HALT
            """,
            setup=setup,
        )
        assert cpu.regs.d[0] & 0xFFFF == 0x1111
        assert cpu.regs.d[1] & 0xFFFF == 0x2222
        assert cpu.regs.a[0] == 0x4004

    def test_predecrement(self):
        def setup(cpu, bus):
            cpu.regs.a[1] = 0x4004

        cpu, bus, _ = run_source(
            "    MOVE.W #7,-(A1)\n    HALT", setup=setup
        )
        assert cpu.regs.a[1] == 0x4002
        assert bus.peek(0x4002, 2) == 7

    def test_displacement_addressing(self):
        def setup(cpu, bus):
            cpu.regs.a[2] = 0x4000
            bus.poke(0x4008, 0x5A5A, 2)

        cpu, _, _ = run_source("    MOVE.W 8(A2),D3\n    HALT", setup=setup)
        assert cpu.regs.d[3] & 0xFFFF == 0x5A5A

    def test_index_addressing(self):
        def setup(cpu, bus):
            cpu.regs.a[0] = 0x4000
            cpu.regs.d[1] = 6
            bus.poke(0x4000 + 6 + 2, 0x77, 2)

        cpu, _, _ = run_source("    MOVE.W 2(A0,D1.W),D0\n    HALT", setup=setup)
        assert cpu.regs.d[0] & 0xFFFF == 0x77

    def test_lea(self):
        def setup(cpu, bus):
            cpu.regs.a[0] = 0x4000

        cpu, _, _ = run_source("    LEA 16(A0),A1\n    HALT", setup=setup)
        assert cpu.regs.a[1] == 0x4010

    def test_swap_and_exg(self):
        def setup(cpu, bus):
            cpu.regs.d[0] = 0x1234_5678
            cpu.regs.a[3] = 0x9ABC_DEF0

        cpu, _, _ = run_source(
            "    SWAP D0\n    EXG D0,A3\n    HALT", setup=setup
        )
        assert cpu.regs.a[3] == 0x5678_1234
        assert cpu.regs.d[0] == 0x9ABC_DEF0

    def test_move_long(self):
        cpu, bus, _ = run_source(
            """
            MOVE.L #$12345678,D0
            MOVE.L D0,$4000
            HALT
            """
        )
        assert bus.peek(0x4000, 4) == 0x1234_5678


class TestArithmetic:
    def test_add_and_flags(self):
        cpu, _, _ = run_source(
            "    MOVE.W #$7FFF,D0\n    ADD.W #1,D0\n    HALT"
        )
        assert cpu.regs.d[0] & 0xFFFF == 0x8000
        assert cpu.regs.ccr.v and cpu.regs.ccr.n and not cpu.regs.ccr.c

    def test_add_carry(self):
        cpu, _, _ = run_source(
            "    MOVE.W #$FFFF,D0\n    ADD.W #1,D0\n    HALT"
        )
        assert cpu.regs.d[0] & 0xFFFF == 0
        assert cpu.regs.ccr.c and cpu.regs.ccr.z and cpu.regs.ccr.x

    def test_sub_borrow(self):
        cpu, _, _ = run_source(
            "    MOVE.W #3,D0\n    SUB.W #5,D0\n    HALT"
        )
        assert cpu.regs.d[0] & 0xFFFF == 0xFFFE
        assert cpu.regs.ccr.c and cpu.regs.ccr.n

    def test_cmp_does_not_store(self):
        cpu, _, _ = run_source(
            "    MOVE.W #9,D0\n    CMP.W #9,D0\n    HALT"
        )
        assert cpu.regs.d[0] & 0xFFFF == 9
        assert cpu.regs.ccr.z

    def test_memory_destination_add(self):
        cpu, bus, _ = run_source(
            """
            MOVE.W  #10,$4000
            MOVE.W  #32,D0
            ADD.W   D0,$4000
            HALT
            """
        )
        assert bus.peek(0x4000, 2) == 42

    def test_addq_subq(self):
        cpu, _, _ = run_source(
            "    MOVEQ #10,D0\n    ADDQ.W #5,D0\n    SUBQ.W #1,D0\n    HALT"
        )
        assert cpu.regs.d[0] & 0xFFFF == 14

    def test_adda_no_flags(self):
        def setup(cpu, bus):
            cpu.regs.a[0] = 0x4000
            cpu.regs.ccr.z = True

        cpu, _, _ = run_source("    ADDA.W #$10,A0\n    HALT", setup=setup)
        assert cpu.regs.a[0] == 0x4010
        assert cpu.regs.ccr.z  # unchanged

    def test_mulu_result(self):
        cpu, _, _ = run_source(
            """
            MOVE.W  #300,D0
            MOVE.W  #500,D1
            MULU    D0,D1
            HALT
            """
        )
        assert cpu.regs.d[1] == 150_000

    def test_mulu_unsigned_interpretation(self):
        cpu, _, _ = run_source(
            """
            MOVE.W  #$FFFF,D0
            MOVE.W  #2,D1
            MULU    D0,D1
            HALT
            """
        )
        assert cpu.regs.d[1] == 0xFFFF * 2

    def test_muls_signed(self):
        cpu, _, _ = run_source(
            """
            MOVE.W  #-3,D0
            MOVE.W  #7,D1
            MULS    D0,D1
            HALT
            """
        )
        assert cpu.regs.d[1] == (-21) & 0xFFFF_FFFF

    def test_logic_ops(self):
        cpu, _, _ = run_source(
            """
            MOVE.W  #$F0F0,D0
            AND.W   #$FF00,D0
            OR.W    #$000F,D0
            EOR.W   #$0001,D0
            HALT
            """
        )
        assert cpu.regs.d[0] & 0xFFFF == 0xF00E

    def test_shifts(self):
        cpu, _, _ = run_source(
            """
            MOVE.W  #1,D0
            LSL.W   #4,D0
            MOVE.W  #$8000,D1
            LSR.W   #1,D1
            HALT
            """
        )
        assert cpu.regs.d[0] & 0xFFFF == 16
        assert cpu.regs.d[1] & 0xFFFF == 0x4000

    def test_clr_not_neg(self):
        cpu, _, _ = run_source(
            """
            MOVE.W  #5,D0
            NEG.W   D0
            MOVE.W  #$00FF,D1
            NOT.W   D1
            MOVE.W  #3,D2
            CLR.W   D2
            HALT
            """
        )
        assert cpu.regs.d[0] & 0xFFFF == 0xFFFB
        assert cpu.regs.d[1] & 0xFFFF == 0xFF00
        assert cpu.regs.d[2] & 0xFFFF == 0
        assert cpu.regs.ccr.z

    def test_ext(self):
        cpu, _, _ = run_source(
            "    MOVE.W #$FFFF,D0\n    EXT.L D0\n    HALT"
        )
        assert cpu.regs.d[0] == 0xFFFF_FFFF

    def test_divu(self):
        cpu, _, _ = run_source(
            """
            MOVE.L  #100007,D0
            MOVE.W  #10,D1
            DIVU    D1,D0
            HALT
            """
        )
        assert cpu.regs.d[0] & 0xFFFF == 10000  # quotient
        assert (cpu.regs.d[0] >> 16) & 0xFFFF == 7  # remainder


class TestControlFlow:
    def test_dbra_loop_count(self):
        cpu, _, _ = run_source(
            """
            MOVEQ   #0,D0
            MOVE.W  #9,D1
    loop:   ADDQ.W  #1,D0
            DBRA    D1,loop
            HALT
            """
        )
        assert cpu.regs.d[0] & 0xFFFF == 10  # DBRA executes count+1 times

    def test_conditional_branch(self):
        cpu, _, _ = run_source(
            """
            MOVE.W  #5,D0
            CMP.W   #5,D0
            BEQ     equal
            MOVEQ   #0,D1
            BRA     done
    equal:  MOVEQ   #1,D1
    done:   HALT
            """
        )
        assert cpu.regs.d[1] == 1

    def test_bne_loop(self):
        cpu, _, _ = run_source(
            """
            MOVEQ   #0,D0
            MOVE.W  #5,D1
    loop:   ADDQ.W  #1,D0
            SUBQ.W  #1,D1
            BNE     loop
            HALT
            """
        )
        assert cpu.regs.d[0] & 0xFFFF == 5

    def test_jsr_rts(self):
        cpu, _, _ = run_source(
            """
            MOVEQ   #0,D0
            JSR     sub
            ADDQ.W  #1,D0
            HALT
    sub:    MOVE.W  #10,D0
            RTS
            """
        )
        assert cpu.regs.d[0] & 0xFFFF == 11

    def test_bsr_rts_nested(self):
        cpu, _, _ = run_source(
            """
            MOVEQ   #0,D0
            BSR     one
            HALT
    one:    BSR     two
            ADDQ.W  #1,D0
            RTS
    two:    ADDQ.W  #2,D0
            RTS
            """
        )
        assert cpu.regs.d[0] & 0xFFFF == 3

    def test_jmp_indirect(self):
        cpu, _, _ = run_source(
            """
            LEA     there,A0
            JMP     (A0)
            MOVEQ   #0,D0
            HALT
    there:  MOVEQ   #9,D0
            HALT
            """
        )
        assert cpu.regs.d[0] == 9

    def test_dbcc_exits_on_condition(self):
        # DBEQ: exit the loop early when Z becomes set.
        cpu, _, _ = run_source(
            """
            MOVEQ   #0,D0
            MOVE.W  #100,D1
    loop:   ADDQ.W  #1,D0
            CMP.W   #4,D0
            DBEQ    D1,loop
            HALT
            """
        )
        assert cpu.regs.d[0] & 0xFFFF == 4


class TestCycleAccounting:
    def test_straight_line_cycle_total(self):
        # MOVEQ(4) + MOVE.W #,Dn(8) + ADD Dn,Dn(4) + MULU(38+2*ones(3)=42)
        # + HALT(4) = 62 at zero wait states.
        cpu, bus, env = run_source(
            """
            MOVEQ   #3,D0
            MOVE.W  #3,D1
            ADD.W   D1,D1
            MULU    D0,D1
            HALT
            """
        )
        assert env.now == 4 + 8 + 4 + 42 + 4

    def test_wait_states_stretch_stream_accesses(self):
        src = "    NOP\n    NOP\n    HALT"
        _, _, env0 = run_source(src)
        _, _, env1 = run_source(src, ws_stream=1)
        # three single-word instructions → 3 extra cycles
        assert env1.now - env0.now == 3

    def test_wait_states_stretch_data_accesses(self):
        src = """
            MOVE.W  #1,$4000
            MOVE.W  $4000,D0
            HALT
            """
        _, _, env0 = run_source(src)
        _, _, env1 = run_source(src, ws_data=2)
        # one data write + one data read → 2 accesses * 2 ws = 4 cycles
        assert env1.now - env0.now == 4

    def test_dbra_loop_timing(self):
        # Loop body: ADDQ.W #1,D0 (4) + DBRA taken (10); final: DBRA
        # expired (14).  3 iterations: 2*(4+10) + (4+14).
        cpu, bus, env = run_source(
            """
            MOVE.W  #2,D1
    loop:   ADDQ.W  #1,D0
            DBRA    D1,loop
            HALT
            """
        )
        assert env.now == 8 + 2 * 14 + 18 + 4

    def test_category_cycles_accumulate(self):
        cpu, _, env = run_source(
            """
            .timecat mult
            MOVE.W  #15,D0
            MULU    D0,D1
            .timecat control
            HALT
            """
        )
        assert cpu.category_cycles["mult"] == 8 + (38 + 8)
        assert cpu.category_cycles["control"] == 4
        assert sum(cpu.category_cycles.values()) == env.now

    def test_instruction_count(self):
        cpu, _, _ = run_source("    NOP\n    NOP\n    NOP\n    HALT")
        assert cpu.instruction_count == 4

    def test_mulu_data_dependent_time(self):
        def run_with_multiplier(value):
            cpu, _, env = run_source(
                f"""
                MOVE.W  #{value},D0
                MULU    D0,D1
                HALT
                """
            )
            return env.now

        base = run_with_multiplier(0)
        assert run_with_multiplier(1) == base + 2
        assert run_with_multiplier(0xFFFF) == base + 32
        assert run_with_multiplier(0x00FF) == base + 16


# ---------------------------------------------------------------------------
# Instruction semantics against the M68000 manual.
#
# Each property runs one instruction from hypothesis-drawn registers,
# flags and memory, then checks every register, the five flags, the
# operand memory and (where the manual's time depends on the operands or
# the outcome) the cycles against a model written from the manual's
# definitions.  The bus serves every access through its fast twins,
# refuses them all (the generator protocol), or serves reads but refuses
# writes.  ``oracle`` registers each property, and ``test_oracle_deep``
# (``slow``) runs every one of them at DEEP_EXAMPLES examples per bus.

MEM_LO, MEM_HI = 0x4000, 0xA000
#: Address registers start in [A_LO, A_HI]: a step, a displacement or a
#: small index from there stays in the operand memory, and so does the
#: sum of two of them (an address register used as a word index).
A_LO, A_HI = 0x4100, 0x4F00
TEXT = 0x1000  #: the assembler's text origin, where the instruction runs
NO_FLAGS = dict.fromkeys("xnzvc", False)
BUS_KINDS = ("twins", "refused", "reads only")
BUSES = pytest.mark.parametrize("bus", BUS_KINDS)
DEEP_EXAMPLES = 2000
SIZES = {"B": 1, "W": 2, "L": 4}
CONDS = ("T", "F", "HI", "LS", "CC", "CS", "NE", "EQ", "VC", "VS", "PL",
         "MI", "GE", "LT", "GT", "LE")

AN_MODES = ("(An)", "(An)+", "-(An)", "d16(An)")
INDEXED = ("d8(An,Dn.W)", "d8(An,An.W)")
ABSOLUTE = ("(xxx).W", "(xxx).L")
#: Every alterable memory mode, and every memory mode a source may use.
MEM_MODES = AN_MODES + INDEXED + ABSOLUTE
SRC_MODES = MEM_MODES + ("d16(PC)",)
#: The control modes: an address without an access of its own.
CONTROL = ("(An)", "d16(An)") + INDEXED + ABSOLUTE + ("d16(PC)",)
#: Word-operand effective-address times from the manual's table.
EA_CYCLES = {"Dn": 0, "#": 4, "(An)": 4, "(An)+": 4, "-(An)": 6,
             "d16(An)": 8, "d8(An,Dn.W)": 10, "d8(An,An.W)": 10,
             "(xxx).W": 8, "(xxx).L": 12, "d16(PC)": 8}

ORACLES = []


def oracle(max_examples, **strategies):
    """Register a manual-oracle property and run it on every bus with
    ``max_examples`` examples per bus."""
    def register(body):
        ORACLES.append((body, strategies))
        return BUSES(given(**strategies)(
            settings(max_examples=max_examples, deadline=None)(body)))
    return register


#: 32-bit values: hypothesis's own (small and boundary-heavy), sign and
#: carry edges, and uniform bits (sign bits set half the time).
LONGS = st.one_of(
    st.integers(0, 0xFFFF_FFFF),
    st.sampled_from([0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF,
                     0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF]),
    st.randoms(use_true_random=False).map(lambda r: r.getrandbits(32)),
)


@st.composite
def machine_state(draw):
    """Registers (address registers even, in [A_LO, A_HI]), the five
    flags, and a seed for the operand memory's contents."""
    d = draw(st.lists(LONGS, min_size=8, max_size=8))
    a = draw(st.lists(st.integers(A_LO // 2, A_HI // 2)
                      .map(lambda w: 2 * w), min_size=8, max_size=8))
    flags = draw(st.fixed_dictionaries(
        {f: st.booleans() for f in "xnzvc"}))
    return d, a, flags, draw(st.integers(0, 2**32))


def indexed(state, *ops):
    """``state`` with the low word of each ``d8(An,Dn.W)`` operand's index
    register set to the operand's drawn index word (the upper word stays
    as drawn: a word index ignores it)."""
    d = list(state[0])
    for kind, _, v in ops:
        if kind == "d8(An,Dn.W)" and v[2] is not None:
            d[v[1]] = d[v[1]] & 0xFFFF_0000 | v[2] % 0x10000
    return (d,) + tuple(state[1:])


class ReadsOnlyBus(SimpleBus):
    """Fast twins serve reads and refuse writes."""

    def try_write(self, addr, value, size):
        return False


def execute(line, state, kind):
    """Run ``line`` then HALT on a ``BUSES`` bus; return (cpu, memory
    bytes, cycles).  A branch target ``there`` (a second HALT) follows."""
    d, a, flags, seed = state
    env = Environment()
    bus = (ReadsOnlyBus if kind == "reads only" else SimpleBus)(
        env, fast_path=kind != "refused")
    bus.memory[MEM_LO:MEM_HI] = random.Random(seed).randbytes(MEM_HI - MEM_LO)
    prog = assemble(f"    {line}\n    HALT\nthere:  HALT")
    bus.load_program(prog)
    cpu = CPU(env, bus)
    cpu.reset(pc=prog.entry)
    cpu.regs.d[:], cpu.regs.a[:] = d, a
    for f, v in flags.items():
        setattr(cpu.regs.ccr, f, v)
    env.run(until=env.process(cpu.run()))
    return cpu, bytes(bus.memory[MEM_LO:MEM_HI]), env.now - 4


def signed(value, size):
    bits = 8 * size
    return value - (1 << bits) if value >> (bits - 1) else value


class Model:
    """The manual's view of one instruction: registers, flags, memory."""

    def __init__(self, state):
        d, a, flags, seed = state
        self.d, self.a = list(d), list(a)
        self.f = dict(flags)
        self.mem = bytearray(random.Random(seed).randbytes(MEM_HI - MEM_LO))

    def ea(self, op, size, ext=0):
        """Address of a memory operand, applying its register update.  A
        PC-relative displacement counts from its extension word, which
        ``ext`` earlier extension words push past the opcode word."""
        kind, r, v = op
        step = 2 if r == 7 and size == 1 else size  # A7 stays word-aligned
        if kind == "(An)+":
            self.a[r] += step
            return self.a[r] - step
        if kind == "-(An)":
            self.a[r] -= step
            return self.a[r]
        if kind in INDEXED:
            index = (self.d if kind == "d8(An,Dn.W)" else self.a)[v[1]]
            return self.a[r] + v[0] + signed(index % 0x10000, 2)
        if kind == "(xxx).W":
            return signed(v % 0x10000, 2)
        if kind == "(xxx).L":
            return v
        if kind == "d16(PC)":
            return TEXT + 2 + 2 * ext + v
        return self.a[r] + (v if kind == "d16(An)" else 0)

    def peek(self, addr, size):
        return int.from_bytes(self.mem[addr - MEM_LO:addr - MEM_LO + size],
                              "big")

    def poke(self, addr, value, size):
        self.mem[addr - MEM_LO:addr - MEM_LO + size] = \
            (value % 256 ** size).to_bytes(size, "big")

    def load(self, op, size, ext=0):
        kind, r, value = op
        if kind == "Dn":
            return self.d[r] % 256 ** size
        if kind == "An":
            return self.a[r] % 256 ** size
        if kind == "#":
            return value
        return self.peek(self.ea(op, size, ext), size)

    def store(self, op, size, value, addr=None):
        kind, r, _ = op
        value %= 256 ** size
        if kind == "Dn":
            low = 256 ** size
            self.d[r] = self.d[r] - self.d[r] % low + value
            return
        self.poke(self.ea(op, size) if addr is None else addr, value, size)

    def nz(self, value, size):
        self.f["n"] = value >= 128 * 256 ** (size - 1)
        self.f["z"] = value == 0

    def arith(self, base, old, value, size):
        """ADD, SUB or CMP of ``old`` and ``value``: the flags; returns
        the result."""
        add = base == "ADD"
        result = old + value if add else old - value
        exact = signed(old, size) + signed(value, size) if add \
            else signed(old, size) - signed(value, size)
        self.f["c"] = result >= 256 ** size if add else value > old
        if base != "CMP":
            self.f["x"] = self.f["c"]  # CMP leaves X alone
        self.f["v"] = not -128 * 256 ** (size - 1) <= exact \
            < 128 * 256 ** (size - 1)
        result %= 256 ** size
        self.nz(result, size)
        return result

    def muldiv(self, m, value, dn):
        """MULU/MULS/DIVU/DIVS of ``value`` into Dn; returns the manual's
        cycles before the source's effective-address time."""
        dst = self.d[dn]
        if m in ("MULU", "MULS"):
            product = value * (dst & 0xFFFF) if m == "MULU" \
                else signed(value, 2) * signed(dst & 0xFFFF, 2)
            self.d[dn] = product % 2**32
            self.nz(self.d[dn], 4)
            self.f["v"] = self.f["c"] = False  # X untouched
            bits = f"{value:016b}0"  # MULS: a 0 appended at the LSB end
            n = bin(value).count("1") if m == "MULU" \
                else sum(x != y for x, y in zip(bits, bits[1:]))
            return 38 + 2 * n
        if m == "DIVU":
            quot, rem = divmod(dst, value)
        else:  # DIVS: the quotient rounds toward zero
            a, b = signed(dst, 4), signed(value, 2)
            quot = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
            rem = a - quot * b
        self.f["c"] = False
        if not (0 <= quot <= 0xFFFF if m == "DIVU"
                else -0x8000 <= quot <= 0x7FFF):
            self.f["v"] = True  # overflow: the register is unchanged
        else:
            self.d[dn] = rem % 0x10000 << 16 | quot % 0x10000
            self.nz(quot % 0x10000, 2)
            self.f["v"] = False
        return 140 if m == "DIVU" else 158

    def check(self, cpu, mem):
        assert cpu.regs.d == self.d
        assert cpu.regs.a == self.a
        assert cpu.regs.ccr.as_dict() == {k.upper(): v
                                          for k, v in self.f.items()}
        assert mem == bytes(self.mem)


def text(op):
    kind, r, v = op
    if kind in INDEXED:
        return f"{v[0]}(A{r},{kind[6]}{v[1]}.W)"
    return {"Dn": f"D{r}", "An": f"A{r}", "#": f"#{v}", "(An)": f"(A{r})",
            "(An)+": f"(A{r})+", "-(An)": f"-(A{r})",
            "d16(An)": f"{v}(A{r})", "(xxx).W": f"({v}).W",
            "(xxx).L": f"({v}).L", "d16(PC)": f"{v}(PC)"}[kind]


def operand(kinds, size):
    """Strategy for an operand of one of ``kinds`` whose address, and the
    64 bytes above it, lie in the operand memory.  A7 is drawn as often
    as the other registers, so its byte step is exercised; a data index
    register's word runs from -0x80 to 0x400 (see ``indexed``)."""
    def build(kind, r, x, v, w):
        if kind == "#":
            return kind, 0, v % 256 ** size
        if kind == "d16(An)":
            return kind, r, v % 128 * 2 - 128
        if kind in INDEXED:
            return kind, r, (v % 128 * 2 - 128, x, w)
        if kind in ABSOLUTE:
            return kind, 0, MEM_LO + v % 0x1800 * 2
        if kind == "d16(PC)":
            return kind, 0, MEM_LO + v % 0x1800 * 2 - (TEXT + 2)
        return kind, r, 0

    return st.builds(build, st.sampled_from(kinds), st.integers(0, 7),
                     st.integers(0, 7), LONGS,
                     st.integers(-0x40, 0x200).map(lambda w: 2 * w))


def control_operand(kinds):
    """Strategy for a control operand whose address is computed but never
    accessed: displacements, indexes and absolute values span their
    whole encodable ranges."""
    def build(kind, r, x, v):
        if kind in ("d16(An)", "d16(PC)", "(xxx).W"):
            return kind, r, signed(v % 0x10000, 2)
        if kind in INDEXED:
            return kind, r, (signed(v % 0x100, 1), x, None)
        return kind, r, v

    return st.builds(build, st.sampled_from(kinds), st.integers(0, 7),
                     st.integers(0, 7), LONGS)


@oracle(150, state=machine_state(), m=st.sampled_from(["MULU", "MULS"]),
        s=st.integers(0, 7), dn=st.integers(0, 7))
def test_multiply_matches_manual(bus, state, m, s, dn):
    cpu, mem, cycles = execute(f"{m} D{s},D{dn}", state, bus)
    model = Model(state)
    assert cycles == model.muldiv(m, model.d[s] & 0xFFFF, dn)
    model.check(cpu, mem)


@oracle(100, state=machine_state(),
        m=st.sampled_from(["MULU", "MULS", "DIVU"]),
        value=st.integers(0, 0xFFFF), dn=st.integers(0, 7))
def test_muldiv_immediate_matches_manual(bus, state, m, value, dn):
    if m == "DIVU" and value == 0:
        value = 1
    cpu, mem, cycles = execute(f"{m} #{value},D{dn}", state, bus)
    model = Model(state)
    assert cycles == model.muldiv(m, value, dn) + 4  # + the immediate word
    model.check(cpu, mem)


@oracle(150, state=machine_state(),
        m=st.sampled_from(["MULU", "MULS", "DIVU", "DIVS"]),
        src=operand(SRC_MODES, 2), dn=st.integers(0, 7))
def test_muldiv_memory_matches_manual(bus, state, m, src, dn):
    state = indexed(state, src)
    model = Model(state)
    value = model.load(src, 2)
    assume(value or m[:3] == "MUL")  # a zero divisor traps
    cpu, mem, cycles = execute(f"{m} {text(src)},D{dn}", state, bus)
    assert cycles == model.muldiv(m, value, dn) + EA_CYCLES[src[0]]
    model.check(cpu, mem)


@st.composite
def move_case(draw):
    size = draw(st.sampled_from("BWL"))
    sz = SIZES[size]
    regs = ("Dn",) if size == "B" else ("Dn", "An")
    src = draw(operand(regs + ("#",) + SRC_MODES, sz))
    movea = size != "B" and draw(st.booleans())
    dst = draw(operand(("An",) if movea else ("Dn",) + MEM_MODES, sz))
    return ("MOVEA" if movea else "MOVE"), size, src, dst


@oracle(300, state=machine_state(), case=move_case())
def test_move_matches_manual(bus, state, case):
    m, size, src, dst = case
    sz = SIZES[size]
    state = indexed(state, src, dst)
    cpu, mem, _ = execute(f"{m}.{size} {text(src)},{text(dst)}", state, bus)
    model = Model(state)
    value = model.load(src, sz)
    if m == "MOVEA":  # word sources sign-extend; no flag changes
        model.a[dst[1]] = signed(value, sz) % 2**32
    else:
        model.store(dst, sz, value)
        model.nz(value, sz)
        model.f["v"] = model.f["c"] = False  # X untouched
    model.check(cpu, mem)


@st.composite
def alu_case(draw):
    m = draw(st.sampled_from(["ADD", "SUB", "CMP", "AND", "OR", "EOR",
                              "ADDI", "SUBI", "CMPI", "ANDI", "ORI", "EORI",
                              "ADDQ", "SUBQ", "ADDA", "SUBA", "CMPA"]))
    size = draw(st.sampled_from("WL" if m.endswith("A") else "BWL"))
    sz = SIZES[size]
    if m.endswith("A"):
        return m, size, draw(operand(("Dn", "An", "#") + SRC_MODES, sz)), \
            ("An", draw(st.integers(0, 7)), 0)
    if m.endswith("Q"):
        kinds = ("Dn",) + MEM_MODES + (() if size == "B" else ("An",))
        return m, size, ("#", 0, draw(st.integers(1, 8))), \
            draw(operand(kinds, sz))
    if m.endswith("I"):
        return m, size, draw(operand(("#",), sz)), \
            draw(operand(("Dn",) + MEM_MODES, sz))
    if m == "EOR":
        return m, size, draw(operand(("Dn",), sz)), \
            draw(operand(("Dn",) + MEM_MODES, sz))
    if m != "CMP" and draw(st.booleans()):  # Dn to memory
        return m, size, draw(operand(("Dn",), sz)), \
            draw(operand(MEM_MODES, sz))
    kinds = ("Dn", "#") + SRC_MODES
    if size != "B" and m in ("ADD", "SUB", "CMP"):
        kinds += ("An",)
    return m, size, draw(operand(kinds, sz)), draw(operand(("Dn",), sz))


@oracle(500, state=machine_state(), case=alu_case())
def test_alu_matches_manual(bus, state, case):
    m, size, src, dst = case
    sz = SIZES[size]
    state = indexed(state, src, dst)
    cpu, mem, _ = execute(f"{m}.{size} {text(src)},{text(dst)}", state, bus)
    model = Model(state)
    f = model.f
    value = model.load(src, sz)
    if dst[0] == "An":  # 32 bits, word sources sign-extended
        if m not in ("ADDQ", "SUBQ"):
            value = signed(value, sz) % 2**32
        a = model.a[dst[1]]
        if m == "CMPA":
            model.arith("CMP", a, value, 4)
        else:  # no flags change
            model.a[dst[1]] = (a + value if m[:3] == "ADD" else a - value) \
                % 2**32
        model.check(cpu, mem)
        return
    addr = None
    if dst[0] in MEM_MODES:  # read-modify-write: the address once
        addr = model.ea(dst, sz)
        old = model.peek(addr, sz)
    else:
        old = model.d[dst[1]] % 256 ** sz
    base = m.rstrip("IQ")
    if base in ("ADD", "SUB", "CMP"):
        result = model.arith(base, old, value, sz)
    else:
        result = {"AND": old & value, "OR": old | value,
                  "EOR": old ^ value}[base]
        model.nz(result, sz)
        f["v"] = f["c"] = False  # X untouched
    if base != "CMP":
        model.store(dst, sz, result, addr)
    model.check(cpu, mem)


@st.composite
def unary_case(draw):
    m = draw(st.sampled_from(["CLR", "NOT", "NEG", "NEGX", "TST", "TAS"]))
    size = "B" if m == "TAS" else draw(st.sampled_from("BWL"))
    return m, size, draw(operand(("Dn",) + MEM_MODES, SIZES[size]))


@oracle(200, state=machine_state(), case=unary_case())
def test_unary_matches_manual(bus, state, case):
    m, size, dst = case
    sz = SIZES[size]
    state = indexed(state, dst)
    cpu, mem, _ = execute(f"{m}.{size} {text(dst)}", state, bus)
    model = Model(state)
    f = model.f
    addr = None if dst[0] == "Dn" else model.ea(dst, sz)
    old = model.d[dst[1]] % 256 ** sz if addr is None else model.peek(addr, sz)
    if m in ("NEG", "NEGX"):  # 0 - old (- X)
        x = f["x"] if m == "NEGX" else 0
        exact = -signed(old, sz) - x
        new = exact % 256 ** sz
        f["c"] = f["x"] = old + x > 0  # a borrow out of zero
        f["v"] = not -128 * 256 ** (sz - 1) <= exact < 128 * 256 ** (sz - 1)
        z = f["z"]
        model.nz(new, sz)
        if m == "NEGX":  # Z is only ever cleared
            f["z"] = z and new == 0
    else:  # CLR, NOT, TST and TAS test the old value
        new = {"CLR": 0, "NOT": ~old % 256 ** sz, "TST": old,
               "TAS": old | 0x80}[m]
        model.nz(old if m in ("TST", "TAS") else new, sz)
        f["v"] = f["c"] = False  # X untouched
    if m != "TST":
        model.store(dst, sz, new, addr)
    model.check(cpu, mem)


@st.composite
def bitop_case(draw):
    m = draw(st.sampled_from(["BTST", "BSET", "BCLR", "BCHG"]))
    bit = draw(st.one_of(  # the static and the dynamic bit number
        st.builds(lambda n: ("#", 0, n), st.integers(0, 40)),
        st.builds(lambda r: ("Dn", r, 0), st.integers(0, 7))))
    kinds = ("Dn",) + MEM_MODES + (("d16(PC)",) if m == "BTST" else ())
    return m, bit, draw(operand(kinds, 1))


# A static bit number's extension word comes before the displacement's:
# the PC base is the instruction's address + 4 (the bytes there differ).
@example(state=([0] * 8, [0x4800] * 8, NO_FLAGS, 0),
         case=("BTST", ("#", 0, 0), ("d16(PC)", 0, 0x4002 - (TEXT + 4))))
@oracle(200, state=machine_state(), case=bitop_case())
def test_bitop_matches_manual(bus, state, case):
    m, bit, dst = case
    state = indexed(state, dst)
    cpu, mem, _ = execute(f"{m} {text(bit)},{text(dst)}", state, bus)
    model = Model(state)
    n = model.load(bit, 4)
    if dst[0] == "Dn":  # a long, the bit number mod 32
        addr, old, mask = None, model.d[dst[1]], 1 << n % 32
    else:  # a byte, mod 8; a static bit number is an extension word
        addr = model.ea(dst, 1, ext=1 if bit[0] == "#" else 0)
        old, mask = model.peek(addr, 1), 1 << n % 8
    model.f["z"] = not old & mask  # the tested bit, before the change
    new = {"BTST": old, "BSET": old | mask, "BCLR": old & ~mask,
           "BCHG": old ^ mask}[m]
    if addr is None:
        model.d[dst[1]] = new
    else:
        model.poke(addr, new, 1)
    model.check(cpu, mem)


def condition(cond, f):
    """The manual's condition-code table."""
    c, v, z, n = f["c"], f["v"], f["z"], f["n"]
    return {"T": True, "F": False, "HI": not c and not z, "LS": c or z,
            "CC": not c, "CS": c, "NE": not z, "EQ": z, "VC": not v,
            "VS": v, "PL": not n, "MI": n, "GE": n == v, "LT": n != v,
            "GT": n == v and not z, "LE": z or n != v}[cond]


@oracle(150, state=machine_state(), cond=st.sampled_from(CONDS),
        dst=operand(("Dn",) + MEM_MODES, 1))
def test_scc_matches_manual(bus, state, cond, dst):
    state = indexed(state, dst)
    cpu, mem, cycles = execute(f"S{cond} {text(dst)}", state, bus)
    model = Model(state)
    true = condition(cond, model.f)
    model.store(dst, 1, 0xFF if true else 0)
    model.check(cpu, mem)
    if dst[0] == "Dn":
        assert cycles == (6 if true else 4)
    else:  # read-modify-write, whatever the outcome
        assert cycles == 8 + EA_CYCLES[dst[0]]


@oracle(100, state=machine_state(), cond=st.sampled_from(CONDS[2:] + ("RA",)))
def test_bcc_matches_manual(bus, state, cond):
    cpu, mem, cycles = execute(f"B{cond} there", state, bus)
    model = Model(state)
    taken = cond == "RA" or condition(cond, model.f)
    model.check(cpu, mem)
    assert cycles == (10 if taken else 12)  # word displacement
    # pc after the HALT that ran: Bcc is 4 bytes at the text origin,
    # each HALT 2, and ``there`` is the second HALT.
    assert cpu.regs.pc == TEXT + (8 if taken else 6)


@oracle(150, state=machine_state(), cond=st.sampled_from(CONDS + ("RA",)),
        dn=st.integers(0, 7), low=st.sampled_from([0, 1, 2, 0x8000, 0xFFFF]))
def test_dbcc_matches_manual(bus, state, cond, dn, low):
    d = list(state[0])
    d[dn] = d[dn] & 0xFFFF_0000 | low  # counters at the loop's edges
    state = (d,) + state[1:]
    cpu, mem, cycles = execute(f"DB{cond} D{dn},there", state, bus)
    model = Model(state)
    if condition("F" if cond == "RA" else cond, model.f):
        branched, expect = False, 12
    else:
        counter = (low - 1) % 0x10000  # the upper word is kept
        model.d[dn] = model.d[dn] & 0xFFFF_0000 | counter
        branched = counter != 0xFFFF  # expires at 0 -> 0xFFFF
        expect = 10 if branched else 14
    model.check(cpu, mem)
    assert cycles == expect
    # pc after the HALT that ran: DBcc is 4 bytes at the text origin,
    # each HALT 2, and ``there`` is the second HALT.
    assert cpu.regs.pc == TEXT + (8 if branched else 6)


def shift_model(m, value, count, size, x):
    """Shift ``value`` one bit at a time; returns (result, x, c, v)."""
    bits = 8 * size
    top = 1 << (bits - 1)
    c, v = (x if m in ("ROXL", "ROXR") else False), False
    for _ in range(count):
        if m.endswith("L"):
            out = bool(value & top)
            fill = {"ROL": out, "ROXL": x}.get(m, False)
            value = (value << 1) % (1 << bits) | fill
            v = v or (m == "ASL" and bool(value & top) != out)
        else:
            out = bool(value & 1)
            fill = {"ROR": out, "ROXR": x, "ASR": bool(value & top)} \
                .get(m, False)
            value = value >> 1 | (top if fill else 0)
        c = out
        if m[:2] != "RO" or m[:3] == "ROX":
            x = out
        if m in ("ROXL", "ROXR"):
            c = x
    return value, x, c, v


@oracle(300, state=machine_state(),
        m=st.sampled_from(["LSL", "LSR", "ASL", "ASR", "ROL", "ROR", "ROXL",
                           "ROXR"]),
        size=st.sampled_from("BWL"), count=st.integers(1, 8),
        creg=st.one_of(st.none(), st.integers(0, 7)), dn=st.integers(0, 7))
def test_shift_matches_manual(bus, state, m, size, count, creg, dn):
    sz = SIZES[size]
    model = Model(state)
    if creg is None:
        k, line = count, f"{m}.{size} #{count},D{dn}"
    else:  # the count register (mod 64) may be the shifted one
        k, line = model.d[creg] % 64, f"{m}.{size} D{creg},D{dn}"
    cpu, mem, cycles = execute(line, state, bus)
    value, x, c, v = shift_model(m, model.d[dn] % 256 ** sz, k, sz,
                                 model.f["x"])
    model.store(("Dn", dn, 0), sz, value)
    model.nz(value, sz)
    model.f.update(x=x, c=c, v=v)
    model.check(cpu, mem)
    assert cycles == (8 if sz == 4 else 6) + 2 * k


# 0 + 0x7FFF + X overflows; a zero result leaves a clear Z clear.
@example(state=([0x7FFF] + [0] * 7, [0x4800] * 8, dict(NO_FLAGS, x=True), 0),
         m="ADDX", size="W", memory=False, ry=0, rx=1)
@example(state=([0] * 8, [0x4800] * 8, NO_FLAGS, 0),
         m="ADDX", size="W", memory=False, ry=0, rx=1)
@oracle(200, state=machine_state(), m=st.sampled_from(["ADDX", "SUBX"]),
        size=st.sampled_from("BWL"), memory=st.booleans(),
        ry=st.integers(0, 7), rx=st.integers(0, 7))
def test_addx_subx_matches_manual(bus, state, m, size, memory, ry, rx):
    sz = SIZES[size]
    src, dst = (("-(An)" if memory else "Dn"), ry, 0), \
        (("-(An)" if memory else "Dn"), rx, 0)
    cpu, mem, _ = execute(f"{m}.{size} {text(src)},{text(dst)}", state, bus)
    model = Model(state)
    f = model.f
    value = model.load(src, sz)  # -(Ay) first, then -(Ax)
    addr = model.ea(dst, sz) if memory else None
    old = model.peek(addr, sz) if memory else model.d[rx] % 256 ** sz
    x = int(f["x"])
    add = m == "ADDX"
    raw = old + value + x if add else old - value - x
    exact = signed(old, sz) + signed(value, sz) + x if add \
        else signed(old, sz) - signed(value, sz) - x
    f["c"] = f["x"] = raw >= 256 ** sz if add else raw < 0
    f["v"] = not -128 * 256 ** (sz - 1) <= exact < 128 * 256 ** (sz - 1)
    result = raw % 256 ** sz
    z = f["z"]
    model.nz(result, sz)
    f["z"] = z and result == 0  # Z is only ever cleared
    model.store(dst, sz, result, addr)
    model.check(cpu, mem)


@oracle(100, state=machine_state(), size=st.sampled_from("BWL"),
        ry=st.integers(0, 7), rx=st.integers(0, 7))
def test_cmpm_matches_manual(bus, state, size, ry, rx):
    sz = SIZES[size]
    cpu, mem, _ = execute(f"CMPM.{size} (A{ry})+,(A{rx})+", state, bus)
    model = Model(state)
    value = model.load(("(An)+", ry, 0), sz)
    model.arith("CMP", model.load(("(An)+", rx, 0), sz), value, sz)
    model.check(cpu, mem)


REGISTERS = [("D", n) for n in range(8)] + [("A", n) for n in range(8)]


@st.composite
def movem_case(draw):
    store = draw(st.booleans())
    regs = draw(st.lists(st.sampled_from(REGISTERS), min_size=1,
                         max_size=16, unique=True))
    kinds = CONTROL[:-1] + ("-(An)",) if store else CONTROL + ("(An)+",)
    return store, draw(st.sampled_from("WL")), regs, draw(operand(kinds, 2))


# The base register in the list: MOVEM.L (A0)+,D0/A0/A1 leaves A0 past
# the last load, and MOVEM.L D0/A0,-(A0) stores A0's value from before.
@example(state=([0] * 8, [0x4000] + [0x4800] * 7, NO_FLAGS, 1),
         case=(False, "L", [("D", 0), ("A", 0), ("A", 1)], ("(An)+", 0, 0)))
@example(state=([0] * 8, [0x4010] + [0x4800] * 7, NO_FLAGS, 1),
         case=(True, "L", [("D", 0), ("A", 0)], ("-(An)", 0, 0)))
@oracle(200, state=machine_state(), case=movem_case())
def test_movem_matches_manual(bus, state, case):
    store, size, regs, ea = case
    sz = SIZES[size]
    state = indexed(state, ea)
    listed = "/".join(f"{k}{n}" for k, n in regs)
    cpu, mem, _ = execute(f"MOVEM.{size} {listed},{text(ea)}" if store
                          else f"MOVEM.{size} {text(ea)},{listed}", state, bus)
    model = Model(state)
    bank = {"D": model.d, "A": model.a}
    order = sorted(regs, key=lambda r: (r[0] == "A", r[1]))  # D0 .. A7
    if store:  # the registers' values before the instruction
        values = [bank[k][n] % 256 ** sz for k, n in order]
        if ea[0] == "-(An)":  # A7 first, downward; An ends at the last
            addr = model.a[ea[1]]
            for value in reversed(values):
                addr -= sz
                model.poke(addr, value, sz)
            model.a[ea[1]] = addr
        else:
            addr = model.ea(ea, sz)
            for value in values:
                model.poke(addr, value, sz)
                addr += sz
    else:  # the register mask word precedes a PC displacement
        addr = model.a[ea[1]] if ea[0] == "(An)+" else model.ea(ea, sz, 1)
        for k, n in order:  # a word loads sign-extended
            bank[k][n] = signed(model.peek(addr, sz), sz) % 2**32
            addr += sz
        if ea[0] == "(An)+":  # An ends past the last, over a loaded An
            model.a[ea[1]] = addr
    model.check(cpu, mem)


#: Manual (cycles) of LEA, PEA, JMP and JSR by control mode.
CONTROL_CYCLES = {
    "LEA": {"(An)": 4, "d16(An)": 8, "d8": 12, "(xxx).W": 8, "(xxx).L": 12,
            "d16(PC)": 8},
    "PEA": {"(An)": 12, "d16(An)": 16, "d8": 20, "(xxx).W": 16,
            "(xxx).L": 20, "d16(PC)": 16},
    "JMP": {"(An)": 8, "d16(An)": 10, "d8": 14, "(xxx).W": 10,
            "(xxx).L": 12, "d16(PC)": 10},
    "JSR": {"(An)": 16, "d16(An)": 18, "d8": 22, "(xxx).W": 18,
            "(xxx).L": 20, "d16(PC)": 18},
}


def control_cycles(m, kind):
    return CONTROL_CYCLES[m]["d8" if kind in INDEXED else kind]


@oracle(150, state=machine_state(), m=st.sampled_from(["LEA", "PEA"]),
        src=control_operand(CONTROL), an=st.integers(0, 7))
def test_lea_pea_matches_manual(bus, state, m, src, an):
    line = f"LEA {text(src)},A{an}" if m == "LEA" else f"PEA {text(src)}"
    cpu, mem, cycles = execute(line, state, bus)
    model = Model(state)
    addr = model.ea(src, 4) % 2**32
    if m == "LEA":
        model.a[an] = addr
    else:  # pushed as a long
        model.a[7] -= 4
        model.poke(model.a[7], addr, 4)
    model.check(cpu, mem)
    assert cycles == control_cycles(m, src[0])


@oracle(150, state=machine_state(), m=st.sampled_from(["JMP", "JSR"]),
        dst=control_operand(CONTROL))
def test_jmp_jsr_matches_manual(bus, state, m, dst):
    kind, r, v = dst
    # The jump lands on ``there``: the instruction, one HALT, then it.
    length = 2 + 2 * {"(An)": 0, "(xxx).L": 2}.get(kind, 1)
    there = TEXT + length + 2
    d, a = list(state[0]), list(state[1])
    if kind in ABSOLUTE:
        dst = kind, r, there
    elif kind == "d16(PC)":
        dst = kind, r, there - (TEXT + 2)
    else:  # the base register points there
        assume(m == "JMP" or r != 7)  # JSR pushes through A7
        assume(kind != "d8(An,An.W)" or v[1] != r)
        offset = v[0] if kind in INDEXED else (v if kind == "d16(An)" else 0)
        if kind in INDEXED:
            index = (d if kind == "d8(An,Dn.W)" else a)[v[1]]
            offset += signed(index % 0x10000, 2)
        a[r] = (there - offset) % 2**32
    state = (d, a) + tuple(state[2:])
    cpu, mem, cycles = execute(f"{m} {text(dst)}", state, bus)
    model = Model(state)
    if m == "JSR":  # the return address, pushed as a long
        model.a[7] -= 4
        model.poke(model.a[7], TEXT + length, 4)
    model.check(cpu, mem)
    assert cycles == control_cycles(m, kind)
    assert cpu.regs.pc == there + 2  # after the HALT there


@pytest.mark.slow
@BUSES
@pytest.mark.parametrize("body, strategies", ORACLES,
                         ids=[body.__name__ for body, _ in ORACLES])
def test_oracle_deep(bus, body, strategies):
    """Every manual-oracle property, DEEP_EXAMPLES examples per bus."""
    @given(**strategies)
    @settings(max_examples=DEEP_EXAMPLES, deadline=None)
    def deep(**drawn):
        body(bus, **drawn)

    deep()
