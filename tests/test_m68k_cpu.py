"""Interpreter tests: instruction semantics, flags, control flow, and
end-to-end cycle accounting on the SimpleBus."""

import random

import pytest
from hypothesis import given, settings
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
# Compiled instruction families against the M68000 manual.
#
# Each property runs one instruction from hypothesis-drawn registers,
# flags and memory, then checks every register, the five flags, the
# operand memory and (for the data-dependent families) the cycles
# against a model written from the manual's definitions.  The bus
# serves every access through its fast twins (the compiled path),
# refuses them all (the compiled path's slow continuations), or serves
# reads but refuses writes (the store-side continuations).

MEM_LO, MEM_HI = 0x4000, 0x5000
BUSES = pytest.mark.parametrize("bus", ["twins", "refused", "reads only"])
SIZES = {"B": 1, "W": 2, "L": 4}
CONDS = ("T", "F", "HI", "LS", "CC", "CS", "NE", "EQ", "VC", "VS", "PL",
         "MI", "GE", "LT", "GT", "LE")


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
    """Registers (address registers point into the operand memory, far
    enough from its ends for a step and a displacement), the five flags,
    and a seed for the operand memory's contents."""
    d = draw(st.lists(LONGS, min_size=8, max_size=8))
    a = draw(st.lists(st.integers(MEM_LO // 2 + 128, MEM_HI // 2 - 128)
                      .map(lambda w: 2 * w), min_size=8, max_size=8))
    flags = draw(st.fixed_dictionaries(
        {f: st.booleans() for f in "xnzvc"}))
    return d, a, flags, draw(st.integers(0, 2**32))


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


class Model:
    """The manual's view of one instruction: registers, flags, memory."""

    def __init__(self, state):
        d, a, flags, seed = state
        self.d, self.a = list(d), list(a)
        self.f = dict(flags)
        self.mem = bytearray(random.Random(seed).randbytes(MEM_HI - MEM_LO))

    def ea(self, op, size):
        """Address of a memory operand, applying its register update."""
        kind, r, disp = op
        step = 2 if r == 7 and size == 1 else size  # A7 stays word-aligned
        if kind == "(An)+":
            self.a[r] += step
            return self.a[r] - step
        if kind == "-(An)":
            self.a[r] -= step
            return self.a[r]
        return self.a[r] + (disp if kind == "d16(An)" else 0)

    def load(self, op, size):
        kind, r, value = op
        if kind == "Dn":
            return self.d[r] % 256 ** size
        if kind == "An":
            return self.a[r] % 256 ** size
        if kind == "#":
            return value
        addr = self.ea(op, size) - MEM_LO
        return int.from_bytes(self.mem[addr:addr + size], "big")

    def store(self, op, size, value, addr=None):
        kind, r, _ = op
        value %= 256 ** size
        if kind == "Dn":
            low = 256 ** size
            self.d[r] = self.d[r] - self.d[r] % low + value
            return
        addr = (self.ea(op, size) if addr is None else addr) - MEM_LO
        self.mem[addr:addr + size] = value.to_bytes(size, "big")

    def nz(self, value, size):
        self.f["n"] = value >= 128 * 256 ** (size - 1)
        self.f["z"] = value == 0

    def check(self, cpu, mem):
        assert cpu.regs.d == self.d
        assert cpu.regs.a == self.a
        assert cpu.regs.ccr.as_dict() == {k.upper(): v
                                          for k, v in self.f.items()}
        assert mem == bytes(self.mem)


def signed(value, size):
    bits = 8 * size
    return value - (1 << bits) if value >> (bits - 1) else value


def text(op):
    kind, r, v = op
    return {"Dn": f"D{r}", "An": f"A{r}", "#": f"#{v}", "(An)": f"(A{r})",
            "(An)+": f"(A{r})+", "-(An)": f"-(A{r})",
            "d16(An)": f"{v}(A{r})"}[kind]


MEM_MODES = ("(An)", "(An)+", "-(An)", "d16(An)")


def operand(kinds, size):
    """Strategy for an operand of one of ``kinds``; A7 is drawn as often
    as the other registers, so its byte step is exercised."""
    def build(kind, r, v):
        if kind == "#":
            return kind, 0, v % 256 ** size
        return kind, r, v % 128 * 2 - 128 if kind == "d16(An)" else 0

    return st.builds(build, st.sampled_from(kinds), st.integers(0, 7), LONGS)


@BUSES
@given(state=machine_state(), m=st.sampled_from(["MULU", "MULS"]),
       s=st.integers(0, 7), dn=st.integers(0, 7))
@settings(max_examples=150, deadline=None)
def test_multiply_matches_manual(bus, state, m, s, dn):
    cpu, mem, cycles = execute(f"{m} D{s},D{dn}", state, bus)
    model = Model(state)
    src, dst = model.d[s] & 0xFFFF, model.d[dn] & 0xFFFF
    if m == "MULU":
        product = src * dst
        n = bin(src).count("1")
    else:
        product = signed(src, 2) * signed(dst, 2)
        bits = f"{src:016b}0"  # a 0 appended at the LSB end
        n = sum(x != y for x, y in zip(bits, bits[1:]))
    model.d[dn] = product % 2**32
    model.nz(model.d[dn], 4)
    model.f["v"] = model.f["c"] = False  # X untouched
    model.check(cpu, mem)
    assert cycles == 38 + 2 * n


@BUSES
@given(state=machine_state(), m=st.sampled_from(["MULU", "MULS", "DIVU"]),
       value=st.integers(0, 0xFFFF), dn=st.integers(0, 7))
@settings(max_examples=100, deadline=None)
def test_muldiv_immediate_matches_manual(bus, state, m, value, dn):
    if m == "DIVU" and value == 0:
        value = 1
    cpu, mem, cycles = execute(f"{m} #{value},D{dn}", state, bus)
    model = Model(state)
    dst = model.d[dn]
    if m == "DIVU":
        quot, rem = divmod(dst, value)
        if quot > 0xFFFF:
            model.f["v"] = True  # overflow: the register is unchanged
        else:
            model.d[dn] = rem << 16 | quot
            model.nz(quot, 2)
            model.f["v"] = model.f["c"] = False
        expect = 140 + 4
    else:
        product = value * (dst & 0xFFFF) if m == "MULU" \
            else signed(value, 2) * signed(dst & 0xFFFF, 2)
        model.d[dn] = product % 2**32
        model.nz(model.d[dn], 4)
        model.f["v"] = model.f["c"] = False
        bits = f"{value:016b}0"
        n = bin(value).count("1") if m == "MULU" \
            else sum(x != y for x, y in zip(bits, bits[1:]))
        expect = 38 + 2 * n + 4  # + the immediate word
    model.check(cpu, mem)
    assert cycles == expect


@st.composite
def move_case(draw):
    size = draw(st.sampled_from("BWL"))
    sz = SIZES[size]
    regs = ("Dn",) if size == "B" else ("Dn", "An")
    src = draw(operand(regs + ("#",) + MEM_MODES, sz))
    movea = size != "B" and draw(st.booleans())
    dst = draw(operand(("An",) if movea else ("Dn",) + MEM_MODES, sz))
    return ("MOVEA" if movea else "MOVE"), size, src, dst


@BUSES
@given(state=machine_state(), case=move_case())
@settings(max_examples=300, deadline=None)
def test_move_matches_manual(bus, state, case):
    m, size, src, dst = case
    sz = SIZES[size]
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
        return m, size, draw(operand(("Dn", "An", "#") + MEM_MODES, sz)), \
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
    kinds = ("Dn", "#") + MEM_MODES
    if size != "B" and m in ("ADD", "SUB", "CMP"):
        kinds += ("An",)
    return m, size, draw(operand(kinds, sz)), draw(operand(("Dn",), sz))


@BUSES
@given(state=machine_state(), case=alu_case())
@settings(max_examples=500, deadline=None)
def test_alu_matches_manual(bus, state, case):
    m, size, src, dst = case
    sz = SIZES[size]
    cpu, mem, _ = execute(f"{m}.{size} {text(src)},{text(dst)}", state, bus)
    model = Model(state)
    f = model.f
    value = model.load(src, sz)
    if dst[0] == "An":  # 32 bits, word sources sign-extended
        if m not in ("ADDQ", "SUBQ"):
            value = signed(value, sz) % 2**32
        a = model.a[dst[1]]
        if m == "CMPA":
            diff = signed(a, 4) - signed(value, 4)
            f["c"] = value > a
            f["v"] = not -2**31 <= diff < 2**31
            model.nz((a - value) % 2**32, 4)
        else:  # no flags change
            model.a[dst[1]] = (a + value if m[:3] == "ADD" else a - value) \
                % 2**32
        model.check(cpu, mem)
        return
    addr = None
    if dst[0] in MEM_MODES:  # read-modify-write: the address once
        addr = model.ea(dst, sz)
        old = int.from_bytes(model.mem[addr - MEM_LO:addr - MEM_LO + sz],
                             "big")
    else:
        old = model.d[dst[1]] % 256 ** sz
    base = m.rstrip("IQ")
    lo, hi = -(128 * 256 ** (sz - 1)), 128 * 256 ** (sz - 1)
    if base in ("ADD", "SUB", "CMP"):
        add = base == "ADD"
        result = old + value if add else old - value
        exact = signed(old, sz) + signed(value, sz) if add \
            else signed(old, sz) - signed(value, sz)
        f["c"] = result >= 256 ** sz if add else value > old
        if base != "CMP":
            f["x"] = f["c"]  # CMP leaves X alone
        f["v"] = not lo <= exact < hi
    else:
        result = {"AND": old & value, "OR": old | value,
                  "EOR": old ^ value}[base]
        f["v"] = f["c"] = False  # X untouched
    result %= 256 ** sz
    model.nz(result, sz)
    if base != "CMP":
        model.store(dst, sz, result, addr)
    model.check(cpu, mem)


def condition(cond, f):
    """The manual's condition-code table."""
    c, v, z, n = f["c"], f["v"], f["z"], f["n"]
    return {"T": True, "F": False, "HI": not c and not z, "LS": c or z,
            "CC": not c, "CS": c, "NE": not z, "EQ": z, "VC": not v,
            "VS": v, "PL": not n, "MI": n, "GE": n == v, "LT": n != v,
            "GT": n == v and not z, "LE": z or n != v}[cond]


@BUSES
@given(state=machine_state(), cond=st.sampled_from(CONDS + ("RA",)),
       dn=st.integers(0, 7), low=st.sampled_from([0, 1, 2, 0x8000, 0xFFFF]))
@settings(max_examples=150, deadline=None)
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
    assert cpu.regs.pc == 0x1000 + (8 if branched else 6)


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


@BUSES
@given(state=machine_state(),
       m=st.sampled_from(["LSL", "LSR", "ASL", "ASR", "ROL", "ROR", "ROXL",
                          "ROXR"]),
       size=st.sampled_from("BWL"), count=st.integers(1, 8),
       creg=st.one_of(st.none(), st.integers(0, 7)), dn=st.integers(0, 7))
@settings(max_examples=300, deadline=None)
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
