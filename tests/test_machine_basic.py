"""Machine-level integration tests: each execution mode end to end on
small hand-written programs."""

import gc
import weakref

import pytest

from repro.m68k.assembler import assemble, AssembledProgram
from repro.m68k.instructions import Instruction
from repro.machine import ExecutionMode, PASMMachine, PrototypeConfig
from repro.mc import EnqueueBlock, Loop, SetMask
from tests.engines import ALL_MODES, ENGINE_TIERS, MODE_IDS, run_matmul_on


CFG = PrototypeConfig()


def asm(source: str) -> AssembledProgram:
    return assemble(source, predefined=CFG.device_symbols())


def block(source: str) -> list[Instruction]:
    """Assemble a straight-line SIMD block."""
    return assemble(source, predefined=CFG.device_symbols()).instruction_list()


class TestSerial:
    def test_serial_run(self):
        m = PASMMachine(CFG, partition_size=1)
        prog = asm(
            """
            MOVEQ   #0,D0
            MOVE.W  #99,D1
    loop:   ADDQ.W  #1,D0
            DBRA    D1,loop
            MOVE.W  D0,$4000
            HALT
            """
        )
        result = m.run_serial(prog)
        assert result.mode is ExecutionMode.SERIAL
        assert m.pe(0).memory.read(0x4000, 2) == 100
        assert result.cycles > 0
        assert result.seconds == pytest.approx(result.cycles / 8e6)

    def test_serial_pays_main_memory_wait_states(self):
        src = "    NOP\n    NOP\n    NOP\n    HALT"
        fast_cfg = CFG.with_overrides(
            ws_main=0, refresh=CFG.refresh.__class__(250, 0)
        )
        slow_cfg = CFG.with_overrides(
            ws_main=1, refresh=CFG.refresh.__class__(250, 0)
        )
        r_fast = PASMMachine(fast_cfg, 1).run_serial(asm(src))
        r_slow = PASMMachine(slow_cfg, 1).run_serial(asm(src))
        assert r_slow.cycles - r_fast.cycles == 4  # one ws per stream word


class TestMIMD:
    def test_pes_run_asynchronously(self):
        m = PASMMachine(CFG, partition_size=4)
        programs = []
        for lp in range(4):
            # PE lp loops lp+1 times: different finish times.
            programs.append(
                asm(
                    f"""
            MOVEQ   #0,D0
            MOVE.W  #{lp},D1
    loop:   ADDQ.W  #1,D0
            DBRA    D1,loop
            MOVE.W  D0,$4000
            HALT
            """
                )
            )
        result = m.run_mimd(programs)
        assert result.mode is ExecutionMode.MIMD
        for lp in range(4):
            assert m.pe(lp).memory.read(0x4000, 2) == lp + 1
        finishes = [result.per_pe_cycles[lp] for lp in range(4)]
        assert finishes == sorted(finishes)
        assert result.cycles == pytest.approx(max(finishes))

    def test_network_transfer_with_polling(self):
        """Logical PE i sends a word to PE (i-1) mod p using status-register
        polling — the pure-MIMD protocol of Section 5.2."""
        m = PASMMachine(CFG, partition_size=4)
        m.connect_shift_circuit()
        programs = []
        for lp in range(4):
            programs.append(
                asm(
                    f"""
            ; send my id+100 as two bytes (low, high), polling TX_READY
            MOVE.W  #{100 + lp},D0
    txpoll1: MOVE.W  NETSTAT,D2
            AND.W   #1,D2
            BEQ     txpoll1
            MOVE.B  D0,NETTX
            LSR.W   #8,D0
    txpoll2: MOVE.W  NETSTAT,D2
            AND.W   #1,D2
            BEQ     txpoll2
            MOVE.B  D0,NETTX
            ; receive two bytes, polling RX_VALID
    rxpoll1: MOVE.W  NETSTAT,D2
            AND.W   #2,D2
            BEQ     rxpoll1
            MOVE.B  NETRX,D3
    rxpoll2: MOVE.W  NETSTAT,D2
            AND.W   #2,D2
            BEQ     rxpoll2
            MOVE.B  NETRX,D4
            LSL.W   #8,D4
            OR.W    D4,D3
            MOVE.W  D3,$4000
            HALT
            """
                )
            )
        m.run_mimd(programs)
        for lp in range(4):
            sender = (lp + 1) % 4
            assert m.pe(lp).memory.read(0x4000, 2) == 100 + sender


class TestSIMD:
    def test_broadcast_block_executes_on_all_pes(self):
        m = PASMMachine(CFG, partition_size=4)
        blocks = {
            "body": block("    ADDQ.W #1,D0"),
            "fini": block("    MOVE.W D0,$4000\n    HALT"),
        }
        mc_program = [
            Loop(10, (EnqueueBlock("body"),)),
            EnqueueBlock("fini"),
        ]
        result = m.run_simd(mc_program, blocks)
        assert result.mode is ExecutionMode.SIMD
        for lp in range(4):
            assert m.pe(lp).memory.read(0x4000, 2) == 10
        # Every PE fetched every broadcast word.
        stats = result.queue_stats[0]
        assert stats["releases"] == 10 + 2

    def test_simd_instruction_released_at_max(self):
        """A data-dependent MULU broadcast completes at the slowest PE's
        pace: per-instruction max-coupling."""
        cfg = CFG.with_overrides(refresh=CFG.refresh.__class__(250, 0))

        def run(multipliers):
            m = PASMMachine(cfg, partition_size=4)
            data_programs = []
            for lp in range(4):
                data_programs.append(
                    asm(f"    HALT\n    .data\n    .org $4000\nmul: .dc.w {multipliers[lp]}")
                )
            blocks = {
                "init": block("    MOVE.W $4000,D1"),
                "body": block("    MULU D1,D2"),
                "fini": block("    HALT"),
            }
            mc_program = [
                EnqueueBlock("init"),
                Loop(50, (EnqueueBlock("body"),)),
                EnqueueBlock("fini"),
            ]
            return m.run_simd(mc_program, blocks, data_programs=data_programs)

        slow_everywhere = run([0xFFFF] * 4)  # every PE multiplies slowly
        one_slow = run([0, 0, 0, 0xFFFF])  # only one slow PE
        all_fast = run([0] * 4)
        # One slow PE costs (nearly) as much as all slow: max-coupling.
        assert one_slow.cycles == pytest.approx(slow_everywhere.cycles, rel=0.01)
        # And clearly more than all-fast: 50 muls * 32 extra cycles.
        assert slow_everywhere.cycles - all_fast.cycles == pytest.approx(
            50 * 32, abs=2
        )

    def test_simd_multi_mc_groups(self):
        m = PASMMachine(CFG, partition_size=8)
        blocks = {
            "body": block("    ADDQ.W #1,D0"),
            "fini": block("    MOVE.W D0,$4000\n    HALT"),
        }
        result = m.run_simd(
            [Loop(5, (EnqueueBlock("body"),)), EnqueueBlock("fini")], blocks
        )
        for lp in range(8):
            assert m.pe(lp).memory.read(0x4000, 2) == 5
        assert set(result.queue_stats) == {0, 1}

    def test_simd_mask_disables_pes(self):
        m = PASMMachine(CFG, partition_size=4)
        blocks = {
            "evens": block("    ADDQ.W #1,D0"),
            "fini": block("    MOVE.W D0,$4000\n    HALT"),
        }
        mc_program = [
            SetMask((0, 2)),
            EnqueueBlock("evens"),
            SetMask((0, 1, 2, 3)),
            EnqueueBlock("fini"),
        ]
        m.run_simd(mc_program, blocks)
        assert [m.pe(lp).memory.read(0x4000, 2) for lp in range(4)] == [1, 0, 1, 0]

    def test_control_flow_overlaps_pe_computation(self):
        """With a long-running PE body, MC loop overhead hides completely:
        the run takes (body time) * iterations, not (body + MC loop) *
        iterations."""
        cfg = CFG.with_overrides(refresh=CFG.refresh.__class__(250, 0))
        m = PASMMachine(cfg, partition_size=4)
        data = [asm("    HALT\n    .data\n    .org $4000\nv: .dc.w $FFFF")] * 4
        blocks = {
            "init": block("    MOVE.W $4000,D1"),
            "body": block("    MULU D1,D2"),  # 70 cycles + fetch
            "fini": block("    HALT"),
        }
        iters = 40
        result = m.run_simd(
            [EnqueueBlock("init"), Loop(iters, (EnqueueBlock("body"),)),
             EnqueueBlock("fini")],
            blocks,
            data_programs=data,
        )
        # Body: MULU #$FFFF multiplier = 70 cycles total (its one queue-word
        # fetch included).  MC per-iteration cost (~25 cycles) must hide.
        expected_floor = iters * 70
        assert result.cycles >= expected_floor
        assert result.cycles <= expected_floor + 250  # startup slack only


class TestSMIMD:
    def test_barrier_synchronizes_groups(self):
        m = PASMMachine(CFG, partition_size=4)
        programs = []
        for lp in range(4):
            # Different-length preambles, then a barrier, then store the
            # barrier exit time ordering proxy: a counter incremented after.
            programs.append(
                asm(
                    f"""
            MOVE.W  #{lp * 40},D1
            TST.W   D1
            BEQ     bar
    spin:   SUBQ.W  #1,D1
            BNE     spin
    bar:    MOVE.W  SIMDSPACE,D0   ; barrier read
            MOVE.W  TIMER,D2
            MOVE.W  D2,$4000
            HALT
            """
                )
            )
        result = m.run_smimd(programs, sync_words=1)
        assert result.mode is ExecutionMode.SMIMD
        times = [m.pe(lp).memory.read(0x4000, 2) for lp in range(4)]
        # All PEs passed the barrier within a few cycles of each other
        # (the barrier read itself costs a fetch), despite skew of ~3000.
        assert max(times) - min(times) <= 16

    def test_multiple_barriers_in_order(self):
        m = PASMMachine(CFG, partition_size=4)
        programs = [
            asm(
                """
            MOVEQ   #0,D0
            MOVE.W  #4,D3
    loop:   MOVE.W  SIMDSPACE,D1
            ADDQ.W  #1,D0
            SUBQ.W  #1,D3
            BNE     loop
            MOVE.W  D0,$4000
            HALT
            """
            )
            for _ in range(4)
        ]
        m.run_smimd(programs, sync_words=4)
        for lp in range(4):
            assert m.pe(lp).memory.read(0x4000, 2) == 4

    def test_sync_words_beyond_queue_capacity(self):
        """More barriers than the queue holds: the feeder keeps topping up."""
        cfg = CFG.with_overrides(queue_capacity_words=8)
        m = PASMMachine(cfg, partition_size=4)
        n_barriers = 40
        programs = [
            asm(
                f"""
            MOVE.W  #{n_barriers - 1},D3
    loop:   MOVE.W  SIMDSPACE,D1
            DBRA    D3,loop
            HALT
            """
            )
            for _ in range(4)
        ]
        result = m.run_smimd(programs, sync_words=n_barriers)
        assert result.queue_stats[0]["releases"] == n_barriers

    def test_smimd_network_transfer_without_polling(self):
        """After a barrier, transfers are plain moves (no status polling) —
        the S/MIMD protocol of Section 5.3."""
        m = PASMMachine(CFG, partition_size=4)
        m.connect_shift_circuit()
        programs = []
        for lp in range(4):
            programs.append(
                asm(
                    f"""
            MOVE.W  #{200 + lp},D0
            MOVE.W  SIMDSPACE,D7   ; barrier: everyone ready
            MOVE.B  D0,NETTX
            LSR.W   #8,D0
            MOVE.B  D0,NETTX
            MOVE.B  NETRX,D3
            MOVE.B  NETRX,D4
            LSL.W   #8,D4
            OR.W    D4,D3
            MOVE.W  D3,$4000
            HALT
            """
                )
            )
        m.run_smimd(programs, sync_words=1)
        for lp in range(4):
            sender = (lp + 1) % 4
            assert m.pe(lp).memory.read(0x4000, 2) == 200 + sender


class TestLifetime:
    @pytest.mark.parametrize("engine", ENGINE_TIERS)
    @pytest.mark.parametrize("mode,p", ALL_MODES, ids=MODE_IDS)
    def test_finished_machine_freed_without_gc(self, mode, p, engine):
        """A finished run leaves no reference cycle through the machine:
        reference counting alone frees it, its environment (with the
        pooled sleep events), its PE memories and its Fetch Unit Queues
        (with their per-release statistics), so a sweep's memory does
        not wait for the cyclic collector."""
        gc.collect()
        gc.disable()
        try:
            machine, run = run_matmul_on(mode, 8, p, engine)
            refs = [weakref.ref(machine), weakref.ref(machine.env)]
            refs += [weakref.ref(pe.memory) for pe in machine.pes]
            refs += [weakref.ref(q) for q in machine.queues.values()]
            del machine, run
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()
