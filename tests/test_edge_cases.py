"""Edge cases and error paths across the machine model."""

import json

import pytest

from repro.errors import (
    BusError,
    ConfigurationError,
    ReproError,
    SimulationError,
)
from repro.experiments.results import ExperimentResult
from repro.fetch_unit import FetchUnitQueue, MaskRegister, sync_item
from repro.m68k.assembler import assemble
from repro.machine import ExecutionMode, MachineResult, PASMMachine, PrototypeConfig
from repro.machine.config import PrototypeConfig as Config
from repro.mc import EnqueueBlock, Loop, MCCostModel, MicroController, SetMask
from repro.memory import RefreshModel
from repro.pe import ProcessingElement
from repro.programs.data import MatmulLayout
from repro.sim import Environment, resolve_fast_path

CFG = PrototypeConfig()


class TestConfigValidation:
    def test_npes_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            Config(n_pes=12, n_mcs=4)

    def test_npes_multiple_of_mcs(self):
        with pytest.raises(ConfigurationError):
            Config(n_pes=16, n_mcs=3)

    def test_queue_cannot_be_slower_than_ram(self):
        with pytest.raises(ConfigurationError):
            Config(ws_main=0, ws_queue=1)

    def test_with_overrides_returns_new_config(self):
        cfg = CFG.with_overrides(ws_main=2)
        assert cfg.ws_main == 2 and CFG.ws_main == 1

    def test_mc_of_pe(self):
        assert [CFG.mc_of_pe(p) for p in (0, 1, 4, 5, 15)] == [0, 1, 0, 1, 3]
        assert CFG.pes_of_mc(2) == [2, 6, 10, 14]

    def test_device_symbols_complete(self):
        symbols = CFG.device_symbols()
        assert {"NETTX", "NETRX", "NETSTAT", "SIMDSPACE", "TIMER"} <= set(
            symbols
        )


class TestPEBusErrors:
    def make_pe(self, queue=None):
        env = Environment()
        pe = ProcessingElement(env, CFG, physical_id=0, queue=queue,
                               pe_slot=0)
        return env, pe

    def run_and_expect(self, source, exc_type, queue=None):
        env, pe = self.make_pe(queue)
        prog = assemble(source, predefined=CFG.device_symbols())
        pe.load_program(prog)
        proc = pe.run_process()
        with pytest.raises(exc_type):
            env.run(until=proc)

    def test_word_write_to_net_tx_rejected(self):
        """The network data path is 8 bits; a word store is a bus error."""
        env = Environment()
        from repro.network import CircuitSwitchedNetwork, ExtraStageCubeTopology, NetworkFabric

        net = CircuitSwitchedNetwork(ExtraStageCubeTopology(16))
        fabric = NetworkFabric(env, net)
        pe = ProcessingElement(env, CFG, 0, port=fabric.ports[0], pe_slot=0)
        prog = assemble("    MOVE.W D0,NETTX\n    HALT",
                        predefined=CFG.device_symbols())
        pe.load_program(prog)
        with pytest.raises(BusError, match="8 bits"):
            env.run(until=pe.run_process())

    def test_simd_fetch_without_fetch_unit(self):
        self.run_and_expect("    JMP SIMDSPACE\n    HALT", BusError)

    def test_unmapped_address(self):
        self.run_and_expect("    MOVE.W $300000,D0\n    HALT", BusError)

    def test_missing_instruction(self):
        self.run_and_expect("    JMP $2000\n    HALT", BusError)

    def test_barrier_read_consuming_instruction_detected(self):
        """A data read from SIMD space must find a sync word, not an
        instruction — mixing them is a program bug the model reports."""
        env = Environment()
        queue = FetchUnitQueue(env, 16, fast_path=resolve_fast_path())
        from repro.fetch_unit.queue import QueueItem
        from repro.m68k.instructions import Instruction

        queue.try_enqueue(QueueItem(Instruction("NOP"), 1, frozenset({0})))
        pe = ProcessingElement(env, CFG, 0, queue=queue, pe_slot=0)
        prog = assemble("    MOVE.W SIMDSPACE,D0\n    HALT",
                        predefined=CFG.device_symbols())
        pe.load_program(prog)
        with pytest.raises(SimulationError, match="barrier read"):
            env.run(until=pe.run_process())

    def test_instruction_fetch_consuming_sync_word_detected(self):
        env = Environment()
        queue = FetchUnitQueue(env, 16, fast_path=resolve_fast_path())
        queue.try_enqueue(sync_item({0}))
        pe = ProcessingElement(env, CFG, 0, queue=queue, pe_slot=0)
        prog = assemble("    JMP SIMDSPACE",
                        predefined=CFG.device_symbols())
        pe.load_program(prog)
        with pytest.raises(SimulationError, match="sync word"):
            env.run(until=pe.run_process())

    def test_timer_read(self):
        env, pe = self.make_pe()
        prog = assemble(
            """
            NOP
            NOP
            MOVE.W  TIMER,D0
            MOVE.W  D0,$4000
            HALT
            """,
            predefined=CFG.device_symbols(),
        )
        pe.load_program(prog)
        env.run(until=pe.run_process())
        stored = pe.memory.read(0x4000, 2)
        assert 0 < stored <= env.now


class TestMCCostModel:
    def test_costs_positive_and_ordered(self):
        costs = MCCostModel(CFG)
        assert costs.device_write > 0
        assert costs.loop_exit > costs.loop_back
        assert costs.op_cost(SetMask((0,))) == costs.device_write

    def test_unknown_op_rejected(self):
        costs = MCCostModel(CFG)
        with pytest.raises(ConfigurationError):
            costs.op_cost(Loop(1, ()))  # Loop has no single issue cost

    def test_zero_iteration_loop_free(self):
        env = Environment()
        mask = MaskRegister((0,))
        queue = FetchUnitQueue(env, 16)
        from repro.fetch_unit import FetchUnitController

        controller = FetchUnitController(env, queue, mask)
        mc = MicroController(env, CFG, mask, controller)
        done = env.process(mc.run_program([Loop(0, (EnqueueBlock("x"),))]))
        env.run(until=done)
        assert mc.busy_cycles == 0.0

    def test_negative_loop_count_rejected(self):
        with pytest.raises(ConfigurationError):
            Loop(-1, ())


class TestLayoutValidation:
    def test_n_not_multiple_of_p(self):
        with pytest.raises(ConfigurationError):
            MatmulLayout(10, 4)

    def test_n_smaller_than_p(self):
        with pytest.raises(ConfigurationError):
            MatmulLayout(4, 8)

    def test_serial_b_not_doubled(self):
        serial = MatmulLayout(16, 1)
        parallel = MatmulLayout(16, 4)
        assert not serial.b_doubled and parallel.b_doubled
        assert serial.b_col_bytes == 32
        assert parallel.b_col_bytes == 64

    def test_regions_do_not_overlap(self):
        for n, p in ((256, 4), (256, 16), (64, 1)):
            lay = MatmulLayout(n, p)
            assert lay.text_base < lay.tt_base < lay.bptr_base < lay.a_base
            assert lay.a_base < lay.b_base < lay.c_base < lay.end
            assert lay.end <= CFG.ram_size

    def test_vp0(self):
        lay = MatmulLayout(16, 4)
        assert [lay.vp0(i) for i in range(4)] == [0, 4, 8, 12]


class TestResultsSerialization:
    def make(self):
        return ExperimentResult(
            experiment_id="figX",
            title="test",
            headers=["a", "b"],
            rows=[(1, 2.5), (3, 4.0)],
            series={"s": [(1.0, 2.0)]},
            paper_says="up",
            we_measure="up indeed",
        )

    def test_json_roundtrip(self):
        doc = json.loads(self.make().to_json())
        assert doc["experiment_id"] == "figX"
        assert doc["rows"] == [[1, 2.5], [3, 4.0]]
        assert doc["series"]["s"] == [[1.0, 2.0]]

    def test_render_without_plot(self):
        text = self.make().render(plot=False)
        assert "figX" in text and "paper:" in text

    def test_machine_result_empty_breakdown(self):
        r = MachineResult(
            mode=ExecutionMode.SERIAL, p=1, cycles=0.0,
            per_pe_cycles={}, per_pe_categories={}, instructions=0,
        )
        assert r.breakdown() == {}


class TestErrorHierarchy:
    def test_all_library_errors_are_repro_errors(self):
        import repro.errors as errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not ReproError:
                    assert issubclass(obj, ReproError), name


class TestRefreshInteraction:
    def test_heavy_refresh_slows_serial_run(self):
        src = "    NOP\n" * 50 + "    HALT"
        quiet = CFG.with_overrides(refresh=RefreshModel(100, 0))
        noisy = CFG.with_overrides(refresh=RefreshModel(100, 20))
        r_quiet = PASMMachine(quiet, 1).run_serial(assemble(src))
        r_noisy = PASMMachine(noisy, 1).run_serial(assemble(src))
        assert r_noisy.cycles > r_quiet.cycles

    def test_refresh_does_not_affect_queue_fetches(self):
        """Queue fetches are static RAM: SIMD broadcast time is refresh-
        free even under heavy refresh."""
        noisy = CFG.with_overrides(refresh=RefreshModel(100, 20))
        blocks = {
            "body": assemble("    MULU D1,D2").instruction_list(),
            "fini": assemble("    HALT").instruction_list(),
        }
        quiet_m = PASMMachine(CFG.with_overrides(
            refresh=RefreshModel(100, 0)), 4)
        noisy_m = PASMMachine(noisy, 4)
        program = [Loop(20, (EnqueueBlock("body"),)), EnqueueBlock("fini")]
        r_quiet = quiet_m.run_simd(program, dict(blocks))
        r_noisy = noisy_m.run_simd(program, dict(blocks))
        # MC issue costs see refresh, but the PE-bound broadcast stream
        # must not: totals stay within one refresh window of each other.
        assert abs(r_noisy.cycles - r_quiet.cycles) <= 40
