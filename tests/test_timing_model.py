"""Unit tests for the macro timing model components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.m68k.assembler import assemble
from repro.machine import PrototypeConfig
from repro.programs.data import MatmulLayout, generate_matrices, multiplier_schedule
from repro.timing_model import (
    CostEnv,
    comm_pipeline,
    expected_max_ones,
    expected_ones,
    ones_of_schedule,
    static_cost,
)
from repro.timing_model.fragments import loop_overhead
from repro.timing_model.mulstats import max_ones_gap, skewed_ones

CFG = PrototypeConfig()
ENV_MIMD = CostEnv.for_mode(CFG, simd_stream=False)
ENV_SIMD = CostEnv.for_mode(CFG, simd_stream=True)


class TestMulStats:
    def test_expected_ones(self):
        assert expected_ones(16) == 8.0
        assert expected_ones(6) == 3.0

    def test_expected_max_degenerate(self):
        assert expected_max_ones(16, 1) == pytest.approx(8.0)

    def test_expected_max_increases_with_p(self):
        vals = [expected_max_ones(16, p) for p in (1, 2, 4, 8, 16)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_expected_max_bounded_by_bits(self):
        assert expected_max_ones(8, 1000) <= 8.0

    @given(st.integers(2, 16), st.integers(1, 16))
    @settings(max_examples=30)
    def test_expected_max_matches_monte_carlo(self, bits, p):
        exact = expected_max_ones(bits, p)
        rng = np.random.default_rng(42)
        samples = rng.binomial(bits, 0.5, size=(20_000, p)).max(axis=1)
        assert exact == pytest.approx(samples.mean(), abs=0.05)

    def test_gap_positive(self):
        assert max_ones_gap(16, 4) > 0
        assert max_ones_gap(16, 1) == pytest.approx(0.0)

    def test_schedule_aggregations(self):
        _, b = generate_matrices(8, b_bits=16)
        sched = ones_of_schedule(multiplier_schedule(b, 4))
        assert sched.shape == (4, 8, 2)
        skewed = skewed_ones(b).reshape(8, 4, 2)  # (n_steps, p, cols)
        # PE i's (step, column) block is a plain reshape of the step rows.
        assert np.array_equal(skewed.transpose(1, 0, 2), sched)
        simd = int(skewed.max(axis=1).sum())  # one MC group of 4 PEs
        per_pe = skewed.sum(axis=2)  # (n_steps, p)
        # SIMD max-coupling always costs at least any single PE's time.
        assert simd >= per_pe.sum(axis=0).max()
        assert simd >= float(per_pe.mean(axis=1).sum())


class TestMultiplierSchedule:
    def test_matches_direct_indexing(self):
        n, p = 8, 4
        _, b = generate_matrices(n, b_bits=16)
        sched = multiplier_schedule(b, p)
        cols = n // p
        for i in range(p):
            for j in range(n):
                for v in range(cols):
                    vp = i * cols + v
                    assert sched[i, j, v] == b[(vp + j) % n, vp]

    def test_each_b_element_used_exactly_n_over_p_times_per_pe(self):
        n, p = 16, 4
        _, b = generate_matrices(n, b_bits=16)
        sched = multiplier_schedule(b, p)
        # Every column's elements all appear exactly once across steps.
        for i in range(p):
            for v in range(n // p):
                vp = i * (n // p) + v
                assert sorted(sched[i, :, v]) == sorted(b[:, vp])


class TestStaticCost:
    def test_simple_block(self):
        instrs = assemble(
            "        .timecat mult\n        MOVE.W D0,D1\n        ADD.W D1,D2"
        ).instruction_list()
        cost = static_cost(instrs, ENV_MIMD, CFG)
        # 2 instructions, 4+4 cycles + 2 stream ws + 2 refresh calls
        expected = 8 + 2 * CFG.ws_main + 2 * CFG.refresh.average_stall_per_access
        assert cost.cycles == pytest.approx(expected)
        assert cost.by_category == {"mult": pytest.approx(expected)}

    def test_var_multiply_counted(self):
        instrs = assemble("        MULU D1,D0\n        MULU D1,D5").instruction_list()
        cost = static_cost(instrs, ENV_MIMD, CFG)
        assert cost.var_multiplies == 2
        # charged at the 38-cycle base
        assert cost.cycles >= 76

    def test_simd_stream_cheaper(self):
        instrs = assemble("        MOVE.W D0,D1").instruction_list()
        mimd = static_cost(instrs, ENV_MIMD, CFG).cycles
        simd = static_cost(instrs, ENV_SIMD, CFG).cycles
        # one stream word: saves ws_main - ws_queue plus the refresh call
        saving = (CFG.ws_main - CFG.ws_queue) + CFG.refresh.average_stall_per_access
        assert mimd - simd == pytest.approx(saving)

    def test_device_access_classified(self):
        instrs = assemble(
            "        MOVE.B D0,NETTX", predefined=CFG.device_symbols()
        ).instruction_list()
        cost = static_cost(instrs, ENV_MIMD, CFG)
        # write goes to the device (ws_device), not RAM
        base = 16 + 3 * CFG.ws_main + CFG.ws_device
        assert cost.cycles == pytest.approx(
            base + CFG.refresh.average_stall_per_access
        )

    def test_status_access_uses_status_wait_states(self):
        instrs = assemble(
            "        MOVE.W NETSTAT,D5", predefined=CFG.device_symbols()
        ).instruction_list()
        cost = static_cost(instrs, ENV_MIMD, CFG)
        assert cost.cycles > CFG.ws_status  # dominated by the poll port

    def test_rejects_control_flow(self):
        instrs = assemble("x:  BRA x").instruction_list()
        with pytest.raises(ValueError, match="straight-line"):
            static_cost(instrs, ENV_MIMD, CFG)

    def test_scaled(self):
        instrs = assemble("        MULU D1,D0").instruction_list()
        cost = static_cost(instrs, ENV_MIMD, CFG)
        double = cost.scaled(2)
        assert double.cycles == pytest.approx(2 * cost.cycles)
        assert double.var_multiplies == 2


class TestLoopOverhead:
    def test_zero_iterations_free(self):
        assert loop_overhead(0, ENV_MIMD, CFG).cycles == 0

    def test_counts(self):
        one = loop_overhead(1, ENV_MIMD, CFG).cycles
        ten = loop_overhead(10, ENV_MIMD, CFG).cycles
        # 9 extra taken-DBRAs
        dbra_taken = 10 + 2 * CFG.ws_main + CFG.refresh.average_stall_per_access
        assert ten - one == pytest.approx(9 * dbra_taken)

    def test_category(self):
        cost = loop_overhead(5, ENV_MIMD, CFG, category="comm")
        assert list(cost.by_category) == ["comm"]


class TestCommPipeline:
    def test_monotone_in_elements(self):
        a = comm_pipeline(CFG, ENV_MIMD, polling=False, n_elements=4)
        b = comm_pipeline(CFG, ENV_MIMD, polling=False, n_elements=8)
        assert b.cycles > a.cycles

    def test_polling_costs_more(self):
        plain = comm_pipeline(CFG, ENV_MIMD, polling=False, n_elements=16)
        polled = comm_pipeline(CFG, ENV_MIMD, polling=True, n_elements=16)
        assert polled.cycles > plain.cycles
        assert polled.per_element_steady > plain.per_element_steady

    def test_latency_bound_when_slow_network(self):
        slow = CFG.with_overrides(net_byte_latency=500)
        phase = comm_pipeline(
            slow, CostEnv.for_mode(slow, False), polling=False, n_elements=16
        )
        # two bytes per element through a 1-byte/500-cycle mover
        assert phase.per_element_steady >= 1000

    def test_code_bound_when_fast_network(self):
        fast = CFG.with_overrides(net_byte_latency=1)
        phase = comm_pipeline(
            fast, CostEnv.for_mode(fast, False), polling=False, n_elements=16
        )
        assert phase.per_element_steady < 250

    def test_simd_variant_cheaper_than_pe_loop(self):
        with_loop = comm_pipeline(CFG, ENV_SIMD, polling=False, n_elements=16)
        no_loop = comm_pipeline(
            CFG, ENV_SIMD, polling=False, n_elements=16, pe_loop=False
        )
        assert no_loop.cycles < with_loop.cycles
