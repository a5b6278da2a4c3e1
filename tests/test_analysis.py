"""Tests for the analysis package, including agreement with the full model
and with the micro engine's instrumentation."""

import math

import numpy as np
import pytest

from repro.analysis import (
    asymptotic_efficiency,
    comm_to_compute_ratio,
    count_operations,
    mulu_cycle_pmf,
    mulu_max_mean_cycles,
    mulu_mean_cycles,
    ones_pmf_uniform_range,
    predicted_crossover,
)
from repro.analysis.statistics import ones_std
from repro.core import DecouplingStudy, find_crossover
from repro.machine import ExecutionMode, PASMMachine, PrototypeConfig
from repro.programs import build_matmul, generate_matrices
from repro.programs.loader import run_matmul

CFG = PrototypeConfig()


class TestCounts:
    def test_paper_counts(self):
        c = count_operations(64, 4)
        assert c.multiplications_per_pe == 64**3 // 4
        assert c.additions_per_pe == 64**3 // 4
        assert c.network_accesses_total == 2 * 64 * 64
        assert c.barrier_count == 64

    def test_added_multiplies(self):
        c = count_operations(8, 4, added_multiplies=14)
        assert c.total_multiplies_per_pe == 15 * (8**3 // 4)

    def test_serial_has_no_network(self):
        c = count_operations(16, 1)
        assert c.network_accesses_total == 0
        assert c.arithmetic_to_communication_ratio() == float("inf")

    def test_ratio_grows_linearly(self):
        r1 = count_operations(64, 4).arithmetic_to_communication_ratio()
        r2 = count_operations(128, 4).arithmetic_to_communication_ratio()
        assert r2 == pytest.approx(2 * r1)

    def test_micro_engine_matches_counts(self):
        """The simulated machine performs exactly the counted operations."""
        n, p = 8, 4
        c = count_operations(n, p)
        a, b = generate_matrices(n)
        machine = PASMMachine(CFG, partition_size=p)
        bundle = build_matmul(
            ExecutionMode.MIMD, n, p, device_symbols=CFG.device_symbols()
        )
        run_matmul(machine, bundle, a, b)
        for lp in range(p):
            bus = machine.pe(lp).bus
            assert bus.port.bytes_sent == c.network_byte_ops_per_pe
            assert bus.port.bytes_received == c.network_byte_ops_per_pe


class TestStatistics:
    def test_pmf_power_of_two_matches_binomial(self):
        support, pmf = ones_pmf_uniform_range(256)
        assert support.tolist() == list(range(9))
        assert pmf.tolist() == [math.comb(8, k) / 256 for k in range(9)]

    def test_pmf_sums_to_one(self):
        for b_max in (2, 3, 100, 256, 1000, 65536):
            _, pmf = ones_pmf_uniform_range(b_max)
            assert pmf.sum() == pytest.approx(1.0)

    def test_mean_cycles(self):
        # 8 random bits: mean ones = 4 → 46 cycles.
        assert mulu_mean_cycles(256) == pytest.approx(46.0)

    def test_max_mean_exceeds_mean(self):
        assert mulu_max_mean_cycles(256, 4) > mulu_mean_cycles(256)
        assert mulu_max_mean_cycles(256, 1) == pytest.approx(
            mulu_mean_cycles(256)
        )

    def test_max_mean_monte_carlo(self):
        rng = np.random.default_rng(11)
        samples = rng.integers(0, 256, size=(50_000, 4))
        ones = np.vectorize(lambda v: bin(v).count("1"))(samples)
        empirical = (38 + 2 * ones.max(axis=1)).mean()
        assert mulu_max_mean_cycles(256, 4) == pytest.approx(
            empirical, abs=0.1
        )

    def test_cycle_pmf_range(self):
        cycles, _ = mulu_cycle_pmf(65536)
        assert cycles.min() == 38 and cycles.max() == 38 + 32

    def test_ones_std(self):
        assert ones_std(256) == pytest.approx(np.sqrt(2.0))  # Bin(8, .5)


class TestPredictions:
    def test_crossover_prediction_near_model(self):
        """The two-term analytic estimate lands near the full model's
        crossover (and the paper's ≈14)."""
        pred = predicted_crossover(CFG, b_max=256, p=4, cols=16)
        assert 10 <= pred.crossover <= 18
        study = DecouplingStudy()
        measured = find_crossover(study, n=64, p=4).crossover
        assert pred.crossover == pytest.approx(measured, rel=0.25)

    def test_comm_ratio(self):
        assert comm_to_compute_ratio(64, 4) == pytest.approx(
            2 * 64 * 64 / (64**3 / 4)
        )

    def test_asymptotic_simd_superlinear(self):
        assert asymptotic_efficiency(CFG, b_max=256, mode="simd") > 1.0

    def test_asymptotic_async_at_most_unity(self):
        """S/MIMD's limit is exactly 1: per-iteration costs equal the
        serial program's, and the coupling/communication losses vanish as
        n grows — so its efficiency "increase[s] with the problem size,
        and never reaches or exceeds unity" (Section 10)."""
        assert asymptotic_efficiency(CFG, b_max=256, mode="smimd") <= 1.0

    def test_asymptotic_matches_model_trend(self):
        """The model's efficiency at n=256 approaches the analytic limit."""
        from repro.timing_model import predict_matmul, skewed_ones

        limit = asymptotic_efficiency(CFG, b_max=256, mode="smimd")
        _, b = generate_matrices(256)
        ones = skewed_ones(b)
        from repro.machine import ExecutionMode as M

        tser = predict_matmul(M.SERIAL, CFG, 256, 1, ones=ones).cycles
        t = predict_matmul(M.SMIMD, CFG, 256, 4, ones=ones).cycles
        eff = tser / (4 * t)
        assert eff == pytest.approx(limit, abs=0.06)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_efficiency(CFG, b_max=256, mode="warp")
