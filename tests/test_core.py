"""Tests for the core API: metrics, study facade, crossover."""

import pytest

from repro.core import (
    DecouplingStudy,
    decoupling_benefit_per_multiply,
    efficiency,
    find_crossover,
    speedup,
)
from repro.errors import ConfigurationError
from repro.machine import ExecutionMode, PrototypeConfig


class TestMetrics:
    def test_speedup(self):
        assert speedup(100, 25) == 4.0

    def test_efficiency(self):
        assert efficiency(100, 25, 4) == 1.0
        assert efficiency(100, 20, 4) == 1.25  # superlinear

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup(0, 10)
        with pytest.raises(ValueError):
            efficiency(10, 10, 0)


class TestStudy:
    def test_micro_runs_verify_product(self):
        study = DecouplingStudy()
        res = study.run(ExecutionMode.SIMD, 8, 4, engine="micro")
        assert res.verified and res.engine == "micro"

    def test_auto_engine_selection(self):
        study = DecouplingStudy(micro_threshold=8)
        small = study.run(ExecutionMode.SERIAL, 8, 1)
        big = study.run(ExecutionMode.SERIAL, 16, 1)
        assert small.engine == "micro"
        assert big.engine == "macro"

    def test_caching(self):
        study = DecouplingStudy()
        a = study.run(ExecutionMode.SERIAL, 8, 1, engine="macro")
        b = study.run(ExecutionMode.SERIAL, 8, 1, engine="macro")
        assert a is b

    def test_engines_agree(self):
        study = DecouplingStudy()
        micro = study.run(ExecutionMode.SMIMD, 16, 4, engine="micro")
        macro = study.run(ExecutionMode.SMIMD, 16, 4, engine="macro")
        assert macro.cycles == pytest.approx(micro.cycles, rel=0.02)

    def test_efficiency_helper(self):
        study = DecouplingStudy()
        eff = study.efficiency(ExecutionMode.SIMD, 16, 4, engine="micro")
        assert 0.5 < eff < 1.2

    def test_serial_with_wrong_p_rejected(self):
        study = DecouplingStudy()
        with pytest.raises(ConfigurationError):
            study.run(ExecutionMode.SERIAL, 8, 4)

    def test_unknown_engine_rejected(self):
        study = DecouplingStudy()
        with pytest.raises(ConfigurationError):
            study.run(ExecutionMode.SIMD, 8, 4, engine="quantum")

    def test_breakdown_present(self):
        study = DecouplingStudy()
        res = study.run(ExecutionMode.MIMD, 8, 4, engine="macro")
        assert {"mult", "comm", "control", "other"} <= set(res.breakdown)
        assert sum(res.breakdown.values()) == pytest.approx(res.cycles)


class TestCrossover:
    def test_paper_crossover_band(self):
        """The headline result: T_SIMD = T_S/MIMD at ≈14 added multiplies
        for n=64, p=4 (the paper's plotted points span 13–15)."""
        study = DecouplingStudy()
        result = find_crossover(study, n=64, p=4)
        assert result.found
        assert 12.0 <= result.crossover <= 16.0

    def test_sweep_monotone_difference(self):
        """SIMD's lead shrinks monotonically with added multiplies."""
        study = DecouplingStudy()
        result = find_crossover(study, n=64, p=4)
        diffs = [t2 - t1 for _, t1, t2 in result.sweep]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_no_crossover_at_tiny_n(self):
        """With few columns per PE (n=8, p=4 ⇒ 2), the per-step barrier
        re-coupling cancels the decoupling benefit: SIMD stays ahead no
        matter how many multiplies are added.  (The paper measured its
        crossover at n=64, where each PE holds 16 columns.)  Verified on
        the exact micro engine."""
        study = DecouplingStudy()
        result = find_crossover(
            study, n=8, p=4, engine="micro", max_multiplies=12
        )
        assert not result.found
        diffs = [t2 - t1 for _, t1, t2 in result.sweep]
        assert all(d > 0 for d in diffs)

    def test_not_found_reported(self):
        study = DecouplingStudy()
        result = find_crossover(study, n=64, p=4, max_multiplies=2)
        assert not result.found

    def test_benefit_formula(self):
        # More PEs -> bigger max gap -> bigger benefit.
        b4 = decoupling_benefit_per_multiply(8, 4)
        b16 = decoupling_benefit_per_multiply(8, 16)
        assert b16 > b4 > 0
        # One PE: no max effect; the fetch penalty makes decoupling lose.
        assert decoupling_benefit_per_multiply(8, 1) < 0
