"""Cross-engine validation: the macro model must track the micro engine.

These tests are the license for using the macro model at paper scale
(n up to 256): at micro-simulable sizes the two engines agree within a
few percent, per mode and per timing category.
"""

import pytest

from repro.machine import ExecutionMode, PrototypeConfig
from repro.programs.data import generate_matrices
from repro.timing_model import predict_matmul, skewed_ones
from tests.engines import run_matmul_on

CFG = PrototypeConfig()

#: The micro engine tier the macro model is validated against.  The
#: differential suites prove both tiers bit-identical, so either tier
#: would do; lockstep is the one the experiment runner uses by default.
MICRO_ENGINE = "lockstep"


def compare(mode, n, p, *, m=0, cfg=CFG, b_bits=None):
    kwargs = {} if b_bits is None else {"b_bits": b_bits, "b_max": 1 << b_bits}
    _, b = generate_matrices(n, **kwargs)
    _, run = run_matmul_on(mode, n, p, MICRO_ENGINE, m=m, cfg=cfg,
                           b_bits=b_bits)
    pred = predict_matmul(mode, cfg, n, p, added_multiplies=m,
                          ones=skewed_ones(b))
    return run.result, pred


@pytest.mark.parametrize("n", [4, 8, 16])
def test_serial_within_half_percent(n):
    micro, macro = compare(ExecutionMode.SERIAL, n, 1)
    assert macro.cycles == pytest.approx(micro.cycles, rel=0.005)


@pytest.mark.parametrize(
    "mode",
    [ExecutionMode.SIMD, ExecutionMode.MIMD, ExecutionMode.SMIMD],
)
@pytest.mark.parametrize("n,p", [(8, 4), (16, 4)])
def test_parallel_within_two_percent(mode, n, p):
    micro, macro = compare(mode, n, p)
    assert macro.cycles == pytest.approx(micro.cycles, rel=0.02)


@pytest.mark.parametrize("mode", [ExecutionMode.SIMD, ExecutionMode.SMIMD])
def test_added_multiplies_tracked(mode):
    micro, macro = compare(mode, 8, 4, m=5)
    assert macro.cycles == pytest.approx(micro.cycles, rel=0.02)


def test_multi_mc_simd_tracked():
    micro, macro = compare(ExecutionMode.SIMD, 16, 8)
    assert macro.cycles == pytest.approx(micro.cycles, rel=0.03)


def test_category_breakdowns_agree():
    micro, macro = compare(ExecutionMode.SMIMD, 16, 4)
    mb = micro.breakdown()
    for cat, macro_val in macro.breakdown.items():
        micro_val = mb.get(cat, 0.0)
        assert macro_val == pytest.approx(micro_val, rel=0.05, abs=100), cat


def test_full_width_data_tracked():
    """Agreement holds for 16-bit random data too (higher mul variance)."""
    micro, macro = compare(ExecutionMode.SIMD, 8, 4, b_bits=16)
    assert macro.cycles == pytest.approx(micro.cycles, rel=0.02)


def test_mode_ordering_matches_micro():
    """Both engines order the modes identically at n=16."""

    def both(mode, p):
        micro, macro = compare(mode, 16, p if mode.is_parallel else 1)
        return micro.cycles, macro.cycles

    simd = both(ExecutionMode.SIMD, 4)
    smimd = both(ExecutionMode.SMIMD, 4)
    mimd = both(ExecutionMode.MIMD, 4)
    serial = both(ExecutionMode.SERIAL, 1)
    for engine in (0, 1):
        assert simd[engine] < smimd[engine] < mimd[engine] < serial[engine]


def test_wait_state_ablation_tracked():
    """Removing the queue's wait-state advantage shifts both engines
    equally (ws_main == ws_queue kills part of the SIMD edge)."""
    cfg = CFG.with_overrides(ws_main=0, ws_queue=0)
    micro, macro = compare(ExecutionMode.SIMD, 8, 4, cfg=cfg)
    assert macro.cycles == pytest.approx(micro.cycles, rel=0.02)


@pytest.mark.parametrize(
    "overrides",
    [
        {"ws_main": 2, "ws_queue": 1},
        {"ws_main": 3, "ws_queue": 0},
        {"net_byte_latency": 100},
        {"net_byte_latency": 2},
        {"ws_status": 1},
        {"ws_status": 200},
        {"controller_cycles_per_word": 12},
        {"queue_capacity_words": 16},
    ],
)
@pytest.mark.parametrize(
    "mode", [ExecutionMode.SIMD, ExecutionMode.MIMD, ExecutionMode.SMIMD]
)
def test_differential_under_config_perturbations(overrides, mode):
    """The engines must agree across the configuration space, not just at
    the calibrated point — the differential test that protects the macro
    model from overfitting to one constant set."""
    from repro.memory import RefreshModel

    cfg = CFG.with_overrides(refresh=RefreshModel(250, 0), **overrides)
    micro, macro = compare(mode, 8, 4, cfg=cfg)
    # The macro model's bottleneck composition is intentionally slightly
    # conservative when the Fetch Unit Controller is made the bottleneck
    # (queue buffering smooths transients it treats as rate limits), so
    # the tolerance here is wider than at the calibrated point (2%).
    assert macro.cycles == pytest.approx(micro.cycles, rel=0.05), overrides
