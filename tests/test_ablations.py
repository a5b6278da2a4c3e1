"""Ablations of the calibrated mechanisms DESIGN.md calls out.

Each test switches one mechanism off (or sweeps it) on the macro model
and checks that the paper's effect moves the way the mechanism
predicts — evidence that the reproduced phenomena come from the
modelled mechanisms, not incidental constants:

* **queue wait-state advantage** — removing it erases most of SIMD's
  superlinearity;
* **DRAM refresh** — a second-order contribution to the same effect;
* **multiplier entropy (b_max)** — moves the Figure 7 crossover;
* **status-poll cost** — moves the MIMD efficiency gap;
* **network byte latency** — moves everyone's communication, not the gap.
"""

from repro.core import DecouplingStudy, find_crossover
from repro.machine import ExecutionMode, PrototypeConfig
from repro.memory import RefreshModel

BASE = PrototypeConfig.calibrated()


def _efficiency(cfg, mode, n=256, p=4, **study_kw):
    study = DecouplingStudy(cfg, **study_kw)
    return study.efficiency(mode, n, p, engine="macro")


def test_ablation_queue_wait_states():
    """SIMD superlinearity ablation: no fetch advantage, no refresh."""
    base = _efficiency(BASE, ExecutionMode.SIMD)
    flat_cfg = BASE.with_overrides(
        ws_main=0, ws_queue=0, refresh=RefreshModel(250, 0)
    )
    flat = _efficiency(flat_cfg, ExecutionMode.SIMD)
    # Without the fetch advantage, superlinearity shrinks substantially
    # (control overlap alone keeps it slightly above the async modes).
    assert flat < base


def test_ablation_multiplier_entropy():
    """Crossover vs b_max: more multiplier entropy, earlier crossover."""
    xs = []
    for b_max in (16, 64, 256, 65536):
        study = DecouplingStudy(BASE, b_max=b_max)
        xs.append(find_crossover(study, n=64, p=4,
                                 max_multiplies=60).crossover)
    assert xs[-1] < xs[0]  # full-width data decouples earliest


def test_ablation_status_poll_cost():
    """MIMD-vs-S/MIMD efficiency gap vs the calibrated poll cost."""
    gaps = []
    for ws_status in (1, 104):
        cfg = BASE.with_overrides(ws_status=ws_status)
        smimd = _efficiency(cfg, ExecutionMode.SMIMD)
        mimd = _efficiency(cfg, ExecutionMode.MIMD)
        gaps.append(smimd - mimd)
    assert gaps[1] > gaps[0]


def test_ablation_network_latency():
    """Byte latency hits all parallel modes' communication, roughly alike."""
    out = {}
    for latency in (24, 200):
        study = DecouplingStudy(
            BASE.with_overrides(net_byte_latency=latency))
        out[latency] = {
            mode.value: study.run(mode, 64, 4, engine="macro").cycles
            for mode in (ExecutionMode.SIMD, ExecutionMode.SMIMD)
        }
    slow, fast = out[200], out[24]
    assert slow["simd"] > fast["simd"]
    assert slow["smimd"] > fast["smimd"]


def test_ablation_refresh():
    """DRAM refresh contributes a measurable slice of the SIMD advantage."""
    noref = BASE.with_overrides(refresh=RefreshModel(250, 0))
    with_ref = _efficiency(BASE, ExecutionMode.SIMD)
    without_ref = _efficiency(noref, ExecutionMode.SIMD)
    assert with_ref >= without_ref
