"""The macro model's multiply kernel against a gather-based reference.

:func:`repro.timing_model.predict_matmul` costs the data-dependent
multiply time from one skewed popcount matrix of B
(:func:`~repro.timing_model.skewed_ones`), reduced over reshapes of it in
integers.  The reference below starts from B itself, so it checks the
skewing too.  It is the direct algorithm: gather
the ``(p, n, cols)`` multiplier schedule with
:func:`~repro.programs.data.multiplier_schedule`, popcount it with
:func:`~repro.timing_model.ones_of_schedule`, and reduce ``2·ones`` in
float64 per PE, per step and per MC group.  Its fixed costs come from the
same fragment helpers as the model's.  On generated configurations (every
mode, n up to 64 with every valid p, added multiplies, data seed and
range, MC group sizes 1 to 16) and at the design-scale n=2048, p=1024
point, the cycles and the breakdown must be bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import ExecutionMode, PrototypeConfig
from repro.machine.partition import Partition
from repro.mc import MCCostModel
from repro.programs.common import inner_body_source, setup_v_source
from repro.programs.data import (
    MatmulLayout,
    generate_matrices,
    multiplier_schedule,
)
from repro.timing_model import (
    ModelResult,
    comm_pipeline,
    ones_of_schedule,
    predict_matmul,
    skewed_ones,
)
from repro.timing_model.fragments import CostEnv
from repro.timing_model.models import (
    _Pieces,
    _assemble_fragment,
    _async_common,
    _barrier_cost,
    predict_serial,
)

#: Machines whose MC groups hold 4, 4, 16, 2 and 1 PEs.
CONFIGS = (
    PrototypeConfig(),
    PrototypeConfig(n_pes=64, n_mcs=16),
    PrototypeConfig(n_pes=64, n_mcs=4),
    PrototypeConfig(n_pes=64, n_mcs=32),
    PrototypeConfig(n_pes=64, n_mcs=64),
)


# ---------------------------------------------------------------------------
# The reference
def _var_schedule(b, p):
    """2·ones of the multiplier schedule, shape (p, n, cols)."""
    return 2.0 * ones_of_schedule(multiplier_schedule(b, p))


def _result(mode, n, p, m, total):
    return ModelResult(mode, n, p, m, sum(total.values()),
                       {k: v for k, v in total.items() if v})


def reference_async(config, n, p, m, b, *, barrier):
    layout = MatmulLayout(n, p)
    env = CostEnv.for_mode(config, simd_stream=False)
    total, _ = _async_common(config, layout, m, env, polling=not barrier)
    per_step = n * (1 + m) * _var_schedule(b, p).sum(axis=2)  # (p, n)
    own_mean = float(per_step.mean(axis=0).sum())
    skew_wait = float(per_step.max(axis=0).sum()) - own_mean
    total["mult"] += own_mean
    if barrier:
        total["sync"] += n * _barrier_cost(config) + skew_wait
    else:
        total["comm"] += skew_wait
    mode = ExecutionMode.SMIMD if barrier else ExecutionMode.MIMD
    return _result(mode, n, p, m, total)


def reference_simd(config, n, p, m, b):
    layout = MatmulLayout(n, p)
    cols = layout.cols
    env = CostEnv.for_mode(config, simd_stream=True)
    pieces = _Pieces(config, layout, m, env)
    mc = MCCostModel(config)
    total = {"mult": 0.0, "comm": 0.0, "control": 0.0, "other": 0.0,
             "sync": 0.0}
    issue, loop_iter = mc.device_write, mc.loop_back

    def mc_loop(count, per_iter):
        if count == 0:
            return mc.loop_setup
        return (mc.loop_setup + count * per_iter
                + (count - 1) * mc.loop_back + mc.loop_exit)

    cpw = config.controller_cycles_per_word
    total["other"] += pieces.lea_c.cycles + n * cols * max(
        pieces.clear_unit.cycles, issue + loop_iter, cpw)
    words = [sum(i.encoded_words()
                 for i in _assemble_fragment(src, layout, config))
             for src in (inner_body_source(m), setup_v_source())]
    group = Partition(config, p).pes_per_mc_used
    var = _var_schedule(b, p).reshape(-1, group, n, cols)
    pass_var = n * (1 + m) * var.max(axis=1)  # (groups, n, cols)
    pe_pass_fixed = (
        max(pieces.setup_v.cycles, issue + loop_iter, cpw * words[1])
        + n * max(pieces.body.cycles, issue + loop_iter, cpw * words[0])
    )
    mc_phase_j = issue + mc_loop(cols, issue + mc_loop(n, issue))
    pe_phase_gj = (
        pieces.reset.cycles + cols * pe_pass_fixed + pass_var.sum(axis=2)
    )  # (groups, n)
    total["mult"] += float(
        np.maximum(pe_phase_gj.max(axis=0), mc_phase_j).sum())
    phase = comm_pipeline(config, env, polling=False, n_elements=n,
                          pe_loop=False)
    total["other"] += n * max(pieces.rotate.cycles, issue)
    total["comm"] += n * max(phase.cycles, issue + mc_loop(n, issue))
    total["control"] += mc.device_write + cpw * 2 + pieces.halt.cycles
    return _result(ExecutionMode.SIMD, n, p, m, total)


def reference_serial(config, n, m, b):
    """The model's fixed costs (B = 0 has no variable time), plus the
    float64 popcount sum of B."""
    total = {"mult": 0.0, "comm": 0.0, "control": 0.0, "other": 0.0,
             "sync": 0.0}
    zeros = np.zeros_like(b, dtype=np.uint8)
    total.update(predict_serial(config, n, m, zeros).breakdown)
    total["mult"] += float(n * (1 + m) * 2.0 * ones_of_schedule(b).sum())
    return _result(ExecutionMode.SERIAL, n, 1, m, total)


def reference(mode, config, n, p, m, b):
    if mode is ExecutionMode.SERIAL:
        return reference_serial(config, n, m, b)
    if mode is ExecutionMode.SIMD:
        return reference_simd(config, n, p, m, b)
    return reference_async(config, n, p, m, b,
                           barrier=mode is ExecutionMode.SMIMD)


def _assert_identical(mode, config, n, p, m, b):
    got = predict_matmul(mode, config, n, p, added_multiplies=m,
                         ones=skewed_ones(b))
    want = reference(mode, config, n, p, m, b)
    assert got.cycles == want.cycles
    assert got.breakdown == want.breakdown
    assert list(got.breakdown) == list(want.breakdown)


# ---------------------------------------------------------------------------
# Generated cases
def _valid_ps(config, n):
    """Partition sizes a matmul of order n can use on ``config``."""
    return [p for p in (2 ** k for k in range(n.bit_length()))
            if n % p == 0 and config.pes_per_mc <= p <= config.n_pes]


@st.composite
def _case(draw):
    mode = draw(st.sampled_from(ExecutionMode))
    config = draw(st.sampled_from(CONFIGS))
    n = draw(st.sampled_from((4, 8, 16, 32, 64)))
    if mode is ExecutionMode.SERIAL:
        p = 1
    else:
        ps = _valid_ps(config, n)
        if not ps:
            n, ps = 64, _valid_ps(config, 64)
        p = draw(st.sampled_from(ps))
    m = draw(st.integers(0, 20))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        data = {"b_bits": draw(st.integers(1, 16))}
    else:
        data = {"b_max": draw(st.integers(2, 1 << 16))}
    _, b = generate_matrices(n, seed=seed, **data)
    return mode, config, n, p, m, b


@settings(max_examples=300, deadline=None)
@given(_case())
def test_predict_matmul_matches_gather_reference(case):
    _assert_identical(*case)


@pytest.mark.parametrize("mode", [ExecutionMode.SIMD, ExecutionMode.SMIMD,
                                  ExecutionMode.MIMD])
def test_design_scale_point_matches_gather_reference(mode):
    """The ext-scale exhibit's largest point: n=2048 on the designed
    N=1024, Q=32 machine, two columns per PE."""
    _, b = generate_matrices(2048)
    _assert_identical(mode, PrototypeConfig(n_pes=1024, n_mcs=32),
                      2048, 1024, 0, b)
