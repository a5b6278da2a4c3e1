"""Closed-form/vectorized execution-time predictions for all four modes.

Every prediction mirrors the *structure of the generated programs* (see
:mod:`repro.programs`): the same fragments, the same loop counts, the same
multiplier schedule.  The only non-trivial modelling choices, validated
against the micro engine by the cross-engine tests, are:

* **per-step max coupling** for the asynchronous modes: the S/MIMD barrier
  (and MIMD's blocking ring transfers) re-align PEs every rotation step,
  so the data-dependent multiply skew costs ``Σ_j max_i`` rather than the
  uncoupled ``max_i Σ_j`` of the paper's Equation (2) — the difference is
  small because per-step skew is bounded;
* **per-instruction max coupling** for SIMD (the paper's Equation (1)),
  applied within each MC group, with cross-group alignment at the transfer
  phases;
* **bottleneck overlap** for SIMD control flow: each phase takes the
  slower of the PE execution time and the MC issue + Fetch Unit transfer
  time; when PEs dominate (the usual case), MC control flow vanishes from
  the critical path — the paper's superlinearity mechanism.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.m68k.addressing import absl, areg, dreg, imm
from repro.m68k.assembler import assemble
from repro.m68k.instructions import Instruction, Size
from repro.m68k.timing import CYCLE_SECONDS, instruction_timing
from repro.machine.config import PrototypeConfig
from repro.machine.modes import ExecutionMode
from repro.machine.partition import Partition
from repro.mc import MCCostModel
from repro.programs.common import (
    inner_body_source,
    layout_symbols,
    reset_tables_source,
    rotate_source,
    setup_v_source,
)
from repro.programs.data import MatmulLayout
from repro.timing_model.fragments import (
    CostEnv,
    static_cost,
    loop_overhead,
)
from repro.timing_model.pipeline import comm_pipeline


@dataclass
class ModelResult:
    """Macro-engine prediction for one configuration."""

    mode: ExecutionMode
    n: int
    p: int
    added_multiplies: int
    cycles: float
    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.cycles * CYCLE_SECONDS


# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=1024)
def _assemble_fragment(source: str, layout: MatmulLayout,
                       config: PrototypeConfig) -> tuple[Instruction, ...]:
    # Memoised: one exhibits pass costs the same few fragments for every
    # (mode, p, m) point.  A tuple, since every caller shares the result.
    symbols = layout_symbols(layout)
    symbols.update(config.device_symbols())
    return tuple(assemble(source, predefined=symbols).instruction_list())


def _cost(source, layout, config, env):
    return static_cost(_assemble_fragment(source, layout, config), env, config)


class _Pieces:
    """Shared fragment costs for one (config, layout, m, env).

    Each piece is costed on first use, so a model that never reads one
    (serial never rotates A) never assembles its fragment.
    """

    def __init__(self, config, layout, m, env):
        self.config, self.layout, self.m, self.env = config, layout, m, env

    def _cost(self, source):
        return _cost(source, self.layout, self.config, self.env)

    @functools.cached_property
    def body(self):
        return self._cost(inner_body_source(self.m))

    @functools.cached_property
    def setup_v(self):
        return self._cost(setup_v_source())

    @functools.cached_property
    def reset(self):
        return self._cost(reset_tables_source())

    @functools.cached_property
    def rotate(self):
        return self._cost(rotate_source(self.layout))

    @functools.cached_property
    def clear_unit(self):
        return self._cost("        .timecat other\n        CLR.W (A1)+")

    @functools.cached_property
    def lea_c(self):
        return self._cost("        .timecat other\n        LEA CBASE,A1")

    @functools.cached_property
    def halt(self):
        return self._cost("        .timecat control\n        HALT")


def _reduce(ufunc, x: np.ndarray, axis: int, dtype=None) -> np.ndarray:
    """``ufunc.reduce(x, axis, dtype=dtype)``, folded slice by slice.

    numpy pays a fixed cost per output element when it reduces a short
    axis: at p = 1024 (two columns per PE) that costs ~10x more than
    folding the axis's slices together elementwise, which runs in memory
    order.  The same integers are combined either way, so the result is
    exact.  On a 2-CPU host the exhibits' macro jobs take 95 ms of CPU
    with the fold and 232 ms with numpy's reduce, which wins only on the
    64-long axes of p = 32 at n = 2048 (3 vs 12 ms), too little to show
    in a pass.
    """
    parts = np.moveaxis(x, axis, 0)
    out = parts[0].astype(dtype or x.dtype)
    for part in parts[1:]:
        ufunc(out, part, out=out)
    return out


# ---------------------------------------------------------------------------
def predict_serial(
    config: PrototypeConfig, n: int, m: int, ones: np.ndarray
) -> ModelResult:
    layout = MatmulLayout(n, 1)
    env = CostEnv.for_mode(config, simd_stream=False)
    pieces = _Pieces(config, layout, m, env)
    total = {"mult": 0.0, "comm": 0.0, "control": 0.0, "other": 0.0, "sync": 0.0}

    def add(cost, scale=1.0):
        for cat, cyc in cost.by_category.items():
            total[cat] += cyc * scale

    words = n * n
    add(pieces.lea_c)
    add(loop_overhead(words, env, config, "other"))
    add(pieces.clear_unit, words)

    # preamble: LEA BBASE,A2 / LEA CBASE,A5
    add(_cost("        .timecat control\n        LEA BBASE,A2\n"
              "        LEA CBASE,A5", layout, config, env))
    add(loop_overhead(n, env, config))  # c loop
    # per c: LEA ABASE,A0 (control) + r-loop overhead + ADDA
    add(_cost("        .timecat control\n        LEA ABASE,A0",
              layout, config, env), n)
    adda = Instruction("ADDA", Size.WORD, (imm(layout.col_bytes), areg(5)),
                       timecat="control")
    from repro.timing_model.fragments import instruction_cost

    adda_c, _ = instruction_cost(adda, env, config)
    total["control"] += n * adda_c
    add(loop_overhead(n, env, config), n)  # r loops
    # per (c, r): multiplier load + C column reset (mult category)
    add(_cost("        .timecat mult\n        MOVE.W (A2)+,D1\n"
              "        MOVEA.L A5,A1", layout, config, env), n * n)
    add(loop_overhead(n, env, config), n * n)  # k loops
    add(pieces.body, n * n * n)  # fixed body (MULU at base 38)
    # data-dependent multiply time: every B element drives n·(1+m) muls
    # (S holds each element's ones once, so its sum is that of B)
    total["mult"] += float(2 * n * (1 + m) * int(ones.sum()))
    add(pieces.halt)

    cycles = sum(total.values())
    return ModelResult(ExecutionMode.SERIAL, n, 1, m, cycles,
                       {k: v for k, v in total.items() if v})


# ---------------------------------------------------------------------------
def _async_common(config, layout, m, env, *, polling: bool):
    """Fixed per-PE cost pieces shared by MIMD and S/MIMD."""
    n, cols = layout.n, layout.cols
    pieces = _Pieces(config, layout, m, env)
    total = {"mult": 0.0, "comm": 0.0, "control": 0.0, "other": 0.0, "sync": 0.0}

    def add(cost, scale=1.0):
        for cat, cyc in cost.by_category.items():
            total[cat] += cyc * scale

    words = n * cols
    add(pieces.lea_c)
    add(loop_overhead(words, env, config, "other"))
    add(pieces.clear_unit, words)
    add(loop_overhead(n, env, config))  # j loop
    add(pieces.reset, n)
    add(loop_overhead(cols, env, config), n)  # v loops
    add(pieces.setup_v, n * cols)
    add(loop_overhead(n, env, config), n * cols)  # k loops
    add(pieces.body, n * cols * n)
    add(pieces.rotate, n)
    phase = comm_pipeline(config, env, polling=polling, n_elements=n)
    total["comm"] += n * phase.cycles
    add(pieces.halt)
    return total, phase


def _barrier_cost(config: PrototypeConfig) -> float:
    """MOVE.W SIMDSPACE,D5: stream from RAM, data word from the queue."""
    instr = Instruction(
        "MOVE", Size.WORD, (absl(config.simd_space_base), dreg(5))
    )
    t = instruction_timing(instr)
    return (
        t.cycles
        + config.ws_main * t.stream_words
        + config.ws_queue * t.data_reads
        + config.refresh.average_stall_per_access
    )


def predict_async(
    config: PrototypeConfig,
    n: int,
    p: int,
    m: int,
    ones: np.ndarray,
    *,
    barrier: bool,
) -> ModelResult:
    """MIMD (``barrier=False``) or S/MIMD (``barrier=True``) prediction."""
    layout = MatmulLayout(n, p)
    env = CostEnv.for_mode(config, simd_stream=False)
    total, _ = _async_common(config, layout, m, env, polling=not barrier)

    # Data-dependent multiply time with per-step coupling: each PE pays its
    # own multiply time (mean over PEs for the breakdown); the slowest PE
    # per rotation step sets the pace (skew charged to sync/comm).  Every
    # multiplier drives n·(1+m) multiplies of 2·ones variable cycles.
    scale = 2 * n * (1 + m)
    step_ones = _reduce(np.add, ones.reshape(n, p, layout.cols), 2,
                        np.int64)  # (n_steps, p)
    own_mean = float((scale * step_ones.sum(axis=1) / p).sum())
    coupled = float(scale * int(step_ones.max(axis=1).sum()))
    skew_wait = coupled - own_mean  # mean wait at the per-step sync point
    total["mult"] += own_mean
    if barrier:
        total["sync"] += n * _barrier_cost(config) + skew_wait
    else:
        total["comm"] += skew_wait

    cycles = sum(total.values())
    mode = ExecutionMode.SMIMD if barrier else ExecutionMode.MIMD
    return ModelResult(mode, n, p, m, cycles,
                       {k: v for k, v in total.items() if v})


# ---------------------------------------------------------------------------
def predict_simd(
    config: PrototypeConfig, n: int, p: int, m: int, ones: np.ndarray
) -> ModelResult:
    layout = MatmulLayout(n, p)
    cols = layout.cols
    env = CostEnv.for_mode(config, simd_stream=True)
    pieces = _Pieces(config, layout, m, env)
    mc = MCCostModel(config)
    total = {"mult": 0.0, "comm": 0.0, "control": 0.0, "other": 0.0, "sync": 0.0}

    def add(cost, scale=1.0):
        for cat, cyc in cost.by_category.items():
            total[cat] += cyc * scale

    # MC issue cost of one EnqueueBlock inside a loop iteration.
    issue = mc.device_write
    loop_iter = mc.loop_back

    def mc_loop(count: int, per_iter: float) -> float:
        if count == 0:
            return mc.loop_setup
        return (
            mc.loop_setup + count * per_iter
            + (count - 1) * mc.loop_back + mc.loop_exit
        )

    cpw = config.controller_cycles_per_word

    def unit(pe_cost: float, words: int) -> float:
        """Sustained repeating unit: slowest of PE / MC issue / controller."""
        return max(pe_cost, issue + loop_iter, cpw * words)

    # ---- clear phase ----
    words_c = n * cols
    pe_clear = unit(pieces.clear_unit.cycles, 1)
    total["other"] += pieces.lea_c.cycles + words_c * pe_clear
    # ---- compute phases ----
    # Per (j, v) pass: setup_v + n bodies.  PE-side fixed costs:
    body_fixed = pieces.body.cycles  # includes (1+m) MULUs at base 38
    body_words = sum(
        i.encoded_words()
        for i in _assemble_fragment(inner_body_source(m), layout, config)
    )
    setup_words = sum(
        i.encoded_words()
        for i in _assemble_fragment(setup_v_source(), layout, config)
    )
    # Variable multiply time: per-instruction max within each MC group.
    part = Partition(config, p)
    group = part.pes_per_mc_used  # PEs per Fetch Unit
    gmax = _reduce(np.maximum, ones.reshape(n, p // group, group, cols),
                   2)  # (n_steps, groups, cols): per-broadcast max
    # compute phase per (group, j): Σ_v [setup_v + n·(body_fixed + (1+m)·max)];
    # the slowest group sets each step's pace.
    step_max = _reduce(np.add, gmax, 2, np.int64).max(axis=1)  # (n_steps,)
    pe_pass_fixed = (
        max(pieces.setup_v.cycles, issue + loop_iter, cpw * setup_words)
        + n * max(body_fixed, issue + loop_iter, cpw * body_words)
    )
    # MC cost per (j): reset + v-loop of (setup issue + body loop)
    mc_phase_j = issue + mc_loop(cols, issue + mc_loop(n, issue))
    pe_phase_j = (
        pieces.reset.cycles + cols * pe_pass_fixed
        + 2 * n * (1 + m) * step_max
    )
    phase_j = np.maximum(pe_phase_j, mc_phase_j)  # (n,)
    # The whole compute phase (reset, setup_v, bodies) is tagged ``mult``
    # in the program source, matching the micro engine's attribution.
    total["mult"] += float(phase_j.sum())

    # ---- transfer phases ----
    # In SIMD the transfer loop runs on the MC, so the PE-side phase is the
    # element pipeline without any DBRA/counter machinery.
    phase = comm_pipeline(config, env, polling=False, n_elements=n,
                          pe_loop=False)
    rotate_unit = max(pieces.rotate.cycles, issue)
    mc_comm_j = issue + mc_loop(n, issue)
    pe_comm_j = phase.cycles
    comm_j = max(pe_comm_j, mc_comm_j)
    total["other"] += n * rotate_unit
    total["comm"] += n * comm_j

    # ---- startup + finish ----
    startup = mc.device_write + cpw * 2  # first block reaches the queue
    total["control"] += startup + pieces.halt.cycles

    cycles = sum(total.values())
    return ModelResult(ExecutionMode.SIMD, n, p, m, cycles,
                       {k: v for k, v in total.items() if v})


# ---------------------------------------------------------------------------
def predict_matmul(
    mode: ExecutionMode,
    config: PrototypeConfig,
    n: int,
    p: int,
    *,
    added_multiplies: int = 0,
    ones: np.ndarray,
) -> ModelResult:
    """Predict the execution time of one (mode, n, p, m) configuration.

    ``ones`` is the skewed popcount matrix ``S = skewed_ones(B)`` of the
    data set (see :func:`~repro.timing_model.mulstats.skewed_ones`).  It
    depends on B alone, so every (mode, p, m) point of one data set can
    share it: the partition only changes how its counts are grouped.
    """
    if mode is ExecutionMode.SERIAL:
        return predict_serial(config, n, added_multiplies, ones)
    if mode is ExecutionMode.SIMD:
        return predict_simd(config, n, p, added_multiplies, ones)
    return predict_async(
        config, n, p, added_multiplies, ones,
        barrier=mode is ExecutionMode.SMIMD,
    )
