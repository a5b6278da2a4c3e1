"""The decoupling crossover: the paper's central question.

"To determine the amount of asynchronous execution needed to achieve a
benefit when executing a portion of a computation asynchronously in MIMD
mode, additional multiplication operations were added to the innermost
loop" (Section 8).  SIMD starts ahead (faster fetches + hidden control
flow); every added variable-time multiply charges SIMD the *max* over PEs
but S/MIMD only each PE's own time.  The crossover is where the lines
meet — ≈14 added multiplies at n=64, p=4 on the prototype.

Also provided: a first-order analytic estimate of the benefit per added
multiply from the multiplier-bit statistics, used by the analysis module
and the ablation tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CalibrationError
from repro.machine import ExecutionMode
from repro.core.study import DecouplingStudy
from repro.timing_model.mulstats import max_ones_gap


@dataclass(frozen=True)
class CrossoverResult:
    """Outcome of a crossover search."""

    n: int
    p: int
    crossover: float  #: fractional added-multiply count where curves meet
    sweep: tuple[tuple[int, float, float], ...]  #: (m, T_simd, T_smimd)

    @property
    def found(self) -> bool:
        return not np.isnan(self.crossover)


def find_crossover(
    study: DecouplingStudy,
    n: int = 64,
    p: int = 4,
    *,
    max_multiplies: int = 40,
    engine: str = "macro",
    modes: tuple[ExecutionMode, ExecutionMode] = (
        ExecutionMode.SIMD,
        ExecutionMode.SMIMD,
    ),
) -> CrossoverResult:
    """Sweep added multiplies until the second mode beats the first.

    Returns the linearly interpolated crossover point, with the full sweep
    attached for plotting (the paper's Figure 7).
    """
    first, second = modes
    # Declare the full sweep up front: on a pooled/cached engine every
    # cell computes concurrently; on the default lazy engine this no-ops
    # and cells are computed on demand as before.
    study.prefetch(
        (mode, n, p, m, engine)
        for m in range(max_multiplies + 1)
        for mode in (first, second)
    )
    sweep = []
    crossover = float("nan")
    prev_diff = None
    for m in range(max_multiplies + 1):
        t1 = study.run(first, n, p, added_multiplies=m, engine=engine).cycles
        t2 = study.run(second, n, p, added_multiplies=m, engine=engine).cycles
        sweep.append((m, t1, t2))
        diff = t2 - t1  # positive while the first mode is ahead
        if prev_diff is not None and prev_diff > 0 >= diff:
            crossover = (m - 1) + prev_diff / (prev_diff - diff)
            break
        prev_diff = diff
    return CrossoverResult(n=n, p=p, crossover=crossover, sweep=tuple(sweep))


def decoupling_benefit_per_multiply(
    bits: int, p: int, *, fetch_penalty_cycles: float = 1.0
) -> float:
    """First-order benefit (cycles) of decoupling one added multiply.

    ``2 · (E[max_p ones] − E[ones]) − fetch_penalty``: the broadcast
    multiply pays the slowest PE's data-dependent time while the
    asynchronous one pays its own, minus the extra instruction-fetch cost
    of executing the multiply from main memory instead of the queue.
    A positive value means decoupling eventually wins; the crossover is
    roughly (SIMD's fixed per-iteration advantage) / (this benefit).
    """
    if bits < 1:
        raise CalibrationError(f"need at least one random bit, got {bits}")
    return 2.0 * max_ones_gap(bits, p) - fetch_penalty_cycles
