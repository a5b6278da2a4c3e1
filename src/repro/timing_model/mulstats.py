"""Statistics of the data-dependent multiply time.

For uniform random b over ``2**bits`` values, ``ones(b)`` is
Binomial(bits, 1/2).  The SIMD-vs-asynchronous tradeoff the paper measures
is governed by the gap between the *expected maximum* over p PEs and the
mean: each broadcast multiply costs ``38 + 2·max_i ones(b_i)`` in SIMD
mode but ``38 + 2·ones(b_i)`` per PE asynchronously, so the decoupling
benefit per multiply is ``2·(E[max_p] − E)`` cycles (minus the SIMD fetch
advantage — see :mod:`repro.core.crossover`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.analysis.statistics import expected_max, ones_pmf_uniform_range
from repro.utils.bitops import popcount_array


def expected_ones(bits: int) -> float:
    """E[ones(b)] for b uniform over ``2**bits`` values."""
    return bits / 2.0


@lru_cache(maxsize=None)
def expected_max_ones(bits: int, p: int) -> float:
    """Exact E[max of p iid Binomial(bits, 1/2)] via the order-statistic CDF.

    ``ones(b)`` for b uniform over ``2**bits`` values is that binomial, so
    this is :func:`~repro.analysis.statistics.expected_max` of its pmf.
    """
    if not 0 < bits <= 16:
        raise ValueError(f"bits must be in (0, 16], got {bits}")
    return expected_max(*ones_pmf_uniform_range(1 << bits), p)


def max_ones_gap(bits: int, p: int) -> float:
    """E[max_p ones] − E[ones]: the per-multiply decoupling lever (in bits)."""
    return expected_max_ones(bits, p) - expected_ones(bits)


def ones_of_schedule(schedule: np.ndarray) -> np.ndarray:
    """Popcounts of a 16-bit multiplier array (any shape), as uint8."""
    return popcount_array(schedule.astype(np.uint16, copy=False))


def skewed_ones(b: np.ndarray) -> np.ndarray:
    """Ones counts of the multiplier schedule, one row per rotation step.

    ``S[j, vp] = ones(B[(vp + j) % n, vp])``: the multiplier that global
    column ``vp`` uses at rotation step ``j`` (the same schedule as
    :func:`repro.programs.data.multiplier_schedule`).  PE ``i`` owns
    columns ``i·cols .. (i+1)·cols − 1``, so splitting the column axis
    into PEs, or MC groups of PEs, is a plain reshape.  B is popcounted
    once; ``S`` is a strided view over ``[ones; ones]`` (element
    ``[vp + j, vp]`` sits at ``j·n + vp·(n + 1)``) made contiguous.
    """
    n = b.shape[0]
    ones = ones_of_schedule(b)
    doubled = np.concatenate([ones, ones])
    row, col = doubled.strides
    return np.ascontiguousarray(np.lib.stride_tricks.as_strided(
        doubled, shape=(n, n), strides=(row, row + col), writeable=False))
