"""Exact distributions of the data-dependent multiply time.

``MULU`` takes ``38 + 2·ones(multiplier)`` cycles.  For multipliers
uniform over an arbitrary range ``[0, b_max)`` (not necessarily a power of
two) the ones-count pmf is computed exactly by enumeration, and from it
the mean and the expected per-broadcast maximum over p PEs — the two
numbers that set the decoupling economics.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.utils.bitops import ones_count, transitions_count


@lru_cache(maxsize=None)
def ones_pmf_uniform_range(b_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(support, pmf) of popcount(X) for X uniform over [0, b_max)."""
    if not 1 < b_max <= 1 << 16:
        raise ValueError(f"b_max must be in (1, 65536], got {b_max}")
    values = np.arange(b_max, dtype=np.uint64)
    counts = np.bincount(ones_count(values, 16), minlength=17)
    pmf = counts / counts.sum()
    support = np.arange(17)
    mask = pmf > 0
    return support[mask], pmf[mask]


@lru_cache(maxsize=None)
def transitions_pmf_uniform_range(b_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(support, pmf) of the MULS timing count for X uniform over [0, b_max).

    The MULS count is the number of 01/10 patterns in the multiplier with
    a zero appended at the least-significant end — the signed multiply's
    analogue of the popcount.
    """
    if not 1 < b_max <= 1 << 16:
        raise ValueError(f"b_max must be in (1, 65536], got {b_max}")
    values = np.arange(b_max, dtype=np.uint64)
    counts = np.bincount(transitions_count(values, 16), minlength=18)
    pmf = counts / counts.sum()
    support = np.arange(len(pmf))
    mask = pmf > 0
    return support[mask], pmf[mask]


def mulu_cycle_pmf(b_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(cycles, probability) of the MULU execution time for uniform data."""
    support, pmf = ones_pmf_uniform_range(b_max)
    return 38 + 2 * support, pmf


def mulu_mean_cycles(b_max: int) -> float:
    """Mean MULU time for uniform multipliers in [0, b_max)."""
    cycles, pmf = mulu_cycle_pmf(b_max)
    return float(np.dot(cycles, pmf))


def expected_max(support: np.ndarray, pmf: np.ndarray, p: int) -> float:
    """E[max of p iid draws] from ``(support, pmf)``, support ascending.

    The exact order statistic: ``P[max = x_k] = F(x_k)^p − F(x_{k−1})^p``.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    cdf = np.cumsum(pmf)
    cdf_prev = np.concatenate([[0.0], cdf[:-1]])
    return float(np.dot(support, cdf**p - cdf_prev**p))


def mulu_max_mean_cycles(b_max: int, p: int) -> float:
    """E[max over p PEs] of the MULU time (exact order statistic)."""
    support, pmf = ones_pmf_uniform_range(b_max)
    return expected_max(38 + 2 * support, pmf, p)


def ones_std(b_max: int) -> float:
    """Standard deviation of the multiplier popcount."""
    support, pmf = ones_pmf_uniform_range(b_max)
    mean = float(np.dot(support, pmf))
    return float(np.sqrt(np.dot((support - mean) ** 2, pmf)))


def mul_count_stats(b_max: int, op: str = "MULU", p: int = 1):
    """(mean, std, E[max over p]) of the multiply *count* (ones or
    transitions) for uniform multipliers — one call serving both MULU and
    MULS studies."""
    if op == "MULU":
        support, pmf = ones_pmf_uniform_range(b_max)
    elif op == "MULS":
        support, pmf = transitions_pmf_uniform_range(b_max)
    else:
        raise ValueError(f"op must be MULU or MULS, got {op!r}")
    mean = float(np.dot(support, pmf))
    std = float(np.sqrt(np.dot((support - mean) ** 2, pmf)))
    return mean, std, expected_max(support, pmf, p)
