"""Speed-up and efficiency, as the paper defines them.

``speedup = T_serial / T_parallel`` and
``efficiency = speedup / p = T_serial / (p · T_parallel)``.

The paper's "superlinear speed-up" is ``efficiency > 1``, achievable in
SIMD mode because (a) PEs fetch broadcast instructions from the static-RAM
Fetch Unit Queue with one less wait state and no DRAM refresh exposure,
and (b) all loop control runs concurrently on the MC, vanishing from the
PE critical path when the queue stays non-empty.
"""

from __future__ import annotations


def speedup(serial_cycles: float, parallel_cycles: float) -> float:
    """T_serial / T_parallel."""
    if serial_cycles <= 0 or parallel_cycles <= 0:
        raise ValueError(
            f"times must be positive (serial={serial_cycles}, "
            f"parallel={parallel_cycles})"
        )
    return serial_cycles / parallel_cycles


def efficiency(serial_cycles: float, parallel_cycles: float, p: int) -> float:
    """T_serial / (p · T_parallel) — the paper's Figure 11/12 quantity."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return speedup(serial_cycles, parallel_cycles) / p
