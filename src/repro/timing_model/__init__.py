"""The macro (performance-model) engine.

The micro engine executes real instructions and is exact, but Python
cannot instruction-step an n=256 matrix multiplication (10⁸ simulated
instructions) in reasonable time.  The macro engine evaluates the *same
generated programs* analytically:

* static per-fragment costs come from the same
  :func:`repro.m68k.timing.instruction_timing` tables, applied to the same
  assembled fragments the micro engine runs;
* the data-dependent multiply times come from the same multiplier schedule
  (:func:`repro.programs.data.multiplier_schedule`) over the same seeded B
  matrices — summed per-PE for the asynchronous modes and maxed across PEs
  per broadcast for SIMD, which is Equation (1)/(2) of the paper;
* network-transfer costs come from a symmetric-ring pipeline fixed point
  over the actual transfer-fragment instruction timings;
* SIMD overlap is a bottleneck model: each repeating unit proceeds at the
  slowest of {PE execution, MC issue rate, Fetch Unit Controller transfer
  rate}.

Cross-engine agreement is enforced by tests (micro vs macro within a few
percent at n ≤ 16), which is what licenses using the macro engine for the
paper-scale sweeps in Figures 6–12.
"""

from repro.timing_model.fragments import CostEnv, StaticCost, static_cost
from repro.timing_model.mulstats import (
    expected_max_ones,
    expected_ones,
    ones_of_schedule,
    skewed_ones,
)
from repro.timing_model.pipeline import comm_pipeline
from repro.timing_model.models import ModelResult, predict_matmul

__all__ = [
    "CostEnv",
    "StaticCost",
    "static_cost",
    "expected_ones",
    "expected_max_ones",
    "ones_of_schedule",
    "skewed_ones",
    "comm_pipeline",
    "ModelResult",
    "predict_matmul",
]
