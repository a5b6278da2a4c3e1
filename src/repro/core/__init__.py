"""Core API: the SIMD/MIMD decoupling study.

This package is the library's front door.  It wraps the substrates
(machine simulator + macro timing model) behind one facade,
:class:`~repro.core.study.DecouplingStudy`, and provides the paper's
analysis vocabulary:

* the paper's two mode equations, which the simulator realizes rather
  than evaluates: with ``t_jk`` the time PE *k* spends on instruction
  *j*, a SIMD broadcast completes at the slowest enabled PE, so
  ``T_SIMD = Σ_j max_k t_jk``, while decoupled (MIMD) PEs each pay only
  their own sum, so ``T_MIMD = max_k Σ_j t_jk`` and ``T_MIMD ≤ T_SIMD``;
* speed-up and efficiency (:mod:`~repro.core.metrics`), with the paper's
  definition ``efficiency = T_serial / (p · T_parallel)`` under which
  SIMD mode exceeds unity ("superlinear speed-up");
* the decoupling crossover finder (:mod:`~repro.core.crossover`): the
  minimum number of variable-execution-time operations per inner loop at
  which asynchronous (S/MIMD) execution beats synchronous (SIMD)
  broadcast.
"""

from repro.core.crossover import CrossoverResult, decoupling_benefit_per_multiply, find_crossover
from repro.core.metrics import efficiency, speedup
from repro.core.report import full_report
from repro.core.study import DecouplingStudy, StudyResult

__all__ = [
    "DecouplingStudy",
    "StudyResult",
    "speedup",
    "efficiency",
    "find_crossover",
    "CrossoverResult",
    "decoupling_benefit_per_multiply",
    "full_report",
]
