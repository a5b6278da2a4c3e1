"""pasm-repro: the PASM prototype's non-deterministic instruction time
experiments (Fineberg, Casavant, Schwederski & Siegel, ICPP 1988),
reproduced on a simulated machine.

Most users want three names:

>>> from repro import DecouplingStudy, ExecutionMode, find_crossover
>>> study = DecouplingStudy()
>>> study.efficiency(ExecutionMode.SIMD, n=256, p=4)    # > 1: superlinear
>>> find_crossover(study, n=64, p=4).crossover          # ≈ 14 (the paper)

Layer map (see DESIGN.md):

* :mod:`repro.core` — the study facade, speed-up metrics, crossover finder;
* :mod:`repro.machine` — the simulated prototype (PEs, MCs, Fetch Units,
  network, the four execution modes);
* :mod:`repro.m68k` — the MC68000 model (assembler, interpreter, timing);
* :mod:`repro.programs` — the paper's matrix-multiplication programs;
* :mod:`repro.timing_model` — the vectorized macro performance model;
* :mod:`repro.experiments` — regeneration of every table and figure;
* :mod:`repro.analysis`, :mod:`repro.obs`, :mod:`repro.tools` —
  predictions, instrumentation (simulated-time trace lanes and their
  renderers), and the ``pasm-run`` / ``pasm-trace`` CLIs.
"""

from repro.core import DecouplingStudy, find_crossover
from repro.machine import (
    ExecutionMode,
    MachineResult,
    PASMMachine,
    PrototypeConfig,
)

__version__ = "1.2.0"

__all__ = [
    "DecouplingStudy",
    "find_crossover",
    "ExecutionMode",
    "PrototypeConfig",
    "PASMMachine",
    "MachineResult",
    "__version__",
]
