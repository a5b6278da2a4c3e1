"""The paper's application programs: matrix multiplication four ways.

Implements Section 4's O(n³/p) columnar rotation algorithm as MC68000
programs for the simulated prototype, in the paper's four variants:

* **serial** (SISD) — optimized row-column order on one PE;
* **SIMD** — straight-line broadcast blocks + an MC control program;
* **MIMD** — fully asynchronous, status-register polling for the network;
* **S/MIMD** — the MIMD program with queue-barrier synchronization
  replacing the polls.

All variants share the same inner-loop body (``MOVE/MULU/[extra MULUs]/
ADD``) and the same columnar data layout, so measured differences come
from the architecture, not the code — as in the paper.  The number of
*added multiplies* per inner loop (the experiments' independent variable)
is a generator parameter.
"""

from repro.programs.data import (
    MatmulLayout,
    expected_product,
    generate_matrices,
    multiplier_schedule,
)
from repro.programs.loader import MatmulBundle, build_matmul, run_matmul
from repro.programs.common import BODY_REGISTERS

__all__ = [
    "MatmulLayout",
    "generate_matrices",
    "expected_product",
    "multiplier_schedule",
    "MatmulBundle",
    "build_matmul",
    "run_matmul",
    "BODY_REGISTERS",
]
