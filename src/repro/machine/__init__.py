"""The PASM prototype machine model.

Composes the substrates — MC68000 CPUs, memory system, Extra-Stage Cube
network, Fetch Units — into a runnable machine supporting the four
execution modes the paper compares: serial (SISD), SIMD, MIMD, and
barrier-synchronized S/MIMD.
"""

from repro.machine.config import PrototypeConfig
from repro.machine.partition import Partition
from repro.machine.pasm import MachineResult, PASMMachine
from repro.machine.modes import ExecutionMode

__all__ = [
    "PrototypeConfig",
    "Partition",
    "PASMMachine",
    "MachineResult",
    "ExecutionMode",
]
