"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's exhibits and prints the
same rows/series the paper reports (run with ``-s`` or check
``bench_output.txt``).  A single study instance is shared so the serial
baselines are computed once; it routes through a session-scoped
execution-engine handle, so ``REPRO_JOBS=4 pytest benchmarks/`` fans the
simulation jobs out across worker processes.
"""

import os

import pytest

from repro.core import DecouplingStudy
from repro.exec import ExecutionEngine


@pytest.fixture(scope="session")
def exec_engine():
    """Execution-engine handle shared by every benchmark.

    Honors ``$REPRO_JOBS`` but pins the default to 1 (the serial
    in-process path) rather than the library's all-cores default:
    benchmarks measure wall time, and the numbers only compare against
    the seed's when the schedule matches.
    """
    with ExecutionEngine(jobs=os.environ.get("REPRO_JOBS") or 1) as engine:
        yield engine


@pytest.fixture(scope="session")
def study(exec_engine):
    return DecouplingStudy(exec_engine=exec_engine)


def report(result) -> None:
    """Print a reproduced exhibit beneath its benchmark."""
    print()
    print(result.render(plot=False))
