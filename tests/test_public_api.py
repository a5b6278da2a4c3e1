"""Smoke tests for the public API surface and package hygiene."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro


ALL_MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro.")
]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_every_module_imports(module):
    importlib.import_module(module)


def test_top_level_exports():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_version():
    assert repro.__version__ == "1.2.0"


def test_all_public_names_resolve():
    """Every name in every subpackage's __all__ must exist."""
    for module_name in ALL_MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"


def test_quickstart_snippet_from_readme():
    """The README's quickstart code must actually run."""
    from repro import DecouplingStudy, ExecutionMode, find_crossover

    study = DecouplingStudy()
    r = study.run(ExecutionMode.SIMD, n=16, p=4, engine="micro")
    assert r.cycles > 0 and r.breakdown
    eff = study.efficiency(ExecutionMode.SIMD, n=256, p=4)
    assert eff > 1.0
    crossover = find_crossover(study, n=64, p=4).crossover
    assert 12 <= crossover <= 16


def test_machine_refuses_second_run():
    from repro import PASMMachine, PrototypeConfig
    from repro.errors import ConfigurationError
    from repro.m68k.assembler import assemble

    machine = PASMMachine(PrototypeConfig(), partition_size=1)
    prog = assemble("    NOP\n    HALT")
    machine.run_serial(prog)
    with pytest.raises(ConfigurationError, match="already ran"):
        machine.run_serial(prog)


#: The modules behind the console scripts in pyproject.toml.
CONSOLE_SCRIPT_MODULES = (
    "repro.experiments.runner",
    "repro.tools.runner",
    "repro.serve.app",
    "repro.serve.router",
    "repro.tools.trace_cli",
)


@pytest.mark.parametrize("module", CONSOLE_SCRIPT_MODULES)
def test_console_script_does_not_import_scipy(module):
    """Every interpreter (CLI, pool worker, serve process) pays its
    imports at start-up; the package needs numpy only."""
    code = (f"import sys, {module}\n"
            "sys.exit('scipy' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr or f"{module} imports scipy"


def test_py_typed_marker_exists():
    assert (Path(repro.__file__).parent / "py.typed").exists()
