"""Golden-exhibit regression suite.

Regenerates the committed exhibits — Table 1, the Figure 7 crossover,
Figures 11 and 12, and the MULS extension — and asserts row-for-row
equality against the JSON files under ``results/``.  Any change to the
simulator, the timing model, or the data generator that moves a single
published number fails here first.

The exhibits are regenerated through a pooled, cached execution engine,
so this suite also locks in the engine-equivalence contract: pooled
output must be bit-identical to the serial path that produced the
committed files.
"""

import json
from pathlib import Path

import pytest

from repro.core import DecouplingStudy
from repro.exec import ExecutionEngine, ResultCache
from repro.experiments.runner import EXPERIMENTS

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: The committed exhibits this suite guards (cheap enough to regenerate
#: on every test run; fig6/fig8-10 are covered structurally elsewhere).
GOLDEN = ("table1", "fig7", "fig11", "fig12", "ext-muls", "ext-faults")


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("golden-cache"),
                        version="golden")
    with ExecutionEngine(jobs=2, cache=cache) as engine:
        yield DecouplingStudy(exec_engine=engine)


@pytest.fixture(scope="module")
def committed():
    return {
        name: json.loads((RESULTS_DIR / f"{name}.json").read_text())
        for name in GOLDEN
    }


@pytest.mark.parametrize("name", GOLDEN)
def test_exhibit_matches_committed_rows(name, study, committed):
    fresh = json.loads(EXPERIMENTS[name](study).to_json())
    golden = committed[name]
    assert fresh["headers"] == golden["headers"], f"{name}: headers drifted"
    assert len(fresh["rows"]) == len(golden["rows"]), (
        f"{name}: {len(fresh['rows'])} rows regenerated, "
        f"{len(golden['rows'])} committed"
    )
    for i, (got, want) in enumerate(zip(fresh["rows"], golden["rows"])):
        assert got == want, (
            f"{name} row {i} drifted:\n  regenerated: {got}\n"
            f"  committed:   {want}"
        )
    # Row equality is the headline; the full document (title, notes,
    # series) must match too so no metadata drifts silently.
    assert fresh == golden, f"{name}: non-row fields drifted"


def test_committed_files_exist():
    missing = [n for n in GOLDEN if not (RESULTS_DIR / f"{n}.json").exists()]
    assert not missing, f"golden files missing from results/: {missing}"


def test_ext_faults_identical_across_job_counts(committed):
    """The fault campaign schedules sweeps and degraded runs through the
    pool; its rows must be bit-identical at any ``--jobs`` setting (and
    equal to the committed serial-run golden)."""
    rows = {}
    for jobs in (1, 4):
        with ExecutionEngine(jobs=jobs) as engine:
            study = DecouplingStudy(exec_engine=engine)
            result = json.loads(EXPERIMENTS["ext-faults"](study).to_json())
        rows[jobs] = result["rows"]
    assert rows[1] == rows[4]
    assert rows[1] == committed["ext-faults"]["rows"]
