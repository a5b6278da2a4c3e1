"""Command-line harness regenerating every table and figure.

Usage::

    python -m repro.experiments.runner            # everything, to stdout
    python -m repro.experiments.runner fig7 fig11 # a subset
    python -m repro.experiments.runner --out results/   # also write files
    python -m repro.experiments.runner --jobs 4 --stats # pooled + summary

Also installed as the ``pasm-experiments`` console script.

Execution is routed through :mod:`repro.exec`: independent simulation
runs fan out across ``--jobs N`` worker processes (default
``$REPRO_JOBS`` or one per available core; ``REPRO_JOBS=1`` forces the
serial in-process path), and results are
memoised on disk under ``.repro_cache/`` (``$REPRO_CACHE_DIR``,
``--cache-dir``, disable with ``--no-cache``) keyed by job content hash
and package version — a warm re-run recomputes nothing.  ``--stats``
appends the engine's cache-hit/wall-time summary table (with p50/p95
per-job percentiles) and a wall-time breakdown by job bucket;
``--profile FILE`` wraps the whole run in :mod:`cProfile` and dumps a
pstats file for ``python -m pstats`` / ``snakeviz``.

``--trace-out FILE`` records the whole run as a Chrome trace-event
document (open in Perfetto / ``chrome://tracing``): engine lanes show
per-job queue/execute wall time and cache hits, and every *computed*
job contributes per-PE simulated-time lanes (instruction category
spans, SIMD fetch-queue waits, network stalls) collected inside the
worker process.  Tracing is strictly opt-in and does not perturb the
results — job identity (and thus the cache key) is unchanged.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import DecouplingStudy
from repro.errors import ReproError
from repro.exec import ExecutionEngine, ResultCache, resolve_jobs
from repro.obs.tracer import Tracer
from repro.experiments.extensions import (
    run_ext_design_scale,
    run_ext_dma,
    run_ext_muls,
    run_ext_superlinear,
)
from repro.experiments.faults_exhibit import run_ext_faults
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8_10 import run_breakdown_figure
from repro.experiments.fig11 import run_fig11
from repro.experiments.fig12 import run_fig12
from repro.experiments.table1 import run_table1

#: Registry of every exhibit, in paper order, plus the extension studies.
EXPERIMENTS = {
    "table1": lambda study: run_table1(study.config,
                                       exec_engine=study.exec_engine),
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": lambda study: run_breakdown_figure("fig8", study),
    "fig9": lambda study: run_breakdown_figure("fig9", study),
    "fig10": lambda study: run_breakdown_figure("fig10", study),
    "fig11": run_fig11,
    "fig12": run_fig12,
    "ext-dma": run_ext_dma,
    "ext-scale": run_ext_design_scale,
    "ext-muls": run_ext_muls,
    "ext-superlinear": run_ext_superlinear,
    "ext-faults": run_ext_faults,
}


def _make_study(seed: int | None,
                engine: ExecutionEngine | None) -> DecouplingStudy:
    kwargs = {} if seed is None else {"seed": seed}
    return DecouplingStudy(exec_engine=engine, **kwargs)


def run_experiments(
    names: list[str] | None = None,
    *,
    out_dir: Path | None = None,
    seed: int | None = None,
    stream=None,
    jobs: int | str | None = None,
    cache: ResultCache | None = None,
    stats: bool = False,
    tracer: Tracer | None = None,
):
    """Run the named experiments (all by default); return the results.

    ``jobs``/``cache`` configure the execution engine (defaults: serial,
    no disk cache — the historical behaviour); ``stats=True`` appends the
    engine's summary table to ``stream``; a ``tracer`` records every
    engine job (and its per-PE simulated lanes) for Perfetto export.
    """
    stream = stream if stream is not None else sys.stdout
    names = names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s) {unknown}; choose from {list(EXPERIMENTS)}"
        )
    engine = ExecutionEngine(jobs=jobs, cache=cache, tracer=tracer)
    study = _make_study(seed, engine)
    results = []
    try:
        for name in names:
            result = EXPERIMENTS[name](study)
            results.append(result)
            stream.write(result.render())
            stream.write("\n\n" + "=" * 78 + "\n\n")
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / f"{name}.txt").write_text(result.render())
                (out_dir / f"{name}.csv").write_text(result.to_csv())
                (out_dir / f"{name}.json").write_text(result.to_json())
    finally:
        engine.close()  # one pool served every exhibit
    if stats:
        stream.write(engine.stats.summary_table(
            title=f"execution engine stats (jobs={engine.jobs}, "
                  f"cache={'on' if engine.cache is not None else 'off'})"
        ))
        stream.write("\n")
        breakdown = engine.stats.breakdown()
        if any(breakdown.values()):  # all-hits runs have nothing to break down
            from repro.perf import format_breakdown

            stream.write("\n")
            stream.write(format_breakdown(
                breakdown, title="wall-time breakdown (computed jobs)"))
            stream.write("\n")
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the tables and figures of 'Non-Deterministic "
        "Instruction Time Experiments on the PASM System Prototype' "
        "(ICPP 1988) on the simulated prototype."
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"subset to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="directory to write per-experiment .txt/.csv files",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="data-set seed (default: the library's fixed seed)",
    )
    parser.add_argument(
        "--jobs", default=None, metavar="N",
        help="worker processes for independent simulation jobs "
             "(default: $REPRO_JOBS or one per available core; "
             "1 = serial in-process)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print the execution engine's per-job wall-time summary "
             "(p50/p95 percentiles, cache hits/misses) and a wall-time "
             "breakdown by job bucket after the exhibits",
    )
    parser.add_argument(
        "--profile", type=Path, default=None, metavar="FILE",
        help="profile the whole run with cProfile and dump a pstats "
             "file to FILE (inspect with 'python -m pstats FILE')",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="result cache location (default: $REPRO_CACHE_DIR or "
             "./.repro_cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-max-mb", type=float, default=None, metavar="MB",
        help="LRU size cap on the result cache: past the cap, the "
             "oldest-access entries are evicted after each store "
             "(default: $REPRO_CACHE_MAX_MB or unbounded)",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="export the run as a Chrome trace-event JSON file (open in "
             "Perfetto or chrome://tracing): engine job lanes plus per-PE "
             "simulated-time lanes for every computed job",
    )
    parser.add_argument(
        "--report", type=Path, default=None, metavar="FILE",
        help="write the full reproduction report (config + engine check + "
             "crossover confidence + every exhibit) to FILE and exit",
    )
    args = parser.parse_args(argv)
    try:
        # Validate up front so a bad --jobs *or* a bad $REPRO_JOBS /
        # $REPRO_CACHE_MAX_MB dies with a clean CLI message, not a
        # traceback halfway into the run.
        resolve_jobs(args.jobs)
        cache = None if args.no_cache else ResultCache(
            args.cache_dir, max_mb=args.cache_max_mb
        )
    except ReproError as exc:
        parser.error(str(exc))
    if args.report is not None:
        from repro.core.report import full_report

        with ExecutionEngine(jobs=args.jobs, cache=cache) as engine:
            report = full_report(_make_study(args.seed, engine))
        args.report.write_text(report)
        print(f"report written to {args.report}")
        return 0
    tracer = Tracer() if args.trace_out is not None else None

    def _write_trace() -> None:
        if tracer is None:
            return
        tracer.write(args.trace_out, meta={
            "tool": "pasm-experiments",
            "experiments": args.experiments or sorted(EXPERIMENTS),
        })
        print(f"trace written to {args.trace_out} "
              f"(trace id {tracer.trace_id})")

    if args.profile is not None:
        from repro.perf import profile_to

        with profile_to(args.profile):
            run_experiments(
                args.experiments or None, out_dir=args.out, seed=args.seed,
                jobs=args.jobs, cache=cache, stats=args.stats, tracer=tracer,
            )
        print(f"profile written to {args.profile}")
        _write_trace()
        return 0
    run_experiments(
        args.experiments or None, out_dir=args.out, seed=args.seed,
        jobs=args.jobs, cache=cache, stats=args.stats, tracer=tracer,
    )
    _write_trace()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
