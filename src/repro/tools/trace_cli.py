"""``pasm-trace``: inspect exported Chrome trace-event documents.

The tracing layer (:mod:`repro.obs`) exports timelines as Chrome
trace-event JSON — the format Perfetto and ``chrome://tracing`` open
directly.  This tool works on those files *without* a browser::

    pasm-trace validate run.json       # schema check (CI uses this)
    pasm-trace summarize run.json      # per-lane span/busy-time table
    pasm-trace render run.json         # ASCII Gantt, one row per lane
    pasm-trace render run.json --proc "sim"   # only simulated-time lanes

``validate`` runs the same structural checks as the CI trace-smoke job
(monotonic timestamps, matched B/E pairs, required fields) and exits
non-zero on any problem.  ``summarize`` and ``render`` print
:func:`repro.obs.render.summarize` and
:func:`repro.obs.render.render_gantt` of the document, so serve-side
wall-clock lanes and per-PE simulated lanes render with the same tool;
this module is only their argument parsing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.render import render_gantt, summarize
from repro.obs.schema import validate_chrome_trace


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"pasm-trace: cannot read {path}: {exc}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pasm-trace",
        description="Validate, summarize and render Chrome trace-event "
        "files exported by pasm-experiments/pasm-run/pasm-serve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser(
        "validate", help="structural schema check (exit 1 on problems)")
    p_val.add_argument("file", type=Path)

    p_sum = sub.add_parser(
        "summarize", help="per-lane span counts and busy time")
    p_sum.add_argument("file", type=Path)
    p_sum.add_argument("--proc", default=None,
                       help="only lanes whose process name contains this")

    p_ren = sub.add_parser(
        "render", help="ASCII Gantt: one row per lane")
    p_ren.add_argument("file", type=Path)
    p_ren.add_argument("--width", type=int, default=72,
                       help="columns in the timeline (default 72)")
    p_ren.add_argument("--proc", default=None,
                       help="only lanes whose process name contains this")

    args = parser.parse_args(argv)
    doc = _load(args.file)
    if args.command == "validate":
        problems = validate_chrome_trace(doc)
        if problems:
            for problem in problems:
                print(f"pasm-trace: {problem}", file=sys.stderr)
            return 1
        events = doc.get("traceEvents", [])
        print(f"{args.file}: OK ({len(events)} events, trace id "
              f"{doc.get('otherData', {}).get('trace_id', '?')})")
        return 0
    try:
        if args.command == "summarize":
            print(summarize(doc, proc=args.proc))
        else:
            print(render_gantt(doc, width=args.width, proc=args.proc))
    except ValueError as exc:
        print(f"pasm-trace: malformed trace: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that quit — that's fine.
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
