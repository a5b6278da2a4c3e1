"""repro.obs — end-to-end observability: correlation IDs, span tracing,
simulated-time trace lanes and their renderers, Chrome trace-event
export, structured logging, and process self-metrics.

See ``docs/OBSERVABILITY.md`` for the tracing model and how the pieces
connect: :mod:`repro.obs.ids` (W3C-style identifiers),
:mod:`repro.obs.tracer` (recorder + Perfetto export),
:mod:`repro.obs.simtrace` (per-PE simulated-time lanes, the one home
of simulated-time tracing), :mod:`repro.obs.render` (the ASCII Gantt,
per-lane table, instruction listing and queue-occupancy summary over
those lanes), :mod:`repro.obs.schema` (trace validation),
:mod:`repro.obs.jsonlog` (structured serve logs), and
:mod:`repro.obs.procstats` (``pasm_process_*`` self-metrics, rendered
on each ``/metrics`` scrape).
"""

from repro.obs.ids import (
    format_traceparent,
    new_request_id,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.obs.jsonlog import FORMATS as LOG_FORMATS
from repro.obs.jsonlog import StructuredLogger
from repro.obs.procstats import ProcessStats
from repro.obs.render import format_trace, queue_occupancy, render_gantt
from repro.obs.schema import validate_chrome_trace
from repro.obs.simtrace import (
    arm_machine,
    collect_machine,
    current_job_trace,
    machine_events,
    tracing_job,
)
from repro.obs.tracer import (
    DEFAULT_MAX_EVENTS,
    TraceContext,
    Tracer,
    export_chrome,
    instant_event,
    lanes_from_chrome,
    span_event,
)

__all__ = [
    "DEFAULT_MAX_EVENTS",
    "LOG_FORMATS",
    "ProcessStats",
    "StructuredLogger",
    "TraceContext",
    "Tracer",
    "arm_machine",
    "collect_machine",
    "current_job_trace",
    "export_chrome",
    "format_trace",
    "format_traceparent",
    "instant_event",
    "lanes_from_chrome",
    "machine_events",
    "new_request_id",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "queue_occupancy",
    "render_gantt",
    "span_event",
    "tracing_job",
    "validate_chrome_trace",
]
