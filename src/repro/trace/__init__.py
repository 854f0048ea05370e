"""repro.trace — low-overhead structured tracing for the hot path.

Opt-in observability: pass a :class:`Tracer` to
:func:`~repro.engines.create_engine` / :func:`~repro.cpd.als.cp_als`
(or ``repro decompose --trace out.jsonl`` on the CLI) and every ALS
iteration, MTTKRP kernel, and per-thread task records a span with wall
time, attributes, and exact :class:`TrafficCounter` category deltas.
Export as JSONL run records or Chrome trace-event files.

Off by default: the shared :data:`NULL_TRACER` makes every span a no-op.
"""

from .export import (
    chrome_trace_events,
    engine_run_meta,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .tracer import (
    MAIN_LANE,
    NULL_TRACER,
    NullTracer,
    ScopedTracer,
    SpanRecord,
    Tracer,
)

__all__ = [
    "MAIN_LANE",
    "NULL_TRACER",
    "NullTracer",
    "ScopedTracer",
    "SpanRecord",
    "Tracer",
    "chrome_trace_events",
    "engine_run_meta",
    "read_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]
