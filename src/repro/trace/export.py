"""Trace exporters: JSONL run records and Chrome trace-event files.

Two consumers, two formats:

* :func:`write_jsonl` — an append-friendly machine-readable run record
  (one JSON object per line: a ``meta`` header, every span, and a
  closing ``metrics`` summary), as ``repro decompose --trace`` and the
  serve request logs write it.
* :func:`write_chrome_trace` — the Chrome trace-event format
  (``chrome://tracing`` / Perfetto loadable): complete events (``ph:X``)
  in microseconds, one ``tid`` row per lane — the coordinator on its own
  row, one row per task (an execution block of a CSF engine, a thread of
  a baseline).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .tracer import MAIN_LANE, SpanRecord, Tracer

__all__ = [
    "engine_run_meta",
    "read_jsonl",
    "write_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
]


def engine_run_meta(engine: Any) -> Dict[str, Any]:
    """Self-describing run metadata read off a constructed engine.

    Stamped into the JSONL header record (and the serve request logs) so
    a trace file alone answers "what configuration produced this":
    the engine's registry name, the kernel-ABI implementation
    (``numpy``, the only one), the pool-execution backend, and the
    effective thread count.
    """
    return {
        "engine": getattr(engine, "name", type(engine).__name__),
        "jit_tier": getattr(engine, "kernel_tier", "numpy"),
        "exec_backend": getattr(engine, "exec_backend", "serial"),
        "num_threads": int(getattr(engine, "num_threads", 1)),
    }


# ----------------------------------------------------------------------
# JSONL run records
# ----------------------------------------------------------------------
def write_jsonl(tracer: Tracer, path: str, **extra_meta: Any) -> None:
    """Write the full run record: meta line, span lines, metrics line."""
    meta = dict(tracer.meta)
    meta.update(extra_meta)
    with open(path, "w") as fh:
        fh.write(json.dumps({"type": "meta", **meta}) + "\n")
        for rec in tracer.spans():
            fh.write(json.dumps({"type": "span", **rec.to_dict()}) + "\n")
        fh.write(json.dumps({"type": "metrics", **tracer.metrics()}) + "\n")


def read_jsonl(path: str) -> Dict[str, Any]:
    """Parse a run record back into ``{"meta":..., "spans":[...],
    "metrics":...}``."""
    meta: Dict[str, Any] = {}
    metrics: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.pop("type", "span")
            if kind == "meta":
                meta = obj
            elif kind == "metrics":
                metrics = obj
            else:
                spans.append(obj)
    return {"meta": meta, "spans": spans, "metrics": metrics}


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def _lane_tid(lane: int) -> int:
    """Chrome tids must be non-negative; the coordinator gets row 0 and
    task lane ``i`` gets row ``i + 1``."""
    return 0 if lane == MAIN_LANE else lane + 1


def _span_args(rec: SpanRecord) -> Dict[str, Any]:
    args: Dict[str, Any] = dict(rec.attrs)
    if rec.traffic is not None:
        args["traffic"] = rec.traffic
    return args


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list: one complete (``ph:X``) event per span
    plus thread-name metadata so lanes are labeled in the viewer."""
    events: List[Dict[str, Any]] = []
    lanes = sorted({rec.lane for rec in tracer.records})
    for lane in lanes:
        name = "coordinator" if lane == MAIN_LANE else f"task {lane}"
        events.append({
            "ph": "M", "pid": 0, "tid": _lane_tid(lane),
            "name": "thread_name", "args": {"name": name},
        })
    for rec in tracer.spans():
        events.append({
            "ph": "X",
            "pid": 0,
            "tid": _lane_tid(rec.lane),
            "name": rec.name,
            "ts": rec.t0 * 1e6,
            "dur": rec.seconds * 1e6,
            "args": _span_args(rec),
        })
    return events


def write_chrome_trace(tracer: Tracer, path: str,
                       meta: Optional[Dict[str, Any]] = None) -> None:
    """Write a ``chrome://tracing``-loadable JSON object file."""
    doc: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {**tracer.meta, **(meta or {})},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
