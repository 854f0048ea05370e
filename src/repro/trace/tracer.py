"""Structured tracing: nested spans with wall time and traffic deltas.

The planner's whole premise is that the right (memoization, mode-order,
exec-backend) configuration is workload-dependent — but until now the
only observability into a run was the aggregate
:class:`~repro.parallel.counters.TrafficCounter` totals and the
after-the-fact ``profile_method`` table.  This module supplies the
measurement substrate: a :class:`Tracer` records a tree of **spans**
(``als.iteration`` → ``mttkrp.mode0`` → per-task ``executor.task``
lanes), each carrying

* wall time (``perf_counter`` pairs, relative to the tracer's epoch),
* a **lane** — ``MAIN_LANE`` for coordinator work, ``i`` for the spans
  of a dispatch's ``i``-th task: execution block ``i`` of a CSF engine,
  simulated thread ``i`` of a baseline (one Chrome-trace row per lane),
* free-form numeric/string attributes (``level``, ``mode``, ``nnz``), and
* optionally the **category deltas** of a :class:`TrafficCounter`
  snapshotted at entry and exit.

Traffic-delta discipline
------------------------
Only *kernel* spans (``mttkrp.mode0`` / ``mttkrp.mode_level``) pass a
``counter=``; they never overlap each other, so summing every span's
deltas reproduces the counter's totals **exactly** — the invariant
``tests/test_trace.py`` asserts on all three execution backends.
Enclosing spans (``als.iteration``) and per-task spans carry no
counter, so nothing is double-counted.

Tracing is **off by default**: the hot path holds a :data:`NULL_TRACER`
whose ``span()`` returns a shared no-op context manager, keeping the
traced-off overhead within noise (guarded by a test).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "MAIN_LANE",
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "ScopedTracer",
]

#: Lane id of coordinator-side (main thread) spans; a dispatch's task
#: ``i`` uses lane ``i`` (Chrome export maps lanes to tid rows).
MAIN_LANE = -1

Attr = Union[int, float, str, bool, None]


@dataclass
class SpanRecord:
    """One completed span.

    ``t0``/``t1`` are seconds relative to the owning tracer's epoch;
    ``traffic`` holds counter deltas (``reads``/``writes``/``flops`` plus
    per-category keys) when the span was opened with a ``counter=``.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    lane: int
    t0: float
    t1: float
    attrs: Dict[str, Attr] = field(default_factory=dict)
    traffic: Optional[Dict[str, float]] = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (the JSONL exporter's span payload)."""
        out: Dict[str, Any] = {
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "lane": self.lane,
            "t0": self.t0,
            "t1": self.t1,
            "seconds": self.seconds,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.traffic is not None:
            out["traffic"] = self.traffic
        return out


class _ActiveSpan:
    """Context manager for an in-flight span (returned by Tracer.span)."""

    __slots__ = ("_tracer", "_name", "_lane", "_counter", "_attrs",
                 "_span_id", "_parent_id", "_t0", "_snap")

    def __init__(self, tracer: "Tracer", name: str, lane: int,
                 counter, attrs: Dict[str, Attr]) -> None:
        self._tracer = tracer
        self._name = name
        self._lane = lane
        self._counter = counter
        self._attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        self._span_id = tracer._next_id()
        stack = tracer._stack()
        self._parent_id = stack[-1] if stack else None
        stack.append(self._span_id)
        if self._counter is not None:
            self._snap = _counter_snapshot(self._counter)
        else:
            self._snap = None
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        tracer = self._tracer
        traffic = None
        if self._snap is not None:
            traffic = _counter_delta(self._snap, _counter_snapshot(self._counter))
        stack = tracer._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        tracer._emit(SpanRecord(
            span_id=self._span_id,
            parent_id=self._parent_id,
            name=self._name,
            lane=self._lane,
            t0=self._t0 - tracer.epoch,
            t1=t1 - tracer.epoch,
            attrs=self._attrs,
            traffic=traffic,
        ))
        return False

    def annotate(self, **attrs: Attr) -> None:
        """Attach attributes discovered mid-span (e.g. a computed source
        level) to the record that will be emitted on exit."""
        self._attrs.update(attrs)


def _counter_snapshot(counter) -> Dict[str, float]:
    snap = {"reads": counter.reads, "writes": counter.writes,
            "flops": counter.flops}
    snap.update(counter.by_category)
    return snap


def _counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, val in after.items():
        delta = val - before.get(key, 0.0)
        if delta:
            out[key] = delta
    return out


class Tracer:
    """Collects :class:`SpanRecord`\\ s; safe to append from worker threads.

    Parameters
    ----------
    meta:
        Free-form run metadata (tensor name, rank, backend, ...) carried
        into every export.
    """

    enabled = True

    def __init__(self, **meta: Attr) -> None:
        self.epoch = time.perf_counter()
        self.meta: Dict[str, Attr] = dict(meta)
        self.records: List[SpanRecord] = []
        self._counter_lock = threading.Lock()
        self._id = 0
        # Parent tracking is per OS thread: worker-thread task spans must
        # not adopt whatever coordinator span happens to be open.
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _next_id(self) -> int:
        with self._counter_lock:
            self._id += 1
            return self._id

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _emit(self, record: SpanRecord) -> None:
        # list.append is atomic under the GIL; records from concurrent
        # task spans interleave but are re-sorted by t0 at export time.
        self.records.append(record)

    # ------------------------------------------------------------------
    def span(self, name: str, *, counter=None, lane: int = MAIN_LANE,
             **attrs: Attr) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("als.iteration", it=3):``.

        Pass ``counter=`` **only** on non-overlapping kernel spans — the
        recorded deltas are meant to tile the counter's totals exactly.
        """
        return _ActiveSpan(self, name, lane, counter, dict(attrs))

    def record_span(self, name: str, t0: float, t1: float, *,
                    lane: int = MAIN_LANE,
                    parent_id: Optional[int] = None,
                    **attrs: Attr) -> None:
        """Record an already-measured span (worker-side task timings whose
        ``perf_counter`` pairs came back through the result channel).

        ``t0``/``t1`` are absolute ``perf_counter`` values — on the
        platforms we support the monotonic clock is system-wide, so
        values measured inside forked process workers share this epoch.
        Without an explicit ``parent_id`` the span adopts the calling
        thread's innermost open span.
        """
        if parent_id is None:
            stack = self._stack()
            parent_id = stack[-1] if stack else None
        self._emit(SpanRecord(
            span_id=self._next_id(),
            parent_id=parent_id,
            name=name,
            lane=lane,
            t0=t0 - self.epoch,
            t1=t1 - self.epoch,
            attrs=dict(attrs),
        ))

    # ------------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[SpanRecord]:
        """Completed spans in start order, optionally filtered by name."""
        out = sorted(self.records, key=lambda r: (r.t0, r.span_id))
        if name is not None:
            out = [r for r in out if r.name == name]
        return out

    def kernel_spans(self) -> List[SpanRecord]:
        """Spans that carried a counter (the traffic-delta tiling)."""
        return [r for r in self.spans() if r.traffic is not None]

    def traffic_totals(self) -> Dict[str, float]:
        """Sum of every span's traffic deltas — equals the counter's
        final tallies exactly (the invariant the tests pin)."""
        out: Dict[str, float] = {}
        for rec in self.kernel_spans():
            for key, val in rec.traffic.items():
                out[key] = out.get(key, 0.0) + val
        return out

    def metrics(self) -> Dict[str, float]:
        """Flat metrics dict: per-span-name counts/seconds plus traffic
        aggregates — the closing line of a JSONL run record."""
        out: Dict[str, float] = {}
        for rec in self.spans():
            out[f"{rec.name}.count"] = out.get(f"{rec.name}.count", 0.0) + 1.0
            out[f"{rec.name}.seconds"] = (
                out.get(f"{rec.name}.seconds", 0.0) + rec.seconds
            )
        for key, val in self.traffic_totals().items():
            out[f"traffic.{key}"] = val
        return out

    def clear(self) -> None:
        """Drop recorded spans (metadata and epoch are kept)."""
        self.records.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(spans={len(self.records)}, meta={self.meta})"


class _NullSpan:
    """Shared no-op context manager — the traced-off fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: Attr) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """A tracer that records nothing; the default everywhere.

    ``span()`` hands back one shared no-op context manager, so a
    traced-off hot path costs one attribute lookup and one call — the
    overhead test pins ``cp_als`` with this tracer to within noise of an
    untraced run.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def span(self, name: str, *, counter=None, lane: int = MAIN_LANE,
             **attrs: Attr) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def record_span(self, name: str, t0: float, t1: float, *,
                    lane: int = MAIN_LANE,
                    parent_id: Optional[int] = None,
                    **attrs: Attr) -> None:
        return None


#: Shared do-nothing tracer; pass a real :class:`Tracer` to opt in.
NULL_TRACER = NullTracer()


class ScopedTracer(Tracer):
    """A tracer-shaped forwarder whose real target can be swapped.

    Engines bind their tracer once at construction, but a pooled engine
    (``repro.serve``'s fingerprint cache) outlives any single request and
    each request wants its own span record.  The pool constructs the
    engine with a ``ScopedTracer`` and, for the duration of a job, points
    ``target`` at that job's private :class:`Tracer`; between jobs the
    target rests on :data:`NULL_TRACER`, so an unattributed kernel call
    costs the same as a traced-off one.

    Only span *recording* is scoped: ``span``/``record_span`` and the
    ``enabled`` fast-path flag forward to the current target.  Swapping
    is a single attribute store (atomic under the GIL), and the pool
    leases an engine to at most one job at a time, so no lock is needed.
    """

    def __init__(self, target: Tracer = NULL_TRACER) -> None:
        super().__init__()
        self.target: Tracer = target

    @property  # type: ignore[override]
    def enabled(self) -> bool:
        return self.target.enabled

    def span(self, name: str, *, counter=None, lane: int = MAIN_LANE,
             **attrs: Attr):
        return self.target.span(name, counter=counter, lane=lane, **attrs)

    def record_span(self, name: str, t0: float, t1: float, *,
                    lane: int = MAIN_LANE,
                    parent_id: Optional[int] = None,
                    **attrs: Attr) -> None:
        self.target.record_span(name, t0, t1, lane=lane,
                                parent_id=parent_id, **attrs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScopedTracer(target={self.target!r})"
