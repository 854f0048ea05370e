"""The traced run: spans around each layer's entry points, and the
per-layer metrics derived from them.

:class:`LayerHooks` replaces the names callers look up (module globals
and class attributes) with wrappers that open a span on the run's
:class:`repro.trace.Tracer`, and restores them on exit.  The program's
own spans (``als.iteration``, ``mttkrp.*``, ``executor.*``) land on the
same tracer because the benchmark passes it to ``create_engine`` and
``cp_als``, so wrapper spans nest under them.

Metrics are per unit of work, so they repeat between runs whatever the
number of rounds: build-layer metrics per ``bench.setup`` (engine build
plus first MTTKRP set), kernel and parallel metrics per ``bench.set``
(one MTTKRP set), ALS metrics per ``als.iteration``.  Times are medians
over the units; counts are per unit and must repeat exactly.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.trace import Tracer, write_chrome_trace, write_jsonl

from .common import median, scratch_dir

#: Flat-array kernel ABI entry points imported into repro.core.csf_kernels.
ABI_NAMES = (
    "gather_multiply_rows",
    "parent_of",
    "repeat_rows",
    "scatter_rows_add",
    "segment_reduce_rows",
    "take_factor_rows",
    "value_gather_rows",
)

_TINY = np.finfo(np.float64).tiny


class LayerHooks:
    """Install span wrappers on the layers' entry points (a context manager).

    Wrappers record only in the process that installed them: forked pool
    workers inherit the patched names but call straight through.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._pid = os.getpid()
        self._undo: List[Tuple[object, str, object]] = []

    def _spanned(self, fn, name: str, **attrs):
        tracer, pid = self.tracer, self._pid

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            with tracer.span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    def _planned(self, fn):
        tracer = self.tracer

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            with tracer.span("core.plan") as span:
                decision = fn(*args, **kwargs)
                span.annotate(configs=len(decision.configurations),
                              predicted=float(decision.best.predicted_traffic))
            return decision

        return wrapper

    def _normalized(self, fn):
        tracer = self.tracer

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
            factor = out[0]
            subnormal = int(np.count_nonzero((factor != 0) & (np.abs(factor) < _TINY)))
            tracer.record_span("ops.normalize", t0, t1, subnormal=subnormal)
            return out

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def __enter__(self) -> "LayerHooks":
        from repro.core import csf_kernels, mttkrp, planner, proc_tasks, stef
        from repro.cpd import als, kruskal
        from repro.parallel import executor
        from repro.tensor import coo, csf

        for cls, attr, name in ((csf.CsfTensor, "from_coo", "tensor.csf_build"),
                                (coo.CooTensor, "from_arrays", "tensor.coo_canon")):
            func = cls.__dict__[attr].__func__
            self._replace(cls, attr, classmethod(self._spanned(func, name)))
        self._replace(planner, "count_swapped_fibers",
                      self._spanned(planner.count_swapped_fibers, "core.swap_count"))
        self._replace(stef, "plan_decomposition", self._planned(stef.plan_decomposition))
        self._replace(stef, "MemoizedMttkrp",
                      self._spanned(stef.MemoizedMttkrp, "core.engine_init"))
        self._replace(mttkrp, "scatter_add_rows",
                      self._spanned(mttkrp.scatter_add_rows, "core.scatter"))
        for name in ABI_NAMES:
            self._replace(csf_kernels, name,
                          self._spanned(getattr(csf_kernels, name), "kernels.abi"))
        self._replace(mttkrp, "scale_rows_by_values",
                      self._spanned(mttkrp.scale_rows_by_values, "kernels.abi"))
        for cls, attr, name in (
            (executor.ReplicatedArray, "merge", "parallel.merge"),
            (executor.ReplicatedArray, "reset", "parallel.reset"),
            (proc_tasks.ProcessEngineContext, "refresh_factors", "parallel.shm_refresh"),
            (proc_tasks.ProcessEngineContext, "refresh_memo", "parallel.shm_refresh"),
            (kruskal.KruskalTensor, "fit", "cpd.fit"),
        ):
            self._replace(cls, attr, self._spanned(cls.__dict__[attr], name))
        self._replace(als, "gram", self._spanned(als.gram, "ops.gram"))
        self._replace(als, "solve_factor", self._spanned(als.solve_factor, "ops.solve"))
        self._replace(als, "normalize_columns", self._normalized(als.normalize_columns))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        return False


# ----------------------------------------------------------------------
# span-tree arithmetic
# ----------------------------------------------------------------------
class SpanTree:
    """Parent/child index over a tracer's records."""

    def __init__(self, tracer: Tracer) -> None:
        self.records = tracer.spans()
        self.children: Dict[int, List] = defaultdict(list)
        for rec in self.records:
            if rec.parent_id is not None:
                self.children[rec.parent_id].append(rec)

    def named(self, name: str) -> List:
        return [r for r in self.records if r.name == name]

    def descendants(self, root) -> List:
        out, stack = [], list(self.children[root.span_id])
        while stack:
            rec = stack.pop()
            out.append(rec)
            stack.extend(self.children[rec.span_id])
        return out


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(t0, t1)`` intervals."""
    total, end = 0.0, -np.inf
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def _sum(recs, name: str, **match) -> float:
    return sum(r.seconds for r in recs if r.name == name
               and all(r.attrs.get(k) == v for k, v in match.items()))


def _count(recs, *names: str) -> int:
    return sum(1 for r in recs if r.name in names)


def _unattributed(tree: SpanTree, units: Sequence) -> float:
    """Share of the units' time that no direct child span covers."""
    total = sum(u.seconds for u in units)
    gap = sum(u.seconds - covered((c.t0, c.t1) for c in tree.children[u.span_id])
              for u in units)
    return gap / total if total else 0.0


def engine_layers(tracer: Tracer, traced: Sequence, plain: Sequence) -> Dict[str, float]:
    """Metrics of the tensor, core, kernels, parallel, ops and cpd layers
    from the spans of the ``traced`` rounds; ``plain`` are untraced
    rounds of the same work (the base of ``trace.overhead_frac``)."""
    fibers = traced[0].fiber_counts
    n_modes = len(fibers)
    tree = SpanTree(tracer)
    setups, sets, solves = (tree.named(n) for n in
                            ("bench.setup", "bench.set", "bench.solve"))
    per_setup = [tree.descendants(u) for u in setups]
    per_set = [tree.descendants(u) for u in sets]
    out: Dict[str, float] = {}

    plans = [r for d in per_setup for r in d if r.name == "core.plan"]
    out["tensor.csf_build_s"] = median([_sum(d, "tensor.csf_build") for d in per_setup])
    out["tensor.coo_canon_s"] = median([
        _sum(tree.descendants(u), "tensor.coo_canon") for u in tree.named("bench.load")])
    out["core.swap_count_s"] = median([_sum(d, "core.swap_count") for d in per_setup])
    out["core.plan_s"] = median([_sum(d, "core.plan") for d in per_setup])
    out["core.plan_configs"] = plans[0].attrs["configs"]
    out["core.predicted_traffic"] = plans[0].attrs["predicted"]
    out["core.engine_init_s"] = median([_sum(d, "core.engine_init") for d in per_setup])

    out["core.mode0_s"] = median([_sum(d, "mttkrp.mode0") for d in per_set])
    for u in range(1, 4):
        out[f"core.mode_l{u}_s"] = (
            median([_sum(d, "mttkrp.mode_level", level=u) for d in per_set])
            if u < n_modes else 0.0)
    out["core.scatter_s"] = median([_sum(d, "core.scatter") for d in per_set])
    kernel = [[r for r in d if r.traffic is not None] for d in per_set]
    for key, name in (("reads", "core.traffic_reads"), ("writes", "core.traffic_writes"),
                      ("flops", "core.flops")):
        out[name] = median([sum(r.traffic.get(key, 0.0) for r in k) for k in kernel])
    out["core.counted_over_predicted"] = (
        (out["core.traffic_reads"] + out["core.traffic_writes"])
        / out["core.predicted_traffic"])

    out["kernels.calls"] = median([_count(d, "kernels.abi") for d in per_set])
    out["kernels.abi_s"] = median([_sum(d, "kernels.abi") for d in per_set])
    out["kernels.wrapper_self_s"] = median([
        u.seconds - covered((r.t0, r.t1) for r in d if r.name in
                            ("kernels.abi", "core.scatter", "executor.run_tasks"))
        for u, d in zip(sets, per_set)])

    dispatch_names = ("executor.map", "executor.run_tasks")
    busy = capacity = 0.0
    waits = []
    for d in per_set:
        wait = 0.0
        for disp in (r for r in d if r.name in dispatch_names):
            tasks = [c.seconds for c in tree.children[disp.span_id]
                     if c.name == "executor.task"]
            busy += sum(tasks)
            capacity += disp.seconds * int(disp.attrs.get("threads", 1))
            wait += disp.seconds - max(tasks, default=0.0)
        waits.append(wait)
    out["parallel.dispatches"] = median([_count(d, *dispatch_names) for d in per_set])
    out["parallel.dispatch_s"] = median([
        sum(_sum(d, n) for n in dispatch_names) for d in per_set])
    out["parallel.worker_busy_frac"] = busy / capacity if capacity else 0.0
    out["parallel.wait_s"] = median(waits)
    for name in ("shm_refresh", "merge", "reset"):
        out[f"parallel.{name}_s"] = median([_sum(d, f"parallel.{name}") for d in per_set])

    iters = [r for u in solves for r in tree.children[u.span_id]
             if r.name == "als.iteration"]
    iter_children = [tree.children[it.span_id] for it in iters]
    for name in ("gram", "solve", "normalize"):
        out[f"ops.{name}_s"] = median([_sum(c, f"ops.{name}") for c in iter_children])
    out["cpd.fit_s"] = median([r.seconds for u in solves
                               for r in tree.children[u.span_id] if r.name == "cpd.fit"])
    out["cpd.iter_s"] = median([it.seconds for it in iters])
    out["cpd.iter_unattributed_s"] = median([
        it.seconds - covered((c.t0, c.t1) for c in ch)
        for it, ch in zip(iters, iter_children)])
    last_iters = [[r for r in tree.children[u.span_id] if r.name == "als.iteration"][-1]
                  for u in solves]
    out["cpd.subnormal_entries"] = median([
        sum(int(c.attrs.get("subnormal", 0)) for c in tree.children[it.span_id]
            if c.name == "ops.normalize") for it in last_iters])
    out["trace.unattributed_frac"] = _unattributed(tree, setups + sets + solves)
    out["trace.overhead_frac"] = (median([r.work_s for r in traced])
                                  / median([r.work_s for r in plain]) - 1.0)
    for level in range(4):
        out[f"tensor.fibers_l{level}"] = fibers[level] if level < n_modes else 0
    return out


def decompose_layers(tracer: Tracer, rounds, leftovers: int) -> Dict:
    """Per-layer metrics of a traced decompose run, as ``(value, samples)``."""
    traced = [r for r in rounds if r.traced]
    values = engine_layers(tracer, traced, [r for r in rounds if not r.traced])
    values["parallel.shm_segments_left"] = leftovers
    values["engines.cold_setup_s"] = rounds[0].setup_s
    values["host.calib_s"] = median([r.calib_s for r in rounds])
    return finish(values, samples=len(traced))


def finish(values: Dict[str, float], samples: int) -> Dict[str, Tuple[float, int]]:
    return {name: (float(value), samples) for name, value in values.items()}


def write_spans(tracer: Tracer, workload: str, seed: int, meta: Dict) -> str:
    """Write the run's spans as JSONL plus a Chrome trace; returns the stem."""
    stem = os.path.join(scratch_dir("trace"), f"{workload}-seed{seed}")
    write_jsonl(tracer, stem + ".jsonl", **meta)
    write_chrome_trace(tracer, stem + ".chrome.json", meta=meta)
    return stem
