"""Tests for :mod:`repro.trace`.

Pins the three properties the observability layer promises:

* **traffic-delta tiling** — summing every kernel span's counter deltas
  reproduces the :class:`TrafficCounter` totals *exactly*, on all three
  execution backends (serial / threads / processes);
* **export round-trip** — the JSONL run record parses back losslessly
  and the Chrome trace-event file is structurally valid (one lane per
  thread, microsecond complete events);
* **NullTracer is free** — the traced-off path allocates nothing per
  span and records nothing.
"""

import json
import time
from collections import Counter

import pytest

from repro.cpd import cp_als
from repro.engines import create_engine, engine_names
from repro.parallel import MACHINES, TrafficCounter
from repro.tensor import random_tensor
from repro.trace import (
    NULL_TRACER,
    NullTracer,
    ScopedTracer,
    Tracer,
    chrome_trace_events,
    engine_run_meta,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)

BACKENDS = ("serial", "threads", "processes")
MACHINE = MACHINES["intel-clx-18"]


def traced_run(exec_backend, method="stef", iters=2, threads=2, machine=MACHINE):
    """One traced cp_als run; returns (tracer, counter)."""
    tensor = random_tensor((10, 8, 6), nnz=120, seed=3)
    tracer = Tracer(tensor="unit", method=method, exec_backend=exec_backend)
    counter = TrafficCounter(cache_elements=MACHINE.cache_elements)
    with create_engine(
        method, tensor, 4, machine=machine, num_threads=threads,
        exec_backend=exec_backend, counter=counter, tracer=tracer,
    ) as engine:
        cp_als(
            tensor, 4, engine=engine, max_iters=iters,
            compute_fit=False, seed=0, tracer=tracer,
        )
    return tracer, counter


class TestTrafficDeltaTiling:
    @pytest.mark.parametrize("exec_backend", BACKENDS)
    def test_span_deltas_sum_to_counter_totals(self, exec_backend):
        tracer, counter = traced_run(exec_backend)
        totals = tracer.traffic_totals()
        assert totals["reads"] == counter.reads
        assert totals["writes"] == counter.writes
        assert totals["flops"] == counter.flops
        for category, value in counter.by_category.items():
            assert totals.get(category, 0.0) == value, category

    @pytest.mark.parametrize("exec_backend", BACKENDS)
    def test_only_kernel_spans_carry_traffic(self, exec_backend):
        tracer, _ = traced_run(exec_backend)
        kernel_names = {r.name for r in tracer.kernel_spans()}
        assert kernel_names <= {"mttkrp.mode0", "mttkrp.mode_level"}
        for rec in tracer.spans():
            if rec.name in ("als.iteration", "executor.task"):
                assert rec.traffic is None, rec.name

    def test_backends_agree_on_counted_work(self):
        """Traffic is counted, not measured: identical across backends.
        Every backend also dispatches the same task sequence — one task
        body per kernel, whatever runs it — and records the same spans.
        dimtree walks its tree on the coordinator and dispatches none."""
        for method in engine_names():
            runs = {}
            for exec_backend in BACKENDS:
                tracer, _ = traced_run(exec_backend, method=method)
                runs[exec_backend] = (
                    tracer.traffic_totals(),
                    [
                        (rec.name, rec.attrs.get("task"))
                        for rec in tracer.spans()
                        if rec.name.startswith("executor.")
                        and rec.name != "executor.task"
                    ],
                    Counter(rec.name for rec in tracer.spans()),
                )
            assert runs["serial"] == runs["threads"] == runs["processes"], method
            dispatches = runs["serial"][1]
            assert bool(dispatches) == (method != "dimtree"), method

    def test_iteration_spans_parent_kernels(self):
        tracer, _ = traced_run("serial")
        iters = tracer.spans("als.iteration")
        assert len(iters) == 2
        iter_ids = {r.span_id for r in iters}
        for rec in tracer.kernel_spans():
            assert rec.parent_id in iter_ids


class TestFitSpans:
    """With the fit on, ``cp_als`` records one ``cpd.fit`` span per
    iteration after ``als.iteration`` closes, under the caller's span."""

    @staticmethod
    def fitted_run(compute_fit):
        tensor = random_tensor((10, 8, 6), nnz=120, seed=3)
        tracer = Tracer()
        counter = TrafficCounter(cache_elements=MACHINE.cache_elements)
        with create_engine(
            "stef", tensor, 4, machine=MACHINE, num_threads=2,
            counter=counter, tracer=tracer,
        ) as engine:
            with tracer.span("caller"):
                cp_als(
                    tensor, 4, engine=engine, max_iters=3, tol=0.0,
                    compute_fit=compute_fit, seed=0, tracer=tracer,
                )
        return tracer

    def test_one_fit_span_per_iteration_beside_it(self):
        tracer = self.fitted_run(True)
        (caller,) = tracer.spans("caller")
        iters = tracer.spans("als.iteration")
        fits = tracer.spans("cpd.fit")
        assert [r.attrs["iteration"] for r in fits] == [0, 1, 2]
        assert [r.attrs["iteration"] for r in iters] == [0, 1, 2]
        for it, fit in zip(iters, fits):
            assert fit.parent_id == it.parent_id == caller.span_id
            assert fit.t0 >= it.t1
            assert fit.traffic is None

    def test_no_fit_span_without_fit(self):
        tracer = self.fitted_run(False)
        assert len(tracer.spans("als.iteration")) == 3
        assert tracer.spans("cpd.fit") == []


class TestExports:
    def test_jsonl_round_trip(self, tmp_path):
        tracer, _ = traced_run("threads")
        path = str(tmp_path / "run.jsonl")
        write_jsonl(tracer, path, host="unit-test")
        doc = read_jsonl(path)
        assert doc["meta"]["method"] == "stef"
        assert doc["meta"]["host"] == "unit-test"
        assert len(doc["spans"]) == len(tracer.records)
        assert doc["metrics"] == pytest.approx(tracer.metrics())
        # every line is standalone JSON (append-friendly record)
        with open(path) as fh:
            kinds = [json.loads(line)["type"] for line in fh]
        assert kinds[0] == "meta" and kinds[-1] == "metrics"
        assert kinds.count("span") == len(tracer.records)

    def test_chrome_trace_structure(self, tmp_path):
        # Without a machine model each thread is its own execution block.
        tracer, _ = traced_run("threads", threads=2, machine=None)
        path = str(tmp_path / "run.chrome.json")
        write_chrome_trace(tracer, path)
        with open(path) as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == len(tracer.records)
        # coordinator row + one row per task, all labeled
        tids = {e["tid"] for e in complete}
        assert 0 in tids and len(tids) >= 3
        assert {e["args"]["name"] for e in meta} >= {
            "coordinator", "task 0", "task 1",
        }
        for event in complete:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0

    def test_chrome_kernel_events_embed_traffic(self):
        tracer, _ = traced_run("serial")
        events = chrome_trace_events(tracer)
        kernels = [e for e in events
                   if e.get("name", "").startswith("mttkrp.")]
        assert kernels
        for event in kernels:
            assert "traffic" in event["args"]
            assert event["args"]["traffic"].get("reads", 0) > 0


class TestNullTracer:
    def test_records_nothing(self):
        tracer, _ = traced_run("serial")
        assert tracer.records  # a real tracer does record...
        null = NullTracer()
        with null.span("als.iteration", iteration=0):
            null.record_span("executor.task", 0.0, 1.0, lane=0)
        assert null.records == []
        assert null.metrics() == {}

    def test_span_returns_shared_singleton(self):
        """The traced-off path must not allocate per span."""
        a = NULL_TRACER.span("mttkrp.mode0", level=0, nnz=10)
        b = NULL_TRACER.span("als.iteration")
        assert a is b
        with a as entered:
            entered.annotate(source="memo")  # no-op, no error
        assert not NULL_TRACER.enabled

    def test_overhead_within_noise(self):
        """Guard against a NULL_TRACER span path that does real work.

        Compares min-of-N timings of a loop entering a hand-written no-op
        context manager against one that opens a NULL_TRACER span per
        step; the baseline carries the same with-statement machinery, so
        the ratio isolates exactly what span() adds.  The bound is
        generous (3x) because the point is catching accidental
        recording/allocation on the traced-off path, not
        micro-benchmarking the CI machine.
        """
        steps = 20_000

        class Noop:
            def __enter__(self):
                return self

            def __exit__(self, exc_type, exc, tb):
                return False

        noop = Noop()

        def bare():
            acc = 0
            for i in range(steps):
                with noop:
                    acc += i
            return acc

        def traced():
            acc = 0
            span = NULL_TRACER.span
            for i in range(steps):
                with span("mttkrp.mode0"):
                    acc += i
            return acc

        def best_of(fn, n=5):
            best = float("inf")
            for _ in range(n):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            return best

        bare_s = best_of(bare)
        traced_s = best_of(traced)
        assert traced_s < bare_s * 3 + 5e-3, (
            f"NULL_TRACER span overhead too high: "
            f"{traced_s:.6f}s vs bare {bare_s:.6f}s"
        )


class TestEngineRunMeta:
    """The JSONL header must be self-describing: a run record alone
    answers which engine/tier/backend/thread-count produced it."""

    def test_header_stamped_with_resolved_configuration(self, tmp_path):
        tensor = random_tensor((10, 8, 6), nnz=120, seed=3)
        tracer = Tracer(tensor="unit", command="decompose")
        with create_engine(
            "stef", tensor, 4, machine=MACHINE, num_threads=2,
            exec_backend="threads", tracer=tracer,
        ) as engine:
            meta = engine_run_meta(engine)
            cp_als(
                tensor, 4, engine=engine, max_iters=1,
                compute_fit=False, tracer=tracer,
            )
        path = str(tmp_path / "run.jsonl")
        write_jsonl(tracer, path, **meta)
        header = read_jsonl(path)["meta"]
        assert header["engine"] == "stef"
        assert header["jit_tier"] == "numpy"
        assert header["exec_backend"] == "threads"
        assert header["num_threads"] == 2
        # The tracer's own meta still comes through alongside the stamp.
        assert header["tensor"] == "unit"

    @pytest.mark.parametrize("exec_backend", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("method", engine_names())
    def test_header_names_the_backend_that_ran(self, method, exec_backend):
        tensor = random_tensor((10, 8, 6), nnz=120, seed=3)
        # dimtree's BDT walk builds no pool: it runs on the coordinator
        # whatever backend is requested.
        ran = "serial" if method == "dimtree" else exec_backend
        with create_engine(
            method, tensor, 4, machine=MACHINE, num_threads=2,
            exec_backend=exec_backend,
        ) as engine:
            assert engine_run_meta(engine)["exec_backend"] == ran

    def test_meta_defaults_for_minimal_engines(self):
        """Objects without the capability attrs still produce a complete
        header (serial / single-thread / numpy defaults)."""

        class Bare:
            pass

        meta = engine_run_meta(Bare())
        assert meta == {
            "engine": "Bare",
            "jit_tier": "numpy",
            "exec_backend": "serial",
            "num_threads": 1,
        }


class TestScopedTracer:
    """repro.serve pools engines across requests; the ScopedTracer lets
    one engine-bound tracer hand each job its own span record."""

    def test_forwards_spans_to_current_target(self):
        scoped = ScopedTracer()
        assert not scoped.enabled  # resting on NULL_TRACER
        with scoped.span("als.iteration", iteration=0):
            pass  # dropped

        job = Tracer()
        scoped.target = job
        assert scoped.enabled
        with scoped.span("mttkrp.mode0", level=0):
            pass
        scoped.record_span("executor.task", 0.0, 1.0, lane=0)
        assert {r.name for r in job.spans()} == {
            "mttkrp.mode0", "executor.task",
        }

        scoped.target = NULL_TRACER
        with scoped.span("als.iteration", iteration=1):
            pass
        assert len(job.records) == 2  # nothing new after the swap back
        assert scoped.records == []  # the forwarder itself records nothing

    def test_pooled_engine_records_per_job(self):
        """One engine, two jobs: each job's tracer sees only its own
        iterations and kernel spans, and the traffic-delta tiling holds
        per job even though the counter accumulates across both."""
        tensor = random_tensor((10, 8, 6), nnz=120, seed=3)
        scoped = ScopedTracer()
        counter = TrafficCounter(cache_elements=MACHINE.cache_elements)
        with create_engine(
            "stef", tensor, 4, machine=MACHINE, num_threads=2,
            exec_backend="serial", counter=counter, tracer=scoped,
        ) as engine:
            job1, job2 = Tracer(), Tracer()
            scoped.target = job1
            cp_als(
                tensor, 4, engine=engine, max_iters=1,
                compute_fit=False, seed=0, tracer=scoped,
            )
            snapshot = counter.reads
            scoped.target = job2
            cp_als(
                tensor, 4, engine=engine, max_iters=2,
                compute_fit=False, seed=0, tracer=scoped,
            )
            scoped.target = NULL_TRACER

        assert len(job1.spans("als.iteration")) == 1
        assert len(job2.spans("als.iteration")) == 2
        assert job1.kernel_spans() and job2.kernel_spans()
        # Per-job tiling: each record's deltas sum to that job's share.
        assert job1.traffic_totals()["reads"] == snapshot
        assert job2.traffic_totals()["reads"] == counter.reads - snapshot
