#!/usr/bin/env python
"""Trace-metric regression gate.

Runs a fixed, deterministic CPD-ALS workload per (tensor, method,
exec-backend) cell with tracing on, and either **records** the resulting
metric trajectory to a JSON baseline or **compares** a fresh run against
a recorded baseline:

* **deterministic metrics** (``traffic.*`` totals and per-span
  ``*.count``) are gated: a relative change beyond ``--threshold``
  (default 15%) in either direction fails the run with exit code 1.
  Traffic is counted, not measured, so any drift means the kernels'
  work actually changed — an unannounced algorithmic regression (or an
  intended change that must re-record the baseline).
* **wall-clock metrics** (``*.seconds``) are advisory only: printed in
  the report, never gated — CI machines are too noisy for a hard bound.

CI runs record-then-compare on two small Table-I tensors so the gate
itself can never be broken by a stale checked-in baseline::

    python scripts/bench_regress.py record  --output /tmp/base.json
    python scripts/bench_regress.py compare --baseline /tmp/base.json

A long-lived baseline can be recorded into ``benchmarks/results/`` and
compared against across commits the same way.

The third subcommand, ``serve``, is the daemon throughput arm: it
boots an in-thread ``repro serve``, submits a mixed batch of Table-I
jobs, **gates** every result against a direct run (bit-identical
factors, exactly equal traffic) and reports requests per second::

    python scripts/bench_regress.py serve --log-dir /tmp/serve-spool
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.cpd import cp_als
from repro.engines import create_engine
from repro.parallel import MACHINES, TrafficCounter
from repro.tensor import TABLE1_SPECS, generate
from repro.trace import Tracer, flat_metrics

DEFAULT_TENSORS = ("uber", "enron")
DEFAULT_METHODS = ("stef", "splatt-all")


def cell_key(tensor: str, method: str, exec_backend: str) -> str:
    return f"{tensor}/{method}/{exec_backend}"


def run_cell(
    tensor_name: str,
    method: str,
    exec_backend: str,
    *,
    nnz: int,
    rank: int,
    iters: int,
    threads: int,
    machine_name: str,
) -> dict:
    """One traced workload; returns the tracer's flat metrics dict."""
    tensor = generate(TABLE1_SPECS[tensor_name], nnz=nnz, seed=0)
    machine = MACHINES[machine_name]
    tracer = Tracer()
    counter = TrafficCounter(cache_elements=machine.cache_elements)
    with create_engine(
        method, tensor, rank, machine=machine, num_threads=threads,
        exec_backend=exec_backend, counter=counter, tracer=tracer,
    ) as engine:
        # compute_fit off + tol 0 → exactly `iters` iterations, so the
        # counted trajectory is a pure function of the kernels.
        cp_als(
            tensor, rank, engine=engine, max_iters=iters,
            compute_fit=False, seed=0, tracer=tracer,
        )
    return flat_metrics(tracer)


def collect(args) -> dict:
    cells = {}
    for tensor in args.tensors:
        for method in args.methods:
            key = cell_key(tensor, method, args.exec_backend)
            print(f"  running {key} ...", flush=True)
            cells[key] = run_cell(
                tensor, method, args.exec_backend,
                nnz=args.nnz, rank=args.rank, iters=args.iters,
                threads=args.threads, machine_name=args.machine,
            )
    return {
        "config": {
            "tensors": list(args.tensors),
            "methods": list(args.methods),
            "exec_backend": args.exec_backend,
            "nnz": args.nnz,
            "rank": args.rank,
            "iters": args.iters,
            "threads": args.threads,
            "machine": args.machine,
        },
        "cells": cells,
    }


def is_gated(metric: str) -> bool:
    """Deterministic metrics: counted traffic/flops and span counts."""
    return metric.startswith("traffic.") or metric.endswith(".count")


def compare(baseline: dict, current: dict, threshold: float) -> int:
    """Print the per-cell diff; return the number of gated regressions."""
    failures = 0
    for key, base_metrics in baseline["cells"].items():
        cur_metrics = current["cells"].get(key)
        if cur_metrics is None:
            print(f"FAIL {key}: cell missing from current run")
            failures += 1
            continue
        cell_bad = []
        advisory = []
        for metric, base_val in sorted(base_metrics.items()):
            if not isinstance(base_val, (int, float)):
                continue
            cur_val = cur_metrics.get(metric)
            if cur_val is None:
                if is_gated(metric):
                    cell_bad.append(f"{metric}: missing (was {base_val:g})")
                continue
            denom = abs(base_val) if base_val else 1.0
            rel = (cur_val - base_val) / denom
            if is_gated(metric):
                if abs(rel) > threshold:
                    cell_bad.append(
                        f"{metric}: {base_val:g} -> {cur_val:g} ({rel:+.1%})"
                    )
            elif metric.endswith(".seconds") and abs(rel) > threshold:
                advisory.append(
                    f"{metric}: {base_val:.4g}s -> {cur_val:.4g}s ({rel:+.1%})"
                )
        if cell_bad:
            failures += 1
            print(f"FAIL {key}")
            for line in cell_bad:
                print(f"     {line}")
        else:
            print(f"ok   {key}")
        for line in advisory:
            print(f"     (wall, advisory) {line}")
    return failures


def serve_bench(args) -> int:
    """Throughput + correctness arm for the ``repro serve`` daemon.

    Boots an in-thread server, floods it with a mixed batch of Table-I
    jobs over two exec backends, then **gates** every result against a
    direct ``create_engine`` + ``cp_als`` run: factors and weights must
    be bit-identical and the per-job traffic deltas exactly equal.
    Reports requests/sec and the cache hit rate (advisory, like all wall
    metrics here).  ``--log-dir`` points the server's spool there so the
    JSONL request logs survive as a CI artifact.
    """
    import shutil
    import tempfile

    import numpy as np

    from repro.serve import (
        JobSpec, ServeClient, start_in_thread, wait_for_socket,
    )

    backends = ("serial", "threads")
    workdir = tempfile.mkdtemp(prefix="repro-serve-bench-")
    socket_path = os.path.join(workdir, "serve.sock")
    spool = args.log_dir or os.path.join(workdir, "spool")
    handle = start_in_thread(socket_path, spool, workers=args.workers)
    wait_for_socket(socket_path)

    specs = [
        JobSpec(
            tensor=tensor, nnz=args.nnz, tensor_seed=0, engine=method,
            rank=args.rank, machine=args.machine, num_threads=args.threads,
            exec_backend=backend, max_iters=args.iters, tol=0.0, seed=0,
            compute_fit=False, client="bench",
        )
        for tensor in args.tensors
        for method in args.methods
        for backend in backends
    ]
    print(f"  submitting {len(specs)} jobs "
          f"({len(args.tensors)} tensors x {len(args.methods)} methods "
          f"x {len(backends)} backends) ...", flush=True)
    t0 = time.perf_counter()
    try:
        with ServeClient(socket_path) as client:
            job_ids = [client.submit(spec)["job_id"] for spec in specs]
            jobs = [client.wait(job_id, timeout=600) for job_id in job_ids]
            stats = client.stats()
        elapsed = time.perf_counter() - t0
    finally:
        handle.stop()
        # With --log-dir the spool lives outside workdir and survives;
        # only the socket scratch directory goes.
        shutil.rmtree(workdir, ignore_errors=True)

    failures = 0
    for spec, job in zip(specs, jobs):
        label = f"{spec.tensor}/{spec.engine}/{spec.exec_backend}"
        if job["state"] != "done":
            print(f"    FAIL {label}: {job['state']} ({job['error']})")
            failures += 1
            continue
        tensor = generate(TABLE1_SPECS[spec.tensor], nnz=spec.nnz, seed=0)
        machine = MACHINES[spec.machine]
        counter = TrafficCounter(cache_elements=machine.cache_elements)
        with create_engine(
            spec.engine, tensor, spec.rank, machine=machine,
            num_threads=spec.num_threads, exec_backend=spec.exec_backend,
            counter=counter,
        ) as engine:
            direct = cp_als(
                tensor, spec.rank, engine=engine, max_iters=spec.max_iters,
                tol=spec.tol, seed=spec.seed, compute_fit=spec.compute_fit,
            )
        served = job["result"]
        identical = np.array_equal(
            np.asarray(served["weights"]), direct.model.weights
        ) and all(
            np.array_equal(np.asarray(got), want)
            for got, want in zip(served["factors"], direct.model.factors)
        )
        totals = {"reads": counter.reads, "writes": counter.writes,
                  "flops": counter.flops}
        totals.update(counter.by_category)
        traffic_equal = served["traffic"] == {
            k: v for k, v in totals.items() if v
        }
        if not identical or not traffic_equal:
            print(f"    FAIL {label}: "
                  f"{'factors differ' if not identical else 'traffic differs'}")
            failures += 1
        else:
            print(f"    ok   {label}: {served['iterations']} iters, "
                  f"cache {job['cache']}")

    print(f"\n  {len(specs)} requests in {elapsed:.2f}s = "
          f"{len(specs) / elapsed:.2f} requests/sec "
          f"(cache hit rate {stats['cache.hit_rate']:.0%}, "
          f"workers {args.workers})")
    if args.log_dir:
        logs = os.path.join(args.log_dir, "logs")
        count = len(os.listdir(logs)) if os.path.isdir(logs) else 0
        print(f"  request logs: {count} JSONL files under {logs}")
    if failures:
        print(f"\n{failures} job(s) diverged from direct runs")
        return 1
    print("\nall served results bit-identical to direct runs")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload(p):
        p.add_argument("--tensors", nargs="+", default=list(DEFAULT_TENSORS),
                       choices=sorted(TABLE1_SPECS))
        p.add_argument("--methods", nargs="+", default=list(DEFAULT_METHODS))
        p.add_argument("--exec-backend", default="serial",
                       choices=("serial", "threads", "processes"))
        p.add_argument("--nnz", type=int, default=3000)
        p.add_argument("--rank", type=int, default=8)
        p.add_argument("--iters", type=int, default=2)
        p.add_argument("--threads", type=int, default=2)
        p.add_argument("--machine", default="intel-clx-18",
                       choices=sorted(MACHINES))

    p_rec = sub.add_parser("record", help="record a metric baseline")
    add_workload(p_rec)
    p_rec.add_argument("--output", required=True, help="baseline JSON path")

    p_cmp = sub.add_parser("compare", help="compare against a baseline")
    p_cmp.add_argument("--baseline", required=True, help="baseline JSON path")
    p_cmp.add_argument("--threshold", type=float, default=0.15,
                       help="gated relative-change bound (default 0.15)")

    p_srv = sub.add_parser(
        "serve", help="daemon throughput: gate bit-identity, report req/s"
    )
    add_workload(p_srv)
    p_srv.add_argument("--workers", type=int, default=3,
                       help="server worker threads (default 3)")
    p_srv.add_argument("--log-dir", default=None, dest="log_dir",
                       help="persist the server spool (JSONL request "
                       "logs under <log-dir>/logs) for artifact upload")

    args = parser.parse_args()
    if args.command == "serve":
        return serve_bench(args)
    if args.command == "record":
        data = collect(args)
        with open(args.output, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        print(f"recorded {len(data['cells'])} cells -> {args.output}")
        return 0

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    # Re-run the exact workload the baseline recorded.
    cfg = baseline["config"]
    ns = argparse.Namespace(
        tensors=cfg["tensors"], methods=cfg["methods"],
        exec_backend=cfg["exec_backend"], nnz=cfg["nnz"], rank=cfg["rank"],
        iters=cfg["iters"], threads=cfg["threads"], machine=cfg["machine"],
    )
    current = collect(ns)
    failures = compare(baseline, current, args.threshold)
    if failures:
        print(f"\n{failures} cell(s) regressed beyond "
              f"{args.threshold:.0%} on gated metrics")
        return 1
    print("\nall cells within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
