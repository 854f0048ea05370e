"""The ``decompose-*`` workloads: build an engine, run MTTKRP sets, solve.

One *round* is what ``repro decompose`` does, split at the points the
end-to-end metrics need: ``create_engine`` and the first MTTKRP set
(``setup_s``), :data:`EXTRA_SETS` more sets at the same initial factors
(``mttkrp_s``), then an :data:`ALS_ITERS`-iteration ``cp_als`` with
``tol=0`` and the fit on (``solve_s``; one ``lat_*`` sample per
iteration).  Rounds repeat until the run's time is spent, so every
metric is sampled across the whole run rather than in one burst.  Every
input and the ALS init derive from the seed, so each round does the
same arithmetic.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cpd import cp_als
from repro.cpd.init import random_init
from repro.engines import create_engine
from repro.parallel import MACHINES
from repro.parallel.counters import TrafficCounter
from repro.parallel.executor import shutdown_worker_pools
from repro.tensor import TABLE1_SPECS, CooTensor, generate
from repro.trace import NULL_TRACER, Tracer

from . import layers, oracle
from .common import (
    Outcome,
    child_pids,
    host_calib,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    run_meta,
    shm_leftovers,
    stop_resource_tracker,
)

MACHINE = "intel-clx-18"
RANK = 16
ALS_ITERS = 8
EXTRA_SETS = 3
#: Rounds run even when they overrun ``--seconds`` (medians need them);
#: ``mem_peak_mb`` is read after this many.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class DecomposeWorkload:
    tensor: str
    nnz: int
    exec_backend: str
    num_threads: Optional[int]  # None: the machine's 18 simulated threads


WORKLOADS = {
    # STeF on the serial backend: 18 thread bodies per kernel, the plan
    # keeps P^(1), so mode-0 sweep, memo-direct, recompute and leaf
    # kernels all run; factors have <= 851 rows.
    "decompose-uber": DecomposeWorkload("uber", 200_000, "serial", None),
    # Two process workers: every kernel crosses repro.parallel (shm
    # refresh, dispatch, replicated-buffer merge); the plan saves nothing.
    "decompose-nell2-procs": DecomposeWorkload("nell-2", 300_000, "processes", 2),
}


@dataclass
class Round:
    """Timings and outputs of one round (see the module docstring)."""

    calib_s: float
    build_s: float
    setup_s: float
    set_s: List[float]
    solve_s: float
    iter_lat_s: List[float]
    first_set: List[Tuple[int, np.ndarray]]
    sets: List[List[Tuple[int, np.ndarray]]]
    result: object  # AlsResult
    solve_traffic: Optional[Dict[str, float]]
    describe: str
    fiber_counts: Tuple[int, ...]
    kernel_tier: str
    traced: bool = False

    @property
    def work_s(self) -> float:
        return self.setup_s + sum(self.set_s) + self.solve_s


def run_round(
    tensor: CooTensor,
    rank: int,
    engine_kwargs: Dict,
    factors: Sequence[np.ndarray],
    als_kwargs: Dict,
    extra_sets: int,
    tracer: Tracer = NULL_TRACER,
    counter: Optional[TrafficCounter] = None,
) -> Round:
    """One round on a fresh ``stef`` engine; spans only when ``tracer`` is on."""
    calib = host_calib()
    kwargs = dict(engine_kwargs, tracer=tracer)
    if counter is not None:
        kwargs["counter"] = counter
    t0 = time.perf_counter()
    with tracer.span("bench.setup"):
        engine = create_engine("stef", tensor, rank, **kwargs)
        t_built = time.perf_counter()
        first = engine.iteration_results(factors)
    setup = time.perf_counter() - t0
    try:
        set_s, sets = [], []
        for _ in range(extra_sets):
            t1 = time.perf_counter()
            with tracer.span("bench.set"):
                out = engine.iteration_results(factors)
            set_s.append(time.perf_counter() - t1)
            sets.append(out)
        stamps: List[float] = []
        before = oracle.counter_traffic(counter) if counter is not None else None
        t2 = time.perf_counter()
        with tracer.span("bench.solve"):
            result = cp_als(
                tensor, rank, engine=engine, tracer=tracer,
                callback=lambda it, fit: stamps.append(time.perf_counter()),
                **als_kwargs,
            )
        solve = time.perf_counter() - t2
        traffic = (oracle.traffic_delta(before, oracle.counter_traffic(counter))
                   if counter is not None else None)
        describe = engine.describe()
        fibers = tuple(int(m) for m in engine.csf.fiber_counts)
        tier = engine.kernel_tier
    finally:
        engine.close()
    return Round(
        calib_s=calib, build_s=t_built - t0, setup_s=setup, set_s=set_s,
        solve_s=solve, iter_lat_s=list(np.diff([t2] + stamps)),
        first_set=first, sets=sets, result=result, solve_traffic=traffic,
        describe=describe, fiber_counts=fibers, kernel_tier=tier,
        traced=tracer.enabled,
    )


def _program_peak_mb() -> float:
    """Peak RSS of this process plus its live children (pool workers)."""
    return peak_rss_mb(os.getpid()) + sum(peak_rss_mb(p) for p in child_pids())


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    wl = WORKLOADS[name]
    machine = MACHINES[MACHINE]
    tensor = generate(TABLE1_SPECS[wl.tensor], nnz=wl.nnz, seed=seed)
    factors = random_init(tensor.shape, RANK, seed)
    engine_kwargs = dict(machine=machine, num_threads=wl.num_threads,
                         exec_backend=wl.exec_backend)
    als_kwargs = dict(max_iters=ALS_ITERS, tol=0.0, seed=seed)
    # Input generation is the benchmark's own work: start the peak here.
    reset_peak_rss(os.getpid())

    tracer = Tracer(workload=name, seed=seed) if trace else NULL_TRACER
    rounds: List[Round] = []
    failures: Failures = {}
    t_start = time.perf_counter()
    while True:
        # The traced run alternates untraced and traced rounds; the
        # untraced ones are the base of trace.overhead_frac.
        traced = trace and len(rounds) % 2 == 1
        if traced:
            with layers.LayerHooks(tracer):
                with tracer.span("bench.load"):
                    CooTensor.from_arrays(tensor.indices, tensor.values,
                                          tensor.shape)
                rnd = run_round(
                    tensor, RANK, engine_kwargs, factors, als_kwargs,
                    EXTRA_SETS, tracer=tracer,
                    counter=TrafficCounter(cache_elements=machine.cache_elements),
                )
        else:
            rnd = run_round(tensor, RANK, engine_kwargs, factors, als_kwargs,
                            EXTRA_SETS)
        rounds.append(_checked(len(rounds), rnd, rounds[0] if rounds else rnd,
                               failures))
        if len(rounds) == MIN_ROUNDS:
            # Peak over a fixed amount of work: process workers keep
            # every segment they attached mapped (an LRU of 256), so the
            # peak keeps growing with the number of engines built.
            mem_peak = _program_peak_mb()
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= MIN_ROUNDS + trace and \
                elapsed + elapsed / len(rounds) > seconds:
            break
    shutdown_worker_pools()

    _check_first(rounds, tensor, factors, engine_kwargs, als_kwargs, wl, failures)
    leftovers = shm_leftovers()
    if leftovers:
        failures[(-1, "cleanup", 0)] = f"shared-memory segments left: {leftovers}"
    stop_resource_tracker()
    attempted = len(rounds) * (2 + EXTRA_SETS) + 1  # + the cleanup check

    first = rounds[0]
    meta = run_meta(name, seed, first.kernel_tier, engine=first.describe,
                    tensor=f"{wl.tensor} nnz={tensor.nnz} shape={tensor.shape}",
                    exec_backend=wl.exec_backend, rounds=len(rounds))
    calib = [r.calib_s for r in rounds]
    if trace:
        metrics = layers.decompose_layers(tracer, rounds, leftovers=len(leftovers))
        layers.write_spans(tracer, name, seed, meta)
    else:
        lat = [x for r in rounds for x in r.iter_lat_s]
        sets = [x for r in rounds for x in r.set_s]
        jobs_wall = sum(r.build_s + r.solve_s for r in rounds)
        metrics = {
            # The first round also pays one-time process set-up (worker
            # pool spawn, lazy imports): engines.cold_setup_s reports it.
            "setup_s": (median([r.setup_s for r in rounds[1:]]), len(rounds) - 1),
            "mttkrp_s": (median(sets), len(sets)),
            "solve_s": (median([r.solve_s for r in rounds]), len(rounds)),
            "lat_p50_s": (median(lat), len(lat)),
            "lat_p90_s": (percentile(lat, 0.9), len(lat)),
            "jobs_per_s": (len(rounds) / jobs_wall, len(rounds)),
            "mem_peak_mb": (mem_peak, 1),
        }
    return Outcome(meta=meta, metrics=metrics, attempted=attempted,
                   failures=list(failures.values()), calib=calib)


#: A failed operation: (round, "set", i) with i = 0 for the first set,
#: or (round, "solve", 0); each is counted once, with its first reason.
Failures = Dict[Tuple[int, str, int], str]


def _checked(k: int, rnd: Round, first: Round, failures: Failures) -> Round:
    """Check round ``k`` against round 0 (itself when ``k == 0``), then
    drop its outputs so the benchmark holds no memory the program does not."""
    problem = oracle.check_als(rnd.result) or (
        oracle.identical_results(rnd.result, first.result) if k else None)
    if problem:
        failures.setdefault((k, "solve", 0), f"round {k} solve: {problem}")
    for i, out in enumerate([rnd.first_set] + rnd.sets):
        problem = oracle.identical_sets(out, first.first_set)
        if problem:
            failures.setdefault((k, "set", i), f"round {k} set {i}: {problem}")
    if k == 0:
        return replace(rnd, sets=[])
    return replace(rnd, first_set=[], sets=[], result=None)


def _check_first(rounds: List[Round], tensor, factors, engine_kwargs, als_kwargs,
                 wl: DecomposeWorkload, failures: Failures) -> None:
    """Check round 0, which every later round matched bit for bit, against
    the independent references; a miss fails every round's operations."""
    machine = engine_kwargs["machine"]
    first = rounds[0]
    with create_engine("alto", tensor, RANK, machine=machine) as alto:
        problem = oracle.compare_sets(first.first_set, alto.iteration_results(factors))
    if problem:
        for k in range(len(rounds)):
            for i in range(1 + EXTRA_SETS):
                failures.setdefault((k, "set", i), f"round {k} set {i} vs alto: {problem}")
    if wl.exec_backend != "serial":
        with create_engine("stef", tensor, RANK, machine=machine,
                           num_threads=wl.num_threads,
                           exec_backend="serial") as serial:
            serial_result = cp_als(tensor, RANK, engine=serial, **als_kwargs)
        problem = oracle.identical_results(first.result, serial_result)
        if problem:
            for k in range(len(rounds)):
                failures.setdefault((k, "solve", 0), f"round {k} solve: "
                                    f"{wl.exec_backend} vs serial: {problem}")
