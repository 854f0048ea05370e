"""TACO-style baseline: compiler-generated per-mode kernels + auto-tuning.

The paper uses the scheduling-enabled TACO compiler as a baseline and
characterizes it as "very similar [to splatt-all] ... the main reason
[TACO is faster] is that TACO uses auto-tuning across various chunk sizes
and selects the best, paying a small preprocessing overhead for faster run
time" (Section VI-B).

The reimplementation mirrors that characterization:

* one CSF per mode (like splatt-all), each MTTKRP a root-mode sweep with
  no memoization and slice distribution;
* a chunk auto-tuner (:meth:`TacoBackend.autotune`) that times the mode-0
  kernel over a grid of slice-chunk granularities on a sample and fixes
  the fastest, recording the tuning time as preprocessing overhead.

The chunk granularity controls how many root slices each simulated-thread
task covers: small chunks approximate dynamic scheduling (better balance,
more scheduling overhead), large chunks the static slice deal.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.csf_kernels import thread_upward_sweep
from ..core.proc_tasks import (
    ProcessEngineContext,
    counter_state,
    local_counter,
    merge_counter_state,
    resolve,
    resolve_csf,
)
from ..engines.base import EngineBase, resolve_exec_backend, resolve_num_threads
from ..parallel.counters import NULL_COUNTER, ShardedTrafficCounter, TrafficCounter
from ..parallel.executor import SimulatedPool
from ..parallel.machine import MachineSpec
from ..tensor.coo import CooTensor
from ..tensor.csf import CsfTensor
from ..trace import NULL_TRACER, Tracer

__all__ = ["TacoBackend"]

#: Chunk-size grid the tuner explores (root slices per task).
CHUNK_GRID = (8, 64, 512, 4096)


def _charge_chunk(
    shard: TrafficCounter, csf: CsfTensor, s_lo: int, s_hi: int, rank: int
) -> None:
    """Per-thread legs of one slice chunk: structure walk and contraction
    arithmetic of the chunk's subtree.  Chunk boundaries are
    slice-aligned, so the per-level node spans tile every level exactly
    and the merged totals match the single-counter tallies."""
    a, b = s_lo, s_hi
    nodes = b - a
    children = 0
    for j in range(csf.ndim - 1):
        a, b = int(csf.ptr[j][a]), int(csf.ptr[j][b])
        nodes += b - a
        children += b - a
    shard.read(2.0 * nodes, "structure")
    shard.flop(2.0 * rank * children, "sweep")


def _taco_sweep_task(
    payload: Dict[str, Any]
) -> Tuple[List[Tuple[int, np.ndarray]], tuple]:
    """One thread's round-robin chunk deal: the chunk partials in deal
    order (the coordinator accumulates them in thread-id order) and the
    thread's traffic.  Dealing chunks round-robin is the dynamic-ish
    schedule that buys TACO its balance edge over a static deal."""
    ctx, th = payload["ctx"], payload["th"]
    csf = resolve_csf(ctx["csf"])
    lf = [resolve(ctx["factors"][m]) for m in csf.mode_order]
    counter = local_counter(ctx)
    tasks, pool_t = ctx["tasks"], ctx["pool_t"]
    results: List[Tuple[int, np.ndarray]] = []
    for ti in range(th, len(tasks), pool_t):
        s_lo, s_hi = tasks[ti]
        leaf_lo, _ = csf.leaf_span(0, s_lo) if s_hi > s_lo else (0, 0)
        if s_hi > s_lo:
            _, leaf_hi = csf.leaf_span(0, s_hi - 1)
        else:
            leaf_hi = leaf_lo
        if ctx["charge"]:
            _charge_chunk(counter, csf, s_lo, s_hi, ctx["rank"])
        res = thread_upward_sweep(csf, lf, leaf_lo, leaf_hi, stop_level=0)
        results.append(res[0])
    return results, counter_state(counter)


class TacoBackend(EngineBase):
    """Per-mode generated-kernel backend with chunk auto-tuning."""

    name = "taco"

    def __init__(
        self,
        tensor: CooTensor,
        rank: int,
        *,
        machine: Optional[MachineSpec] = None,
        num_threads: Optional[int] = None,
        exec_backend: Optional[str] = None,
        counter: TrafficCounter = NULL_COUNTER,
        tracer: Tracer = NULL_TRACER,
        autotune: bool = True,
    ) -> None:
        self.tensor = tensor
        self.rank = rank
        self.counter = counter
        self.tracer = tracer
        threads = resolve_num_threads(machine, num_threads)
        d = tensor.ndim
        self.mode_order: Tuple[int, ...] = tuple(range(d))
        self.exec_backend = resolve_exec_backend(exec_backend)
        self.pool = SimulatedPool(threads, self.exec_backend, tracer=tracer)
        self.shards = ShardedTrafficCounter.like(counter, threads)
        self.csfs: List[CsfTensor] = []
        for mode in range(d):
            rest = sorted(
                (m for m in range(d) if m != mode),
                key=lambda m: (tensor.shape[m], m),
            )
            self.csfs.append(CsfTensor.from_coo(tensor, (mode, *rest)))
        self.chunk_slices = CHUNK_GRID[-1]
        self.tuning_seconds = 0.0
        # Task operands (see repro.core.proc_tasks): under processes the
        # per-mode CSFs are shared once here and the factor slots are
        # refreshed before every dispatch; otherwise the engine's arrays.
        self._ctx = ProcessEngineContext(
            counter, shared=self.pool.backend == "processes"
        )
        self._csf_specs = [self._ctx.share_csf(c) for c in self.csfs]
        if autotune:
            self.autotune()

    # ------------------------------------------------------------------
    def autotune(self) -> int:
        """Probe each chunk granularity and keep the best.  A chunk is
        scored first by the parallel load balance it yields (the quantity
        that dominates the target machines) and then by the probe's wall
        time (scheduling overhead).  The spent wall time is recorded in
        ``tuning_seconds`` (the paper's "small preprocessing overhead")."""
        rng = np.random.default_rng(0)
        probe = [rng.random((n, self.rank)) for n in self.tensor.shape]
        t0 = time.perf_counter()
        best: Tuple[Tuple[float, float], int] = (
            (float("inf"), float("inf")),
            self.chunk_slices,
        )
        for chunk in CHUNK_GRID:
            self.chunk_slices = chunk
            t1 = time.perf_counter()
            self._sweep_mode(0, probe, charge=False)
            dt = time.perf_counter() - t1
            balance = max(self.level_load_factor(lvl) for lvl in self.mode_order)
            score = (round(balance, 3), dt)
            if score < best[0]:
                best = (score, chunk)
        self.chunk_slices = best[1]
        self.tuning_seconds = time.perf_counter() - t0
        return self.chunk_slices

    # ------------------------------------------------------------------
    def _task_bounds(self, csf: CsfTensor) -> List[Tuple[int, int]]:
        """Chunk the root slices into tasks of ``chunk_slices`` each."""
        n_slices = csf.fiber_counts[0]
        edges = list(range(0, n_slices, self.chunk_slices)) + [n_slices]
        return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]

    def _sweep_mode(
        self, mode: int, factors: Sequence[np.ndarray], *, charge: bool = True
    ) -> np.ndarray:
        csf = self.csfs[mode]
        rank = self.rank
        out = np.zeros((csf.level_shape(0), rank))
        tasks = self._task_bounds(csf)
        pool_t = self.pool.num_threads
        if charge:
            self.shards.reset()

        # Factor slots are keyed by *original* mode number; tasks reorder
        # to CSF levels via the CSF's mode_order.
        payloads = self._ctx.payloads(
            pool_t,
            csf=self._csf_specs[mode],
            factors=self._ctx.refresh_factors(factors),
            tasks=tasks,
            pool_t=pool_t,
            rank=rank,
            charge=charge,
        )
        results = self.pool.run_tasks(_taco_sweep_task, payloads)
        for th, (chunk_results, traffic) in enumerate(results):
            if charge:
                merge_counter_state(self.shards.shard(th), traffic)
            for nlo, tp in chunk_results:
                out[csf.idx[0][nlo : nlo + tp.shape[0]]] += tp

        if charge:
            # Kernel-level legs on the coordinator: cache-rule factor
            # gathers and the dense output write.
            self.shards.merge_into(self.counter)
            m = csf.fiber_counts
            for j in range(1, csf.ndim):
                self.counter.read_factor_rows(
                    m[j], csf.level_shape(j), rank, "factor"
                )
            self.counter.write(csf.level_shape(0) * rank, "output")
        return out

    def close(self) -> None:
        """Release the processes backend's shared segments (no-op else)."""
        self._ctx.close()

    # ------------------------------------------------------------------
    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """Mode-``level`` MTTKRP on its dedicated CSF with tuned chunks."""
        mode = self.mode_order[level]
        attrs = dict(
            level=level,
            mode=int(mode),
            nnz=int(self.tensor.nnz),
            threads=self.pool.num_threads,
        )
        if level == 0:
            span = self.tracer.span(
                "mttkrp.mode0", counter=self.counter, **attrs
            )
        else:
            span = self.tracer.span(
                "mttkrp.mode_level", counter=self.counter, source="recompute",
                **attrs,
            )
        with span:
            return self._sweep_mode(mode, factors)

    def level_load_factor(self, level: int) -> float:
        """Imbalance stretch of the chunked round-robin schedule for
        ``level``'s tree: per-thread nnz after dealing chunk tasks."""
        csf = self.csfs[self.mode_order[level]]
        tasks = self._task_bounds(csf)
        pool_t = self.pool.num_threads
        loads = [0] * pool_t
        for ti, (s_lo, s_hi) in enumerate(tasks):
            if s_hi <= s_lo:
                continue
            leaf_lo, _ = csf.leaf_span(0, s_lo)
            _, leaf_hi = csf.leaf_span(0, s_hi - 1)
            loads[ti % pool_t] += leaf_hi - leaf_lo
        mean = sum(loads) / pool_t
        return max(loads) / mean if mean else 1.0

    @property
    def num_threads(self) -> int:
        return self.pool.num_threads

    def tensor_bytes(self) -> int:
        """Tensor storage footprint (``d`` CSF copies)."""
        return sum(c.total_bytes() for c in self.csfs)

    def describe(self) -> str:
        return f"{self.name}: chunk={self.chunk_slices} slices/task"
