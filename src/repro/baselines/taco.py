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
more scheduling overhead), large chunks the static slice deal.  The
segment operators of every chunk's sweep are built per (mode, chunk
size) before that chunk size runs, so neither a probe nor a tuned
sweep pays for index work.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.csf_kernels import sweep_operators, thread_upward_sweep
from ..core.mttkrp import charge_sweep
from ..core.proc_tasks import (
    OperatorSpec,
    ProcessEngineContext,
    resolve,
    resolve_csf,
    resolve_operators,
)
from ..engines.base import EngineBase, resolve_exec_backend, resolve_num_threads
from ..kernels import operator_basis
from ..parallel.counters import NULL_COUNTER, TrafficCounter
from ..parallel.executor import SimulatedPool
from ..parallel.machine import MachineSpec
from ..tensor.coo import CooTensor
from ..tensor.csf import CsfTensor, root_order
from ..trace import NULL_TRACER, Tracer

__all__ = ["TacoBackend"]

#: Chunk-size grid the tuner explores (root slices per task).
CHUNK_GRID = (8, 64, 512, 4096)


def _chunk_leaves(csf: CsfTensor, s_lo: int, s_hi: int) -> Tuple[int, int]:
    """Leaf range of the root slices ``[s_lo, s_hi)`` (``(0, 0)`` when
    the chunk is empty)."""
    if s_hi <= s_lo:
        return 0, 0
    return csf.leaf_span(0, s_lo)[0], csf.leaf_span(0, s_hi - 1)[1]


def _taco_sweep_task(payload: Dict[str, Any]) -> List[Tuple[int, np.ndarray]]:
    """One thread's round-robin chunk deal: the chunk partials in deal
    order (the coordinator accumulates them in thread-id order).  Dealing
    chunks round-robin is the dynamic-ish schedule that buys TACO its
    balance edge over a static deal."""
    ctx, th = payload["ctx"], payload["th"]
    csf = resolve_csf(ctx["csf"])
    lf = [resolve(ctx["factors"][m]) for m in csf.mode_order]
    tasks, pool_t = ctx["tasks"], ctx["pool_t"]
    results: List[Tuple[int, np.ndarray]] = []
    for ti in range(th, len(tasks), pool_t):
        leaf_lo, leaf_hi = _chunk_leaves(csf, *tasks[ti])
        ops = resolve_operators(ctx["ops"], ti)
        res = thread_upward_sweep(csf, lf, leaf_lo, leaf_hi, stop_level=0, ops=ops)
        results.append(res[0])
    return results


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
        self.csfs = [
            CsfTensor.from_coo(tensor, root_order(tensor.shape, m)) for m in range(d)
        ]
        self.chunk_slices = CHUNK_GRID[-1]
        self.tuning_seconds = 0.0
        # Task operands (see repro.core.proc_tasks): under processes the
        # per-mode CSFs are shared once here and the factor slots are
        # refreshed before every dispatch; otherwise the engine's arrays.
        self._ctx = ProcessEngineContext(shared=self.pool.backend == "processes")
        self._csf_specs = [self._ctx.share_csf(c) for c in self.csfs]
        #: Chunk sweeps' segment operators, keyed by (mode, chunk size).
        self._ops: Optional[Dict[Tuple[int, int], OperatorSpec]] = {}
        self._basis = operator_basis(tensor.nnz)
        if autotune:
            self.autotune()
        for mode in range(d):
            self._operators(mode)

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
            self._operators(0)  # index work stays out of the probe's time
            t1 = time.perf_counter()
            self._sweep_mode(0, probe)
            dt = time.perf_counter() - t1
            balance = max(self.level_load_factor(lvl) for lvl in self.mode_order)
            score = (round(balance, 3), dt)
            if score < best[0]:
                best = (score, chunk)
        self.chunk_slices = best[1]
        ops = self._ops or {}
        for key in [k for k in ops if k[1] != self.chunk_slices]:
            self._ctx.release_operators(ops.pop(key))
        self.tuning_seconds = time.perf_counter() - t0
        return self.chunk_slices

    # ------------------------------------------------------------------
    def _task_bounds(self, csf: CsfTensor) -> List[Tuple[int, int]]:
        """Chunk the root slices into tasks of ``chunk_slices`` each."""
        n_slices = csf.fiber_counts[0]
        edges = list(range(0, n_slices, self.chunk_slices)) + [n_slices]
        return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]

    def _operators(self, mode: int) -> OperatorSpec:
        """The segment operators of ``mode``'s chunk sweeps at the current
        chunk size, built on first use and kept by the engine."""
        if self._ops is None:
            raise RuntimeError("engine is closed")
        key = (mode, self.chunk_slices)
        spec = self._ops.get(key)
        if spec is None:
            csf = self.csfs[mode]
            spec = self._ctx.share_operators(
                [
                    sweep_operators(csf, *_chunk_leaves(csf, *task), basis=self._basis)
                    for task in self._task_bounds(csf)
                ],
                self._basis,
            )
            self._ops[key] = spec
        return spec

    def _sweep_mode(self, mode: int, factors: Sequence[np.ndarray]) -> np.ndarray:
        """Mode ``mode``'s root sweep over its tuned chunks, uncharged."""
        ops = self._operators(mode)
        csf = self.csfs[mode]
        out = np.zeros((csf.level_shape(0), self.rank))
        tasks = self._task_bounds(csf)
        pool_t = self.pool.num_threads
        # Factor slots are keyed by *original* mode number; tasks reorder
        # to CSF levels via the CSF's mode_order.
        payloads = self._ctx.payloads(
            pool_t,
            csf=self._csf_specs[mode],
            factors=self._ctx.refresh_factors(factors),
            tasks=tasks,
            ops=ops,
            pool_t=pool_t,
        )
        for chunk_results in self.pool.run_tasks(_taco_sweep_task, payloads):
            for nlo, tp in chunk_results:
                out[csf.idx[0][nlo : nlo + tp.shape[0]]] += tp
        return out

    def _charge(self, csf: CsfTensor) -> None:
        """One root sweep of ``csf``: the tree walk over every level (the
        chunks tile it), the cache-rule factor gathers and the dense
        output write."""
        m, rank = csf.fiber_counts, self.rank
        charge_sweep(self.counter, m, rank)
        for j in range(1, csf.ndim):
            self.counter.read_factor_rows(m[j], csf.level_shape(j), rank, "factor")
        self.counter.write(csf.level_shape(0) * rank, "output")

    def close(self) -> None:
        """Release the segment operators and the processes backend's
        shared segments; later kernel calls raise."""
        self._ops = None
        self._ctx.close()

    # ------------------------------------------------------------------
    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """Mode-``level`` MTTKRP on its dedicated CSF with tuned chunks."""
        mode = self.mode_order[level]
        with self.kernel_span(level, mode, self.tensor.nnz, "recompute"):
            out = self._sweep_mode(mode, factors)
            self._charge(self.csfs[mode])
            return out

    def level_load_factor(self, level: int) -> float:
        """Imbalance stretch of the chunked round-robin schedule for
        ``level``'s tree: per-thread nnz after dealing chunk tasks."""
        csf = self.csfs[self.mode_order[level]]
        tasks = self._task_bounds(csf)
        pool_t = self.pool.num_threads
        loads = [0] * pool_t
        for ti, (s_lo, s_hi) in enumerate(tasks):
            leaf_lo, leaf_hi = _chunk_leaves(csf, s_lo, s_hi)
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
