"""ALTO baseline: MTTKRP over the linearized bit-interleaved format.

ALTO (Helal et al., ICS 2021) stores non-zeros as a flat array sorted by a
bit-interleaved linear index (:mod:`repro.tensor.alto`).  Its MTTKRP:

* splits the flat array into perfectly equal non-zero partitions — load
  balance is trivial by construction (the property the paper credits for
  ALTO's wins on vast-2015);
* recomputes every mode *from scratch*: for each non-zero, decode its
  coordinates, gather one factor row per non-contracted mode, multiply,
  and scatter — "the work currently computes all mode contractions from
  scratch, and hence has a significantly higher FLOP count" (Section V);
* needs no per-mode tensor reorganization (a single representation serves
  all modes).

Output conflicts between partitions are handled by per-partition
accumulation merged by the coordinator (standing in for ALTO's recursive
reduction), through one scatter operator per (mode, partition) built
with the engine.  Traffic accounting charges the linearized-index decode
(8 or 16 bytes per non-zero per mode pass), the values, the factor-row
gathers for all ``d-1`` non-target modes with the cache rule, and the
output scatter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.csf_kernels import scatter_add_rows
from ..core.proc_tasks import ProcessEngineContext, emit_contrib, resolve
from ..engines.base import EngineBase, resolve_exec_backend, resolve_num_threads
from ..kernels import (
    ScatterOperator,
    gather_multiply_rows,
    operator_basis,
    scatter_operator,
    value_gather_rows,
)
from ..parallel.counters import NULL_COUNTER, TrafficCounter
from ..parallel.executor import SimulatedPool
from ..parallel.machine import MachineSpec
from ..tensor.alto import AltoTensor
from ..tensor.coo import CooTensor
from ..trace import NULL_TRACER, Tracer

__all__ = ["AltoBackend"]


def _alto_mode_task(payload: Dict[str, Any]) -> Tuple[str, Any]:
    """One ALTO partition's mode-``ctx["mode"]`` MTTKRP: gather the
    non-target factor rows of the partition's non-zeros, scale by the
    values and multiply through; the rows go back via :func:`emit_contrib`
    for the coordinator's scatter."""
    ctx, th = payload["ctx"], payload["th"]
    mode = ctx["mode"]
    vals = resolve(ctx["values"])
    coords = [resolve(c) for c in ctx["coords"]]
    factors = [resolve(f) for f in ctx["factors"]]
    lo, hi = ctx["partitions"][th]
    other = [m for m in range(len(coords)) if m != mode]
    acc = value_gather_rows(vals, factors[other[0]], coords[other[0]], lo, hi)
    for m in other[1:]:
        acc = gather_multiply_rows(acc, factors[m], coords[m], lo, hi)
    return emit_contrib(ctx["scratch"][th], acc)


class AltoBackend(EngineBase):
    """ALTO-format MTTKRP backend (recompute-all-modes policy)."""

    name = "alto"

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
    ) -> None:
        self.tensor = tensor
        self.rank = rank
        self.counter = counter
        self.tracer = tracer
        threads = resolve_num_threads(machine, num_threads)
        self.alto = AltoTensor.from_coo(tensor)
        self.exec_backend = resolve_exec_backend(exec_backend)
        self.pool = SimulatedPool(threads, self.exec_backend, tracer=tracer)
        self.partitions = self.alto.partitions(threads)
        self.mode_order: Tuple[int, ...] = tuple(range(tensor.ndim))
        # Decoded per-mode coordinates are cached: ALTO decodes with a few
        # bit operations per access; the Python stand-in hoists the decode
        # but charges its traffic per use (see _charge).
        self._coords: List[np.ndarray] = [
            self.alto.mode_indices(m) for m in range(tensor.ndim)
        ]
        # Task operands (see repro.core.proc_tasks): under processes the
        # linearized values/coordinates are shared once and factor slots
        # are refreshed before every dispatch; otherwise the engine's arrays.
        self._ctx = ProcessEngineContext(shared=self.pool.backend == "processes")
        self._values = self._ctx.share(self.alto.values)
        self._coord_handles = [self._ctx.share(c) for c in self._coords]
        width = max((hi - lo for lo, hi in self.partitions), default=0)
        self._scratch = self._ctx.scratch([max(1, width)] * threads, rank)
        # The coordinator's scatter of partition th into mode m's output
        # always targets the same coordinates: sort them once, here.
        basis = operator_basis(width)
        self._scatter_ops: Optional[List[List[ScatterOperator]]] = [
            [scatter_operator(c[lo:hi], basis) for lo, hi in self.partitions]
            for c in self._coords
        ]

    @property
    def num_threads(self) -> int:
        return self.pool.num_threads

    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """From-scratch MTTKRP for mode ``level`` over equal-nnz chunks."""
        mode = self.mode_order[level]
        with self.kernel_span(level, mode, self.tensor.nnz, "recompute"):
            return self._mttkrp_level_impl(factors, mode)

    def _mttkrp_level_impl(
        self, factors: Sequence[np.ndarray], mode: int
    ) -> np.ndarray:
        if self._scatter_ops is None:
            raise RuntimeError("engine is closed")
        out = np.zeros((self.tensor.shape[mode], self.rank))
        payloads = self._ctx.payloads(
            self.num_threads,
            mode=mode,
            values=self._values,
            coords=self._coord_handles,
            factors=self._ctx.refresh_factors(factors),
            scratch=self._scratch,
            partitions=self.partitions,
        )
        results = self.pool.run_tasks(_alto_mode_task, payloads)
        for th, (result, op) in enumerate(zip(results, self._scatter_ops[mode])):
            scatter_add_rows(out, op, self._ctx.contribution(self._scratch[th], result))
        self._charge(mode)
        return out

    def close(self) -> None:
        """Release the scatter operators and the processes backend's
        shared segments."""
        self._scatter_ops = None
        self._ctx.close()

    def _charge(self, mode: int) -> None:
        """One mode's legs over all ``nnz`` non-zeros (the partitions tile
        them): the linearized-index decode, the recompute arithmetic, the
        index and values streams, the cache-rule factor gathers and the
        output scatter."""
        nnz = self.tensor.nnz
        d = self.tensor.ndim
        self.counter.flop(2.0 * self.alto.mask.total_bits * nnz, "decode")
        self.counter.flop(2.0 * (d - 1) * nnz * self.rank, "recompute")
        self.counter.read(nnz * (self.alto.index_bits // 64), "structure")
        self.counter.read(nnz, "values")
        for m in range(d):
            if m == mode:
                continue
            self.counter.read_factor_rows(
                nnz, self.tensor.shape[m], self.rank, "factor"
            )
        # Scatter-accumulate into the output (atomics or recursive
        # reduction; charged like the tree methods' conflicted outputs).
        self.counter.scatter_update(
            nnz, self.tensor.shape[mode], self.rank, self.num_threads, "output"
        )

    def level_load_factor(self, level: int) -> float:
        """ALTO's flat equal-nnz split is perfectly balanced by
        construction."""
        if self.tensor.nnz == 0:
            return 1.0
        sizes = [hi - lo for lo, hi in self.partitions]
        mean = sum(sizes) / len(sizes)
        return max(sizes) / mean if mean else 1.0

    def tensor_bytes(self) -> int:
        """ALTO storage footprint."""
        return self.alto.footprint_bytes()

    def describe(self) -> str:
        return f"{self.name}: {self.alto.index_bits}-bit linearized indices"
