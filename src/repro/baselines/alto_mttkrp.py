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
reduction).  Traffic accounting charges the linearized-index decode
(8 or 16 bytes per non-zero per mode pass), the values, the factor-row
gathers for all ``d-1`` non-target modes with the cache rule, and the
output scatter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.csf_kernels import scatter_add_rows
from ..core.proc_tasks import (
    ProcessEngineContext,
    emit_contrib,
    local_counter,
    resolve,
)
from ..engines.base import EngineBase, resolve_exec_backend, resolve_num_threads
from ..kernels import gather_multiply_rows, value_gather_rows
from ..parallel.counters import NULL_COUNTER, ShardedTrafficCounter, TrafficCounter
from ..parallel.executor import SimulatedPool
from ..parallel.machine import MachineSpec
from ..tensor.alto import AltoTensor
from ..tensor.coo import CooTensor
from ..trace import NULL_TRACER, Tracer

__all__ = ["AltoBackend"]


def _charge_alto_chunk(
    counter: TrafficCounter, n: int, d: int, rank: int, index_words: int,
    decode_bits: int,
) -> None:
    """Per-thread legs of one ALTO partition: index decode, values stream
    and the recompute arithmetic."""
    counter.read(n * index_words, "structure")
    counter.read(n, "values")
    counter.flop(2.0 * (d - 1) * n * rank, "recompute")
    counter.flop(2.0 * decode_bits * n, "decode")


def _alto_mode_task(payload: Dict[str, Any]) -> Tuple[str, int, Any, tuple]:
    """One ALTO partition's mode-``ctx["mode"]`` MTTKRP: gather the
    non-target factor rows of the partition's non-zeros, scale by the
    values and multiply through; the rows go back via :func:`emit_contrib`
    for the coordinator's scatter."""
    ctx, th = payload["ctx"], payload["th"]
    mode = ctx["mode"]
    vals = resolve(ctx["values"])
    coords = [resolve(c) for c in ctx["coords"]]
    factors = [resolve(f) for f in ctx["factors"]]
    counter = local_counter(ctx)
    lo, hi = ctx["partitions"][th]
    d = len(coords)
    # Per-thread legs: the linearized-index decode, the values stream and
    # the recompute arithmetic of this partition.
    _charge_alto_chunk(
        counter, hi - lo, d, ctx["rank"], ctx["index_words"], ctx["decode_bits"]
    )
    other = [m for m in range(d) if m != mode]
    acc = value_gather_rows(vals, factors[other[0]], coords[other[0]], lo, hi)
    for m in other[1:]:
        acc = gather_multiply_rows(acc, factors[m], coords[m], lo, hi)
    return emit_contrib(ctx["scratch"][th], lo, acc, counter)


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
        self.shards = ShardedTrafficCounter.like(counter, threads)
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
        self._ctx = ProcessEngineContext(
            counter, shared=self.pool.backend == "processes"
        )
        self._values = self._ctx.share(self.alto.values)
        self._coord_handles = [self._ctx.share(c) for c in self._coords]
        width = max((hi - lo for lo, hi in self.partitions), default=0)
        self._scratch = self._ctx.scratch(threads, max(1, width), rank)

    @property
    def num_threads(self) -> int:
        return self.pool.num_threads

    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """From-scratch MTTKRP for mode ``level`` over equal-nnz chunks."""
        mode = self.mode_order[level]
        attrs = dict(
            level=level,
            mode=int(mode),
            nnz=int(self.tensor.nnz),
            threads=self.num_threads,
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
            return self._mttkrp_level_impl(factors, mode)

    def _mttkrp_level_impl(
        self, factors: Sequence[np.ndarray], mode: int
    ) -> np.ndarray:
        out = np.zeros((self.tensor.shape[mode], self.rank))
        self.shards.reset()
        payloads = self._ctx.payloads(
            self.num_threads,
            mode=mode,
            values=self._values,
            coords=self._coord_handles,
            factors=self._ctx.refresh_factors(factors),
            scratch=self._scratch,
            partitions=self.partitions,
            rank=self.rank,
            index_words=self.alto.index_bits // 64,
            decode_bits=self.alto.mask.total_bits,
        )
        results = self.pool.run_tasks(_alto_mode_task, payloads)
        for th, result in enumerate(results):
            lo, acc = self._ctx.contribution(
                self._scratch[th], result, self.shards.shard(th)
            )
            scatter_add_rows(out, self._coords[mode][lo : lo + acc.shape[0]], acc)

        self.shards.merge_into(self.counter)
        self._charge(mode, factors)
        return out

    def close(self) -> None:
        """Release the processes backend's shared segments (no-op else)."""
        self._ctx.close()

    def _charge(self, mode: int, factors: Sequence[np.ndarray]) -> None:
        """Kernel-level legs (per-thread legs are charged by the tasks):
        the cache-rule factor gathers and the output scatter."""
        nnz = self.tensor.nnz
        d = self.tensor.ndim
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
