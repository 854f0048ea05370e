"""The sparsity-aware data-movement model (Section IV-C).

The model predicts the element traffic of one full CPD iteration (the set
of ``d`` MTTKRPs) for a given *configuration* — a memoization plan plus a
mode order — using only the per-level fiber counts ``m_i``, the mode
lengths ``N_i``, the rank ``R`` and the machine's cache capacity.  It is
deliberately coarse (whole-matrix cache residency, no partial reuse), which
is what makes it cheap enough to evaluate for every configuration
exhaustively (:mod:`repro.core.planner`).

Paper formulas, with the two obvious typographical slips repaired (noted
inline):

* ``DM_factor_i(x)`` — ``x·R`` when the level's factor matrix exceeds
  cache, ``min(N_i·R, x·R)`` otherwise.
* ``DM_no_mem_read(u) = Σ_j (2·m_j + DM_factor_j(m_j))`` — full CSF
  traversal: two index-ish elements per fiber (index + pointer at internal
  levels, index + value at the leaf level) plus the factor-row gathers.
* ``DM_mem_k_read(u) = Σ_{j<k} (2·m_j + DM_factor_j(m_j)) + m_k·R`` —
  traverse only the levels above the saved partial, then stream the
  partial itself.  (The paper's summand places the ``m·R`` term inside the
  sum; reading the *one* saved ``P^(k)`` once is the physically meaningful
  cost and is what we implement.)
* ``DM_write(0) = n_0·R + Σ_{i∈M} m_i·R`` — mode-0 writes its output plus
  every saved partial.
* ``DM_read(0) = DM_no_mem_read(0) + Σ_{i∈M} m_i·R`` — the memo volume is
  charged on the *read* side of mode 0 as well.  Physically this is
  write-allocate traffic: streaming stores to the freshly allocated
  ``P^(i)`` buffers read each cache line before overwriting it.  The term
  matters: without it the model memoizes hyper-sparse tensors
  (``m_i ≈ nnz``) whose partials Table II shows the paper's model rejects
  (freebase rows with ratio 0.00).
* ``DM_write(u>0) = DM_factor_u(m_u)`` — output scatter with cache reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..parallel.machine import MachineSpec
from .memoization import MemoPlan

__all__ = ["TensorStats", "DataMovementModel", "ModelBreakdown"]


@dataclass(frozen=True)
class TensorStats:
    """The sufficient statistics the model needs about one CSF layout.

    Attributes
    ----------
    fiber_counts:
        ``m_i`` per level (``m_{d-1}`` = nnz).
    level_lengths:
        Dense mode length ``N_i`` of the mode stored at each level.
    mode_order:
        The CSF layout these stats describe (bookkeeping only).
    """

    fiber_counts: Tuple[int, ...]
    level_lengths: Tuple[int, ...]
    mode_order: Tuple[int, ...]

    @property
    def ndim(self) -> int:
        return len(self.fiber_counts)

    @classmethod
    def from_csf(cls, csf) -> "TensorStats":
        """Extract stats from a built :class:`~repro.tensor.csf.CsfTensor`."""
        return cls(
            fiber_counts=tuple(csf.fiber_counts),
            level_lengths=tuple(csf.level_shape(i) for i in range(csf.ndim)),
            mode_order=tuple(csf.mode_order),
        )

    def with_swapped_last_two(self, swapped_m: int) -> "TensorStats":
        """Stats for the last-two-mode-swapped layout.

        Only ``m_{d-2}`` changes (Algorithm 9 computes it); every shallower
        level keeps its fiber count and the leaf count is always nnz.
        """
        d = self.ndim
        fibers = list(self.fiber_counts)
        fibers[d - 2] = int(swapped_m)
        lengths = list(self.level_lengths)
        lengths[d - 2], lengths[d - 1] = lengths[d - 1], lengths[d - 2]
        order = list(self.mode_order)
        order[d - 2], order[d - 1] = order[d - 1], order[d - 2]
        return TensorStats(tuple(fibers), tuple(lengths), tuple(order))


@dataclass(frozen=True)
class ModelBreakdown:
    """Per-mode read/write predictions plus the total."""

    reads_per_mode: Tuple[float, ...]
    writes_per_mode: Tuple[float, ...]

    @property
    def total_reads(self) -> float:
        return float(sum(self.reads_per_mode))

    @property
    def total_writes(self) -> float:
        return float(sum(self.writes_per_mode))

    @property
    def total(self) -> float:
        """Total predicted element traffic for one CPD iteration."""
        return self.total_reads + self.total_writes


class DataMovementModel:
    """Evaluates the Section IV-C traffic formulas for configurations.

    Parameters
    ----------
    stats:
        Fiber counts / lengths of the CSF layout under evaluation.
    rank:
        Decomposition rank ``R``.
    machine:
        Supplies the cache capacity for the ``DM_factor`` rule.  Pass
        ``None`` for a cache-less model (all accesses streaming).
    """

    def __init__(
        self,
        stats: TensorStats,
        rank: int,
        machine: Optional[MachineSpec] = None,
    ) -> None:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.stats = stats
        self.rank = rank
        self.cache_elements = machine.cache_elements if machine else None

    # ------------------------------------------------------------------
    def dm_factor(self, level: int, accesses: float) -> float:
        """``DM_factor_i(x)``: factor-row gather traffic with the
        whole-matrix cache-residency rule."""
        footprint = self.stats.level_lengths[level] * self.rank
        stream = accesses * self.rank
        if self.cache_elements is not None and footprint <= self.cache_elements:
            return float(min(footprint, stream))
        return float(stream)

    def dm_no_mem_read(self) -> float:
        """Full-CSF-traversal read volume (one from-scratch MTTKRP)."""
        m = self.stats.fiber_counts
        return float(
            sum(2 * m[j] + self.dm_factor(j, m[j]) for j in range(self.stats.ndim))
        )

    def dm_mem_k_read(self, k: int) -> float:
        """Read volume when resuming from a saved ``P^(k)``: traverse
        levels ``0..k-1`` plus stream the saved partial."""
        m = self.stats.fiber_counts
        upper = sum(2 * m[j] + self.dm_factor(j, m[j]) for j in range(k))
        return float(upper + m[k] * self.rank)

    # ------------------------------------------------------------------
    def mode_read(self, u: int, plan: MemoPlan) -> float:
        """``DM_read(u)`` for one mode-level ``u``."""
        d = self.stats.ndim
        m = self.stats.fiber_counts
        if u == 0:
            memo_write_allocate = sum(m[i] * self.rank for i in plan.save_levels)
            return self.dm_no_mem_read() + memo_write_allocate
        k = plan.source_level(u, d)
        if k <= d - 2 and plan.saves(k):
            return self.dm_mem_k_read(k)
        return self.dm_no_mem_read()

    def mode_write(self, u: int, plan: MemoPlan) -> float:
        """``DM_write(u)`` for one mode-level ``u``."""
        m = self.stats.fiber_counts
        if u == 0:
            memo = sum(m[i] * self.rank for i in plan.save_levels)
            return float(self.stats.level_lengths[0] * self.rank + memo)
        return self.dm_factor(u, m[u])

    # ------------------------------------------------------------------
    def breakdown(self, plan: MemoPlan) -> ModelBreakdown:
        """Per-mode predictions for one full CPD iteration under ``plan``."""
        d = self.stats.ndim
        plan.validate(d)
        reads = tuple(self.mode_read(u, plan) for u in range(d))
        writes = tuple(self.mode_write(u, plan) for u in range(d))
        return ModelBreakdown(reads, writes)

    def total(self, plan: MemoPlan) -> float:
        """Total predicted element traffic under ``plan``."""
        return self.breakdown(plan).total
