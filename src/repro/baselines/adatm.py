"""AdaTM-style baseline: operation-count-driven memoization.

AdaTM (Li et al., IPDPS 2017) also memoizes partial MTTKRP results over a
CSF-like structure, choosing what to store with a model.  Two differences
from STeF matter for the evaluation (Sections V and VI-B):

* AdaTM's model minimizes *high-level operation count* (FLOPs), not data
  movement — so it happily stores large intermediates whose write/read
  traffic exceeds the arithmetic it saves (the uber tensor of
  Section IV-A is the canonical counterexample);
* it keeps the length-sorted mode order (no last-two-mode swap) and the
  prior-work slice distribution, so it inherits the vast-2015 imbalance.

The reimplementation reuses this library's memoized engine with a plan
chosen by an explicit FLOP model (:func:`flop_minimal_plan`), which — as
in the paper's characterization — "fails to select an optimal mode order
or memoizing decisions" whenever FLOPs and traffic disagree.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.memoization import MemoPlan, enumerate_plans
from ..core.stef import CsfEngine
from ..parallel.counters import NULL_COUNTER, TrafficCounter
from ..parallel.machine import MachineSpec
from ..tensor.coo import CooTensor
from ..tensor.csf import CsfTensor, default_mode_order
from ..trace import NULL_TRACER, Tracer

__all__ = ["flop_count", "flop_minimal_plan", "AdaTm"]


def _plan_arrays(plan: MemoPlan, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a :class:`MemoPlan` into typed arrays — the source level of
    each update mode and a saved-level mask — so the counting loop below
    takes only ndarrays and scalars (no object dispatch on the plan)."""
    # Mode 0 is produced by the sweep, never sourced: slot 0 is a filler.
    source = np.array(
        [0] + [plan.source_level(u, d) for u in range(1, d)], dtype=np.int64
    )
    saved = np.array([plan.saves(k) for k in range(d)], dtype=np.bool_)
    return source, saved


def flop_count(fiber_counts: Sequence[int], rank: int, plan: MemoPlan) -> float:
    """Multiply-add count of one CPD iteration's MTTKRPs under ``plan``.

    A sweep over levels ``j..k`` performs ``m_j·R`` multiply-adds per level
    (one fused gather-multiply-accumulate per fiber per rank column).  Mode
    ``u`` sourced from level ``k`` pays the downward ``k``-sweep
    (levels ``0..u-1``), the resumed contraction (``u..k``), and the final
    Hadamard-scatter at ``u``.
    """
    d = len(fiber_counts)
    m = np.asarray(fiber_counts, dtype=np.float64)
    source, saved = _plan_arrays(plan, d)
    # Mode 0: one full sweep (every level contributes m_j * R work).
    total = float(m.sum() * rank)
    for u in range(1, d):
        k = int(source[u]) if u < d - 1 else d - 1
        if u < d - 1 and not saved[k]:
            k = d - 1
        down = m[1 : u + 1].sum()  # k-vector expansions
        up = m[u : k + 1].sum() if k > u else m[u]
        total += float((down + up) * rank)
    return total


def flop_minimal_plan(fiber_counts: Sequence[int], rank: int) -> MemoPlan:
    """The memoization plan minimizing :func:`flop_count` — AdaTM's
    objective.  Ties break toward *more* memoization (AdaTM stores
    ``Θ(√N)`` intermediates by design)."""
    d = len(fiber_counts)
    best = None
    for plan in enumerate_plans(d):
        cost = flop_count(fiber_counts, rank, plan)
        key = (cost, -len(plan.save_levels))
        if best is None or key < best[0]:
            best = (key, plan)
    assert best is not None
    return best[1]


class AdaTm(CsfEngine):
    """Op-count-driven memoized MTTKRP backend (AdaTM policy)."""

    name = "adatm"

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
        csf = CsfTensor.from_coo(tensor, default_mode_order(tensor.shape))
        self.plan = flop_minimal_plan(csf.fiber_counts, rank)
        super().__init__(
            tensor,
            rank,
            [(csf, self.plan)],
            machine=machine,
            num_threads=num_threads,
            partition="slice",
            exec_backend=exec_backend,
            counter=counter,
            tracer=tracer,
        )

    def describe(self) -> str:
        return f"{self.name}: save={list(self.plan.save_levels)} (FLOP-minimal)"
