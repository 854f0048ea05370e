"""STeF — the Sparse Tensor Factorization facade.

Ties the paper's pieces together in the order Section III-B describes:

1. build the base CSF with the increasing-mode-length heuristic;
2. run Algorithm 9 + the Section IV model to pick the configuration
   (swap the last two modes? which ``P^(i)`` to memoize?);
3. rebuild the CSF if the swap won;
4. construct the memoized MTTKRP engine with Algorithm 3's fine-grained
   load-balanced partition.

The object is then a drop-in MTTKRP backend for the CP-ALS driver
(:mod:`repro.cpd.als`) and the benchmark harness.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..engines.base import EngineBase, resolve_exec_backend, resolve_num_threads
from ..parallel.counters import NULL_COUNTER, TrafficCounter
from ..parallel.machine import MachineSpec
from ..tensor.coo import CooTensor
from ..tensor.csf import CsfTensor, default_mode_order
from ..trace import NULL_TRACER, Tracer
from .memoization import MemoPlan
from .mttkrp import MemoizedMttkrp
from .planner import PlanDecision, plan_decomposition

__all__ = ["Stef"]


class Stef(EngineBase):
    """Model-driven memoized MTTKRP backend (the paper's STeF).

    Parameters
    ----------
    tensor:
        Input in COO form (the CSFs are built internally).
    rank:
        Decomposition rank ``R``.
    machine:
        Machine model supplying cache capacity and the default thread
        count.  ``None`` gives a cache-less model and one thread.
    num_threads:
        Override the machine's thread count.
    plan:
        Force a memoization plan (ablations); default lets the model pick.
    swap_last_two:
        Force the mode-order decision (ablations); default model choice.
    partition:
        ``"nnz"`` (Algorithm 3) or ``"slice"`` (prior work, ablation).
    exec_backend:
        ``"serial"``, ``"threads"``, or ``"processes"`` pool execution
        (see :class:`~repro.parallel.executor.SimulatedPool`); ``None``
        means ``"serial"``.
    counter:
        Traffic accounting target.
    tracer:
        Structured-tracing target (:mod:`repro.trace`); the no-op
        tracer by default.

    Attributes
    ----------
    decision:
        The full :class:`~repro.core.planner.PlanDecision`, or ``None``
        when both ``plan=`` and ``swap_last_two=`` are forced — a fully
        overridden configuration never runs the model search, so there
        is no decision to report (and ``preprocessing_seconds`` stays
        0.0 instead of charging the ablation arm for a search whose
        result is discarded).
    preprocessing_seconds:
        Wall time spent on planning (Algorithm 9 + model search) — the
        quantity Fig. 5 compares against one MTTKRP-set execution.
    """

    name = "stef"
    memoize_capable = True

    def __init__(
        self,
        tensor: CooTensor,
        rank: int,
        *,
        machine: Optional[MachineSpec] = None,
        num_threads: Optional[int] = None,
        plan: Optional[MemoPlan] = None,
        swap_last_two: Optional[bool] = None,
        partition: str = "nnz",
        exec_backend: Optional[str] = None,
        counter: TrafficCounter = NULL_COUNTER,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.tensor = tensor
        self.rank = rank
        self.machine = machine
        self.tracer = tracer
        threads = resolve_num_threads(machine, num_threads)
        base_order = default_mode_order(tensor.shape)
        base_csf = CsfTensor.from_coo(tensor, base_order)

        self.decision: Optional[PlanDecision] = None
        if plan is not None and swap_last_two is not None:
            # Fully overridden (ablation arms): the model search's result
            # would be discarded, and its wall time would skew the Fig. 5/6
            # preprocessing comparison — skip it.
            self.preprocessing_seconds = 0.0
            swap = swap_last_two
            chosen_plan = plan
        else:
            t0 = time.perf_counter()
            self.decision = plan_decomposition(
                base_csf, rank, machine, consider_swap=tensor.ndim >= 3
            )
            self.preprocessing_seconds = time.perf_counter() - t0
            swap = (
                self.decision.swap_last_two
                if swap_last_two is None
                else swap_last_two
            )
            chosen_plan = (
                self.decision.best_with_swap(swap).plan if plan is None else plan
            )
        chosen_plan.validate(tensor.ndim)

        self.csf = base_csf.swapped_last_two() if swap else base_csf
        self.swap_last_two = swap
        self.plan = chosen_plan
        #: Normalized pool-execution mode (``"serial"`` when defaulted).
        self.exec_backend = resolve_exec_backend(exec_backend)
        self.partition = partition
        self.engine = MemoizedMttkrp(
            self.csf,
            rank,
            plan=chosen_plan,
            num_threads=threads,
            partition=partition,
            exec_backend=self.exec_backend,
            counter=counter,
            tracer=tracer,
        )

    # ------------------------------------------------------------------
    @property
    def mode_order(self) -> Tuple[int, ...]:
        """The CSF level -> original mode mapping actually in use."""
        return self.csf.mode_order

    @property
    def num_threads(self) -> int:
        return self.engine.num_threads

    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """MTTKRP for CSF ``level`` (level 0 refreshes the memos)."""
        if level == 0:
            return self.engine.mode0(factors)
        return self.engine.mode_level(factors, level)

    def iteration_results(
        self, factors: Sequence[np.ndarray]
    ) -> List[Tuple[int, np.ndarray]]:
        """One CPD iteration's worth of MTTKRPs (no factor updates)."""
        return self.engine.iteration_results(factors)

    def memo_bytes(self) -> int:
        """Footprint of the saved partial results (Table II)."""
        return self.engine.memo_bytes()

    def level_load_factor(self, level: int) -> float:
        """Load-imbalance stretch factor of the schedule executing
        ``level``'s MTTKRP (used by the simulated-time harness).

        Delegates to the engine, which picks the partition level actually
        dealing that kernel's work: leaf counts for leaf-driven sweeps,
        source-level node ranges for memo-fed modes.
        """
        return self.engine.level_load_factor(level)

    def per_thread_traffic(self) -> List[float]:
        """Most recent kernel's per-thread traffic totals (the sharded
        counter's observability channel)."""
        return self.engine.shards.per_thread_totals()

    def close(self) -> None:
        """Release engine resources (shared memory under ``processes``)."""
        self.engine.close()

    def decompose(self, **als_kwargs):
        """Run CPD-ALS with this backend (convenience wrapper around
        :func:`repro.cpd.als.cp_als`; keyword arguments pass through)."""
        from ..cpd.als import cp_als

        als_kwargs.setdefault("tracer", self.tracer)
        return cp_als(self.tensor, self.rank, engine=self, **als_kwargs)

    def describe(self) -> str:
        """One-line configuration summary for harness output."""
        return (
            f"{self.name}: order={self.mode_order} "
            f"save={list(self.plan.save_levels)} "
            f"swap={'yes' if self.swap_last_two else 'no'} "
            f"threads={self.num_threads}"
        )
