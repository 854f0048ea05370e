"""The CSF engine family and STeF, the Sparse Tensor Factorization facade.

Section VI-B describes every CSF comparator by three choices: how many
CSF copies it keeps, which partial results it memoizes, and whether it
deals work by root slices or by equal non-zeros.  :class:`CsfEngine` is
that description as code: a list of *trees* (a CSF layout with its
:class:`~repro.core.memoization.MemoPlan`, each run by its own
:class:`~repro.core.mttkrp.MemoizedMttkrp`) under one partition
strategy, and one routing rule — update position ``level`` runs on the
tree that holds ``mode_order[level]`` at the shallowest CSF level (the
first such tree on a tie).  STeF, STeF2, splatt-1/2/all and AdaTM are
constructors that pick those trees.

:class:`Stef` ties the paper's pieces together in the order Section III-B
describes:

1. build the base CSF with the increasing-mode-length heuristic;
2. run Algorithm 9 + the Section IV model to pick the configuration
   (swap the last two modes? which ``P^(i)`` to memoize?);
3. rebuild the CSF if the swap won;
4. run it as one tree under Algorithm 3's fine-grained load-balanced
   partition.

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

__all__ = ["CsfEngine", "Stef"]


class CsfEngine(EngineBase):
    """MTTKRP over one or more CSF copies of a tensor (see module docstring).

    Parameters
    ----------
    tensor:
        Input in COO form.
    rank:
        Decomposition rank ``R``.
    trees:
        ``(CsfTensor, MemoPlan)`` pairs, one per CSF copy.
    machine, num_threads:
        Thread count source (:func:`~repro.engines.base.resolve_num_threads`).
    partition:
        ``"nnz"`` (Algorithm 3) or ``"slice"`` (prior work), for every tree.
    exec_backend, counter, tracer:
        Passed to every tree's :class:`MemoizedMttkrp`.
    mode_order:
        Update position → original mode; the first tree's CSF order by
        default.

    Attributes
    ----------
    trees:
        One :class:`MemoizedMttkrp` per CSF copy, in the order given.
    """

    def __init__(
        self,
        tensor: CooTensor,
        rank: int,
        trees: Sequence[Tuple[CsfTensor, MemoPlan]],
        *,
        machine: Optional[MachineSpec] = None,
        num_threads: Optional[int] = None,
        partition: str = "nnz",
        exec_backend: Optional[str] = None,
        counter: TrafficCounter = NULL_COUNTER,
        tracer: Tracer = NULL_TRACER,
        mode_order: Optional[Sequence[int]] = None,
    ) -> None:
        self.tensor = tensor
        self.rank = rank
        self.tracer = tracer
        #: Normalized pool-execution mode (``"serial"`` when defaulted).
        self.exec_backend = resolve_exec_backend(exec_backend)
        threads = resolve_num_threads(machine, num_threads)
        self.trees: List[MemoizedMttkrp] = [
            MemoizedMttkrp(
                csf,
                rank,
                plan=plan,
                num_threads=threads,
                partition=partition,
                exec_backend=self.exec_backend,
                counter=counter,
                tracer=tracer,
            )
            for csf, plan in trees
        ]
        self.mode_order: Tuple[int, ...] = tuple(
            self.trees[0].csf.mode_order if mode_order is None else mode_order
        )

    def route(self, level: int) -> Tuple[MemoizedMttkrp, int]:
        """The tree that runs update position ``level`` and the CSF level
        it runs at: the shallowest holder of ``mode_order[level]``, the
        first such tree on a tie."""
        if not 0 <= level < len(self.mode_order):
            raise ValueError(f"level {level} out of range")
        mode = self.mode_order[level]
        depth, index = min(
            (tree.csf.mode_order.index(mode), i) for i, tree in enumerate(self.trees)
        )
        return self.trees[index], depth

    @property
    def num_threads(self) -> int:
        return self.trees[0].num_threads

    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """MTTKRP for update position ``level`` on its routed tree (CSF
        level 0 runs the sweep that refreshes that tree's memos)."""
        tree, depth = self.route(level)
        return tree.mode_level(factors, depth)

    def level_load_factor(self, level: int) -> float:
        """Load-imbalance stretch of the schedule executing ``level``'s
        MTTKRP (used by the simulated-time harness): the routed tree's
        partition at the level actually dealing that kernel's work."""
        tree, depth = self.route(level)
        return tree.level_load_factor(depth)

    def memo_bytes(self) -> int:
        """Footprint of the saved partial results (Table II)."""
        return sum(tree.memo_bytes() for tree in self.trees)

    def tensor_bytes(self) -> int:
        """Tensor storage footprint (every CSF copy)."""
        return sum(tree.csf.total_bytes() for tree in self.trees)

    def close(self) -> None:
        """Release every tree's resources (shared memory under
        ``processes``); later kernel calls raise."""
        for tree in self.trees:
            tree.close()


class Stef(CsfEngine):
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
    csf:
        The planned CSF layout (the first tree's).
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
        super().__init__(
            tensor,
            rank,
            self._trees(tensor),
            machine=machine,
            num_threads=num_threads,
            partition=partition,
            exec_backend=exec_backend,
            counter=counter,
            tracer=tracer,
        )

    def _trees(self, tensor: CooTensor) -> List[Tuple[CsfTensor, MemoPlan]]:
        """The CSF copies to run: STeF's one planned layout."""
        return [(self.csf, self.plan)]

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
