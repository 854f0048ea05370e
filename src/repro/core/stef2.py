"""STeF2 — STeF with a second CSF for the leaf mode (Section VI-B).

The MTTKRP of the base CSF's *leaf* mode is the weak kernel in STeF: it is
a scatter of ``val · k_{d-2}`` per non-zero ("a series of Khatri-Rao
products") with no compression from the tree — the paper attributes
STeF's nell-2 loss to it.  STeF2 spends one extra tensor copy on a second
CSF whose *root* is the base layout's leaf mode; the leaf-mode MTTKRP then
becomes a mode-0 upward sweep (TTM + mTTV chain) on that copy, which is
both compressed and cheap.

The remaining modes of the second CSF are ordered by increasing length so
its sweep compresses maximally.  No partial results are memoized on the
second CSF: its sweep runs exactly once per CPD iteration.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..parallel.counters import NULL_COUNTER, TrafficCounter
from ..parallel.machine import MachineSpec
from ..tensor.coo import CooTensor
from ..tensor.csf import CsfTensor
from ..trace import NULL_TRACER, Tracer
from .memoization import SAVE_NONE, MemoPlan
from .mttkrp import MemoizedMttkrp
from .stef import Stef

__all__ = ["Stef2"]


class Stef2(Stef):
    """STeF plus a second CSF representation for the leaf mode.

    Accepts the same parameters as :class:`~repro.core.stef.Stef`; the
    extra state is ``csf2``/``engine2``, and :meth:`mttkrp_level`
    redirects the leaf level to the second representation.
    """

    name = "stef2"
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
        super().__init__(
            tensor,
            rank,
            machine=machine,
            num_threads=num_threads,
            plan=plan,
            swap_last_two=swap_last_two,
            partition=partition,
            exec_backend=exec_backend,
            counter=counter,
            tracer=tracer,
        )
        d = tensor.ndim
        leaf_mode = self.csf.mode_order[d - 1]
        rest = sorted(
            (m for m in range(d) if m != leaf_mode),
            key=lambda m: (tensor.shape[m], m),
        )
        self.csf2 = CsfTensor.from_coo(tensor, (leaf_mode, *rest))
        self.engine2 = MemoizedMttkrp(
            self.csf2,
            rank,
            plan=SAVE_NONE,
            num_threads=self.num_threads,
            partition=self.partition,
            exec_backend=self.exec_backend,
            counter=counter,
            tracer=tracer,
        )

    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """Leaf level runs as a mode-0 sweep on the second CSF; everything
        else follows STeF."""
        if level == self.csf.ndim - 1:
            return self.engine2.mode0(factors)
        return super().mttkrp_level(factors, level)

    def level_load_factor(self, level: int) -> float:
        """Leaf level runs as a mode-0 sweep on the second CSF's
        schedule; every other level follows the base engine's partition
        at the level actually executing it."""
        if level == self.csf.ndim - 1:
            return self.engine2.level_load_factor(0)
        return self.engine.level_load_factor(level)

    def close(self) -> None:
        """Release both engines' resources."""
        super().close()
        self.engine2.close()

    def extra_csf_bytes(self) -> int:
        """Footprint of the second tensor copy (the cost STeF2 pays)."""
        return self.csf2.total_bytes()

    def describe(self) -> str:
        return (
            super().describe()
            + f" +csf2(root=mode {self.csf2.mode_order[0]})"
        )
