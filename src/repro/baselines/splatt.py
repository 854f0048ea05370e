"""SPLATT-style baselines: splatt-1, splatt-2, splatt-all.

SPLATT (Smith et al., IPDPS 2015) computes every per-mode MTTKRP from CSF
representations *without* memoizing partial results.  The paper benchmarks
three variants differing in how many tensor copies they hold
(Section VI-B):

* **splatt-1** — a single CSF; the MTTKRP for level ``u`` re-traverses the
  tree from the top every time (our engine with the empty memo plan —
  exactly Fig. 1d for every non-root mode).
* **splatt-2** — two CSFs, one rooted at the shortest mode and one at the
  longest; each mode's MTTKRP runs on the tree where that mode sits
  closest to the root (cheaper ``k``-sweep, better output locality).
* **splatt-all** — one CSF per mode; every MTTKRP is a pure root-mode
  upward sweep on its own tree.  This is the normalization baseline of
  Figures 3 and 4.

All variants use the prior-work *slice* work distribution — that, plus no
memoization, is what STeF improves on.  Each is a
:class:`~repro.core.stef.CsfEngine` whose routing rule (shallowest tree
first, ties to the earlier tree) picks the tree per mode.
"""

from __future__ import annotations

from typing import Optional

from ..core.memoization import SAVE_NONE
from ..core.stef import CsfEngine
from ..parallel.counters import NULL_COUNTER, TrafficCounter
from ..parallel.machine import MachineSpec
from ..tensor.coo import CooTensor
from ..tensor.csf import CsfTensor, default_mode_order, root_order
from ..trace import NULL_TRACER, Tracer

__all__ = ["Splatt1", "Splatt2", "SplattAll"]


class Splatt1(CsfEngine):
    """Single-CSF SPLATT: no memoization, slice distribution."""

    name = "splatt-1"

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
        super().__init__(
            tensor,
            rank,
            [(csf, SAVE_NONE)],
            machine=machine,
            num_threads=num_threads,
            partition="slice",
            exec_backend=exec_backend,
            counter=counter,
            tracer=tracer,
        )

    def describe(self) -> str:
        return f"{self.name}: order={self.mode_order}"


class SplattAll(CsfEngine):
    """One CSF per mode: every MTTKRP is a root-mode sweep."""

    name = "splatt-all"

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
        modes = range(tensor.ndim)
        super().__init__(
            tensor,
            rank,
            [
                (CsfTensor.from_coo(tensor, root_order(tensor.shape, m)), SAVE_NONE)
                for m in modes
            ],
            machine=machine,
            num_threads=num_threads,
            partition="slice",
            exec_backend=exec_backend,
            counter=counter,
            tracer=tracer,
            mode_order=modes,
        )

    def describe(self) -> str:
        return f"{self.name}: {len(self.trees)} CSF copies"


class Splatt2(CsfEngine):
    """Two CSFs — one rooted at the shortest mode, one at the longest.

    Each mode's MTTKRP runs on the tree where it sits at the smaller
    level (ties favour the base tree).
    """

    name = "splatt-2"

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
        base_order = default_mode_order(tensor.shape)
        orders = (base_order, root_order(tensor.shape, base_order[-1]))
        super().__init__(
            tensor,
            rank,
            [(CsfTensor.from_coo(tensor, order), SAVE_NONE) for order in orders],
            machine=machine,
            num_threads=num_threads,
            partition="slice",
            exec_backend=exec_backend,
            counter=counter,
            tracer=tracer,
            mode_order=range(tensor.ndim),
        )

    def describe(self) -> str:
        a, b = (tree.csf.mode_order for tree in self.trees)
        return f"{self.name}: orders {a} + {b}"
