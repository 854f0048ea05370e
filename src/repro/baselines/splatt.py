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
memoization, is what STeF improves on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.memoization import SAVE_NONE
from ..core.mttkrp import MemoizedMttkrp
from ..engines.base import EngineBase, resolve_exec_backend, resolve_num_threads
from ..parallel.counters import NULL_COUNTER, TrafficCounter
from ..parallel.machine import MachineSpec
from ..tensor.coo import CooTensor
from ..tensor.csf import CsfTensor, default_mode_order
from ..trace import NULL_TRACER, Tracer

__all__ = ["Splatt1", "Splatt2", "SplattAll"]


class Splatt1(EngineBase):
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
        self.tensor = tensor
        self.rank = rank
        self.tracer = tracer
        self.exec_backend = resolve_exec_backend(exec_backend)
        self.csf = CsfTensor.from_coo(tensor, default_mode_order(tensor.shape))
        self.engine = MemoizedMttkrp(
            self.csf,
            rank,
            plan=SAVE_NONE,
            num_threads=resolve_num_threads(machine, num_threads),
            partition="slice",
            exec_backend=self.exec_backend,
            counter=counter,
            tracer=tracer,
        )
        self.mode_order: Tuple[int, ...] = self.csf.mode_order

    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """MTTKRP at ``level``; levels > 0 re-traverse the whole tree."""
        if level == 0:
            return self.engine.mode0(factors)
        return self.engine.mode_level(factors, level)

    def level_load_factor(self, level: int) -> float:
        """Imbalance stretch of the slice schedule (level-independent)."""
        return self.engine.partition.max_over_mean

    @property
    def num_threads(self) -> int:
        return self.engine.num_threads

    def per_thread_traffic(self) -> List[float]:
        return self.engine.shards.per_thread_totals()

    def close(self) -> None:
        """Release the inner engine's resources (shm under processes)."""
        self.engine.close()

    def tensor_bytes(self) -> int:
        """Tensor storage footprint (one CSF copy)."""
        return self.csf.total_bytes()

    def describe(self) -> str:
        return f"{self.name}: order={self.mode_order}"


class SplattAll(EngineBase):
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
        self.tensor = tensor
        self.rank = rank
        self.tracer = tracer
        self.exec_backend = resolve_exec_backend(exec_backend)
        threads = resolve_num_threads(machine, num_threads)
        d = tensor.ndim
        self.mode_order: Tuple[int, ...] = tuple(range(d))
        self.engines: List[MemoizedMttkrp] = []
        self.csfs: List[CsfTensor] = []
        for mode in range(d):
            rest = sorted(
                (m for m in range(d) if m != mode),
                key=lambda m: (tensor.shape[m], m),
            )
            csf = CsfTensor.from_coo(tensor, (mode, *rest))
            self.csfs.append(csf)
            self.engines.append(
                MemoizedMttkrp(
                    csf,
                    rank,
                    plan=SAVE_NONE,
                    num_threads=threads,
                    partition="slice",
                    exec_backend=self.exec_backend,
                    counter=counter,
                    tracer=tracer,
                )
            )
        self._last_engine = self.engines[0] if self.engines else None

    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """Mode-``level`` MTTKRP as a root sweep on its dedicated CSF."""
        self._last_engine = self.engines[level]
        return self.engines[level].mode0(factors)

    def level_load_factor(self, level: int) -> float:
        """Imbalance stretch of the slice schedule of ``level``'s tree."""
        return self.engines[level].partition.max_over_mean

    @property
    def num_threads(self) -> int:
        return self.engines[0].num_threads

    def per_thread_traffic(self) -> List[float]:
        """Most recent kernel's per-thread totals (each mode has its own
        engine; report the one that last ran)."""
        if self._last_engine is None:
            return []
        return self._last_engine.shards.per_thread_totals()

    def close(self) -> None:
        """Release every per-mode engine's resources."""
        for eng in self.engines:
            eng.close()

    def tensor_bytes(self) -> int:
        """Tensor storage footprint (``d`` CSF copies)."""
        return sum(c.total_bytes() for c in self.csfs)

    def describe(self) -> str:
        return f"{self.name}: {len(self.engines)} CSF copies"


class Splatt2(EngineBase):
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
        self.tensor = tensor
        self.rank = rank
        self.tracer = tracer
        self.exec_backend = resolve_exec_backend(exec_backend)
        threads = resolve_num_threads(machine, num_threads)
        d = tensor.ndim
        base_order = default_mode_order(tensor.shape)
        longest = base_order[-1]
        rest = sorted(
            (m for m in range(d) if m != longest),
            key=lambda m: (tensor.shape[m], m),
        )
        alt_order = (longest, *rest)
        self.csf_a = CsfTensor.from_coo(tensor, base_order)
        self.csf_b = CsfTensor.from_coo(tensor, alt_order)
        kwargs = dict(
            plan=SAVE_NONE,
            num_threads=threads,
            partition="slice",
            exec_backend=self.exec_backend,
            counter=counter,
            tracer=tracer,
        )
        self.engine_a = MemoizedMttkrp(self.csf_a, rank, **kwargs)
        self.engine_b = MemoizedMttkrp(self.csf_b, rank, **kwargs)
        self.mode_order: Tuple[int, ...] = tuple(range(d))
        # mode -> (engine, level-in-that-engine's CSF)
        self._dispatch: Dict[int, Tuple[MemoizedMttkrp, int]] = {}
        for mode in range(d):
            lvl_a = base_order.index(mode)
            lvl_b = alt_order.index(mode)
            if lvl_b < lvl_a:
                self._dispatch[mode] = (self.engine_b, lvl_b)
            else:
                self._dispatch[mode] = (self.engine_a, lvl_a)
        self._last_engine = self.engine_a

    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """Mode-``level`` MTTKRP on whichever tree holds it shallower."""
        engine, lvl = self._dispatch[level]
        self._last_engine = engine
        if lvl == 0:
            return engine.mode0(factors)
        # No memo plan -> mode_level recomputes from scratch; it only
        # requires that a sweep has populated nothing, which SAVE_NONE
        # guarantees.
        return engine.mode_level(factors, lvl)

    def level_load_factor(self, level: int) -> float:
        """Imbalance stretch of whichever tree serves ``level``."""
        engine, _lvl = self._dispatch[level]
        return engine.partition.max_over_mean

    @property
    def num_threads(self) -> int:
        return self.engine_a.num_threads

    def per_thread_traffic(self) -> List[float]:
        """Most recent kernel's per-thread totals (from whichever tree's
        engine last ran)."""
        return self._last_engine.shards.per_thread_totals()

    def close(self) -> None:
        """Release both trees' engine resources."""
        self.engine_a.close()
        self.engine_b.close()

    def tensor_bytes(self) -> int:
        """Tensor storage footprint (two CSF copies)."""
        return self.csf_a.total_bytes() + self.csf_b.total_bytes()

    def describe(self) -> str:
        return (
            f"{self.name}: orders {self.csf_a.mode_order} + {self.csf_b.mode_order}"
        )
