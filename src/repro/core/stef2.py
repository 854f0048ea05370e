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
second CSF: its sweep runs exactly once per CPD iteration.  The routing
rule of :class:`~repro.core.stef.CsfEngine` sends the leaf mode, and only
it, to the second tree: every other mode sits deeper there.
"""

from __future__ import annotations

from typing import List, Tuple

from ..tensor.coo import CooTensor
from ..tensor.csf import CsfTensor, root_order
from .memoization import SAVE_NONE, MemoPlan
from .stef import Stef

__all__ = ["Stef2"]


class Stef2(Stef):
    """STeF plus a second CSF representation for the leaf mode.

    Accepts the same parameters as :class:`~repro.core.stef.Stef`;
    ``trees[1]`` runs the CSF rooted at the base layout's leaf mode.
    """

    name = "stef2"

    def _trees(self, tensor: CooTensor) -> List[Tuple[CsfTensor, MemoPlan]]:
        leaf_mode = self.csf.mode_order[-1]
        second = CsfTensor.from_coo(tensor, root_order(tensor.shape, leaf_mode))
        return [*super()._trees(tensor), (second, SAVE_NONE)]

    def extra_csf_bytes(self) -> int:
        """Footprint of the second tensor copy (the cost STeF2 pays)."""
        return self.trees[1].csf.total_bytes()

    def describe(self) -> str:
        return (
            super().describe()
            + f" +csf2(root=mode {self.trees[1].csf.mode_order[0]})"
        )
