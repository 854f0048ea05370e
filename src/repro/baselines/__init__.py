"""Reimplemented baselines: SPLATT variants, AdaTM, ALTO, TACO-style.

Each baseline satisfies the MTTKRP-backend protocol of
:mod:`repro.cpd.als` (``mode_order`` + ``mttkrp_level``), so the one ALS
driver and benchmark harness serve every method.  :data:`ALL_BACKENDS`
maps harness names to constructors with the shared signature
``(tensor, rank, *, machine=None, num_threads=None,
exec_backend="serial", counter=NULL_COUNTER)``.
"""

from ..core.stef import Stef
from ..core.stef2 import Stef2
from .adatm import AdaTm, flop_count, flop_minimal_plan
from .alto_mttkrp import AltoBackend
from .dimtree import DimTreeBackend, build_mode_tree
from .splatt import Splatt1, Splatt2, SplattAll
from .taco import TacoBackend

#: Every method of Figures 3-4, keyed by its harness/plot name.
ALL_BACKENDS = {
    "stef": Stef,
    "stef2": Stef2,
    "adatm": AdaTm,
    "alto": AltoBackend,
    "splatt-1": Splatt1,
    "splatt-2": Splatt2,
    "splatt-all": SplattAll,
    "taco": TacoBackend,
    # Extension: the dimension-tree (BDT/HyperTensor) policy the paper
    # could not compare against (closed source, Section V).
    "dimtree": DimTreeBackend,
}

__all__ = [
    "AdaTm",
    "flop_count",
    "flop_minimal_plan",
    "AltoBackend",
    "DimTreeBackend",
    "build_mode_tree",
    "Splatt1",
    "Splatt2",
    "SplattAll",
    "TacoBackend",
    "ALL_BACKENDS",
]
