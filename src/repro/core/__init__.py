"""STeF core: memoized MTTKRP kernels, the data-movement model, planning."""

from .csf_kernels import (
    LevelSlice,
    ancestor_windows,
    block_downward_k,
    block_plan,
    block_upward_sweep,
    scatter_add_rows,
)
from .memoization import SAVE_ALL, SAVE_NONE, MemoPlan, enumerate_plans
from .model import DataMovementModel, ModelBreakdown, TensorStats
from .modeorder import (
    average_leaf_fiber_length,
    count_swapped_fibers,
    count_swapped_fibers_threaded,
)
from .mttkrp import MemoizedMttkrp
from .planner import Configuration, PlanDecision, plan_decomposition
from .schedule import WorkSchedule, build_schedule
from .stef import CsfEngine, Stef
from .stef2 import Stef2

__all__ = [
    "LevelSlice",
    "ancestor_windows",
    "block_downward_k",
    "block_plan",
    "block_upward_sweep",
    "scatter_add_rows",
    "MemoPlan",
    "enumerate_plans",
    "SAVE_ALL",
    "SAVE_NONE",
    "DataMovementModel",
    "ModelBreakdown",
    "TensorStats",
    "count_swapped_fibers",
    "count_swapped_fibers_threaded",
    "average_leaf_fiber_length",
    "MemoizedMttkrp",
    "Configuration",
    "PlanDecision",
    "plan_decomposition",
    "WorkSchedule",
    "build_schedule",
    "CsfEngine",
    "Stef",
    "Stef2",
]
