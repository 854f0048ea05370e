"""STeF core: memoized MTTKRP kernels, the data-movement model, planning."""

from .csf_kernels import (
    LevelSlice,
    ancestor_windows,
    expand_rows,
    scatter_add_rows,
    serial_upward_sweep,
    thread_downward_k,
    thread_level_ranges,
    thread_upward_sweep,
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
    "expand_rows",
    "scatter_add_rows",
    "serial_upward_sweep",
    "thread_downward_k",
    "thread_level_ranges",
    "thread_upward_sweep",
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
