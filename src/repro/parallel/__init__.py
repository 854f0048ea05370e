"""Simulated shared-memory machine: specs, partitions, executor, counters."""

from .machine import AMD_TR_64, INTEL_CLX_18, MACHINES, MachineSpec
from .counters import NULL_COUNTER, TrafficCounter
from .partition import ThreadPartition, nnz_partition, slice_partition
from .executor import (
    EXEC_BACKENDS,
    ReplicatedArray,
    SimulatedPool,
    sanitizer_enabled,
    shutdown_worker_pools,
)
from .shm import SharedArena, ShmToken, attach

__all__ = [
    "MachineSpec",
    "INTEL_CLX_18",
    "AMD_TR_64",
    "MACHINES",
    "TrafficCounter",
    "NULL_COUNTER",
    "ThreadPartition",
    "nnz_partition",
    "slice_partition",
    "ReplicatedArray",
    "SimulatedPool",
    "sanitizer_enabled",
    "EXEC_BACKENDS",
    "shutdown_worker_pools",
    "SharedArena",
    "ShmToken",
    "attach",
]
