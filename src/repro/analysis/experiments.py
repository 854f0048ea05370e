"""Experiment harness shared by the benchmark suite.

One measured quantity underlies Figures 3, 4 and 6: the cost of a *full
MTTKRP set* (all ``d`` MTTKRPs of one CPD iteration) for a given method on
a given tensor/rank/machine.  The harness reports it through two channels:

* **wall seconds** — Python wall-clock of the vectorized kernels.  Useful
  as a sanity channel, but it ranks methods partly by interpreter
  overhead, not by the memory traffic that dominates the paper's C/OpenMP
  kernels.
* **simulated seconds** — counted element traffic converted to time by the
  machine's bandwidth, stretched per level by the schedule's
  load-imbalance factor:  ``Σ_levels traffic(level)·bytes/BW ·
  max_over_mean(level)``.  This single-resource (bandwidth-bound) model is
  the channel the figure-shape claims are validated on; DESIGN.md §2
  records the substitution.

:func:`measure_method` runs one method once; :func:`run_comparison`
produces the Figure-3/4 style table (performance relative to splatt-all,
higher = better).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..baselines import ALL_BACKENDS
from ..cpd.init import random_init
from ..engines import create_engine
from ..parallel.counters import TrafficCounter
from ..parallel.machine import MachineSpec
from ..tensor.coo import CooTensor

__all__ = [
    "LevelCost",
    "MethodMeasurement",
    "measure_method",
    "run_comparison",
    "scale_for_tensor",
]


@dataclass(frozen=True)
class LevelCost:
    """Cost of one MTTKRP in the set."""

    mode: int
    traffic_elements: float
    flops: float
    load_factor: float
    wall_seconds: float


@dataclass
class MethodMeasurement:
    """Cost of one full MTTKRP set for one method."""

    method: str
    tensor_name: str
    rank: int
    machine: str
    levels: List[LevelCost] = field(default_factory=list)
    wall_seconds: float = 0.0
    simulated_seconds: float = 0.0
    traffic_reads: float = 0.0
    traffic_writes: float = 0.0
    setup_seconds: float = 0.0

    @property
    def traffic_total(self) -> float:
        return self.traffic_reads + self.traffic_writes


def scale_for_tensor(tensor: CooTensor, tensor_name: str) -> float:
    """Per-tensor cache scale: the same factor the generator applied to
    the mode lengths, ``(nnz_scaled / nnz_paper) ** (1/d)``.

    Scaling the machine cache by this factor preserves which factor
    matrices are cache-resident at paper scale — without it every scaled
    factor fits in a real L3 and all ``DM_factor`` effects vanish.
    Unknown tensor names scale by 1 (real-size inputs).
    """
    from ..tensor.synthetic import TABLE1_SPECS

    spec = TABLE1_SPECS.get(tensor_name)
    if spec is None or tensor.nnz == 0:
        return 1.0
    return float((tensor.nnz / spec.paper_nnz) ** (1.0 / tensor.ndim))


def measure_method(
    method: str,
    tensor: CooTensor,
    rank: int,
    machine: MachineSpec,
    *,
    num_threads: Optional[int] = None,
    tensor_name: str = "?",
    seed: int = 0,
    backend_kwargs: Optional[dict] = None,
    cache_scale: Optional[float] = None,
) -> MethodMeasurement:
    """Run one full MTTKRP set for ``method`` and collect both channels.

    ``method`` is a registered engine name (see
    :func:`repro.engines.create_engine`); ``backend_kwargs`` forwards
    extra constructor arguments (used by the ablation benches to force
    plans/partitions).  ``cache_scale`` defaults to the per-tensor
    factor of :func:`scale_for_tensor`.
    """
    if cache_scale is None:
        cache_scale = scale_for_tensor(tensor, tensor_name)
    machine_eff = machine.with_cache_scale(cache_scale)
    counter = TrafficCounter(cache_elements=machine_eff.cache_elements)
    threads = num_threads if num_threads is not None else machine.num_threads
    t0 = time.perf_counter()
    backend = create_engine(
        method,
        tensor,
        rank,
        machine=machine_eff,
        num_threads=threads,
        counter=counter,
        **(backend_kwargs or {}),
    )
    setup = time.perf_counter() - t0
    factors = random_init(tensor.shape, rank, seed)

    meas = MethodMeasurement(
        method=method,
        tensor_name=tensor_name,
        rank=rank,
        machine=machine.name,
        setup_seconds=setup,
    )
    with backend:
        for level in range(tensor.ndim):
            before_t = counter.total
            before_f = counter.flops
            t1 = time.perf_counter()
            backend.mttkrp_level(factors, level)
            wall = time.perf_counter() - t1
            delta_t = counter.total - before_t
            delta_f = counter.flops - before_f
            load = backend.level_load_factor(level)
            meas.levels.append(
                LevelCost(
                    mode=backend.mode_order[level],
                    traffic_elements=delta_t,
                    flops=delta_f,
                    load_factor=load,
                    wall_seconds=wall,
                )
            )
            meas.wall_seconds += wall
            meas.simulated_seconds += (
                machine_eff.roofline_seconds(delta_t, delta_f, threads) * load
            )
    meas.traffic_reads = counter.reads
    meas.traffic_writes = counter.writes
    return meas


def run_comparison(
    tensors: Dict[str, CooTensor],
    rank: int,
    machine: MachineSpec,
    *,
    methods: Sequence[str] = tuple(ALL_BACKENDS),
    baseline: str = "splatt-all",
    num_threads: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, MethodMeasurement]]:
    """Measure every method on every tensor (Figures 3/4 inner loop).

    Returns ``{tensor_name: {method: measurement}}``; relative performance
    against ``baseline`` is derived by the report layer.
    """
    if baseline not in methods:
        raise ValueError(f"baseline {baseline!r} must be among the methods")
    out: Dict[str, Dict[str, MethodMeasurement]] = {}
    for name, tensor in tensors.items():
        row: Dict[str, MethodMeasurement] = {}
        for method in methods:
            row[method] = measure_method(
                method,
                tensor,
                rank,
                machine,
                num_threads=num_threads,
                tensor_name=name,
                seed=seed,
            )
        out[name] = row
    return out
