"""Per-mode cost profiling.

Where :mod:`repro.analysis.experiments` collects one aggregate per level,
this module keeps the full *category* breakdown (structure / factor /
memo / output / scatter-flops ...) per MTTKRP — the view used when
diagnosing why one method loses on one tensor (e.g. "STeF's leaf mode is
all output-scatter traffic" is literally a row here).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cpd.init import random_init
from ..engines import create_engine
from ..parallel.counters import TrafficCounter
from ..parallel.machine import MachineSpec
from ..tensor.coo import CooTensor
from ..trace import NULL_TRACER, Tracer
from .experiments import scale_for_tensor

__all__ = ["LevelProfile", "MethodProfile", "profile_method"]


@dataclass(frozen=True)
class LevelProfile:
    """One MTTKRP's costs, broken down by counter category."""

    level: int
    mode: int
    categories: Dict[str, float]
    traffic: float
    flops: float
    load_factor: float
    seconds: float
    wall_seconds: float

    def dominant_category(self) -> str:
        """The largest traffic category (diagnosis shortcut)."""
        tr = {k: v for k, v in self.categories.items() if not k.startswith("f:")}
        if not tr:
            return "-"
        return max(tr, key=tr.get)


@dataclass
class MethodProfile:
    """A full MTTKRP-set profile for one method on one tensor."""

    method: str
    tensor_name: str
    rank: int
    machine: str
    levels: List[LevelProfile] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(lv.seconds for lv in self.levels)

    def bottleneck_level(self) -> LevelProfile:
        """The most expensive MTTKRP of the set."""
        return max(self.levels, key=lambda lv: lv.seconds)

    def format(self) -> str:
        """Fixed-width profile table."""
        lines = [
            f"{self.method} on {self.tensor_name} "
            f"(R={self.rank}, {self.machine})",
            f"{'lvl':>4}{'mode':>5}{'traffic':>12}{'flops':>12}"
            f"{'load':>7}{'sim us':>10}{'wall ms':>10}  dominant",
        ]
        for lv in self.levels:
            lines.append(
                f"{lv.level:>4}{lv.mode:>5}{lv.traffic:>12.0f}"
                f"{lv.flops:>12.0f}{lv.load_factor:>7.2f}"
                f"{lv.seconds * 1e6:>10.1f}{lv.wall_seconds * 1e3:>10.2f}"
                f"  {lv.dominant_category()}"
            )
        bott = self.bottleneck_level()
        lines.append(
            f"bottleneck: level {bott.level} (mode {bott.mode}), "
            f"{100 * bott.seconds / max(self.total_seconds, 1e-30):.0f}% of the set"
        )
        return "\n".join(lines)


def profile_method(
    method: str,
    tensor: CooTensor,
    rank: int,
    machine: MachineSpec,
    *,
    num_threads: Optional[int] = None,
    tensor_name: str = "?",
    seed: int = 0,
    exec_backend: str = "serial",
    tracer: Tracer = NULL_TRACER,
) -> MethodProfile:
    """Run one MTTKRP set and capture per-level category breakdowns.

    ``exec_backend`` selects the simulated pool's execution mode
    (``"serial"``, ``"threads"``, or ``"processes"``); the engines charge
    traffic on the coordinator, so the profile is identical across all
    three.
    ``tracer`` records the set's kernel and per-thread spans (the CLI's
    ``profile --trace-chrome`` path).
    """
    cache_scale = scale_for_tensor(tensor, tensor_name)
    machine_eff = machine.with_cache_scale(cache_scale)
    counter = TrafficCounter(cache_elements=machine_eff.cache_elements)
    threads = num_threads if num_threads is not None else machine.num_threads
    factors = random_init(tensor.shape, rank, seed)
    profile = MethodProfile(
        method=method, tensor_name=tensor_name, rank=rank, machine=machine.name
    )
    prev_cats: Dict[str, float] = {}
    prev_total, prev_flops = 0.0, 0.0
    with create_engine(
        method, tensor, rank, machine=machine_eff, num_threads=threads,
        counter=counter, exec_backend=exec_backend, tracer=tracer,
    ) as backend:
        for level in range(tensor.ndim):
            t0 = time.perf_counter()
            backend.mttkrp_level(factors, level)
            wall = time.perf_counter() - t0
            cats: Dict[str, float] = {}
            for k, v in counter.by_category.items():
                delta = v - prev_cats.get(k, 0.0)
                if delta < 0:
                    # Counters only ever accumulate; a shrinking category
                    # means the counter was corrupted (lost updates, an
                    # unexpected reset) and the profile is untrustworthy.
                    raise RuntimeError(
                        f"negative traffic delta for category {k!r} at level "
                        f"{level} of {method!r} ({delta:g}): counter corruption"
                    )
                if delta > 0:
                    cats[k] = delta
            traffic = counter.total - prev_total
            flops = counter.flops - prev_flops
            if traffic < 0 or flops < 0:
                raise RuntimeError(
                    f"negative traffic/flop delta at level {level} of "
                    f"{method!r} (traffic {traffic:g}, flops {flops:g}): "
                    "counter corruption"
                )
            load = backend.level_load_factor(level)
            profile.levels.append(
                LevelProfile(
                    level=level,
                    mode=backend.mode_order[level],
                    categories=cats,
                    traffic=traffic,
                    flops=flops,
                    load_factor=load,
                    seconds=machine_eff.roofline_seconds(traffic, flops, threads)
                    * load,
                    wall_seconds=wall,
                )
            )
            prev_cats = dict(counter.by_category)
            prev_total, prev_flops = counter.total, counter.flops
    return profile
