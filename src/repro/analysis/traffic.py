"""Model-vs-measured traffic validation.

The Section IV model earns its keep by *ranking* configurations, not by
predicting absolute byte counts.  :func:`model_vs_measured` runs the
memoized engine under every configuration of the search space, counts the
traffic it actually generates, and pairs each count with the model's
prediction; :func:`ranking_agreement` scores how well the two orderings
agree (Spearman-style pair concordance).  An integration test asserts high
concordance; the ablation benches reuse these helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.memoization import enumerate_plans
from ..core.model import DataMovementModel, TensorStats
from ..core.mttkrp import MemoizedMttkrp
from ..cpd.init import random_init
from ..parallel.counters import TrafficCounter
from ..parallel.machine import MachineSpec
from ..tensor.csf import CsfTensor

__all__ = [
    "CANONICAL_TRAFFIC_CATEGORIES",
    "ConfigTraffic",
    "model_vs_measured",
    "ranking_agreement",
]

#: The closed set of traffic-charge categories.  Every ``read``/``write``/
#: ``flop`` charge in the kernels names one of these, and the Section IV-C
#: data-movement model reasons in exactly the same vocabulary — the
#: ``counter-category`` lint rule (:mod:`repro.lint`) enforces the match so
#: the measured channel and the analytic model cannot drift apart.  Adding
#: a category is deliberate: extend this set, teach the model about the
#: new term, and only then start charging it.
CANONICAL_TRAFFIC_CATEGORIES = frozenset(
    {
        # --- data-movement legs (Section IV-C terms) ---
        "structure",      # CSF ptr/idx (or linearized-index) walks
        "values",         # the non-zero value stream
        "factor",         # factor-matrix row gathers under the DM_factor rule
        "output",         # the dense N×R MTTKRP result
        "memo",           # saved partial results P^(i): reads and writes
        "memo-allocate",  # write-allocate reads on fresh memo buffers
        # --- compute legs (the roofline's FLOP side) ---
        "sweep",          # TTM + mTTV contraction chain (Algorithms 4-8)
        "mode-u",         # downward-k / recompute / Hadamard of modes u > 0
        "recompute",      # ALTO-style from-scratch contraction arithmetic
        "decode",         # ALTO linearized-index bit-extraction
        "scatter",        # irregular read-modify-write updates
        # --- defaults kept for generic charges ---
        "compute",
        "misc",
    }
)


@dataclass(frozen=True)
class ConfigTraffic:
    """Predicted and counted traffic for one memoization plan."""

    save_levels: tuple
    predicted: float
    measured: float


def model_vs_measured(
    csf: CsfTensor,
    rank: int,
    machine: Optional[MachineSpec] = None,
    *,
    num_threads: int = 1,
    seed: int = 0,
) -> List[ConfigTraffic]:
    """Evaluate every memoization plan both ways on one CSF layout."""
    stats = TensorStats.from_csf(csf)
    model = DataMovementModel(stats, rank, machine)
    factors = random_init(csf.shape, rank, seed)
    out: List[ConfigTraffic] = []
    cache = machine.cache_elements if machine else None
    for plan in enumerate_plans(csf.ndim):
        counter = TrafficCounter(cache_elements=cache)
        engine = MemoizedMttkrp(
            csf, rank, plan=plan, num_threads=num_threads, counter=counter
        )
        engine.mode0(factors)
        for u in range(1, csf.ndim):
            engine.mode_level(factors, u)
        out.append(
            ConfigTraffic(
                save_levels=plan.save_levels,
                predicted=model.total(plan),
                measured=counter.total,
            )
        )
    return out


def ranking_agreement(entries: List[ConfigTraffic]) -> float:
    """Kendall-style pair concordance between predicted and measured
    orderings: 1.0 = identical ranking, 0.0 = uncorrelated, -1.0 =
    reversed.  Near-ties (under 2% apart on both axes) are skipped."""
    n = len(entries)
    if n < 2:
        return 1.0
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = entries[i], entries[j]
            dp = a.predicted - b.predicted
            dm = a.measured - b.measured
            scale_p = max(abs(a.predicted), abs(b.predicted), 1e-12)
            scale_m = max(abs(a.measured), abs(b.measured), 1e-12)
            if abs(dp) / scale_p < 0.02 and abs(dm) / scale_m < 0.02:
                continue
            if dp * dm > 0:
                concordant += 1
            elif dp * dm < 0:
                discordant += 1
    total = concordant + discordant
    if total == 0:
        return 1.0
    return (concordant - discordant) / total
