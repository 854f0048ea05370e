"""The benchmark's correctness oracle.

Each check returns ``None`` when the output is correct and a one-line
reason when it is not, so callers count failures without exceptions.

* MTTKRP sets must match an independent engine (``alto``: a different
  data structure and kernel) within :data:`SET_RTOL`.
* Fit trajectories must be finite, within [0, 1] and non-decreasing
  within :data:`FIT_SLACK`.  ALS cannot lower the fit, so a drop means
  the iterate broke; ``KruskalTensor.fit`` turns a NaN residual into a
  fit of 1.0 through ``max(0.0, nan)``, which the drop after it exposes.
* Repeated or cross-backend runs must be bit-identical (``np.array_equal``
  on weights and every factor), and served results must also report
  exactly the traffic of a direct run.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: Relative tolerance against the independent engine (measured ~4e-16).
SET_RTOL = 1e-12
#: Allowed fit decrease between consecutive ALS iterations.
FIT_SLACK = 1e-9

Set = Sequence[Tuple[int, np.ndarray]]


def check_fits(fits: Sequence[float]) -> Optional[str]:
    if not fits:
        return "no fit recorded"
    for it, fit in enumerate(fits):
        if not math.isfinite(fit):
            return f"non-finite fit {fit} at iteration {it + 1}"
        if not 0.0 <= fit <= 1.0:
            return f"fit {fit} outside [0, 1] at iteration {it + 1}"
    for it in range(1, len(fits)):
        if fits[it] < fits[it - 1] - FIT_SLACK:
            return (f"fit fell from {fits[it - 1]:.6g} to {fits[it]:.6g} "
                    f"at iteration {it + 1}")
    return None


def check_model(weights: np.ndarray, factors: Sequence[np.ndarray]) -> Optional[str]:
    if not np.all(np.isfinite(weights)):
        return "non-finite weights"
    for mode, factor in enumerate(factors):
        if not np.all(np.isfinite(factor)):
            return f"non-finite entries in factor {mode}"
    return None


def check_als(result) -> Optional[str]:
    """Fit trajectory and finiteness of an ``AlsResult``."""
    return check_fits(result.fits) or check_model(
        result.model.weights, result.model.factors
    )


def compare_sets(got: Set, reference: Set, rtol: float = SET_RTOL) -> Optional[str]:
    """``max |got - ref| / max |ref|`` per mode must stay within ``rtol``."""
    want: Dict[int, np.ndarray] = {int(m): r for m, r in reference}
    if sorted(want) != sorted(int(m) for m, _ in got):
        return "MTTKRP set covers different modes"
    for mode, res in got:
        ref = want[int(mode)]
        if res.shape != ref.shape:
            return f"mode {mode}: shape {res.shape} != {ref.shape}"
        scale = float(np.max(np.abs(ref))) or 1.0
        err = float(np.max(np.abs(res - ref))) / scale
        if not err <= rtol:
            return f"mode {mode}: relative difference {err:.3e} > {rtol:g}"
    return None


def identical_sets(got: Set, reference: Set) -> Optional[str]:
    if len(got) != len(reference):
        return "MTTKRP set length differs"
    for (m1, a), (m2, b) in zip(got, reference):
        if m1 != m2 or not np.array_equal(a, b):
            return f"mode {m1}: MTTKRP result not bit-identical"
    return None


def identical_models(weights, factors, ref_weights, ref_factors) -> Optional[str]:
    if not np.array_equal(np.asarray(weights), np.asarray(ref_weights)):
        return "weights not bit-identical"
    if len(factors) != len(ref_factors):
        return "factor count differs"
    for mode, (got, want) in enumerate(zip(factors, ref_factors)):
        if not np.array_equal(np.asarray(got), np.asarray(want)):
            return f"factor {mode} not bit-identical"
    return None


def identical_results(result, reference) -> Optional[str]:
    """Two ``AlsResult``\\ s: same fits, bit-identical weights and factors."""
    if list(result.fits) != list(reference.fits):
        return "fit trajectory differs"
    return identical_models(result.model.weights, result.model.factors,
                            reference.model.weights, reference.model.factors)


def counter_traffic(counter) -> Dict[str, float]:
    """A ``TrafficCounter``'s totals in the shape served results report."""
    totals = {"reads": counter.reads, "writes": counter.writes,
              "flops": counter.flops}
    totals.update(counter.by_category)
    return totals


def traffic_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0.0)
            for k in after if after[k] - before.get(k, 0.0)}


def check_served(job: Dict, reference, reference_traffic: Dict[str, float]) -> Optional[str]:
    """A served job record against a direct ``create_engine`` + ``cp_als``."""
    if job.get("state") != "done":
        return f"job {job.get('state')}: {job.get('error')}"
    served = job["result"]
    reason = check_fits(served["fits"]) or identical_models(
        served["weights"], served["factors"],
        reference.model.weights, reference.model.factors,
    )
    if reason:
        return reason
    if list(served["fits"]) != list(reference.fits):
        return "fit trajectory differs from the direct run"
    if served["traffic"] != reference_traffic:
        return "traffic differs from the direct run"
    return None

