"""Tests of the benchmark's correctness oracle.

The suite under ``tests/`` does not collect this file; run it with::

    python -m pytest perfbench/test_oracle.py -q
"""

from __future__ import annotations

import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import oracle  # noqa: E402
from repro.cpd import cp_als  # noqa: E402
from repro.engines import create_engine  # noqa: E402
from repro.parallel import MACHINES  # noqa: E402
from repro.parallel.counters import TrafficCounter  # noqa: E402
from repro.tensor import TABLE1_SPECS, generate  # noqa: E402

MACHINE = MACHINES["intel-clx-18"]


def _solve(name, nnz, rank, tensor_seed, als_seed, counter=None):
    tensor = generate(TABLE1_SPECS[name], nnz=nnz, seed=tensor_seed)
    kwargs = {"counter": counter} if counter is not None else {}
    with create_engine("stef", tensor, rank, machine=MACHINE, **kwargs) as engine:
        return cp_als(tensor, rank, engine=engine, max_iters=8, tol=0.0,
                      seed=als_seed)


def test_rejects_flickr_model_norm_overflow():
    # The model norm overflows at iteration 4: KruskalTensor.fit turns the
    # NaN residual into a fit of 1.0 through max(0.0, nan), then 0.0352.
    with np.errstate(all="ignore"):
        result = _solve("flickr-4d", 8_000, 8, tensor_seed=0, als_seed=0)
    assert result.fits[3] == 1.0
    reason = oracle.check_als(result)
    assert reason is not None and "fell" in reason and "iteration 5" in reason


def test_rejects_uber_2k_rank16_divergence():
    # A serve-uber job tensor: 2k nnz, rank 16, 5 iterations.  The model
    # norm blows up at iteration 5 and the fit reads -2.8e66.
    tensor = generate(TABLE1_SPECS["uber"], nnz=2_000, seed=901_115)
    with np.errstate(all="ignore"):
        with create_engine("stef", tensor, 16, machine=MACHINE) as engine:
            result = cp_als(tensor, 16, engine=engine, max_iters=5, tol=0.0,
                            seed=901)
    reason = oracle.check_als(result)
    assert reason is not None and "outside [0, 1] at iteration 5" in reason


def test_accepts_healthy_run():
    assert oracle.check_als(_solve("uber", 8_000, 8, tensor_seed=0, als_seed=0)) is None


def test_check_fits_bounds():
    assert oracle.check_fits([0.1, 0.2, 0.2 - 1e-12]) is None
    assert "non-finite" in oracle.check_fits([0.1, float("nan")])
    assert "outside" in oracle.check_fits([0.1, 1.5])
    assert "fell" in oracle.check_fits([0.3, 0.2])
    assert oracle.check_fits([]) is not None


def test_compare_sets_tolerance():
    rng = np.random.default_rng(0)
    ref = [(0, rng.random((5, 3))), (1, rng.random((4, 3)))]
    close = [(m, a * (1 + 1e-14)) for m, a in ref]
    far = [(m, a * (1 + 1e-9)) for m, a in ref]
    assert oracle.compare_sets(close, ref) is None
    assert "relative difference" in oracle.compare_sets(far, ref)
    assert oracle.compare_sets(ref[:1], ref) is not None


def test_check_served_needs_bits_fits_and_traffic():
    counter = TrafficCounter(cache_elements=MACHINE.cache_elements)
    direct = _solve("uber", 4_000, 8, tensor_seed=1, als_seed=2, counter=counter)
    traffic = {k: v for k, v in oracle.counter_traffic(counter).items() if v}

    def job(**changes):
        result = {
            "weights": direct.model.weights.tolist(),
            "factors": [f.tolist() for f in direct.model.factors],
            "fits": list(direct.fits),
            "traffic": dict(traffic),
        }
        result.update(changes)
        return {"state": "done", "result": result}

    assert oracle.check_served(job(), direct, traffic) is None
    nudged = [f.copy() for f in direct.model.factors]
    nudged[0][0, 0] = np.nextafter(nudged[0][0, 0], np.inf)
    assert "bit-identical" in oracle.check_served(
        job(factors=[f.tolist() for f in nudged]), direct, traffic)
    assert "traffic" in oracle.check_served(
        job(traffic={**traffic, "reads": traffic["reads"] + 1}), direct, traffic)
    assert oracle.check_served({"state": "failed", "error": "x"}, direct, traffic)
