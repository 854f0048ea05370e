"""CPD-ALS: the alternating least squares driver (Algorithm 2).

The driver is generic over an *MTTKRP backend* — any object exposing

* ``mode_order`` — a tuple mapping update position (CSF level) to the
  original tensor mode it updates, and
* ``mttkrp_level(factors, level)`` — the MTTKRP result for that position
  given current factor matrices (indexed by original mode).

:class:`~repro.core.stef.Stef`, :class:`~repro.core.stef2.Stef2` and every
baseline in :mod:`repro.baselines` satisfy this protocol, so one driver
serves the whole evaluation; backends must produce *identical* ALS
trajectories (a property test asserts this), differing only in cost.

One iteration updates each factor in backend order: compute the MTTKRP,
solve against the Hadamard-of-Grams matrix ``V``, normalize columns into
``λ`` (Algorithm 2 lines 2-13).  Convergence is declared when the change
in fit drops below ``tol`` (line 14).  The fit needs no pass over the
non-zeros: the iteration's last MTTKRP ``M`` already contracts the tensor
with every other (final) factor, so ``⟨T, X⟩ = Σ_r λ_r Σ_i M(i,r)·A(i,r)``
for that level's factor ``A``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..ops.hadamard import gram, normalize_columns, solve_factor
from ..tensor.coo import CooTensor
from ..trace import NULL_TRACER, Tracer
from .init import hosvd_init, random_init
from .kruskal import KruskalTensor, fit_from_terms

__all__ = ["AlsResult", "cp_als", "als_iteration"]


@dataclass
class AlsResult:
    """Outcome of a CP-ALS run.

    ``fits[i]`` is the fit after iteration ``i+1``; ``converged`` is True
    when the tolerance test (not the iteration cap) ended the run.
    ``iterations`` is *cumulative* across resumes — it counts every
    iteration that produced the model, matching the checkpoint's
    ``iteration`` field; ``len(seconds_per_iteration)`` gives just this
    run's share.
    """

    model: KruskalTensor
    fits: List[float]
    iterations: int
    converged: bool
    seconds: float
    seconds_per_iteration: List[float] = field(default_factory=list)

    @property
    def final_fit(self) -> float:
        return self.fits[-1] if self.fits else float("nan")


def als_iteration(
    backend,
    factors: List[np.ndarray],
    *,
    ridge: float = 0.0,
    nonneg: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run one full CPD-ALS iteration in place, returning ``(λ, M)``.

    ``factors`` is indexed by original mode and mutated as each mode is
    updated — later MTTKRPs see the freshly updated matrices, exactly as
    Algorithm 2 prescribes.  ``M`` is the MTTKRP result of the last level
    (mode ``backend.mode_order[-1]``), computed against the final values
    of every other factor; :func:`cp_als` takes the fit from it.

    ``ridge`` adds Tikhonov damping (``V + ridge·I``), stabilizing
    ill-conditioned updates; ``nonneg`` projects each updated factor onto
    the non-negative orthant before normalization (projected ALS — the
    simple NN-CP variant; see PLANC [7] for the full constrained family).
    """
    lambdas = np.ones(factors[0].shape[1])
    rank = factors[0].shape[1]
    for level in range(len(factors)):
        mode = backend.mode_order[level]
        m = backend.mttkrp_level(factors, level)
        v = np.ones((rank, rank))
        for other in range(len(factors)):
            if other != mode:
                v *= gram(factors[other])
        if ridge > 0.0:
            v = v + ridge * np.eye(rank)
        updated = solve_factor(m, v)
        if nonneg:
            updated = np.maximum(updated, 0.0)
        factors[mode], lambdas = normalize_columns(updated)
    return lambdas, m


def cp_als(
    tensor: CooTensor,
    rank: int,
    *,
    engine=None,
    max_iters: int = 50,
    tol: float = 1e-5,
    init: str = "random",
    seed: int = 0,
    compute_fit: bool = True,
    ridge: float = 0.0,
    nonneg: bool = False,
    callback: Optional[Callable[[int, float], None]] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 5,
    resume: bool = False,
    tracer: Tracer = NULL_TRACER,
) -> AlsResult:
    """Compute the CP decomposition of a sparse tensor.

    Parameters
    ----------
    tensor:
        Input in COO form.
    rank:
        Number of rank-one components ``R``.
    engine:
        An MTTKRP engine instance (see
        :func:`repro.engines.create_engine`); default constructs
        :class:`~repro.core.stef.Stef` with the model-chosen
        configuration.
    max_iters, tol:
        Convergence controls (fit-change threshold).
    init:
        ``"random"`` or ``"hosvd"`` factor initialization.
    seed:
        Initialization seed (backends must not consume randomness, so the
        trajectory is fully determined by ``(init, seed)``).
    compute_fit:
        Disable to skip per-iteration fit evaluation (kernel benchmarking;
        convergence then runs to ``max_iters``).  The fit costs no pass
        over the non-zeros: it reuses the iteration's last MTTKRP and the
        factors' Gram matrices, and matches :meth:`KruskalTensor.fit` on
        the iteration's model to rounding.
    ridge:
        Tikhonov damping added to the ``V`` matrix of every solve.
    nonneg:
        Project factors onto the non-negative orthant each update
        (projected ALS; natural for the count data of Table I).
    callback:
        Called as ``callback(iteration, fit)`` after each iteration.
    checkpoint_path:
        When set, the current model and iteration count are written to
        this ``.npz`` every ``checkpoint_every`` iterations (long runs on
        big tensors survive interruption).
    resume:
        With ``checkpoint_path`` set and the file present, continue from
        the checkpointed factors, weights, and iteration count instead of
        ``init``.  Resuming a run that already reached ``max_iters``
        returns the checkpointed model untouched and leaves the
        checkpoint file as it was.
    tracer:
        Structured-tracing target (:mod:`repro.trace`): each iteration
        records an ``als.iteration`` span enclosing the engine's kernel
        spans, then (with ``compute_fit``) a ``cpd.fit`` span beside it.
        The no-op tracer by default.
    """
    if engine is None:
        from ..core.stef import Stef

        engine = Stef(tensor, rank, tracer=tracer)
    backend = engine

    start_iter = 0
    factors: Optional[List[np.ndarray]] = None
    resumed_lambdas: Optional[np.ndarray] = None
    if resume:
        if checkpoint_path is None:
            raise ValueError("resume=True requires checkpoint_path")
        import os

        if os.path.exists(checkpoint_path):
            with np.load(checkpoint_path) as data:
                start_iter = int(data["iteration"])
                # The weights belong to the model: without them a
                # resumed-but-already-converged run would return λ = ones
                # instead of the checkpointed model.
                resumed_lambdas = np.ascontiguousarray(data["weights"])
                factors = []
                m = 0
                while f"factor_{m}" in data:
                    factors.append(np.ascontiguousarray(data[f"factor_{m}"]))
                    m += 1
            if len(factors) != tensor.ndim or factors[0].shape[1] != rank:
                raise ValueError(
                    f"checkpoint {checkpoint_path} does not match "
                    f"tensor/rank ({len(factors)} factors)"
                )
    if factors is None:
        if init == "random":
            factors = random_init(tensor.shape, rank, seed)
        elif init == "hosvd":
            factors = hosvd_init(tensor, rank, seed)
        else:
            raise ValueError(f"unknown init {init!r}")

    def _write_checkpoint(iteration: int, lambdas: np.ndarray) -> None:
        if checkpoint_path is None:
            return
        import os

        arrays = {
            "iteration": np.int64(iteration),
            "weights": lambdas,
        }
        for m, f in enumerate(factors):
            arrays[f"factor_{m}"] = f
        parent = os.path.dirname(os.path.abspath(checkpoint_path))
        os.makedirs(parent, exist_ok=True)
        # Write-then-rename so a job killed mid-write can never leave a
        # truncated .npz behind: resume either sees the previous complete
        # checkpoint or the new one, nothing in between.  The temp file
        # lives in the same directory so os.replace stays atomic (same
        # filesystem); writing through a file object keeps numpy from
        # appending a second .npz suffix to the temp name.
        tmp_path = f"{checkpoint_path}.tmp-{os.getpid()}"
        try:
            with open(tmp_path, "wb") as fh:
                np.savez_compressed(fh, **arrays)
            os.replace(tmp_path, checkpoint_path)
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)

    fits: List[float] = []
    iter_seconds: List[float] = []
    last_mode = backend.mode_order[-1]
    t_norm_sq = float(tensor.values @ tensor.values)
    lambdas = resumed_lambdas if resumed_lambdas is not None else np.ones(rank)
    converged = False
    start = time.perf_counter()
    prev_fit = -np.inf
    for it in range(start_iter, max_iters):
        t0 = time.perf_counter()
        with tracer.span("als.iteration", iteration=it):
            lambdas, last_mttkrp = als_iteration(
                backend, factors, ridge=ridge, nonneg=nonneg
            )
        iter_seconds.append(time.perf_counter() - t0)
        if checkpoint_path is not None and (it + 1) % checkpoint_every == 0:
            _write_checkpoint(it + 1, lambdas)
        if compute_fit:
            with tracer.span("cpd.fit", iteration=it):
                inner = float(
                    lambdas @ (last_mttkrp * factors[last_mode]).sum(axis=0)
                )
                model_norm = KruskalTensor(lambdas, factors).norm()
                fit = fit_from_terms(t_norm_sq, inner, model_norm)
            fits.append(fit)
            if callback is not None:
                callback(it, fit)
            if abs(fit - prev_fit) < tol:
                converged = True
                break
            prev_fit = fit
    total = time.perf_counter() - start
    if checkpoint_path is not None and iter_seconds:
        # Zero iterations ran (e.g. resuming a finished run): writing here
        # would clobber the checkpoint's weights with the loop-local λ.
        _write_checkpoint(start_iter + len(iter_seconds), lambdas)
    return AlsResult(
        model=KruskalTensor(lambdas, [f.copy() for f in factors]),
        fits=fits,
        iterations=start_iter + len(iter_seconds),
        converged=converged,
        seconds=total,
        seconds_per_iteration=iter_seconds,
    )
