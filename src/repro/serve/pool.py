"""Worker-side job execution: tensor → engine lease → cp_als → result.

:func:`execute_job` is what each worker thread runs, end to end:

1. **materialize the tensor** — inline COO through
   ``CooTensor.from_arrays`` (canonical sort/dedup), or a Table-I name /
   ``.tns`` path resolved server-side;
2. **fingerprint + lease** — content-hash the canonical arrays and ask
   the :class:`~repro.serve.cache.EngineCache`.  Only a **miss** pays
   the ``serve.plan`` span: engine construction (CSF build, memoization
   planning, shm allocation) happens inside it, so a request log without
   that span *is* the proof its engine came from the cache;
3. **scope the observability** — the cached engine was built once with a
   :class:`~repro.trace.ScopedTracer` and a long-lived
   :class:`TrafficCounter`; the worker points the tracer at this job's
   private ``Tracer`` for the duration and charges the job exactly the
   counter's delta across the run.  Totals per job therefore match a
   direct single-engine run exactly — counting is deterministic;
4. **run resumably** — ``cp_als`` writes its checkpoint under the spool
   (``resume=True`` always: a re-dispatched job killed mid-run continues
   from its last complete checkpoint, and the cumulative iteration count
   keeps climbing).  The checkpoint is deleted only on success;
5. **record** — factors serialize as JSON lists (``repr`` round-trip ⇒
   bit-identical on the client), encoded here, once, off the event loop
   (:meth:`~repro.serve.jobs.Job.encode_result`); the job's trace is
   written as a JSONL request log stamped with
   :func:`~repro.trace.export.engine_run_meta`.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from ..cpd import cp_als
from ..engines import create_engine
from ..parallel import MACHINES
from ..parallel.counters import TrafficCounter
from ..tensor import TABLE1_SPECS, CooTensor, generate, read_tns
from ..trace import NULL_TRACER, ScopedTracer, Tracer, engine_run_meta, write_jsonl
from .cache import CacheEntry, EngineCache
from .jobs import Job, Spool
from .protocol import JobSpec, cache_key, tensor_fingerprint

__all__ = ["build_tensor", "execute_job"]


def build_tensor(spec: JobSpec) -> CooTensor:
    """Materialize the request's tensor (inline COO, Table-I, or path)."""
    if spec.coo is not None:
        return CooTensor.from_arrays(
            np.asarray(spec.coo["indices"], dtype=np.int64),
            np.asarray(spec.coo["values"], dtype=np.float64),
            spec.coo.get("shape"),
        )
    assert spec.tensor is not None  # JobSpec.__post_init__ guarantees
    if spec.tensor in TABLE1_SPECS:
        return generate(TABLE1_SPECS[spec.tensor], nnz=spec.nnz,
                        seed=spec.tensor_seed)
    if os.path.exists(spec.tensor):
        return read_tns(spec.tensor)
    raise ValueError(
        f"tensor {spec.tensor!r} is neither a server-readable file nor "
        f"one of {sorted(TABLE1_SPECS)}"
    )


def _counter_totals(counter: TrafficCounter) -> Dict[str, float]:
    totals = {"reads": counter.reads, "writes": counter.writes,
              "flops": counter.flops}
    totals.update(counter.by_category)
    return totals


def _traffic_delta(before: Dict[str, float],
                   after: Dict[str, float]) -> Dict[str, float]:
    return {
        key: after[key] - before.get(key, 0.0)
        for key in after
        if after[key] - before.get(key, 0.0)
    }


def _build_entry(spec: JobSpec, tensor: CooTensor, key: str,
                 tracer: Tracer) -> CacheEntry:
    """Plan a new engine for ``spec`` — the only code path that emits a
    ``serve.plan`` span (cache hits skip it by construction)."""
    machine = MACHINES[spec.machine]
    scoped = ScopedTracer()
    counter = TrafficCounter(cache_elements=machine.cache_elements)
    with tracer.span("serve.plan", engine=spec.engine, rank=spec.rank,
                     exec_backend=spec.exec_backend) as span:
        engine = create_engine(
            spec.engine, tensor, spec.rank, machine=machine,
            num_threads=spec.num_threads, exec_backend=spec.exec_backend,
            memoize=spec.memoize, counter=counter, tracer=scoped,
        )
        span.annotate(nnz=tensor.nnz)
    return CacheEntry(key=key, engine=engine, tensor=tensor,
                      scoped_tracer=scoped, counter=counter)


def execute_job(job: Job, spool: Spool, cache: Optional[EngineCache]) -> Job:
    """Run one job to completion in the calling (worker) thread.

    Mutates and returns ``job`` with ``result``/``cache`` filled in.
    Raises on failure — the dispatcher owns state transitions and
    journaling, so errors propagate rather than being swallowed here.
    """
    spec = job.spec
    tracer = Tracer(
        job_id=job.job_id, client=spec.client,
        tensor=spec.tensor or "<inline>", attempt=job.attempts,
    )
    tensor = build_tensor(spec)
    fingerprint = tensor_fingerprint(tensor.indices, tensor.values,
                                     tensor.shape)
    key = cache_key(fingerprint, spec)

    entry = None
    if cache is not None:
        entry, status = cache.lease(key, job.job_id)
    else:
        status = "miss"
    ephemeral = entry is None and (cache is None or status == "bypass")
    if entry is None:
        entry = _build_entry(spec, tensor, key, tracer)
        if cache is not None and status == "miss":
            entry = cache.offer(entry, job.job_id)
        else:
            entry.engine.lease(job.job_id)
    job.cache = status

    entry.scoped_tracer.target = tracer
    before = _counter_totals(entry.counter)
    try:
        result = cp_als(
            entry.tensor, spec.rank, engine=entry.engine,
            max_iters=spec.max_iters, tol=spec.tol, init=spec.init,
            seed=spec.seed, compute_fit=spec.compute_fit,
            checkpoint_path=spool.checkpoint_path(job.job_id),
            checkpoint_every=spec.checkpoint_every,
            resume=True,  # continue a killed attempt's checkpoint if any
            tracer=tracer,
        )
        traffic = _traffic_delta(before, _counter_totals(entry.counter))
        run_meta = engine_run_meta(entry.engine)
    finally:
        entry.scoped_tracer.target = NULL_TRACER
        if cache is not None and not ephemeral:
            cache.release(entry)
        else:
            entry.engine.release()
            entry.engine.close()

    job.result = {
        "weights": result.model.weights.tolist(),
        "factors": [factor.tolist() for factor in result.model.factors],
        "fits": result.fits,
        "iterations": result.iterations,
        "converged": result.converged,
        "seconds": result.seconds,
        "traffic": traffic,
        "fingerprint": fingerprint,
        **run_meta,
    }
    job.encode_result()
    write_jsonl(
        tracer, spool.log_path(job.job_id),
        job_id=job.job_id, cache=status, fingerprint=fingerprint,
        **run_meta,
    )
    spool.clear_checkpoint(job.job_id)
    return job
