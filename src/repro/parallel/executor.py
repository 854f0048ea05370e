"""Simulated shared-memory execution and boundary-replicated buffers.

The paper's kernels run as OpenMP parallel loops.  Here every kernel is a
*module-level task function* that :meth:`SimulatedPool.run_tasks` calls
once per simulated thread with that thread's payload, on one of three
backends: ``serial`` runs the tasks in order (deterministic, default —
per-thread *work* is what the study measures, not Python's GIL
behaviour), ``threads`` on a real ``ThreadPoolExecutor`` (NumPy releases
the GIL inside kernels, so this exercises genuine concurrency on
multicore hosts), and ``processes`` on a persistent ``multiprocessing``
worker pool — the backend where wall-clock genuinely scales with cores,
because workers never contend for one GIL.

The same task body serves all three.  In-process its payload holds the
engine's own arrays; across the process boundary it holds
``multiprocessing.shared_memory`` tokens (:mod:`repro.parallel.shm`,
:mod:`repro.core.proc_tasks`), and the task is pickled by reference.
Tasks write through slot-disjoint :class:`ReplicatedArray` stripes or
return their rows.  Worker pools are shared per thread-count across the
whole process and shut down atexit, so constructing many engines does
not fork new interpreters each time.

:class:`ReplicatedArray` implements the paper's conflict-avoidance scheme
(Sections II-D and III-A): output rows live in a buffer of ``N + T`` rows
instead of ``N``; thread ``th`` writes row ``n`` at position ``n + th``.
Because per-thread node ranges are non-decreasing and overlap only at the
single shared boundary node, the shift makes every (node, thread) slot
unique — no atomics, no full privatization.  ``merge`` folds the shifted
per-thread stripes back into the canonical ``N×R`` array with ``T``
vectorized slice-adds.  The buffer may live in shared memory (pass
``buffer=``), in which case workers write the stripes and the coordinator
records ranges and merges — same arithmetic, same order, zero copies.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np
from numpy.typing import DTypeLike

from ..trace import NULL_TRACER, Tracer

__all__ = [
    "SimulatedPool",
    "ReplicatedArray",
    "sanitizer_enabled",
    "EXEC_BACKENDS",
    "shutdown_worker_pools",
]

#: The execution backends SimulatedPool accepts (also the CLI choices).
EXEC_BACKENDS = ("serial", "threads", "processes")


def sanitizer_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests the runtime race sanitizer.

    With the sanitizer on, every :meth:`ReplicatedArray.view` checks its
    *buffer-slot* range against every range recorded by **other** threads
    since the last reset and raises on overlap — a cross-thread overlap
    in buffer coordinates is a genuine write race that the thread-id
    shift was supposed to make impossible.  Legal boundary-node sharing
    (adjacent threads overlapping by one node in *node* coordinates)
    stays disjoint after the shift and passes.  Off by default: the check
    is O(views²) per kernel invocation.
    """
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")

T = TypeVar("T")


# ----------------------------------------------------------------------
# shared process-worker pools
# ----------------------------------------------------------------------
#: One persistent worker pool per worker count, shared by every
#: SimulatedPool with backend="processes" — forking T interpreters per
#: engine would dwarf any kernel; sharing amortizes the spawn across the
#: whole process.  Torn down atexit (concurrent.futures joins idle
#: workers on interpreter exit anyway; the explicit hook keeps shutdown
#: deterministic).
_WORKER_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _worker_pool(num_workers: int) -> ProcessPoolExecutor:
    pool = _WORKER_POOLS.get(num_workers)
    if pool is None:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            ctx = multiprocessing.get_context()
        pool = ProcessPoolExecutor(max_workers=num_workers, mp_context=ctx)
        _WORKER_POOLS[num_workers] = pool
    return pool


def shutdown_worker_pools() -> None:
    """Shut down every shared process-worker pool (idempotent)."""
    for pool in _WORKER_POOLS.values():
        pool.shutdown(wait=True, cancel_futures=True)
    _WORKER_POOLS.clear()


atexit.register(shutdown_worker_pools)


def _timed_task(task_payload: Tuple[Callable[[Any], T], Any]) -> Tuple[float, float, T]:
    """Run ``task(payload)`` bracketed by ``perf_counter`` reads.

    Module-level so it pickles by reference into process workers; the
    wrapped task function itself is likewise pickled by reference, so
    the traced dispatch crosses the process boundary exactly like the
    untraced one.
    """
    task, payload = task_payload
    t0 = time.perf_counter()
    out = task(payload)
    return t0, time.perf_counter(), out


class SimulatedPool:
    """Runs a task once per simulated thread and collects the results.

    Parameters
    ----------
    num_threads:
        Number of simulated threads.
    backend:
        ``"serial"`` (default) runs the tasks in order — fully
        deterministic, the mode used by tests and the traffic harness.
        ``"threads"`` uses a real thread pool, ``"processes"`` a
        persistent multiprocessing worker pool.
    """

    def __init__(
        self,
        num_threads: int,
        backend: str = "serial",
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if backend not in EXEC_BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.num_threads = num_threads
        self.backend = backend
        #: Observability hook: when enabled, run_tasks() records one span
        #: per invocation plus a per-thread ``executor.task`` span on each
        #: simulated thread's lane (all three backends).
        self.tracer = tracer

    def run_tasks(
        self, task: Callable[[Any], T], payloads: Sequence[Any]
    ) -> List[T]:
        """Run ``task(payload)`` for every payload, results in order.

        ``task`` must be a module-level function and, under the processes
        backend, every payload picklable (the :mod:`repro.lint`
        ``process-task-safety`` rule enforces the former statically).
        Every backend executes the same task function, so all three share
        one code path and stay bit-identical by construction.

        Traced dispatch runs tasks through :func:`_timed_task`, which
        measures inside the worker (thread **or** forked process — the
        monotonic clock is system-wide, so worker timestamps share the
        tracer's epoch) and ships the pair back on the result channel.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return self._dispatch(task, payloads)
        with tracer.span(
            "executor.run_tasks",
            backend=self.backend,
            threads=self.num_threads,
            task=getattr(task, "__name__", str(task)),
        ):
            timed = self._dispatch(_timed_task, [(task, p) for p in payloads])
            for th, (t0, t1, _) in enumerate(timed):
                tracer.record_span("executor.task", t0, t1, lane=th, thread=th)
        return [res for _, _, res in timed]

    def _dispatch(self, fn: Callable[[Any], Any], args: Sequence[Any]) -> List[Any]:
        """Call ``fn(arg)`` for every arg on this pool's backend."""
        if self.num_threads > 1 and self.backend == "processes":
            pool = _worker_pool(self.num_threads)
            futures = [pool.submit(fn, a) for a in args]
            return [f.result() for f in futures]
        if self.num_threads > 1 and self.backend == "threads":
            with ThreadPoolExecutor(max_workers=self.num_threads) as tpool:
                return list(tpool.map(fn, args))
        return [fn(a) for a in args]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulatedPool(num_threads={self.num_threads}, backend={self.backend!r})"


class ReplicatedArray:
    """An ``(N + T) × R`` accumulation buffer with thread-id shifted writes.

    Thread ``th`` obtains a writable view of its node range with
    :meth:`view`; after all threads finish, :meth:`merge` produces the
    canonical ``N × R`` result.

    The buffer starts zeroed; every view is an *accumulation* target
    (kernels use ``+=``).

    Lifecycle
    ---------
    Buffers are reusable across kernel invocations (ALS iterations):
    call :meth:`reset` between invocations to zero exactly the stripes the
    previous invocation wrote and forget the recorded ranges.  Without the
    reset, a second round of ``view()`` calls would re-record the same
    ranges and :meth:`merge` would fold the (still populated) stripes
    twice — to guard against that, :meth:`view` rejects a range that
    overlaps one already recorded *by the same thread* since the last
    reset.  Overlaps between different threads are the boundary-node
    sharing the scheme exists for and remain legal.
    """

    def __init__(
        self,
        n_rows: int,
        rank: int,
        num_threads: int,
        dtype: DTypeLike = np.float64,
        buffer: Optional[np.ndarray] = None,
    ) -> None:
        if n_rows < 0 or rank < 1 or num_threads < 1:
            raise ValueError("invalid ReplicatedArray dimensions")
        self.n_rows = n_rows
        self.rank = rank
        self.num_threads = num_threads
        if buffer is None:
            self.buffer = np.zeros((n_rows + num_threads, rank), dtype=dtype)
        else:
            # Caller-provided storage (a shared-memory segment under the
            # processes backend): same lifecycle, externally visible pages.
            if buffer.shape != (n_rows + num_threads, rank):
                raise ValueError(
                    f"buffer shape {buffer.shape} != "
                    f"{(n_rows + num_threads, rank)}"
                )
            buffer[...] = 0.0
            self.buffer = buffer
        # Per-thread written node ranges (inclusive lo, exclusive hi),
        # recorded by view() and consumed by merge().
        self._ranges: List[Tuple[int, int, int]] = []
        # Sampled once at construction: the runtime race sanitizer
        # (REPRO_SANITIZE=1) cross-checks every view against other
        # threads' recorded buffer slots.
        self._sanitize = sanitizer_enabled()

    @property
    def nbytes(self) -> int:
        """Buffer footprint — the paper's Table II space accounting charges
        the replicated size ``(N + T)·R``."""
        return int(self.buffer.nbytes)

    def view(self, th: int, lo: int, hi: int) -> np.ndarray:
        """Writable slice covering node range ``[lo, hi)`` for thread
        ``th``, shifted by the thread id.

        Raises
        ------
        ValueError
            If the range is out of bounds, the thread id is invalid, or
            the range overlaps one this thread already recorded since the
            last :meth:`reset` (which would double-merge those rows).
            With ``REPRO_SANITIZE=1`` additionally raises when the view's
            *buffer slots* ``[lo+th, hi+th)`` overlap slots recorded by a
            different thread — a genuine cross-thread write race that the
            thread-id shift should have made impossible (legal
            boundary-node sharing stays slot-disjoint and passes).
        """
        if not 0 <= th < self.num_threads:
            raise ValueError(f"thread id {th} out of range")
        if not 0 <= lo <= hi <= self.n_rows:
            raise ValueError(f"node range [{lo}, {hi}) out of bounds")
        if hi > lo:
            for t_prev, a, b in self._ranges:
                if t_prev == th and a < hi and lo < b:
                    raise ValueError(
                        f"thread {th} view [{lo}, {hi}) overlaps its earlier "
                        f"view [{a}, {b}); call reset() between kernel "
                        "invocations"
                    )
                if (
                    self._sanitize
                    and t_prev != th
                    and a + t_prev < hi + th
                    and lo + th < b + t_prev
                ):
                    raise ValueError(
                        f"REPRO_SANITIZE: thread {th} view [{lo}, {hi}) "
                        f"(buffer slots [{lo + th}, {hi + th})) overlaps "
                        f"thread {t_prev} view [{a}, {b}) (buffer slots "
                        f"[{a + t_prev}, {b + t_prev})): cross-thread write "
                        "race — per-thread node ranges must be "
                        "non-decreasing and share at most one boundary node "
                        "between adjacent threads"
                    )
            self._ranges.append((th, lo, hi))
        return self.buffer[lo + th : hi + th]

    def reset(self) -> None:
        """Re-arm the buffer for the next kernel invocation.

        Zeroes only the stripes previous views actually wrote (cheap when
        threads touched a small part of a large buffer) and clears the
        recorded ranges so :meth:`merge` cannot double-count them.
        """
        for th, lo, hi in self._ranges:
            self.buffer[lo + th : hi + th] = 0.0
        self._ranges.clear()

    def merge(self) -> np.ndarray:
        """Fold the shifted per-thread stripes into the canonical array.

        One vectorized slice-add per recorded view; the result has shape
        ``(n_rows, rank)``.
        """
        out = np.zeros((self.n_rows, self.rank), dtype=self.buffer.dtype)
        for th, lo, hi in self._ranges:
            if hi > lo:
                out[lo:hi] += self.buffer[lo + th : hi + th]
        return out
