"""The memoized MTTKRP engine (Algorithms 4-8).

:class:`MemoizedMttkrp` executes the full per-iteration MTTKRP sequence of
STeF over one CSF:

* **level 0** (:meth:`mode0`) — a parallel upward sweep (TTM + mTTV chain)
  over equal-nnz thread partitions (Algorithm 3), accumulating boundary
  nodes in :class:`~repro.parallel.executor.ReplicatedArray` buffers; the
  partial results ``P^(i)`` selected by the :class:`MemoPlan` are merged
  and retained.
* **levels 0 < u < d-1** (:meth:`mode_level`) — reuse ``P^(u)`` directly
  when saved (Fig. 1b / Algorithm 6); otherwise recompute it on the fly
  from the shallowest saved ``P^(k)``, ``k > u`` (Fig. 1c / Algorithm 7)
  or from the tensor (Fig. 1d / Algorithm 8), fusing the downward ``k``
  sweep with the scatter into ``Ā^(u)``.
* **level d-1** — the leaf-mode kernel: ``Ā[idx] += val · k_{d-2}``
  (the "series of Khatri-Rao products"; the paper notes this MTTV-style
  kernel is STeF's weak spot on nell-2, which STeF2 fixes with a second
  CSF — :mod:`repro.core.stef2`).  Each task computes ``k_{d-2}`` over
  its level-``d-2`` window only; the thread's leaf scatter operator,
  whose ``data`` are the values, applies the rest in one product, so
  nothing is expanded to one row per non-zero.

Every kernel is a module-level task function (:func:`mode0_task`,
:func:`memo_direct_task`, :func:`recompute_task`, :func:`leaf_task`)
run once per simulated thread through
:meth:`~repro.parallel.executor.SimulatedPool.run_tasks` on all three
execution backends.  The task body is the only implementation of the
per-thread kernel: its context holds the engine's own arrays under
``serial``/``threads`` and shared-memory tokens under ``processes``
(:class:`~repro.core.proc_tasks.ProcessEngineContext`), so the backends
run identical arithmetic by construction.  Tasks only *compute*
(gathers, multiplies, segmented sums) and write slot-disjoint
:class:`~repro.parallel.executor.ReplicatedArray` stripes; scatters into
shared outputs happen on the coordinating thread in thread-id order, so
every backend is bit-identical to ``serial``.

Both reductions are plan-time operators (:mod:`repro.kernels`) the
engine builds once and owns: a segment operator per (sweep, thread,
level) that the tasks receive through ``ctx["sweeps"]`` — at level
``d-2`` of the leaf sweep, the leaf TTM operator that multiplies in the
tensor values — and a scatter operator per (level ``u``, thread)
contribution that the coordinator applies — for the leaf mode, the leaf
scatter operator, again value-weighted.  :meth:`MemoizedMttkrp.close`
releases them.

Every call charges its semantic read/write volumes at the same
granularity as the Section IV model, giving the measured channel the
Fig. 3/4 harness reports.  Accounting is split in two:

* **per-thread legs** (structure walk, memo reads, contraction
  arithmetic) are charged by each task to a task-local counter
  (:func:`charge_sweep`, :func:`charge_mode_u`) using the thread's
  *owned* node counts (a disjoint tiling of every level, so the merged
  totals are independent of the thread count); the coordinator folds
  the returned state into that thread's
  :class:`~repro.parallel.counters.ShardedTrafficCounter` shard;
* **kernel-level legs** (the DM_factor cache-rule gathers, output/memo
  writes, the conflicted scatter) are whole-kernel model quantities and
  are charged once on the coordinator after the shards merge.

The shard merge is vectorized and runs in fixed thread-id order, so all
backends report bit-identical tallies.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engines.base import EngineBase, resolve_exec_backend
from ..kernels import (
    OperatorBasis,
    ScatterOperator,
    leaf_scatter_operator,
    operator_basis,
    scatter_operator,
)

# No kernel calls it (the leaf scatter operator folds in the values);
# kept bound here because perfbench/layers.py wraps it next to its
# ABI_NAMES entries under this module's name.
from ..kernels import scale_rows_by_values as scale_rows_by_values
from ..parallel.counters import NULL_COUNTER, ShardedTrafficCounter, TrafficCounter
from ..parallel.executor import ReplicatedArray, SimulatedPool
from ..parallel.partition import ThreadPartition, nnz_partition, slice_partition
from ..tensor.csf import CsfTensor
from ..trace import NULL_TRACER, Tracer
from .csf_kernels import (
    ancestor_windows,
    child_counts,
    scatter_add_rows,
    sweep_operators,
    thread_downward_k,
    thread_upward_sweep,
)
from .memoization import SAVE_NONE, MemoPlan
from .proc_tasks import (
    Handle,
    ProcessEngineContext,
    counter_state,
    emit_contrib,
    local_counter,
    merge_counter_state,
    resolve,
    resolve_csf,
    resolve_operators,
)

__all__ = [
    "MemoizedMttkrp",
    "charge_sweep",
    "charge_mode_u",
    "mode0_task",
    "memo_direct_task",
    "recompute_task",
    "leaf_task",
]


# ----------------------------------------------------------------------
# per-thread traffic legs
# ----------------------------------------------------------------------
def charge_sweep(counter: TrafficCounter, owned: np.ndarray, rank: int) -> None:
    """Per-thread legs of the mode-0 sweep: structure reads over the
    thread's owned nodes at every level and one fused multiply-add per
    owned child fiber per rank column.  Owned counts tile each level
    exactly, so merged totals match the serial tallies at any T."""
    counter.read(2.0 * int(owned.sum()), "structure")
    counter.flop(2.0 * rank * int(owned[1:].sum()), "sweep")


def charge_mode_u(
    counter: TrafficCounter,
    owned: np.ndarray,
    u: int,
    source: int,
    d: int,
    rank: int,
) -> None:
    """Per-thread legs of a mode-``u`` kernel: the structure walk down to
    the source data, the memo reads of the thread's node range, and the
    downward-``k`` / recompute / Hadamard arithmetic."""
    flops = rank * int(owned[1 : u + 1].sum())
    if source == d - 1:
        counter.read(2.0 * int(owned.sum()), "structure")
        flops += 2 * rank * int(owned[u + 1 : d].sum())
    else:
        counter.read(2.0 * int(owned[:source].sum()), "structure")
        counter.read(float(int(owned[source]) * rank), "memo")
        flops += 2 * rank * int(owned[u + 1 : source + 1].sum())
    flops += 2 * rank * int(owned[u])
    counter.flop(flops, "mode-u")


# ----------------------------------------------------------------------
# the task bodies (one per kernel shape, every backend)
# ----------------------------------------------------------------------
def _task_operands(
    ctx: Dict[str, Any]
) -> Tuple[CsfTensor, List[np.ndarray], TrafficCounter]:
    """The CSF, level-ordered factors and a fresh local counter."""
    return (
        resolve_csf(ctx["csf"]),
        [resolve(f) for f in ctx["factors"]],
        local_counter(ctx),
    )


def _owned(ctx: Dict[str, Any], th: int) -> np.ndarray:
    starts = ctx["starts"]
    return (starts[th + 1] - starts[th]).astype(np.int64)


def _range(ctx: Dict[str, Any], th: int, level: int) -> Tuple[int, int]:
    """Thread ``th``'s owned node range at ``level`` (leaves at d-1)."""
    starts = ctx["starts"]
    return int(starts[th, level]), int(starts[th + 1, level])


def mode0_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Mode-0 upward sweep for one thread: accumulates the kept partials
    into this thread's ReplicatedArray stripes (``ctx["rep"]``) and
    returns their node ranges and its traffic."""
    ctx, th = payload["ctx"], payload["th"]
    csf, lf, counter = _task_operands(ctx)
    charge_sweep(counter, _owned(ctx, th), ctx["rank"])
    leaf = csf.ndim - 1
    lo, hi = _range(ctx, th, leaf)
    ops = resolve_operators(ctx["sweeps"][leaf], th)
    res = thread_upward_sweep(csf, lf, lo, hi, stop_level=0, ops=ops)
    ranges: Dict[int, Tuple[int, int]] = {}
    for lvl, rep in ctx["rep"].items():
        nlo, tp = res[lvl]
        ranges[lvl] = (nlo, tp.shape[0])
        if tp.shape[0]:
            resolve(rep)[nlo + th : nlo + tp.shape[0] + th] += tp
    return {"ranges": ranges, "traffic": counter_state(counter)}


def memo_direct_task(payload: Dict[str, Any]) -> Tuple[str, Any, tuple]:
    """Fig. 1b: ``k_{u-1} ⊙ P^(u)`` over this thread's node ownership."""
    ctx, th = payload["ctx"], payload["th"]
    u = ctx["u"]
    csf, lf, counter = _task_operands(ctx)
    charge_mode_u(counter, _owned(ctx, th), u, u, csf.ndim, ctx["rank"])
    a, b = _range(ctx, th, u)
    k = thread_downward_k(csf, lf, u, a, b)
    memo = resolve(ctx["memo"][u])
    return emit_contrib(ctx["scratch"][th], k * memo[a:b], counter)


def recompute_task(payload: Dict[str, Any]) -> Tuple[str, Any, tuple]:
    """Fig. 1c/1d: rebuild ``t_u`` from ``P^(source)`` (or the tensor when
    ``source == d-1``) and fuse with the downward ``k`` sweep.

    Boundary nodes at level ``u`` are computed partially by adjacent
    threads; the partials carry identical ``k`` rows, so scattering each
    thread's ``k ⊙ t_partial`` sums to the exact result."""
    ctx, th = payload["ctx"], payload["th"]
    u, source = ctx["u"], ctx["source"]
    csf, lf, counter = _task_operands(ctx)
    d = csf.ndim
    charge_mode_u(counter, _owned(ctx, th), u, source, d, ctx["rank"])
    lo, hi = _range(ctx, th, source)
    ops = resolve_operators(ctx["sweeps"][source], th)
    if source == d - 1:
        res = thread_upward_sweep(csf, lf, lo, hi, stop_level=u, ops=ops)
    else:
        res = thread_upward_sweep(
            csf,
            lf,
            lo,
            hi,
            start_level=source,
            init=resolve(ctx["memo"][source]),
            stop_level=u,
            ops=ops,
        )
    nlo, tp = res[u]
    k = thread_downward_k(csf, lf, u, nlo, nlo + tp.shape[0])
    return emit_contrib(ctx["scratch"][th], k * tp, counter)


def leaf_task(payload: Dict[str, Any]) -> Tuple[str, Any, tuple]:
    """Leaf-mode kernel: ``k_{d-2}`` over the thread's level-``d-2``
    window (the parents of its leaves).  The coordinator's leaf scatter
    operator adds each leaf's value times its parent's row into the
    leaf's output row."""
    ctx, th = payload["ctx"], payload["th"]
    csf, lf, counter = _task_operands(ctx)
    d = csf.ndim
    charge_mode_u(counter, _owned(ctx, th), d - 1, d - 1, d, ctx["rank"])
    lo, hi = _range(ctx, th, d - 1)
    windows = ancestor_windows(csf, d - 1, lo, hi)
    w = windows[d - 2]
    k = thread_downward_k(
        csf, lf, d - 2, w.lo, w.hi, multiply_last=True, windows=windows
    )
    return emit_contrib(ctx["scratch"][th], k, counter)


class MemoizedMttkrp(EngineBase):
    """Executes STeF's memoized MTTKRP sequence over one CSF tensor.

    Parameters
    ----------
    csf:
        The tensor (already in the layout the planner chose).
    rank:
        Decomposition rank ``R``.
    plan:
        Which partial results to save (default: none).
    num_threads:
        Simulated thread count.
    partition:
        ``"nnz"`` — Algorithm 3 (default); ``"slice"`` — prior-work
        root-slice distribution (the Fig. 6.1 ablation arm).
    exec_backend:
        ``"serial"`` (deterministic), ``"threads"`` (real thread pool),
        or ``"processes"`` (persistent multiprocessing workers over
        shared-memory segments — bit-identical to ``serial``, scales
        wall-clock with cores).  ``None`` means ``"serial"``.
    counter:
        Traffic accounting target; defaults to the no-op counter.
    tracer:
        Structured-tracing target (:mod:`repro.trace`); kernel spans
        carry this engine's exact counter deltas.  Defaults to the
        no-op tracer.
    """

    name = "memoized-mttkrp"

    def __init__(
        self,
        csf: CsfTensor,
        rank: int,
        *,
        plan: MemoPlan = SAVE_NONE,
        num_threads: int = 1,
        partition: str = "nnz",
        exec_backend: Optional[str] = None,
        counter: TrafficCounter = NULL_COUNTER,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        backend = resolve_exec_backend(exec_backend)
        plan.validate(csf.ndim)
        self.csf = csf
        self.rank = rank
        self.plan = plan
        self.counter = counter
        self.tracer = tracer
        self.pool = SimulatedPool(num_threads, backend, tracer=tracer)
        if partition == "nnz":
            self.partition: ThreadPartition = nnz_partition(csf, num_threads)
        elif partition == "slice":
            self.partition = slice_partition(csf, num_threads)
        else:
            raise ValueError(f"unknown partition strategy {partition!r}")
        #: Per-thread counter shards; the coordinator folds each task's
        #: local tallies into its thread's shard and merges after every
        #: kernel (race-free).
        self.shards = ShardedTrafficCounter.like(counter, self.pool.num_threads)
        #: Saved partial results, keyed by level; refreshed by mode0().
        self.memo: Dict[int, np.ndarray] = {}
        # Boundary-replicated accumulation buffers, allocated once per
        # kept level and reset() between kernel invocations so repeated
        # ALS iterations reuse them without double-merge corruption.
        self._reps: Dict[int, ReplicatedArray] = {}
        # Task operands (see repro.core.proc_tasks): the engine's own
        # arrays under serial/threads; under processes the CSF is shared
        # once here and factor/memo slots are refreshed before dispatch.
        self._proc: Optional[ProcessEngineContext] = ProcessEngineContext(
            counter, shared=backend == "processes"
        )
        self._csf_spec = self._proc.share_csf(csf)
        self._rep_handles: Dict[int, Handle] = {}
        self._memo_handles: Dict[int, Handle] = {}
        # Scratch rows bound any mode-u contribution, and the operator
        # basis any operator's width: the widest per-thread node range at
        # any level, +1 for the shared boundary node recompute sweeps may
        # touch.
        diffs = np.diff(self.partition.starts, axis=0)
        width = int(diffs.max()) + 1 if diffs.size else 1
        self._scratch = self._proc.scratch(self.pool.num_threads, width, rank)
        self._build_operators(width)

    # ------------------------------------------------------------------
    @property
    def num_threads(self) -> int:
        return self.pool.num_threads

    def _level_factors(self, factors: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Reorder caller factors (original mode numbering) to CSF levels."""
        if len(factors) != self.csf.ndim:
            raise ValueError(
                f"need {self.csf.ndim} factor matrices, got {len(factors)}"
            )
        return [np.asarray(factors[m]) for m in self.csf.mode_order]

    def memo_bytes(self) -> int:
        """Current footprint of the retained partial results."""
        return int(sum(a.nbytes for a in self.memo.values()))

    def level_load_factor(self, u: int) -> float:
        """Load-imbalance stretch of the schedule *actually executing*
        level ``u``'s MTTKRP.

        Leaf-driven kernels (the mode-0 sweep, recompute-from-tensor and
        the leaf mode) deal work by the per-thread leaf counts; memo-fed
        kernels (Fig. 1b/1c) deal work by the node ranges of their source
        level, whose balance can differ substantially from the leaves'.
        """
        d = self.csf.ndim
        if not 0 <= u <= d - 1:
            raise ValueError(f"level {u} out of range")
        if u == 0 or u == d - 1:
            return self.partition.load_factor(d - 1)
        source = self.plan.source_level(u, d)
        if source == d - 1:
            return self.partition.load_factor(d - 1)
        return self.partition.load_factor(source)

    # ------------------------------------------------------------------
    # plan-time reduction operators
    # ------------------------------------------------------------------
    def _build_operators(self, width: int) -> None:
        """Build every reduction operator the plan's kernels apply.

        Segment operators (``self._sweep_ops``, keyed by the sweep's
        start level): per thread and level, for the leaf sweep of mode 0
        (which recompute-from-tensor kernels share) and for the sweep up
        from each saved ``P^(s)`` that feeds a recompute.  Scatter
        operators (``self._scatter_ops``, keyed by level ``u``): per
        thread, over the rows its mode-``u`` task emits.  The leaf
        sweep's level-``d-2`` operator and the leaf mode's scatter
        operator carry the tensor values instead of the basis.  All of it
        depends only on the CSF, the partition and the plan, so it runs
        once, here, and the operators view one basis ``width`` rows wide.
        """
        csf, d = self.csf, self.csf.ndim
        threads = range(self.num_threads)
        starts = self.partition.starts
        basis = operator_basis(width)
        # Each sweep runs from its start level up to the shallowest level
        # it feeds: the root for the leaf sweep, the first recomputed
        # level for a sweep up from a saved P^(s).
        stops = {d - 1: 0}
        for u in range(1, d - 1):
            source = self.plan.source_level(u, d)
            if source != u:
                stops.setdefault(source, u)
        proc = self._context()
        self._sweep_ops = {
            start: proc.share_operators(
                [
                    sweep_operators(
                        csf,
                        int(starts[th, start]),
                        int(starts[th + 1, start]),
                        start_level=start,
                        stop_level=stop,
                        basis=basis,
                    )
                    for th in threads
                ],
                basis,
            )
            for start, stop in stops.items()
        }
        self._scatter_ops = {
            u: [self._scatter_operator(u, th, basis) for th in threads]
            for u in range(1, d)
        }

    def _scatter_operator(
        self, u: int, th: int, basis: OperatorBasis
    ) -> ScatterOperator:
        """The operator that scatters thread ``th``'s mode-``u`` rows.

        Below the leaves the rows are one per node of level ``u``: the
        thread's owned range at the source level when that is ``u``
        itself (memo-direct), else the window at ``u`` of its sweep up
        from the source.  The leaf task emits ``k_{d-2}`` over the
        parents of its leaves, so the leaf operator's column for each
        leaf is its parent's row and its ``data`` the leaf's value.
        """
        csf, d, starts = self.csf, self.csf.ndim, self.partition.starts
        source = self.plan.source_level(u, d) if u < d - 1 else d - 1
        lo, hi = int(starts[th, source]), int(starts[th + 1, source])
        windows = ancestor_windows(csf, source, lo, hi)
        if u == d - 1:
            parents = windows[d - 2]
            counts = child_counts(csf, d - 2, parents, windows[d - 1])
            cols = np.repeat(np.arange(parents.count), counts)
            return leaf_scatter_operator(
                csf.idx[u][lo:hi], csf.values[lo:hi], cols, parents.count
            )
        return scatter_operator(csf.idx[u][windows[u].lo : windows[u].hi], basis)

    # ------------------------------------------------------------------
    # dispatch plumbing
    # ------------------------------------------------------------------
    def _context(self) -> ProcessEngineContext:
        if self._proc is None:
            raise RuntimeError("engine is closed")
        return self._proc

    def _payloads(self, lf: List[np.ndarray], **extra: Any) -> List[Dict[str, Any]]:
        """Per-thread task payloads over the current level factors."""
        proc = self._context()
        return proc.payloads(
            self.num_threads,
            csf=self._csf_spec,
            starts=self.partition.starts,
            rank=self.rank,
            factors=proc.refresh_factors(lf),
            memo=dict(self._memo_handles),
            scratch=self._scratch,
            sweeps=self._sweep_ops,
            **extra,
        )

    def _charge_factor_reads(self, levels: Sequence[int]) -> None:
        m = self.csf.fiber_counts
        for j in levels:
            self.counter.read_factor_rows(
                m[j], self.csf.level_shape(j), self.rank, "factor"
            )

    # ------------------------------------------------------------------
    # mode 0: upward sweep + memoization
    # ------------------------------------------------------------------
    def mode0(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        """MTTKRP for the root level; refreshes the saved partials.

        Returns the dense ``N_root × R`` result in the *original* index
        space of the root mode.
        """
        # Kernel span: carries this kernel's exact traffic deltas (the
        # only span level that passes counter= — see repro.trace).
        with self.tracer.span(
            "mttkrp.mode0",
            counter=self.counter,
            level=0,
            mode=int(self.csf.mode_order[0]),
            nnz=int(self.csf.values.shape[0]),
            threads=self.num_threads,
        ):
            return self._mode0_impl(factors)

    def _mode0_impl(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        csf, d, rank = self.csf, self.csf.ndim, self.rank
        lf = self._level_factors(factors)
        self.memo.clear()
        self._memo_handles.clear()
        self.shards.reset()

        keep_levels = sorted(set(self.plan.save_levels) | {0})
        reps = self._replicated_buffers(keep_levels)
        rep = {lvl: self._rep_handles[lvl] for lvl in keep_levels}
        results = self.pool.run_tasks(mode0_task, self._payloads(lf, rep=rep))
        # The tasks already accumulated into their slot-disjoint stripes;
        # recording the ranges in thread-id order (lifecycle + sanitizer
        # checks) fixes the order merge() folds them in.
        for th, res in enumerate(results):
            merge_counter_state(self.shards.shard(th), res["traffic"])
            for lvl in keep_levels:
                nlo, nrows = res["ranges"][lvl]
                reps[lvl].view(th, nlo, nlo + nrows)

        proc = self._context()
        for lvl in self.plan.save_levels:
            self.memo[lvl] = reps[lvl].merge()
            self._memo_handles[lvl] = proc.refresh_memo(lvl, self.memo[lvl])
        t0 = reps[0].merge()
        out = np.zeros((csf.level_shape(0), rank))
        out[csf.idx[0]] = t0

        # Accounting: per-thread traversal/sweep legs merged from the
        # shards, then the kernel-level factor gathers and output + memo
        # writes (the boundary-replication rows are the +T).
        self.shards.merge_into(self.counter)
        self._charge_factor_reads(range(1, d))
        self.counter.write(csf.level_shape(0) * rank, "output")
        for lvl in self.plan.save_levels:
            size = (csf.fiber_counts[lvl] + self.num_threads) * rank
            self.counter.write(size, "memo")
            # Write-allocate: streaming stores into the fresh P^(lvl)
            # buffer read each line before overwriting (Section IV-C's
            # mode-0 read-side memo term).
            self.counter.read(size, "memo-allocate")
        return out

    def _replicated_buffers(
        self, keep_levels: Sequence[int]
    ) -> Dict[int, ReplicatedArray]:
        """Reusable boundary-replicated buffers for ``keep_levels`` —
        allocated on first use, ``reset()`` on every later invocation so
        repeated mode-0 sweeps never merge stale stripes twice.  The
        storage comes from the task context, so under the processes
        backend it is a shared-memory segment that workers write
        directly."""
        reps: Dict[int, ReplicatedArray] = {}
        for lvl in keep_levels:
            rep = self._reps.get(lvl)
            if rep is None:
                proc = self._context()
                n_rows = self.csf.fiber_counts[lvl]
                handle = proc.zeros((n_rows + self.num_threads, self.rank))
                rep = ReplicatedArray(
                    n_rows, self.rank, self.num_threads, buffer=proc.array(handle)
                )
                self._reps[lvl] = rep
                self._rep_handles[lvl] = handle
            else:
                rep.reset()
            reps[lvl] = rep
        return reps

    # ------------------------------------------------------------------
    # modes u > 0
    # ------------------------------------------------------------------
    def mode_level(self, factors: Sequence[np.ndarray], u: int) -> np.ndarray:
        """MTTKRP for CSF level ``u``; ``mode0`` must have run this
        iteration so the plan's saved partials are populated."""
        csf, d = self.csf, self.csf.ndim
        if u == 0:
            return self.mode0(factors)
        if not 0 < u <= d - 1:
            raise ValueError(f"level {u} out of range")
        lf = self._level_factors(factors)
        source = self.plan.source_level(u, d) if u < d - 1 else d - 1
        if source < d - 1 and source not in self.memo:
            raise RuntimeError(
                f"plan saves P^({source}) but mode0 has not populated it"
            )
        with self.tracer.span(
            "mttkrp.mode_level",
            counter=self.counter,
            level=u,
            source=source,
            mode=int(csf.mode_order[u]),
            nnz=int(csf.values.shape[0]),
            threads=self.num_threads,
        ):
            return self._mode_level_impl(lf, u, source)

    def _mode_level_impl(
        self, lf: List[np.ndarray], u: int, source: int
    ) -> np.ndarray:
        csf, d, rank = self.csf, self.csf.ndim, self.rank
        out = np.zeros((csf.level_shape(u), rank))
        self.shards.reset()

        payloads = self._payloads(lf, u=u, source=source)
        if u == d - 1:
            results = self.pool.run_tasks(leaf_task, payloads)
        elif source == u:
            results = self.pool.run_tasks(memo_direct_task, payloads)
        else:
            results = self.pool.run_tasks(recompute_task, payloads)
        proc = self._context()
        for th, (result, op) in enumerate(zip(results, self._scatter_ops[u])):
            contrib = proc.contribution(
                self._scratch[th], result, self.shards.shard(th)
            )
            scatter_add_rows(out, op, contrib)

        self.shards.merge_into(self.counter)
        self._charge_mode_u(u, source)
        return out

    def _charge_mode_u(self, u: int, source: int) -> None:
        """Kernel-level legs of a mode-``u`` charge (the per-thread legs
        live in :func:`charge_mode_u`): the DM_factor cache-rule gathers
        and the conflicted output scatter are whole-kernel model
        quantities, charged once on the coordinator."""
        csf, d, rank = self.csf, self.csf.ndim, self.rank
        m = csf.fiber_counts
        if source == d - 1:
            # Every contracted factor is gathered while recomputing.
            self._charge_factor_reads([j for j in range(d) if j != u])
        else:
            self._charge_factor_reads(
                [j for j in range(source) if j != u]
            )
        # Scattered accumulation into Ā^(u): atomics or privatization
        # (Algorithm 4 lines 13-14) — never the cheap mode-0 path.
        self.counter.scatter_update(
            m[u], csf.level_shape(u), rank, self.num_threads, "output"
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the reduction operators and, under the processes
        backend, the shared-memory segments; later kernel calls raise.
        Shared segments are also released by garbage collection; calling
        it explicitly just makes the release deterministic."""
        proc = self._proc
        if proc is not None:
            self._sweep_ops.clear()
            self._scatter_ops.clear()
            self._reps.clear()
            self._rep_handles.clear()
            proc.close()
            self._proc = None

    # ------------------------------------------------------------------
    def iteration_results(
        self, factors: Sequence[np.ndarray]
    ) -> List[Tuple[int, np.ndarray]]:
        """All ``d`` MTTKRPs of one CPD iteration in level order, *without*
        factor updates in between (kernel benchmarking; ALS uses
        :mod:`repro.cpd.als`, which interleaves the dense updates).

        Returns ``[(original_mode, result), ...]``.
        """
        out = []
        res0 = self.mode0(factors)
        out.append((self.csf.mode_order[0], res0))
        for u in range(1, self.csf.ndim):
            out.append((self.csf.mode_order[u], self.mode_level(factors, u)))
        return out
