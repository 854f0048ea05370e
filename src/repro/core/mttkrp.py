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
  CSF — :mod:`repro.core.stef2`).  A block's ``k_{d-2}`` covers its
  threads' level-``d-2`` windows only; its leaf scatter operator, whose
  ``data`` are the values, applies the rest in one product, so nothing
  is expanded to one row per non-zero.

**Execution blocks.**  The ``T`` simulated threads run as ``B`` blocks of
consecutive threads, one task each
(:meth:`~repro.parallel.machine.MachineSpec.execution_blocks` picks ``B``
from ``nnz``, ``R`` and the machine's per-core cache share; without a
machine model ``B = T``).  A block's rows at each level are its threads'
rows laid end to end, so it computes exactly the rows they would, with
the same bits: 1 block and ``T`` blocks run the same code.  Every kernel
is a module-level task function (:func:`mode0_task`,
:func:`memo_direct_task`, :func:`recompute_task`, :func:`leaf_task`) run
once per block through
:meth:`~repro.parallel.executor.SimulatedPool.run_tasks` on all three
execution backends; its operands are the engine's own arrays under
``serial``/``threads`` and shared-memory handles under ``processes``
(:class:`~repro.core.proc_tasks.ProcessEngineContext`), so the backends
run identical arithmetic by construction.  The summation order is the
per-thread one:

* mode 0 — a block adds each thread's rows into that thread's
  :class:`~repro.parallel.executor.ReplicatedArray` stripe, and the
  coordinator records every thread's ranges in thread order, the order
  ``merge()`` folds them in;
* modes ``u > 0`` scatter in two stages.  In the task, the block-diagonal
  of its threads' scatter matrices sums the rows into one partial sum
  per (thread, target row); only those return.  On the coordinator one
  indicator over every thread's targets, in thread order, adds them into
  ``Ā^(u)``: ``0 + S_0 + S_1 + ...``, the bits of adding the threads'
  sums one thread at a time.

All index work is plan-time.  Each block's plan (:func:`~repro.core
.csf_kernels.block_plan` — gather indices, ``np.repeat`` counts and the
segment and leaf TTM operators of every sweep) is built with the engine;
a level's scatter operators are built the first time it runs.
:meth:`MemoizedMttkrp.close` releases them.

Every kernel charges its semantic read/write volumes at the same
granularity as the Section IV model, giving the measured channel the
Fig. 3/4 harness reports.  The tasks only compute; the coordinator
charges each kernel once, inside its kernel span, from the CSF's level
counts: the structure walk, the memo reads and the contraction
arithmetic (:func:`charge_sweep`, :func:`charge_mode_u`), then the
DM_factor cache-rule gathers, the output and memo writes and the
conflicted scatter.  No charge depends on the threads or the blocks, so
every backend reports the same tallies.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..engines.base import EngineBase, resolve_exec_backend
from ..kernels import (
    ScatterOperator,
    leaf_scatter_operator,
    operator_basis,
    scatter_operator,
    segment_reduce_rows,
)

# No kernel calls it (the leaf scatter operator folds in the values);
# kept bound here because perfbench/layers.py wraps it next to its
# ABI_NAMES entries under this module's name.
from ..kernels import scale_rows_by_values as scale_rows_by_values
from ..parallel.counters import NULL_COUNTER, TrafficCounter
from ..parallel.executor import ReplicatedArray, SimulatedPool
from ..parallel.machine import MachineSpec
from ..parallel.partition import ThreadPartition, nnz_partition, slice_partition
from ..tensor.csf import CsfTensor
from ..trace import NULL_TRACER, Tracer
from .csf_kernels import (
    LevelSlice,
    ancestor_windows,
    block_downward_k,
    block_plan,
    block_upward_sweep,
    child_counts,
    scatter_add_rows,
)
from .memoization import SAVE_NONE, MemoPlan
from .proc_tasks import (
    Handle,
    ProcessEngineContext,
    emit_contrib,
    resolve,
    resolve_plan,
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
# traffic legs from the level counts
# ----------------------------------------------------------------------
def charge_sweep(counter: TrafficCounter, counts: Sequence[int], rank: int) -> None:
    """The tree-walk legs of a mode-0 sweep over nodes ``counts[i]`` at
    each level ``i``: one fused multiply-add per child fiber per rank
    column and the structure reads of every node."""
    counter.flop(2.0 * rank * sum(counts[1:]), "sweep")
    counter.read(2.0 * sum(counts), "structure")


def charge_mode_u(
    counter: TrafficCounter, counts: Sequence[int], u: int, source: int, rank: int
) -> None:
    """The tree-walk legs of a mode-``u`` kernel fed from level
    ``source`` (the leaves: the tensor) over nodes ``counts[i]`` at each
    level ``i``: the downward-``k`` / recompute / Hadamard arithmetic,
    the memo reads and the structure walk down to the source data."""
    counter.flop(
        rank * sum(counts[1 : u + 1]) + 2 * rank * sum(counts[u : source + 1]),
        "mode-u",
    )
    if source == len(counts) - 1:
        counter.read(2.0 * sum(counts), "structure")
    else:
        counter.read(float(counts[source] * rank), "memo")
        counter.read(2.0 * sum(counts[:source]), "structure")


# ----------------------------------------------------------------------
# the task bodies (one per kernel shape, every backend)
# ----------------------------------------------------------------------
def _factors(ctx: Dict[str, Any]) -> List[np.ndarray]:
    """The level-ordered factors."""
    return [resolve(f) for f in ctx["factors"]]


def _stage1(payload: Dict[str, Any], rows: np.ndarray) -> Tuple[str, Any]:
    """Scatter stage 1: the block-diagonal of the block's threads'
    scatter matrices sums ``rows`` into one partial sum per (thread,
    target row); only those go back to the coordinator."""
    partial = segment_reduce_rows(rows, resolve(payload["scatter"]))
    return emit_contrib(payload["scratch"], partial)


def mode0_task(payload: Dict[str, Any]) -> None:
    """Mode-0 upward sweep for one execution block: adds each of its
    threads' rows at the kept levels into that thread's ReplicatedArray
    stripe (``ctx["rep"]``); ``th`` are the block's simulated threads."""
    ctx, th = payload["ctx"], payload["th"]
    lf = _factors(ctx)
    leaf = len(lf) - 1
    plan = payload["block"][leaf]
    kept = block_upward_sweep(
        resolve_plan(plan), lf, start_level=leaf, stop_level=0, keep=ctx["rep"]
    )
    for lvl, rows in kept.items():
        buf = resolve(ctx["rep"][lvl])
        off = 0
        for t, (lo, hi) in zip(th, plan["stripes"][lvl]):
            buf[lo + t : hi + t] += rows[off : off + hi - lo]
            off += hi - lo


def memo_direct_task(payload: Dict[str, Any]) -> Tuple[str, Any]:
    """Fig. 1b: ``k_{u-1} ⊙ P^(u)`` over the block's owned nodes."""
    ctx = payload["ctx"]
    u, lf = ctx["u"], _factors(ctx)
    plan = resolve_plan(payload["block"][u])
    k = block_downward_k(plan, lf, u)
    k *= resolve(ctx["memo"][u])[plan["lo"] : plan["hi"]]
    return _stage1(payload, k)


def recompute_task(payload: Dict[str, Any]) -> Tuple[str, Any]:
    """Fig. 1c/1d: rebuild ``t_u`` from ``P^(source)`` (or the tensor when
    ``source == d-1``) and fuse with the downward ``k`` sweep.

    Boundary nodes at level ``u`` are computed partially by adjacent
    threads; the partials carry identical ``k`` rows, so scattering each
    thread's ``k ⊙ t_partial`` sums to the exact result."""
    ctx = payload["ctx"]
    u, source, lf = ctx["u"], ctx["source"], _factors(ctx)
    plan = resolve_plan(payload["block"][source])
    init = None if source == len(lf) - 1 else resolve(ctx["memo"][source])
    t = block_upward_sweep(
        plan, lf, start_level=source, stop_level=u, init=init, keep=(u,)
    )[u]
    t *= block_downward_k(plan, lf, u)
    return _stage1(payload, t)


def leaf_task(payload: Dict[str, Any]) -> Tuple[str, Any]:
    """Leaf-mode kernel: ``k_{d-2}`` over the block's level-``d-2`` rows
    (the parents of its leaves).  Each thread's leaf scatter matrix adds
    each leaf's value times its parent's row into the leaf's target."""
    lf = _factors(payload["ctx"])
    d = len(lf)
    plan = resolve_plan(payload["block"][d - 1])
    return _stage1(payload, block_downward_k(plan, lf, d - 2, multiply_last=True))


class LevelScatter(NamedTuple):
    """A level's two-stage scatter: each block's stage-1 operator (as
    its task receives it) and the stage-2 indicator over every thread's
    targets, in thread order."""

    blocks: List[Any]
    indicator: ScatterOperator


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
    machine:
        The machine model whose cache sets how many execution blocks the
        threads run as (:meth:`~repro.parallel.machine.MachineSpec
        .execution_blocks`); ``None`` runs one block per thread.
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

    Attributes
    ----------
    blocks:
        The execution blocks, each a ``range`` of consecutive simulated
        threads; every kernel runs one task per block.
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
        machine: Optional[MachineSpec] = None,
        exec_backend: Optional[str] = None,
        counter: TrafficCounter = NULL_COUNTER,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        backend = resolve_exec_backend(exec_backend)
        plan.validate(csf.ndim)
        self.csf = csf
        #: One tree's update positions are its CSF levels.
        self.mode_order = csf.mode_order
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
        n_blocks = (
            num_threads
            if machine is None
            else machine.execution_blocks(csf.nnz, rank, num_threads)
        )
        self.blocks: List[range] = [
            range(b * num_threads // n_blocks, (b + 1) * num_threads // n_blocks)
            for b in range(n_blocks)
        ]
        #: Saved partial results, keyed by level; refreshed by mode0().
        self.memo: Dict[int, np.ndarray] = {}
        # Boundary-replicated accumulation buffers, allocated once per
        # kept level and reset() between kernel invocations so repeated
        # ALS iterations reuse them without double-merge corruption.
        self._reps: Dict[int, ReplicatedArray] = {}
        # Task operands (see repro.core.proc_tasks): the engine's own
        # arrays under serial/threads; under processes the plans are
        # shared once, at build, and factor/memo slots are refreshed
        # before dispatch.
        self._proc: Optional[ProcessEngineContext] = ProcessEngineContext(
            shared=backend == "processes"
        )
        self._rep_handles: Dict[int, Handle] = {}
        self._memo_handles: Dict[int, Handle] = {}
        self._build_plans()

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
    # plan-time index work
    # ------------------------------------------------------------------
    def _build_plans(self) -> None:
        """Build every block's sweep plans, once.

        A kernel's rows are the ancestor windows of each thread's owned
        range at its *source* level ``r``: the leaves for the mode-0
        sweep, recompute-from-tensor and the leaf mode, a saved level for
        its memo-direct kernel and the recomputes it feeds.  So for each
        such ``r``, ``self._windows[r]`` holds every thread's windows and
        each block's plan holds the :func:`~repro.core.csf_kernels
        .block_plan` over its threads' windows, with the operators of the
        sweep up from ``r`` to the shallowest level it feeds (the root
        for the leaves).  The leaf plan also names each thread's mode-0
        stripes.  Every operator views one basis as wide as the largest
        block's rows; contribution scratch is sized per block.
        """
        csf, d, starts = self.csf, self.csf.ndim, self.partition.starts
        stops = {d - 1: 0}
        for u in range(1, d - 1):
            stops.setdefault(self.plan.source_level(u, d), u)
        self._windows: Dict[int, List[List[LevelSlice]]] = {
            r: [
                ancestor_windows(csf, r, int(starts[th, r]), int(starts[th + 1, r]))
                for th in range(self.num_threads)
            ]
            for r in stops
        }
        rows = [
            max(
                sum(self._windows[r][th][i].count for th in threads)
                for r in stops
                for i in range(r + 1)
            )
            for threads in self.blocks
        ]
        # Every thread's rows at a level bound both a block's operators
        # and the stage-2 indicator over all blocks' partial sums.
        basis = self._basis = operator_basis(
            max(
                sum(w[i].count for w in self._windows[r])
                for r in stops
                for i in range(r + 1)
            )
        )
        keep = sorted(set(self.plan.save_levels) | {0})
        plans = []
        for threads in self.blocks:
            plan: Dict[int, Dict[str, Any]] = {
                r: block_plan(
                    csf,
                    [self._windows[r][th] for th in threads],
                    stop_level=stop,
                    basis=basis,
                )
                for r, stop in stops.items()
            }
            plan[d - 1]["stripes"] = {
                lvl: [
                    (self._windows[d - 1][th][lvl].lo, self._windows[d - 1][th][lvl].hi)
                    for th in threads
                ]
                for lvl in keep
            }
            plans.append(plan)
        proc = self._context()
        self._plans = proc.share_plans(plans, (*basis, csf.values))
        self._scratch = proc.scratch(rows, self.rank)
        self._scatter_ops: Dict[int, LevelScatter] = {}

    def _scatter_operators(self, u: int) -> LevelScatter:
        """Level ``u``'s two-stage scatter, built on the level's first
        run: an engine that holds several trees runs only some levels on
        each."""
        ops = self._scatter_ops.get(u)
        if ops is None:
            ops = self._scatter_ops[u] = self._build_scatter(u)
        return ops

    def _build_scatter(self, u: int) -> LevelScatter:
        """Level ``u``'s scatter: per block, one operator with a row per
        (thread, target) pair, in that order (stage 1, in the task); here,
        one indicator over every thread's targets in thread order (stage 2).

        Below the leaves a thread's rows are one per node of its window
        at ``u`` (its owned range when ``u`` is saved), and a block's are
        its threads' laid end to end.  Keying each row by ``(thread,
        target)`` makes the stable sort by key each thread's own stable
        sort by target, so the stage-1 operator is its threads' scatter
        matrices along the diagonal.  The leaf task emits ``k_{d-2}`` over
        the parents of the block's leaves, so the leaf operator has each
        leaf's parent row as its column and the leaf's value as its
        ``data``.
        """
        d = self.csf.ndim
        windows = self._windows[d - 1 if u == d - 1 else self.plan.source_level(u, d)]
        ops = [self._block_scatter(u, [windows[th] for th in b]) for b in self.blocks]
        indicator = scatter_operator(
            np.concatenate([op.targets for op in ops]), self._basis
        )
        stage1 = self._context().share_plans([op.matrix for op in ops])
        return LevelScatter(stage1, indicator)

    def _block_scatter(
        self, u: int, windows: Sequence[Sequence[LevelSlice]]
    ) -> ScatterOperator:
        """One block's stage-1 scatter at level ``u`` over its threads'
        ``windows``; its ``targets`` are the output rows of its
        (thread, target) rows."""
        csf = self.csf
        n = csf.level_shape(u)
        key = np.concatenate(
            [j * n + csf.idx[u][w[u].lo : w[u].hi] for j, w in enumerate(windows)]
        )
        if u < csf.ndim - 1:
            op = scatter_operator(key, self._basis)
        else:
            counts = np.concatenate(
                [child_counts(csf, u - 1, w[u - 1], w[u]) for w in windows]
            )
            cols = np.repeat(np.arange(counts.shape[0]), counts)
            values = csf.values[windows[0][u].lo : windows[-1][u].hi]
            op = leaf_scatter_operator(key, values, cols, counts.shape[0])
        return ScatterOperator(op.targets % n, op.matrix)

    # ------------------------------------------------------------------
    # dispatch plumbing
    # ------------------------------------------------------------------
    def _context(self) -> ProcessEngineContext:
        if self._proc is None:
            raise RuntimeError("engine is closed")
        return self._proc

    def _payloads(
        self, lf: List[np.ndarray], scatter: Optional[LevelScatter] = None, **extra: Any
    ) -> List[Dict[str, Any]]:
        """One payload per block over the current level factors: the
        shared ``ctx``, the block's threads (``th``), its plans, its
        scratch and its stage-1 scatter operator."""
        proc = self._context()
        ctx = dict(
            factors=proc.refresh_factors(lf), memo=dict(self._memo_handles), **extra
        )
        return [
            {
                "ctx": ctx,
                "th": threads,
                "block": plan,
                "scratch": scratch,
                "scatter": None if scatter is None else scatter.blocks[b],
            }
            for b, (threads, plan, scratch) in enumerate(
                zip(self.blocks, self._plans, self._scratch)
            )
        ]

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
        with self.kernel_span(0, self.csf.mode_order[0], self.csf.nnz):
            return self._mode0_impl(factors)

    def _mode0_impl(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        csf, d, rank = self.csf, self.csf.ndim, self.rank
        lf = self._level_factors(factors)
        self.memo.clear()
        self._memo_handles.clear()

        keep_levels = sorted(set(self.plan.save_levels) | {0})
        reps = self._replicated_buffers(keep_levels)
        rep = {lvl: self._rep_handles[lvl] for lvl in keep_levels}
        self.pool.run_tasks(mode0_task, self._payloads(lf, rep=rep))
        # The blocks already accumulated into each thread's slot-disjoint
        # stripes; recording every thread's ranges in thread-id order
        # (lifecycle + sanitizer checks) fixes the order merge() folds
        # them in.  A thread with no leaves wrote nothing.
        for th, w in enumerate(self._windows[d - 1]):
            for lvl in keep_levels:
                if w[lvl].count:
                    reps[lvl].view(th, w[lvl].lo, w[lvl].hi)

        proc = self._context()
        for lvl in self.plan.save_levels:
            self.memo[lvl] = reps[lvl].merge()
            self._memo_handles[lvl] = proc.refresh_memo(lvl, self.memo[lvl])
        t0 = reps[0].merge()
        out = np.zeros((csf.level_shape(0), rank))
        out[csf.idx[0]] = t0

        # Accounting: the tree walk, the factor gathers and the output +
        # memo writes (the boundary-replication rows are the +T).
        charge_sweep(self.counter, csf.fiber_counts, rank)
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
    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """MTTKRP for CSF ``level`` (see :meth:`mode_level`)."""
        return self.mode_level(factors, level)

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
        with self.kernel_span(u, csf.mode_order[u], csf.nnz, source):
            return self._mode_level_impl(lf, u, source)

    def _mode_level_impl(
        self, lf: List[np.ndarray], u: int, source: int
    ) -> np.ndarray:
        csf, d, rank = self.csf, self.csf.ndim, self.rank
        out = np.zeros((csf.level_shape(u), rank))
        proc = self._context()
        scatter = self._scatter_operators(u)
        payloads = self._payloads(lf, scatter, u=u, source=source)
        if u == d - 1:
            results = self.pool.run_tasks(leaf_task, payloads)
        elif source == u:
            results = self.pool.run_tasks(memo_direct_task, payloads)
        else:
            results = self.pool.run_tasks(recompute_task, payloads)
        # Stage 2: the blocks' partial sums, in thread order, through one
        # indicator — each target adds its threads' sums one by one.
        parts = [proc.contribution(s, r) for s, r in zip(self._scratch, results)]
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        scatter_add_rows(out, scatter.indicator, rows)
        self._charge_mode_u(u, source)
        return out

    def _charge_mode_u(self, u: int, source: int) -> None:
        """A mode-``u`` kernel's legs: the tree walk
        (:func:`charge_mode_u`), the DM_factor cache-rule gathers and the
        conflicted output scatter."""
        csf, d, rank = self.csf, self.csf.ndim, self.rank
        m = csf.fiber_counts
        charge_mode_u(self.counter, m, u, source, rank)
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
        """Release the plans and operators and, under the processes
        backend, the shared-memory segments; later kernel calls raise.
        Shared segments are also released by garbage collection; calling
        it explicitly just makes the release deterministic."""
        proc = self._proc
        if proc is not None:
            self._plans = []
            self._scatter_ops.clear()
            self._reps.clear()
            self._rep_handles.clear()
            proc.close()
            self._proc = None
