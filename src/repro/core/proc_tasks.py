"""Operand plumbing shared by every engine's kernel tasks.

Each parallel kernel is a module-level *task function* dispatched with
:meth:`SimulatedPool.run_tasks` on all three execution backends — STeF's
in :mod:`repro.core.mttkrp`, the baselines' beside their engines.  A task
receives ``{"ctx": ctx, "th": th}`` and reads its operands from ``ctx``;
this module supplies both ends of that contract:

* :class:`ProcessEngineContext` is the coordinator side.  Under the
  ``processes`` backend it owns the engine's
  :class:`~repro.parallel.shm.SharedArena`: immutable operands (the CSF)
  are shared once, factor/memo slots are refreshed in place before each
  dispatch, and task-written storage (ReplicatedArray buffers, per-thread
  scratch) lives in segments, so payloads carry only small picklable
  tokens.  Under ``serial``/``threads`` it hands out the engine's own
  arrays: no shared memory, no copy.
* :func:`resolve` / :func:`resolve_csf` are the task side: the identity
  on an in-process array, :func:`~repro.parallel.shm.attach` on a token.
* An engine's plan-time segment operators reach its tasks the same way
  (:meth:`ProcessEngineContext.share_operators`,
  :func:`resolve_operators`): the operators themselves in-process; across
  processes their row pointers, packed into one segment per level and
  shared once, which the task wraps as operators again.  A leaf TTM
  operator also packs its int32 columns per level; its ``data`` view the
  CSF values segment the engine already shares.
* A task charges its per-thread traffic legs to a :func:`local_counter`
  and returns its :func:`counter_state`; the coordinator folds it into
  that thread's :class:`~repro.parallel.counters.ShardedTrafficCounter`
  shard with :func:`merge_counter_state`, so per-thread totals are exact
  on every backend.
* :func:`emit_contrib` hands a per-thread contribution back: through the
  thread's scratch segment across the process boundary, as the array
  itself in-process.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import csr_array

from ..kernels import INDEX_DTYPE, OperatorBasis, leaf_ttm_operator, segment_operator
from ..parallel.counters import TrafficCounter
from ..parallel.shm import SharedArena, ShmToken, attach
from ..tensor.csf import CsfTensor

__all__ = [
    "Handle",
    "OperatorSpec",
    "ProcessEngineContext",
    "resolve",
    "resolve_csf",
    "resolve_operators",
    "local_counter",
    "counter_state",
    "merge_counter_state",
    "emit_contrib",
]

#: A task operand: the array itself in-process, a token across processes.
Handle = Union[np.ndarray, ShmToken]
CounterState = Tuple[float, float, float, Dict[str, float]]
#: Per-task segment operators, ``level -> operator`` for each task.
TaskOperators = Sequence[Dict[int, csr_array]]
#: Their task-side spec: the operators in-process, tokens across processes.
OperatorSpec = Union[TaskOperators, Dict[str, Any]]

_NO_BOUNDS = np.zeros(0, dtype=INDEX_DTYPE)


class PackedLevel(NamedTuple):
    """One level's operators of every task, shared for process workers.

    Task ``t``'s row pointers are ``indptr[offsets[t]:offsets[t+1]]``
    (empty when the task has no operator at this level).  A leaf TTM
    level also packs its columns (``cols`` at ``col_offsets``) and names
    the shared CSF values its ``data`` view (``values``, task ``t``'s
    from ``value_starts[t]``) and the leaf factor's row count.
    """

    indptr: ShmToken
    offsets: List[int]
    cols: Optional[ShmToken] = None
    col_offsets: Optional[List[int]] = None
    values: Optional[ShmToken] = None
    value_starts: Optional[List[int]] = None
    n_cols: int = 0


# ----------------------------------------------------------------------
# task side
# ----------------------------------------------------------------------
def resolve(handle: Handle) -> np.ndarray:
    """The array behind an operand handle (attached when it is a token)."""
    return attach(handle) if isinstance(handle, ShmToken) else handle


def resolve_csf(spec: Union[CsfTensor, Dict[str, Any]]) -> CsfTensor:
    """The engine's CSF in-process, or a read-only tensor rebuilt
    zero-copy from shared-memory tokens in a process worker."""
    if isinstance(spec, CsfTensor):
        return spec
    return CsfTensor(
        spec["mode_order"],
        [attach(t) for t in spec["idx"]],
        [attach(t) for t in spec["ptr"]],
        attach(spec["values"]),
        spec["shape"],
        spec["fiber_counts"],
    )


def resolve_operators(spec: OperatorSpec, task: int) -> Dict[int, csr_array]:
    """Task ``task``'s sweep operators, ``level -> operator``: the
    engine's own in-process; in a process worker, wrapped around the
    shared row pointers and basis — or, for a leaf TTM operator, its
    packed columns and the shared CSF values (no index work, no copy)."""
    if not isinstance(spec, dict):
        return spec[task]
    basis = OperatorBasis(*(attach(t) for t in spec["basis"]))
    ops: Dict[int, csr_array] = {}
    for level, pack in spec["levels"].items():
        lo, hi = pack.offsets[task], pack.offsets[task + 1]
        if hi == lo:
            continue
        bounds = attach(pack.indptr)[lo:hi]
        if pack.cols is None:
            ops[level] = segment_operator(bounds, basis)
            continue
        a, b = pack.col_offsets[task], pack.col_offsets[task + 1]
        start = pack.value_starts[task]
        ops[level] = leaf_ttm_operator(
            bounds,
            attach(pack.values)[start : start + b - a],
            attach(pack.cols)[a:b],
            pack.n_cols,
        )
    return ops


def local_counter(ctx: Dict[str, Any]) -> TrafficCounter:
    """A task-private counter configured like the engine's."""
    return TrafficCounter(
        cache_elements=ctx["cache_elements"], enabled=ctx["enabled"]
    )


def counter_state(counter: TrafficCounter) -> CounterState:
    """Picklable snapshot of a task-local counter's tallies."""
    return counter.reads, counter.writes, counter.flops, dict(counter.by_category)


def merge_counter_state(shard: TrafficCounter, state: CounterState) -> None:
    """Fold a task's returned tallies into the coordinator-side shard.

    The shard was reset at kernel start, so adding the task's exact
    charges reproduces a direct charge of the shard bit-for-bit."""
    reads, writes, flops, by_category = state
    shard.reads += reads
    shard.writes += writes
    shard.flops += flops
    for key, val in by_category.items():
        shard.by_category[key] = shard.by_category.get(key, 0.0) + val


def emit_contrib(
    scratch: Optional[Handle],
    contrib: np.ndarray,
    counter: TrafficCounter,
) -> Tuple[str, Any, CounterState]:
    """Hand a per-thread contribution back to the coordinator.

    In-process (no scratch) the array itself travels back.  Across the
    process boundary the fast path writes into the thread's scratch
    segment (zero-copy); a contribution whose dtype or size does not fit
    falls back to pickling, so exactness is never traded for speed.
    """
    if scratch is not None:
        buf = resolve(scratch)
        n = contrib.shape[0]
        if contrib.dtype == buf.dtype and n <= buf.shape[0]:
            buf[:n] = contrib
            return ("shm", n, counter_state(counter))
    return ("obj", contrib, counter_state(counter))


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
def _packed(arena: SharedArena, parts: Sequence[np.ndarray]) -> Tuple[ShmToken, List[int]]:
    """One shared segment holding ``parts`` end to end, and where each
    part starts (with the total as the last entry)."""
    offsets = np.cumsum([0] + [p.shape[0] for p in parts]).tolist()
    return arena.share(np.concatenate(parts)), offsets


class ProcessEngineContext:
    """Operand storage behind one engine's kernel tasks.

    With ``shared=True`` (the processes backend) the context owns a
    :class:`SharedArena` and every handle it returns is a token;
    otherwise handles are the engine's arrays themselves.  Engines use
    the same calls either way, so one task body serves every backend.
    """

    def __init__(self, counter: TrafficCounter, *, shared: bool) -> None:
        self.arena: Optional[SharedArena] = SharedArena() if shared else None
        self._counter_config = {
            "cache_elements": counter.cache_elements,
            "enabled": counter.enabled,
        }
        self._factor_tokens: Optional[List[ShmToken]] = None
        self._memo_tokens: Dict[int, ShmToken] = {}
        self._basis: Optional[OperatorBasis] = None
        # Each shared CSF's values and their segment, so an operator whose
        # data view them can name the segment instead of copying.
        self._shared_values: List[Tuple[np.ndarray, ShmToken]] = []

    # ------------------------------------------------------------------
    def share_csf(self, csf: CsfTensor) -> Union[CsfTensor, Dict[str, Any]]:
        """Task-side spec of an immutable CSF (shared once when shared)."""
        arena = self.arena
        if arena is None:
            return csf
        values = arena.share(csf.values)
        self._shared_values.append((csf.values, values))
        return {
            "mode_order": csf.mode_order,
            "shape": csf.shape,
            "fiber_counts": csf.fiber_counts,
            "idx": [arena.share(a) for a in csf.idx],
            "ptr": [arena.share(p) for p in csf.ptr],
            "values": values,
        }

    def share_operators(
        self, per_task: TaskOperators, basis: OperatorBasis
    ) -> OperatorSpec:
        """Task-side spec of per-task sweep operators built over
        ``basis`` (resolved by :func:`resolve_operators`).  When shared,
        each level's row pointers are packed into one segment — never a
        segment per (task, level), which would overrun the workers'
        attach cache — and the basis is shared once per context.  A leaf
        TTM level packs its columns the same way; its values are a CSF's
        that :meth:`share_csf` already shared."""
        arena = self.arena
        if arena is None:
            return list(per_task)
        if self._basis is None:
            self._basis = OperatorBasis(*(arena.share(v) for v in basis))
        levels = sorted({level for ops in per_task for level in ops})
        return {
            "levels": {
                level: self._pack_level(arena, [ops.get(level) for ops in per_task])
                for level in levels
            },
            "basis": self._basis,
        }

    def _pack_level(
        self, arena: SharedArena, ops: Sequence[Optional[csr_array]]
    ) -> PackedLevel:
        """Pack one level's operators (``None`` where a task has none)."""
        indptr, offsets = _packed(
            arena, [_NO_BOUNDS if op is None else op.indptr for op in ops]
        )
        views = [None if op is None else self._values_view(op.data) for op in ops]
        shared = [v for v in views if v is not None]
        if not shared:
            return PackedLevel(indptr, offsets)
        cols, col_offsets = _packed(
            arena, [_NO_BOUNDS if op is None else op.indices for op in ops]
        )
        n_cols = next(op.shape[1] for op in ops if op is not None)
        starts = [0 if v is None else v[1] for v in views]
        return PackedLevel(
            indptr, offsets, cols, col_offsets, shared[0][0], starts, n_cols
        )

    def _values_view(self, data: np.ndarray) -> Optional[Tuple[ShmToken, int]]:
        """The shared CSF values segment that ``data`` is a slice of and
        where the slice starts, or ``None`` (an indicator's ones)."""
        for values, token in self._shared_values:
            if np.may_share_memory(data, values):
                start = (data.ctypes.data - values.ctypes.data) // values.itemsize
                return token, start
        return None

    def share(self, array: np.ndarray) -> Handle:
        """Handle to an immutable operand (copied into a segment once)."""
        return array if self.arena is None else self.arena.share(array)

    def zeros(self, shape: Tuple[int, ...]) -> Handle:
        """Task-writable float64 storage, zero-filled."""
        return np.zeros(shape) if self.arena is None else self.arena.zeros(shape)

    def array(self, handle: Handle) -> np.ndarray:
        """Coordinator view of a handle this context returned."""
        return handle if self.arena is None else self.arena.array(handle)

    def scratch(
        self, num_threads: int, n_rows: int, rank: int
    ) -> List[Optional[Handle]]:
        """Per-thread contribution scratch for :func:`emit_contrib`:
        segments across processes, none in-process."""
        if self.arena is None:
            return [None] * num_threads
        return [self.zeros((n_rows, rank)) for _ in range(num_threads)]

    def contribution(
        self,
        scratch: Optional[Handle],
        result: Tuple[str, Any, CounterState],
        shard: TrafficCounter,
    ) -> np.ndarray:
        """Fold one :func:`emit_contrib` result: its traffic into the
        thread's ``shard``; returns its rows."""
        kind, val, traffic = result
        merge_counter_state(shard, traffic)
        if kind == "shm":
            return self.array(scratch)[:val]
        return val

    # ------------------------------------------------------------------
    def refresh_factors(self, factors: Sequence[np.ndarray]) -> List[Handle]:
        """Handles to the current factors.  Shared slots are allocated on
        first use (and on a shape/dtype change) and refreshed in place."""
        fs = [np.asarray(f) for f in factors]
        arena = self.arena
        if arena is None:
            return fs
        tokens = self._factor_tokens
        if tokens is None or any(
            t.shape != f.shape or np.dtype(t.dtype) != f.dtype
            for t, f in zip(tokens, fs)
        ):
            tokens = [arena.zeros(f.shape, f.dtype) for f in fs]
            self._factor_tokens = tokens
        for t, f in zip(tokens, fs):
            arena.array(t)[...] = f
        return list(tokens)

    def refresh_memo(self, level: int, arr: np.ndarray) -> Handle:
        """Handle to a freshly merged ``P^(level)`` (copied into its
        shared slot when shared)."""
        arena = self.arena
        if arena is None:
            return arr
        token = self._memo_tokens.get(level)
        if token is None or token.shape != arr.shape:
            token = arena.zeros(arr.shape, arr.dtype)
            self._memo_tokens[level] = token
        arena.array(token)[...] = arr
        return token

    def payloads(self, num_threads: int, **ctx: Any) -> List[Dict[str, Any]]:
        """One ``{"ctx", "th"}`` payload per thread; ``ctx`` also carries
        the engine counter's configuration for :func:`local_counter`."""
        ctx.update(self._counter_config)
        return [{"ctx": ctx, "th": th} for th in range(num_threads)]

    def close(self) -> None:
        """Release every shared segment (idempotent; no-op in-process)."""
        if self.arena is not None:
            self.arena.close()
