"""Operand plumbing shared by every engine's kernel tasks.

Each parallel kernel is a module-level *task function* dispatched with
:meth:`SimulatedPool.run_tasks` on all three execution backends — STeF's
in :mod:`repro.core.mttkrp`, one per execution block, the baselines'
beside their engines, one per simulated thread.  A task receives a
payload ``{"ctx": ctx, ...}`` and reads its operands from it; this module
supplies both ends of that contract:

* :class:`ProcessEngineContext` is the coordinator side.  Under the
  ``processes`` backend it owns the engine's
  :class:`~repro.parallel.shm.SharedArena`: immutable operands (the CSF)
  are shared once, factor/memo slots are refreshed in place before each
  dispatch, and task-written storage (ReplicatedArray buffers, per-task
  scratch) lives in segments, so payloads carry only small picklable
  tokens.  Under ``serial``/``threads`` it hands out the engine's own
  arrays: no shared memory, no copy.
* :func:`resolve` / :func:`resolve_csf` are the task side: the identity
  on an in-process operand, :func:`~repro.parallel.shm.attach` on a
  token.
* An engine's plan-time *plans* — per task, nested dicts and lists of
  index arrays and CSR operators — reach its tasks the same way
  (:meth:`ProcessEngineContext.share_plans`, :func:`resolve_plan`): the
  plans themselves in-process; across processes every array becomes a
  :class:`Packed` slice, either of a segment already shared (the CSF
  values a leaf operator's ``data`` view, the operator basis) or of one
  segment per dtype that holds the rest of the call's arrays end to end.
  The task wraps the slices as operators again: no index work, no copy.
* A task only computes: it creates, charges and returns no traffic
  counter.  Its coordinator charges the whole kernel once, from the
  tensor's level counts.
* :func:`emit_contrib` hands a task's rows back: through its slice of
  the scratch segment across the process boundary, as the array itself
  in-process.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import csr_array

from ..kernels import csr_operator
from ..parallel.shm import SharedArena, ShmToken, attach
from ..tensor.csf import CsfTensor

__all__ = [
    "Handle",
    "Packed",
    "PackedOperator",
    "ProcessEngineContext",
    "resolve",
    "resolve_csf",
    "resolve_plan",
    "emit_contrib",
]


class Packed(NamedTuple):
    """``attach(token)[lo:hi]``: an array that shares a segment with
    others (a plan's arrays of one dtype, a task's rows of the scratch)
    or is a slice of an array shared whole."""

    token: ShmToken
    lo: int
    hi: int


class PackedOperator(NamedTuple):
    """A plan's CSR operator across the process boundary: its three
    arrays as :class:`Packed` slices and its column count."""

    indptr: Packed
    indices: Packed
    data: Packed
    n_cols: int


class _Slot(NamedTuple):
    """A plan array's place among the arrays of its dtype while
    :meth:`ProcessEngineContext.share_plans` packs them."""

    dtype: str
    index: int


#: A task operand: the array (or operator) itself in-process; across
#: processes a token, a packed slice or a packed operator.
Handle = Union[np.ndarray, csr_array, ShmToken, Packed, PackedOperator]


def _walk(plan: Any, leaf: Callable[[Any], Any]) -> Any:
    """``plan`` with ``leaf`` applied to everything below its dicts and
    lists."""
    if isinstance(plan, dict):
        return {k: _walk(v, leaf) for k, v in plan.items()}
    if isinstance(plan, list):
        return [_walk(v, leaf) for v in plan]
    return leaf(plan)


# ----------------------------------------------------------------------
# task side
# ----------------------------------------------------------------------
def resolve(handle: Handle) -> Any:
    """The array or operator behind an operand handle: attached when it
    is a token, sliced when packed, wrapped when a packed operator."""
    if isinstance(handle, ShmToken):
        return attach(handle)
    if isinstance(handle, Packed):
        return attach(handle.token)[handle.lo : handle.hi]
    if isinstance(handle, PackedOperator):
        return csr_operator(
            resolve(handle.data),
            resolve(handle.indices),
            resolve(handle.indptr),
            handle.n_cols,
        )
    return handle


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


def resolve_plan(plan: Any) -> Any:
    """A task's plan with every handle in it resolved (:func:`resolve`):
    the engine's own arrays and operators in-process; in a process
    worker, views of the shared segments and operators wrapped around
    them."""
    return _walk(plan, resolve)


def emit_contrib(scratch: Optional[Handle], contrib: np.ndarray) -> Tuple[str, Any]:
    """Hand a task's contribution back to the coordinator.

    In-process (no scratch) the array itself travels back.  Across the
    process boundary the fast path writes into the task's slice of the
    scratch segment (zero-copy); a contribution whose dtype or size does
    not fit falls back to pickling, so exactness is never traded for
    speed.
    """
    if scratch is not None:
        buf = resolve(scratch)
        n = contrib.shape[0]
        if contrib.dtype == buf.dtype and n <= buf.shape[0]:
            buf[:n] = contrib
            return ("shm", n)
    return ("obj", contrib)


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
def _packed(arena: SharedArena, parts: Sequence[np.ndarray]) -> Tuple[ShmToken, List[int]]:
    """One shared segment holding ``parts`` end to end, and where each
    part starts (with the total as the last entry).  The parts are
    copied straight into the segment: no concatenated copy on the heap."""
    offsets = np.cumsum([0] + [p.shape[0] for p in parts]).tolist()
    token = arena.zeros((offsets[-1],), parts[0].dtype)
    out = arena.array(token)
    for part, lo, hi in zip(parts, offsets, offsets[1:]):
        out[lo:hi] = part
    return token, offsets


class ProcessEngineContext:
    """Operand storage behind one engine's kernel tasks.

    With ``shared=True`` (the processes backend) the context owns a
    :class:`SharedArena` and every handle it returns is a token;
    otherwise handles are the engine's arrays themselves.  Engines use
    the same calls either way, so one task body serves every backend.
    """

    def __init__(self, *, shared: bool) -> None:
        self.arena: Optional[SharedArena] = SharedArena() if shared else None
        self._factor_tokens: Optional[List[ShmToken]] = None
        self._memo_tokens: Dict[int, ShmToken] = {}
        # Arrays shared whole (CSF values, basis vectors) and their
        # segments, so a plan's slice of one names the segment instead of
        # copying it.
        self._shared: List[Tuple[np.ndarray, ShmToken]] = []

    # ------------------------------------------------------------------
    def share_csf(self, csf: CsfTensor) -> Union[CsfTensor, Dict[str, Any]]:
        """Task-side spec of an immutable CSF (shared once when shared)."""
        arena = self.arena
        if arena is None:
            return csf
        values = arena.share(csf.values)
        self._shared.append((csf.values, values))
        return {
            "mode_order": csf.mode_order,
            "shape": csf.shape,
            "fiber_counts": csf.fiber_counts,
            "idx": [arena.share(a) for a in csf.idx],
            "ptr": [arena.share(p) for p in csf.ptr],
            "values": values,
        }

    def share_plans(
        self, plans: Sequence[Any], wholes: Sequence[np.ndarray] = ()
    ) -> List[Any]:
        """Task-side specs of per-task plans (resolved by
        :func:`resolve_plan`): nested dicts and lists of 1-D arrays, CSR
        operators and small picklable values.  When shared, each of
        ``wholes`` (the operator basis, the CSF values) is shared once per
        context, and a plan array that is a slice of one names its
        segment; the call packs every other array end to end into one
        segment per dtype, never a segment per array, which would overrun
        the workers' attach cache."""
        arena = self.arena
        if arena is None:
            return list(plans)
        for whole in wholes:
            if not any(w is whole for w, _ in self._shared):
                self._shared.append((whole, arena.share(whole)))
        parts: Dict[str, List[np.ndarray]] = {}

        # Neither helper calls itself: a self-referencing closure is a
        # reference cycle, which would keep ``parts`` (every staged array)
        # alive after the call until the cyclic collector runs.
        def slot(x: np.ndarray) -> Any:
            view = self._shared_view(x)
            if view is not None:
                return view
            group = parts.setdefault(x.dtype.str, [])
            group.append(x)
            return _Slot(x.dtype.str, len(group) - 1)

        def stage(x: Any) -> Any:
            if isinstance(x, csr_array):
                return PackedOperator(
                    slot(x.indptr), slot(x.indices), slot(x.data), x.shape[1]
                )
            return slot(x) if isinstance(x, np.ndarray) else x

        staged = [_walk(p, stage) for p in plans]
        packed = {dt: _packed(arena, group) for dt, group in parts.items()}

        def place(x: Any) -> Any:
            if isinstance(x, _Slot):
                token, offsets = packed[x.dtype]
                return Packed(token, offsets[x.index], offsets[x.index + 1])
            return x

        def fill(x: Any) -> Any:
            if isinstance(x, PackedOperator):
                return PackedOperator(*(place(a) for a in x[:3]), x.n_cols)
            return place(x)

        return [_walk(p, fill) for p in staged]

    def release_plans(self, specs: Sequence[Any]) -> None:
        """Release the segments :meth:`share_plans` packed for ``specs``
        (the shared basis and CSF values stay)."""
        arena = self.arena
        if arena is None:
            return
        kept = {token.name for _, token in self._shared}
        packed: Dict[str, ShmToken] = {}

        def collect(x: Any) -> None:
            for part in x[:3] if isinstance(x, PackedOperator) else (x,):
                if isinstance(part, Packed) and part.token.name not in kept:
                    packed[part.token.name] = part.token

        _walk(list(specs), collect)
        for token in packed.values():
            arena.release(token)

    def _shared_view(self, array: np.ndarray) -> Optional[Packed]:
        """``array`` as a slice of an array shared whole (the CSF values,
        the basis vectors), or ``None``."""
        if array.ndim != 1 or not array.flags.c_contiguous:
            return None
        for whole, token in self._shared:
            if array.dtype == whole.dtype and np.may_share_memory(array, whole):
                start = (array.ctypes.data - whole.ctypes.data) // whole.itemsize
                return Packed(token, start, start + array.shape[0])
        return None

    def share(self, array: np.ndarray) -> Handle:
        """Handle to an immutable operand (copied into a segment once)."""
        return array if self.arena is None else self.arena.share(array)

    def zeros(self, shape: Tuple[int, ...]) -> Handle:
        """Task-writable float64 storage, zero-filled."""
        return np.zeros(shape) if self.arena is None else self.arena.zeros(shape)

    def array(self, handle: Handle) -> np.ndarray:
        """Coordinator view of a handle this context returned."""
        if self.arena is None:
            return handle
        if isinstance(handle, Packed):
            return self.arena.array(handle.token)[handle.lo : handle.hi]
        return self.arena.array(handle)

    def scratch(self, rows: Sequence[int], rank: int) -> List[Optional[Handle]]:
        """Contribution scratch for :func:`emit_contrib`, ``rows[t]``
        rows for task ``t``: slices of one segment across processes, none
        in-process."""
        if self.arena is None:
            return [None] * len(rows)
        token = self.arena.zeros((sum(rows), rank))
        ends = np.cumsum(rows).tolist()
        return [Packed(token, end - n, end) for n, end in zip(rows, ends)]

    def contribution(
        self, scratch: Optional[Handle], result: Tuple[str, Any]
    ) -> np.ndarray:
        """The rows of one :func:`emit_contrib` result."""
        kind, val = result
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
        """One ``{"ctx", "th"}`` payload per simulated thread, all sharing
        ``ctx``."""
        return [{"ctx": ctx, "th": th} for th in range(num_threads)]

    def close(self) -> None:
        """Release every shared segment (idempotent; no-op in-process)."""
        if self.arena is not None:
            self.arena.close()
