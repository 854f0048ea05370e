"""Vectorized per-thread CSF sweep primitives.

Algorithms 4-8 of the paper are recursive pointer-chasing loops over the
CSF tree.  A pure-Python transcription would spend all its time in the
interpreter, so this module re-expresses each loop as a *level-by-level
vectorized sweep* — identical arithmetic, identical access pattern, one
NumPy call per tree level instead of one Python iteration per node:

* **upward sweep** (:func:`thread_upward_sweep`) — the TTM + chain of
  mTTV contractions that produce the partial results ``t_i`` /
  ``P^(i)``.  The TTM is one product of the leaf factor with the
  thread's leaf TTM operator, whose ``data`` are the tensor values and
  whose columns are the leaf indices; above it, per level, one gather of
  factor rows, one elementwise multiply and one segmented sum — a
  product with the thread's segment operator for that level
  (:func:`sweep_operators` builds both kinds).
* **downward sweep** (:func:`thread_downward_k`) — the ``k_i`` rows of
  Algorithm 5 (row-wise KRP of ``A^(0..i)`` along each tree path): per
  level, one ``np.repeat`` expansion by child counts and one gather-
  multiply.  Nothing expands to the leaves: the leaf-mode kernel stops
  at ``k_{d-2}`` and its scatter operator weights by the values.
* **scatter** (:func:`scatter_add_rows`) — the ``Ā^(u)[idx] += ...``
  accumulation (gathered writes with duplicate indices): one product
  with a scatter operator whose stable sort by target row was done when
  the operator was built.

Thread decomposition follows Algorithm 3: every primitive takes a
*half-open child range* owned by the calling thread and clips segment
boundaries to it.  Boundary tree nodes are therefore computed *partially*
by each adjacent thread; because every contraction is linear in ``t``,
partial contributions merge correctly at any level (this is exactly the
property STeF's boundary-replication scheme exploits).

The segment boundaries of a thread's sweep depend only on the CSF and
the thread's range, so engines build the operators once
(:func:`sweep_operators`) and pass them to every call.  The inner loops
themselves — gathers, multiplies, expansions and the sparse products —
are the flat-array kernel ABI (:mod:`repro.kernels`), called here by
name.  Traffic stays charged in these wrappers, never inside the ABI
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_array

from ..kernels import (
    INDEX_DTYPE,
    OperatorBasis,
    ScatterOperator,
    gather_multiply_rows,
    leaf_ttm_operator,
    parent_of,
    repeat_rows,
    scatter_rows_add,
    segment_operator,
    segment_reduce_rows,
    take_factor_rows,
)
# No sweep calls it (the leaf TTM operator folds in the values); kept
# bound here because perfbench/layers.py wraps every ABI_NAMES entry
# under this module's name.
from ..kernels import value_gather_rows as value_gather_rows
from ..parallel.counters import NULL_COUNTER, TrafficCounter
from ..tensor.csf import CsfTensor

__all__ = [
    "scatter_add_rows",
    "LevelSlice",
    "thread_level_ranges",
    "sweep_operators",
    "thread_upward_sweep",
    "thread_downward_k",
    "serial_upward_sweep",
]


def scatter_add_rows(out: np.ndarray, op: ScatterOperator, rows: np.ndarray) -> None:
    """``out[idx[p], :] += rows[p, :]`` with duplicate indices, through
    the :func:`~repro.kernels.scatter_operator` of ``idx``.

    One sparse product over all rank columns at once, with temporaries
    sized by the touched output rows; the sort by target row happened
    when the operator was built.  Each target accumulates its rows in
    position order, as ``np.add.at`` does.  The loop lives in the kernel
    ABI (:func:`repro.kernels.scatter_rows_add`).
    """
    scatter_rows_add(out, op, rows)


@dataclass(frozen=True)
class LevelSlice:
    """A thread's node window at one CSF level.

    ``lo`` is the first touched node; ``hi`` is one past the last touched
    node (so boundary nodes shared with a neighbouring thread are *inside*
    the window for both threads).
    """

    lo: int
    hi: int

    @property
    def count(self) -> int:
        return self.hi - self.lo


def ancestor_windows(
    csf: CsfTensor, level: int, lo: int, hi: int
) -> List[LevelSlice]:
    """Node windows at levels ``0..level`` for a thread owning the
    half-open position range ``[lo, hi)`` at ``level``.

    The window at level ``i < level`` spans the ancestors of the owned
    positions — inclusive of boundary nodes shared with neighbouring
    threads.  An empty range yields empty windows everywhere.
    """
    out: List[LevelSlice] = [LevelSlice(0, 0)] * (level + 1)
    if hi <= lo:
        return [LevelSlice(lo, lo)] * (level + 1)
    # O(d) window bookkeeping on a Python list, not element traffic.
    # lint: disable-next-line=flow.traffic-conformance
    out[level] = LevelSlice(lo, hi)
    a, b = lo, hi - 1
    for i in range(level - 1, -1, -1):
        a = parent_of(csf.ptr[i], a)
        b = parent_of(csf.ptr[i], b)
        # lint: disable-next-line=flow.traffic-conformance
        out[i] = LevelSlice(a, b + 1)
    return out


def thread_level_ranges(
    csf: CsfTensor, leaf_lo: int, leaf_hi: int
) -> List[LevelSlice]:
    """Node windows at every level for the thread owning leaves
    ``[leaf_lo, leaf_hi)`` — the ancestors of those leaves."""
    return ancestor_windows(csf, csf.ndim - 1, leaf_lo, leaf_hi)


def _child_bounds(
    csf: CsfTensor, level: int, window: LevelSlice, child_window: LevelSlice
) -> np.ndarray:
    """The child spans of ``window``'s nodes at ``level``, trimmed to
    ``child_window``: node ``window.lo + j`` owns children
    ``[bounds[j], bounds[j+1])`` of it.

    ``window`` holds exactly the ancestors of ``child_window`` (as
    :func:`ancestor_windows` builds it), so only its first and last node
    can straddle the child range: the child range's ends replace theirs,
    and every other node keeps its full span.
    """
    if window.hi <= window.lo:
        return np.array([child_window.lo])
    inner = csf.ptr[level][window.lo + 1 : window.hi]
    return np.concatenate(([child_window.lo], inner, [child_window.hi]))


def child_counts(
    csf: CsfTensor, level: int, window: LevelSlice, child_window: LevelSlice
) -> np.ndarray:
    """How many children in ``child_window`` each node of ``window`` at
    ``level`` has (see :func:`_child_bounds`)."""
    return np.diff(_child_bounds(csf, level, window, child_window))


def _sweep_operator(
    csf: CsfTensor,
    level: int,
    w: Sequence[LevelSlice],
    basis: Optional[OperatorBasis],
) -> csr_array:
    """The operator that sums a sweep's rows at ``level + 1`` into its
    window ``w[level]``: a segment operator, or at the leaves the leaf
    TTM operator, which views the leaf values and multiplies them in."""
    child = w[level + 1]
    bounds = (_child_bounds(csf, level, w[level], child) - child.lo).astype(INDEX_DTYPE)
    leaf = csf.ndim - 1
    if level + 1 < leaf:
        return segment_operator(bounds, basis)
    lo, hi = w[leaf].lo, w[leaf].hi
    return leaf_ttm_operator(
        bounds, csf.values[lo:hi], csf.idx[leaf][lo:hi], csf.level_shape(leaf)
    )


def sweep_operators(
    csf: CsfTensor,
    child_lo: int,
    child_hi: int,
    *,
    start_level: Optional[int] = None,
    stop_level: int = 0,
    basis: Optional[OperatorBasis] = None,
) -> Dict[int, csr_array]:
    """Reduction operators of one thread's upward sweep, ``level -> op``.

    The sweep starts from positions ``[child_lo, child_hi)`` at
    ``start_level`` (default: the leaves).  ``op`` at ``level`` sums the
    thread's rows at ``level + 1`` into the nodes of its window at
    ``level``, each segment clipped to the rows the thread owns.  Above
    the leaves ``op`` is an indicator over ``basis``; at level ``d-2`` of
    a sweep from the leaves it is the leaf TTM operator
    (:func:`repro.kernels.leaf_ttm_operator`): its ``data`` view the
    thread's tensor values, its columns are the leaf indices, so
    ``op @ A_leaf`` is the TTM.  An empty range needs no operators.
    """
    if start_level is None:
        start_level = csf.ndim - 1
    if child_hi <= child_lo:
        return {}
    w = ancestor_windows(csf, start_level, child_lo, child_hi)
    return {
        level: _sweep_operator(csf, level, w, basis)
        for level in range(stop_level, start_level)
    }


def thread_upward_sweep(
    csf: CsfTensor,
    level_factors: Sequence[np.ndarray],
    child_lo: int,
    child_hi: int,
    *,
    start_level: Optional[int] = None,
    init: Optional[np.ndarray] = None,
    stop_level: int = 0,
    ops: Optional[Mapping[int, csr_array]] = None,
) -> Dict[int, Tuple[int, np.ndarray]]:
    """One thread's share of the TTM/mTTV contraction chain.

    Parameters
    ----------
    csf:
        The tensor.
    level_factors:
        ``level_factors[i]`` is the factor matrix of the mode stored at
        CSF level ``i`` (callers translate from original mode numbering).
    child_lo, child_hi:
        Half-open range of positions this thread owns at ``start_level``
        (leaf positions when starting from the tensor values, node
        positions when starting from a memoized partial result).
    start_level:
        Level whose values seed the sweep.  Default ``d-1`` seeds from the
        tensor values; pass ``i`` with ``init`` to resume from a complete
        memoized ``P^(i)``.
    init:
        Full ``(m_start, R)`` array of memoized values when resuming.
    stop_level:
        Deepest level whose partial ``t`` should be *returned* — the sweep
        contracts down to (and including) ``stop_level``.
    ops:
        This range's :func:`sweep_operators` (covering at least
        ``stop_level``; from the leaves, level ``d-2``'s is the leaf TTM
        operator); engines build them once and pass them to every call.
        Built here when omitted.

    Returns
    -------
    dict
        ``level -> (node_lo, t_partial)`` for ``stop_level <= level <
        start_level``; ``t_partial[j]`` is this thread's (possibly
        partial, for boundary nodes) contribution to node
        ``node_lo + j``.  Empty ranges produce zero-row arrays.
    """
    d = csf.ndim
    if start_level is None:
        start_level = d - 1
    if not stop_level <= start_level:
        raise ValueError(f"stop_level {stop_level} > start_level {start_level}")
    rank = np.asarray(level_factors[-1]).shape[1]
    out: Dict[int, Tuple[int, np.ndarray]] = {}

    if child_hi <= child_lo:
        for level in range(stop_level, start_level):
            out[level] = (0, np.zeros((0, rank)))
        return out
    if ops is None:
        ops = sweep_operators(
            csf,
            child_lo,
            child_hi,
            start_level=start_level,
            stop_level=stop_level,
        )

    # The rows the first operator reduces.  From the leaves that is the
    # leaf factor itself: the leaf TTM operator gathers its rows and
    # multiplies in the tensor values.  From a memoized P^(i), the
    # thread's rows already multiplied by level i's factor rows.
    if start_level == d - 1:
        contrib = np.asarray(level_factors[d - 1])
    else:
        if init is None:
            raise ValueError("resuming from a memoized level requires init")
        contrib = gather_multiply_rows(
            init[child_lo:child_hi],
            np.asarray(level_factors[start_level]),
            csf.idx[start_level],
            child_lo,
            child_hi,
        )

    lo, hi = child_lo, child_hi
    for level in range(start_level - 1, stop_level - 1, -1):
        window = LevelSlice(
            parent_of(csf.ptr[level], lo),
            parent_of(csf.ptr[level], hi - 1) + 1,
        )
        t_partial = segment_reduce_rows(contrib, ops[level])
        out[level] = (window.lo, t_partial)
        if level > stop_level:
            contrib = gather_multiply_rows(
                t_partial,
                np.asarray(level_factors[level]),
                csf.idx[level],
                window.lo,
                window.hi,
            )
            lo, hi = window.lo, window.hi
    return out


def expand_rows(
    csf: CsfTensor,
    rows: np.ndarray,
    level: int,
    window: LevelSlice,
    child_window: LevelSlice,
) -> np.ndarray:
    """Repeat per-node ``rows`` at ``level`` once per owned child
    (:func:`child_counts`), so boundary nodes only expand over the
    children this thread owns."""
    return repeat_rows(rows, child_counts(csf, level, window, child_window))


def thread_downward_k(
    csf: CsfTensor,
    level_factors: Sequence[np.ndarray],
    level: int,
    lo: int,
    hi: int,
    *,
    multiply_last: bool = False,
    windows: Optional[List[LevelSlice]] = None,
) -> np.ndarray:
    """One thread's ``k`` rows aligned with the half-open node range
    ``[lo, hi)`` at ``level``.

    With the default ``multiply_last=False`` this is the ``k_{level-1}``
    vector of Algorithm 5 *expanded to level-``level`` positions*: the
    row-wise KRP of the factor matrices of levels ``0..level-1`` along
    each node's ancestor path — exactly the left operand of the mode-``u``
    update ``Ā^(u)[idx] += k_{u-1} ⊙ t_u``.  Pass ``multiply_last=True``
    to also fold in level ``level``'s own factor rows (full ``k_level``).

    The sweep starts at the root window (the ancestors of the owned
    range) and expands down: at each level the per-node ``k`` row is
    repeated once per owned child (:func:`expand_rows`) and multiplied by
    the child's factor row.  Returns ``(hi - lo, R)`` rows.
    """
    rank = np.asarray(level_factors[0]).shape[1]
    if hi <= lo:
        return np.zeros((0, rank))
    if windows is None:
        windows = ancestor_windows(csf, level, lo, hi)
    w0 = windows[0]
    k = take_factor_rows(np.asarray(level_factors[0]), csf.idx[0], w0.lo, w0.hi)
    if level == 0:
        return k if multiply_last else np.ones((hi - lo, rank))
    for i in range(level):
        w, w_child = windows[i], windows[i + 1]
        k = expand_rows(csf, k, i, w, w_child)
        if i + 1 < level or multiply_last:
            k = gather_multiply_rows(
                k,
                np.asarray(level_factors[i + 1]),
                csf.idx[i + 1],
                w_child.lo,
                w_child.hi,
            )
    return k


def serial_upward_sweep(
    csf: CsfTensor,
    level_factors: Sequence[np.ndarray],
    *,
    stop_level: int = 0,
    start_level: Optional[int] = None,
    init: Optional[np.ndarray] = None,
    counter: TrafficCounter = NULL_COUNTER,
) -> Dict[int, np.ndarray]:
    """Single-threaded full sweep: complete ``t`` arrays per level.

    A thin wrapper over :func:`thread_upward_sweep` with one thread owning
    everything — used by tests and by the serial reference path.  Pass a
    ``counter`` to charge the same structure/sweep legs the threaded path
    charges (:func:`repro.core.mttkrp.charge_sweep` with one thread
    owning every node); the default ``NULL_COUNTER`` discards them.
    """
    d = csf.ndim
    if start_level is None:
        start_level = d - 1
    rank = int(np.asarray(level_factors[0]).shape[1])
    owned = np.zeros(d, dtype=np.int64)
    for level in range(stop_level, start_level + 1):
        owned[level] = csf.nnz if level == d - 1 else csf.fiber_counts[level]
    counter.read(2.0 * int(owned.sum()), "structure")
    counter.flop(2.0 * rank * int(owned[1:].sum()), "sweep")
    n_children = csf.nnz if start_level == d - 1 else csf.fiber_counts[start_level]
    parts = thread_upward_sweep(
        csf,
        level_factors,
        0,
        n_children,
        start_level=start_level,
        init=init,
        stop_level=stop_level,
    )
    return {level: t for level, (lo, t) in parts.items()}
