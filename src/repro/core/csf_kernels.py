"""Vectorized CSF sweep primitives over execution blocks.

Algorithms 4-8 of the paper are recursive pointer-chasing loops over the
CSF tree.  A pure-Python transcription would spend all its time in the
interpreter, so this module re-expresses each loop as a *level-by-level
vectorized sweep* — identical arithmetic, identical access pattern, one
NumPy call per tree level instead of one Python iteration per node:

* **upward sweep** (:func:`block_upward_sweep`) — the TTM + chain of
  mTTV contractions that produce the partial results ``t_i`` /
  ``P^(i)``.  The TTM is one product of the leaf factor with the leaf
  TTM operator, whose ``data`` are the tensor values and whose columns
  are the leaf indices; above it, per level, one gather-multiply by
  factor rows and one segmented sum — a product with a segment operator.
* **downward sweep** (:func:`block_downward_k`) — the ``k_i`` rows of
  Algorithm 5 (row-wise KRP of ``A^(0..i)`` along each tree path): per
  level, one ``np.repeat`` expansion by child counts and one gather-
  multiply.  Nothing expands to the leaves: the leaf-mode kernel stops
  at ``k_{d-2}`` and its scatter operator weights by the values.
* **scatter** (:func:`scatter_add_rows`) — the ``Ā^(u)[idx] += ...``
  accumulation (gathered writes with duplicate indices): one product
  with a scatter operator whose stable sort by target row was done when
  the operator was built.

Thread decomposition follows Algorithm 3: each simulated thread owns a
*half-open position range* and its sweep clips segment boundaries to it.
Boundary tree nodes are therefore computed *partially* by each adjacent
thread; because every contraction is linear in ``t``, partial
contributions merge correctly at any level (this is exactly the property
STeF's boundary-replication scheme exploits).  An *execution block* runs
consecutive threads as one task: its rows at each level are its threads'
window rows laid end to end, and its operators are theirs along the
diagonal, so every thread's rows carry the bits of a one-range plan of
its own.

The index work of a block's sweeps — gather indices, ``np.repeat``
counts and the reduction operators — depends only on the CSF and the
threads' ranges, so engines build it once (:func:`block_plan`) and pass
it to every call.  The inner loops themselves — gathers, multiplies,
expansions and the sparse products — are the flat-array kernel ABI
(:mod:`repro.kernels`), called here by name.  Nothing here charges
traffic: the engines charge each kernel once, from the tensor's level
counts.
"""

from __future__ import annotations

from typing import Any, Container, Dict, List, Mapping, NamedTuple, Optional, Sequence

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
from ..tensor.csf import CsfTensor

__all__ = [
    "scatter_add_rows",
    "LevelSlice",
    "ancestor_windows",
    "child_counts",
    "block_plan",
    "block_upward_sweep",
    "block_downward_k",
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


class LevelSlice(NamedTuple):
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
    out[level] = LevelSlice(lo, hi)
    a, b = lo, hi - 1
    for i in range(level - 1, -1, -1):
        a = parent_of(csf.ptr[i], a)
        b = parent_of(csf.ptr[i], b)
        out[i] = LevelSlice(a, b + 1)
    return out


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


def block_plan(
    csf: CsfTensor,
    windows: Sequence[Sequence[LevelSlice]],
    *,
    stop_level: int,
    basis: Optional[OperatorBasis] = None,
) -> Dict[str, Any]:
    """The sweep plan of one execution block: consecutive threads whose
    owned position ranges at level ``r`` have the ancestor windows
    ``windows`` (one :func:`ancestor_windows` list per thread, levels
    ``0..r``).

    The block's rows at each level are its threads' window rows laid end
    to end, so its plan is their index work stacked:

    * ``gather[i]`` (``i < r``, and ``i = r`` below the leaves) — the
      factor rows that multiply the block's rows at level ``i``;
    * ``counts[i]`` (``i < r``) — each row's children among the rows at
      level ``i + 1``: the ``np.repeat`` counts of a downward sweep;
    * ``ops[i]`` (``stop_level <= i < r``) — the upward sweep's sum of the
      rows at ``i + 1`` into those at ``i``: the threads' segment
      operators along the diagonal, which is one segment operator over
      ``basis``; at level ``d-2`` of a sweep from the leaves, the leaf TTM
      operator (:func:`repro.kernels.leaf_ttm_operator`) of the block's
      leaves, whose ``data`` view their values;
    * ``lo``/``hi`` — the block's positions at ``r``, which its threads'
      ranges tile.

    Row for row, each thread's rows come from the same operands in the
    same order as its own sweep's, so they carry the same bits.
    """
    d, r = csf.ndim, len(windows[0]) - 1
    gather = [
        np.concatenate([csf.idx[i][w[i].lo : w[i].hi] for w in windows]).astype(
            INDEX_DTYPE
        )
        for i in range(r if r == d - 1 else r + 1)
    ]
    counts = [
        np.concatenate([child_counts(csf, i, w[i], w[i + 1]) for w in windows]).astype(
            INDEX_DTYPE
        )
        for i in range(r)
    ]
    lo, hi = windows[0][r].lo, windows[-1][r].hi
    ops: Dict[int, csr_array] = {}
    for i in range(stop_level, r):
        bounds = np.zeros(counts[i].shape[0] + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts[i], out=bounds[1:])
        if i + 1 < d - 1:
            ops[i] = segment_operator(bounds, basis)
        else:
            ops[i] = leaf_ttm_operator(
                bounds, csf.values[lo:hi], csf.idx[r][lo:hi], csf.level_shape(r)
            )
    return {"lo": lo, "hi": hi, "gather": gather, "counts": counts, "ops": ops}


def block_upward_sweep(
    plan: Mapping[str, Any],
    level_factors: Sequence[np.ndarray],
    *,
    start_level: int,
    stop_level: int,
    init: Optional[np.ndarray] = None,
    keep: Container[int] = (),
) -> Dict[int, np.ndarray]:
    """An execution block's share of the TTM/mTTV chain, over its
    :func:`block_plan`.

    From the leaves (``init`` omitted) the leaf TTM operator gathers the
    leaf factor's rows and weights them by the values; resuming from a
    memoized ``P^(start_level)`` (the full array as ``init``), the
    block's rows of it times the level's factor rows seed the sweep.
    Each level's ``t`` is ``ops[level] @ rows``, every thread's partial
    sums stacked, and times the level's factor rows it feeds the next
    level up.  Returns ``t`` at the ``keep`` levels down to
    ``stop_level``; the other levels' rows are freed as the sweep moves
    up.  ``t`` at a level has one row per node of the plan's windows
    there: a one-range plan's is the range's ancestor window.
    """
    if init is None:
        if start_level != len(level_factors) - 1:
            raise ValueError("resuming from a memoized level requires init")
        rows = level_factors[start_level]
    else:
        g = plan["gather"][start_level]
        seed = init[plan["lo"] : plan["hi"]]
        rows = gather_multiply_rows(seed, level_factors[start_level], g, 0, g.shape[0])
    out: Dict[int, np.ndarray] = {}
    for level in range(start_level - 1, stop_level - 1, -1):
        t = segment_reduce_rows(rows, plan["ops"][level])
        # Summed rows are spent: drop them before the level's own rows
        # are multiplied, so at most two levels' rows are ever alive.
        rows = None
        if level in keep:
            out[level] = t
        if level > stop_level:
            g = plan["gather"][level]
            rows = gather_multiply_rows(t, level_factors[level], g, 0, g.shape[0])
        t = None
    return out


def block_downward_k(
    plan: Mapping[str, Any],
    level_factors: Sequence[np.ndarray],
    level: int,
    *,
    multiply_last: bool = False,
) -> np.ndarray:
    """An execution block's ``k`` rows at ``level``, over its
    :func:`block_plan`.

    With the default ``multiply_last=False`` these are Algorithm 5's
    ``k_{level-1}`` *expanded to the block's level-``level`` rows*: the
    row-wise KRP of the factor matrices of levels ``0..level-1`` along
    each node's ancestor path — the left operand of the mode-``u`` update
    ``Ā^(u)[idx] += k_{u-1} ⊙ t_u``.  ``multiply_last=True`` also folds in
    level ``level``'s own factor rows (full ``k_level``).

    The sweep starts from the block's root rows and expands down: at each
    level every row is repeated once per child it owns (the plan's
    counts) and multiplied by the child's factor row.
    """
    gather, counts = plan["gather"], plan["counts"]
    if level == 0 and not multiply_last:
        return np.ones((gather[0].shape[0], level_factors[0].shape[1]))
    k = take_factor_rows(level_factors[0], gather[0], 0, gather[0].shape[0])
    for i in range(level):
        k = repeat_rows(k, counts[i])
        if i + 1 < level or multiply_last:
            g = gather[i + 1]
            k = gather_multiply_rows(k, level_factors[i + 1], g, 0, g.shape[0])
    return k
