"""Structural validators for the sparse tensor formats.

Every format in :mod:`repro.tensor` has internal invariants that, when
broken (bad construction, corrupted I/O, buggy transformations), produce
silently wrong MTTKRP results rather than crashes.  These validators make
the invariants explicit and checkable; the test suite uses them for
failure-injection coverage (mutate a structure, assert detection).

Each ``validate_*`` function returns a list of human-readable problem
strings (empty = valid) and has a raising wrapper ``check_*``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .alto import AltoTensor
from .coo import CooTensor, nonfinite_values
from .csf import CsfTensor
from .hicoo import HicooTensor

__all__ = [
    "ValidationError",
    "validate_coo",
    "validate_csf",
    "validate_alto",
    "validate_hicoo",
    "check_coo",
    "check_csf",
    "check_alto",
    "check_hicoo",
]


class ValidationError(ValueError):
    """A sparse structure violates its format invariants."""


def validate_coo(t: CooTensor) -> List[str]:
    """COO invariants: shapes agree, values finite, indices in range,
    canonical order."""
    problems: List[str] = []
    if t.indices.ndim != 2 or t.indices.shape[0] != len(t.shape):
        problems.append(
            f"indices shape {t.indices.shape} does not match ndim {len(t.shape)}"
        )
        return problems
    if t.values.shape != (t.indices.shape[1],):
        problems.append(
            f"values shape {t.values.shape} does not match nnz "
            f"{t.indices.shape[1]}"
        )
    nonfinite = nonfinite_values(t.values)
    if nonfinite is not None:
        problems.append(nonfinite)
    for m, n in enumerate(t.shape):
        if t.nnz and (t.indices[m].min() < 0 or t.indices[m].max() >= n):
            problems.append(f"mode {m} indices out of [0, {n})")
    if t.nnz > 1:
        keys = t.indices[::-1]
        order = np.lexsort(keys)
        if not np.array_equal(order, np.arange(t.nnz)):
            problems.append("entries are not sorted lexicographically")
        else:
            dup = np.all(t.indices[:, 1:] == t.indices[:, :-1], axis=0)
            if dup.any():
                problems.append("duplicate coordinates present")
    return problems


def validate_csf(t: CsfTensor) -> List[str]:
    """CSF invariants: permutation order, ptr coverage/monotonicity,
    idx ranges, per-node child ordering, leaf/value alignment."""
    problems: List[str] = []
    d = t.ndim
    if sorted(t.mode_order) != list(range(d)):
        problems.append(f"mode_order {t.mode_order} is not a permutation")
    if len(t.idx) != d or len(t.ptr) != d - 1:
        problems.append("idx/ptr level count mismatch")
        return problems
    if t.values.shape[0] != t.idx[d - 1].shape[0]:
        problems.append("values not aligned with leaf level")
    for lvl in range(d):
        n = t.level_shape(lvl)
        if t.idx[lvl].size and (
            t.idx[lvl].min() < 0 or t.idx[lvl].max() >= n
        ):
            problems.append(f"level {lvl} indices out of [0, {n})")
    for lvl in range(d - 1):
        ptr = t.ptr[lvl]
        if ptr.shape[0] != t.idx[lvl].shape[0] + 1:
            problems.append(f"ptr[{lvl}] has wrong length")
            continue
        if ptr.size and ptr[0] != 0:
            problems.append(f"ptr[{lvl}][0] != 0")
        if ptr.size and ptr[-1] != t.idx[lvl + 1].shape[0]:
            problems.append(f"ptr[{lvl}] does not cover level {lvl + 1}")
        if np.any(np.diff(ptr) < 1):
            problems.append(f"ptr[{lvl}] not strictly increasing (empty node)")
        # Children of each node must have strictly increasing indices.
        child = t.idx[lvl + 1]
        if child.size:
            inner = np.ones(child.shape[0], dtype=bool)
            inner[ptr[1:-1]] = False  # boundaries between nodes exempt
            bad = (np.diff(child) <= 0) & inner[1:]
            if bad.any():
                problems.append(
                    f"level {lvl + 1} child indices not sorted within a node"
                )
    if t.nnz and t.idx[0].size > 1 and np.any(np.diff(t.idx[0]) <= 0):
        problems.append("root indices not strictly increasing")
    return problems


def validate_alto(t: AltoTensor) -> List[str]:
    """ALTO invariants: sorted linear ids, value alignment, decodable."""
    problems: List[str] = []
    if t.values.shape[0] != t.linear.shape[0]:
        problems.append("values not aligned with linear ids")
    if t.nnz > 1:
        lin = t.linear
        if t.linear.dtype == object:
            ok = all(lin[i] <= lin[i + 1] for i in range(len(lin) - 1))
        else:
            ok = bool(np.all(lin[:-1] <= lin[1:]))
        if not ok:
            problems.append("linear ids not sorted")
    for m, n in enumerate(t.shape):
        coords = t.mode_indices(m)
        if coords.size and (coords.min() < 0 or coords.max() >= n):
            problems.append(f"decoded mode {m} coordinates out of [0, {n})")
    return problems


def validate_hicoo(t: HicooTensor) -> List[str]:
    """HiCOO invariants: ptr coverage, offsets within block width,
    block coordinates within blocked extent."""
    problems: List[str] = []
    if t.block_ptr[0] != 0 or t.block_ptr[-1] != t.nnz:
        problems.append("block_ptr does not cover the non-zeros")
    if np.any(np.diff(t.block_ptr) < 1):
        problems.append("empty block present")
    width = 1 << t.block_bits
    if t.offsets.size and t.offsets.max() >= width:
        problems.append(f"offsets exceed block width {width}")
    for m, n in enumerate(t.shape):
        max_block = (n - 1) >> t.block_bits
        if t.block_coords[m].size and (
            t.block_coords[m].min() < 0 or t.block_coords[m].max() > max_block
        ):
            problems.append(f"mode {m} block coordinates out of range")
    return problems


def _raise_if(problems: List[str], kind: str) -> None:
    if problems:
        raise ValidationError(f"invalid {kind}: " + "; ".join(problems))


def check_coo(t: CooTensor) -> None:
    """Raise :class:`ValidationError` when COO invariants are violated."""
    _raise_if(validate_coo(t), "CooTensor")


def check_csf(t: CsfTensor) -> None:
    """Raise :class:`ValidationError` when CSF invariants are violated."""
    _raise_if(validate_csf(t), "CsfTensor")


def check_alto(t: AltoTensor) -> None:
    """Raise :class:`ValidationError` when ALTO invariants are violated."""
    _raise_if(validate_alto(t), "AltoTensor")


def check_hicoo(t: HicooTensor) -> None:
    """Raise :class:`ValidationError` when HiCOO invariants are violated."""
    _raise_if(validate_hicoo(t), "HicooTensor")
