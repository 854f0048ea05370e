"""Counted traffic pinned kernel by kernel, category by category.

The other traffic checks compare the program with itself: backend with
backend, span deltas with totals.  A charge deleted from a kernel, or a
wrong factor in one, passes all of them.  For ``stef`` these tests
derive every kernel's reads, writes and flops per category by their own
arithmetic (Section IV-C), from

* the CSF's fiber counts ``m_i`` and level shapes ``I_i``;
* the rank ``R`` and the thread count ``T``;
* the plan's source level for each mode;
* the DM_factor cache rule: ``x`` row accesses to an ``N×R`` factor cost
  ``min(N·R, x·R)`` when ``N·R`` fits the cache ``C``, else ``x·R``,

and compare them exactly with what ``stef`` counts.  No expected value
comes from the program's own charge helpers.  The other eight engines
have no closed form here; their counts on the same inputs are pinned to
a snapshot recorded from their kernels (``traffic_snapshot.json``).
"""

import json
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.baselines.taco import CHUNK_GRID
from repro.core import MemoPlan
from repro.engines import create_engine, engine_names
from repro.parallel.counters import TrafficCounter
from repro.tensor import random_tensor
from tests.conftest import make_factors

RANK = 4
THREADS = 3
#: Effective operations per scattered element update (the model's
#: constant for an irregular read-modify-write).
SCATTER_FLOPS = 8
#: Large enough to hold every factor and every output of these tensors.
FACTOR_CACHE = 1_000_000

TENSORS = {
    "3d": dict(shape=(11, 8, 6), nnz=120, seed=1),
    "4d": dict(shape=(9, 7, 6, 5), nnz=200, seed=2),
}
#: Memo-direct, recompute-from-memo and recompute-from-tensor kernels,
#: with scatters that take the atomic and the privatized branch.
CASES = [
    ("3d", ()),
    ("3d", (1,)),
    ("4d", ()),
    ("4d", (1,)),
    ("4d", (2,)),
]


def dm_factor(accesses: int, n_rows: int, cache: Optional[int]) -> int:
    """Elements charged for ``accesses`` row reads of an ``n_rows × R``
    factor under the DM_factor rule."""
    footprint, stream = n_rows * RANK, accesses * RANK
    if cache is not None and footprint <= cache:
        return min(footprint, stream)
    return stream


def scatter(accesses: int, n_rows: int, cache: Optional[int]) -> Dict[str, int]:
    """The conflicted ``Ā^(u)[idx] += ...`` into an ``n_rows × R`` output:
    atomic read-modify-writes or ``T`` privatized copies, whichever moves
    fewer elements, plus its irregular-update arithmetic."""
    footprint, stream = n_rows * RANK, accesses * RANK
    rmw = min(footprint, stream) if cache is not None and footprint <= cache else stream
    if footprint + rmw <= (2 * THREADS + 1) * footprint:
        moved = {"w:output": footprint, "r:output": rmw}
    else:
        moved = {
            "w:output": (THREADS + 1) * footprint,
            "r:output": THREADS * footprint,
        }
    return {**moved, "f:scatter": SCATTER_FLOPS * stream}


def expected_mode0(m, shape, saved, cache) -> Dict[str, int]:
    """The upward sweep: two structure reads per node of every level, a
    multiply-add per rank column for every child, the factor gathers of
    every level below the root, the dense output and each saved P^(s)
    with its T boundary rows (written, and read by write-allocate)."""
    d = len(m)
    memo = sum((m[s] + THREADS) * RANK for s in saved)
    return {
        "r:structure": 2 * sum(m),
        "f:sweep": 2 * RANK * sum(m[1:]),
        "r:factor": sum(dm_factor(m[j], shape[j], cache) for j in range(1, d)),
        "w:output": shape[0] * RANK,
        "w:memo": memo,
        "r:memo-allocate": memo,
    }


def expected_mode_u(m, shape, u, source, cache) -> Dict[str, int]:
    """A mode-``u`` kernel fed by level ``source`` (``d-1``: the tensor).

    The downward ``k`` costs a multiply per rank column on levels
    ``1..u``; rebuilding ``t_u`` costs a multiply-add per rank column on
    levels ``u+1..source``; the Hadamard with ``t_u`` a multiply-add per
    node of level ``u``.  From the tensor the walk reads the structure of
    every level and gathers every factor but ``u``'s; from a saved
    ``P^(source)`` it reads the structure above ``source``, the memo
    rows, and the factors above ``source`` but ``u``'s.
    """
    d = len(m)
    counts = {
        "f:mode-u": RANK * sum(m[1 : u + 1])
        + 2 * RANK * sum(m[u + 1 : source + 1])
        + 2 * RANK * m[u],
    }
    if source == d - 1:
        counts["r:structure"] = 2 * sum(m)
        factors = [j for j in range(d) if j != u]
    else:
        counts["r:structure"] = 2 * sum(m[:source])
        counts["r:memo"] = m[source] * RANK
        factors = [j for j in range(source) if j != u]
    counts["r:factor"] = sum(dm_factor(m[j], shape[j], cache) for j in factors)
    for key, val in scatter(m[u], shape[u], cache).items():
        counts[key] = counts.get(key, 0) + val
    return counts


def expected_kernels(engine, plan: MemoPlan, cache) -> List[Dict[str, int]]:
    csf = engine.csf
    d = csf.ndim
    m = [int(c) for c in csf.fiber_counts]
    shape = [csf.level_shape(j) for j in range(d)]
    kernels = [expected_mode0(m, shape, plan.save_levels, cache)]
    for u in range(1, d):
        source = plan.source_level(u, d) if u < d - 1 else d - 1
        kernels.append(expected_mode_u(m, shape, u, source, cache))
    return [{k: v for k, v in counts.items() if v} for counts in kernels]


def split(counts: Dict[str, float]) -> Dict[str, float]:
    """Total reads, writes and flops of a per-category tally."""
    totals = {"reads": 0.0, "writes": 0.0, "flops": 0.0}
    names = {"r": "reads", "w": "writes", "f": "flops"}
    for key, val in counts.items():
        totals[names[key[0]]] += val
    return totals


def count_kernels(engine, counter: TrafficCounter, factors) -> List[Dict[str, float]]:
    """Each kernel's counts, level by level: the ``counter.by_category``
    delta around one ``mttkrp_level`` call.  The counter's reads, writes
    and flops must move by exactly the delta's totals."""
    kernels = []
    for level in range(len(engine.mode_order)):
        before = dict(counter.by_category)
        totals = (counter.reads, counter.writes, counter.flops)
        engine.mttkrp_level(factors, level)
        got = {
            key: val - before.get(key, 0.0)
            for key, val in counter.by_category.items()
            if val != before.get(key, 0.0)
        }
        moved = {
            "reads": counter.reads - totals[0],
            "writes": counter.writes - totals[1],
            "flops": counter.flops - totals[2],
        }
        assert moved == split(got), f"level {level}"
        kernels.append(got)
    return kernels


@pytest.mark.parametrize("cache", [None, FACTOR_CACHE], ids=["no-cache", "cache"])
@pytest.mark.parametrize("tensor_name,saved", CASES)
def test_stef_kernels_count_their_closed_forms(tensor_name, saved, cache):
    tensor = random_tensor(**TENSORS[tensor_name])
    plan = MemoPlan(saved)
    counter = TrafficCounter(cache_elements=cache)
    with create_engine(
        "stef", tensor, RANK, num_threads=THREADS, plan=plan,
        swap_last_two=False, counter=counter,
    ) as engine:
        factors = make_factors(tensor.shape, RANK, seed=5)
        expected = expected_kernels(engine, plan, cache)
        got = count_kernels(engine, counter, factors)
    for level, want in enumerate(expected):
        assert got[level] == want, f"level {level}"


# ----------------------------------------------------------------------
# The engines without a closed form, pinned to a recorded snapshot
# ----------------------------------------------------------------------
#: Per-kernel counts of every other engine on ``TENSORS`` at rank
#: ``RANK``, ``THREADS`` threads and factor seed 5, without and with a
#: factor cache: ``engine -> tensor -> cache id -> [kernel counts by
#: level]``.  Nothing rewrites this file; a deliberate change to an
#: engine's counted traffic is an edit to it, made by hand and reviewed.
SNAPSHOT = json.loads(Path(__file__).with_name("traffic_snapshot.json").read_text())
CACHES = {"no-cache": None, "cache": FACTOR_CACHE}


def engine_kernels(
    method, tensor_name, cache_id, chunk=None, **opts
) -> List[Dict[str, float]]:
    """``method``'s kernel counts on one snapshot input; ``chunk`` fixes
    taco's chunk size after construction."""
    tensor = random_tensor(**TENSORS[tensor_name])
    counter = TrafficCounter(cache_elements=CACHES[cache_id])
    with create_engine(
        method, tensor, RANK, num_threads=THREADS, counter=counter, **opts
    ) as engine:
        if chunk is not None:
            engine.chunk_slices = chunk
        return count_kernels(engine, counter, make_factors(tensor.shape, RANK, seed=5))


@pytest.mark.parametrize("cache_id", CACHES)
@pytest.mark.parametrize("tensor_name", TENSORS)
@pytest.mark.parametrize("method", sorted(SNAPSHOT))
def test_engine_kernels_match_their_snapshot(method, tensor_name, cache_id):
    got = engine_kernels(method, tensor_name, cache_id)
    want = SNAPSHOT[method][tensor_name][cache_id]
    assert got == want, f"observed {got}"


def test_snapshot_covers_every_other_engine():
    assert sorted(SNAPSHOT) == sorted(set(engine_names()) - {"stef"})


@pytest.mark.parametrize("cache_id", CACHES)
@pytest.mark.parametrize("tensor_name", TENSORS)
def test_taco_counts_do_not_depend_on_the_chunk_size(tensor_name, cache_id):
    """taco's tuner picks a chunk size by wall time, so the snapshot
    holds only if every size it can pick counts the same."""
    want = SNAPSHOT["taco"][tensor_name][cache_id]
    for chunk in CHUNK_GRID:
        got = engine_kernels("taco", tensor_name, cache_id, chunk, autotune=False)
        assert got == want, f"chunk {chunk}: observed {got}"
