"""Extension: the comparison the paper could not run.

Section V: Kaya & Uçar's dimension-tree approach (HyperTensor) "has not
yet been released to open-source, making an empirical comparison
impossible for this work."  With the BDT policy reimplemented
(:mod:`repro.baselines.dimtree`), this bench runs that comparison on the
simulated channel: dimtree vs AdaTM (the other memoizing baseline), the
SPLATT family, and STeF, across the 4-D/5-D tensors where the tree
actually has internal nodes to reuse.
"""

from common import bench_suite, emit
from repro.analysis import format_table, relative_performance, run_comparison
from repro.parallel import INTEL_CLX_18

METHODS = ("stef", "dimtree", "adatm", "splatt-1", "splatt-all")
TENSORS = (
    "chicago-crime-comm",
    "chicago-crime-geo",
    "delicious-4d",
    "enron",
    "flickr-4d",
    "lbln-network",
    "nips",
    "uber",
    "vast-2015-mc1-5d",
)


def test_dimtree_comparison(benchmark):
    tensors = {k: v for k, v in bench_suite(TENSORS).items()}
    grid = benchmark.pedantic(
        run_comparison,
        args=(tensors,),
        kwargs=dict(
            rank=32, machine=INTEL_CLX_18, methods=METHODS, num_threads=18
        ),
        rounds=1,
        iterations=1,
    )
    rel = relative_performance(grid)
    table = format_table(
        rel,
        list(METHODS),
        title=(
            "Dimension-tree (BDT) vs memoizing baselines — the Section V "
            "comparison HyperTensor's closed source prevented "
            "(Intel, R=32, simulated channel, relative to splatt-all)"
        ),
    )
    emit("dimtree_comparison.txt", table)

    # Shape expectations: the tree's reuse beats recompute-everything
    # splatt-1 on 4-D+ tensors on average, while STeF's model-driven
    # selection and fine-grained balancing keep it ahead overall.
    from repro.analysis import geomean_speedups

    sp = geomean_speedups(rel, "dimtree", ["splatt-1", "stef"])
    assert sp["splatt-1"] > 1.0
    assert sp["stef"] < 1.0
