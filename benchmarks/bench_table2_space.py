"""Table II — space requirement for the memoized partial MTTKRP results.

For every tensor and R ∈ {32, 64}: the bytes of the partial results the
model chooses to save, the bytes of the CSF structure plus factor
matrices, and their ratio.  The paper's averages are 0.35 (R=32) and 0.45
(R=64) with a 2.34 maximum (delicious-4d) and 0.00 rows where the model
declines to memoize (freebase, vast-5d).
"""

from common import bench_suite, emit
from repro.analysis import format_table
from repro.core import Stef
from repro.cpd import random_init
from repro.parallel import INTEL_CLX_18


def _space_row(tensor, name, rank):
    from repro.analysis.experiments import scale_for_tensor

    machine = INTEL_CLX_18.with_cache_scale(scale_for_tensor(tensor, name))
    stef = Stef(tensor, rank, machine=machine, num_threads=8)
    stef.mttkrp_level(random_init(tensor.shape, rank, 0), 0)
    memo_gb = stef.memo_bytes()
    base_gb = stef.csf.total_bytes() + sum(n * rank * 8 for n in tensor.shape)
    return memo_gb, base_gb


def test_table2_space(benchmark):
    tensors = bench_suite()
    rows = {}

    def run():
        for name, tensor in tensors.items():
            row = {}
            for rank in (32, 64):
                memo, base = _space_row(tensor, name, rank)
                row[f"memo MB R{rank}"] = memo / 1e6
                row[f"base MB R{rank}"] = base / 1e6
                row[f"ratio R{rank}"] = memo / base
            rows[name] = row
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    cols = [
        "memo MB R32", "base MB R32", "ratio R32",
        "memo MB R64", "base MB R64", "ratio R64",
    ]
    table = format_table(
        rows, cols,
        title="Table II — space for stored partial MTTKRP results (scaled)",
        fmt="{:8.3f}",
        col_width=13,
    )
    avg32 = sum(r["ratio R32"] for r in rows.values()) / len(rows)
    avg64 = sum(r["ratio R64"] for r in rows.values()) / len(rows)
    mx = max(max(r["ratio R32"], r["ratio R64"]) for r in rows.values())
    summary = (
        f"average ratio: R=32 {avg32:.2f}  R=64 {avg64:.2f}  max {mx:.2f}\n"
        f"(paper: 0.35 / 0.45 / 2.34)"
    )
    emit("table2_space.txt", table + "\n\n" + summary)

    # Shape assertion mirrored from the paper: for a fixed memoization
    # plan the ratio grows with R (CSF bytes are R-independent).  The
    # model may switch plans between ranks (it does for vast-2015 at this
    # scale), so the check applies per-tensor where the saved set is
    # non-empty at both ranks.
    for name, row in rows.items():
        if row["memo MB R32"] > 0 and row["memo MB R64"] > 0:
            assert row["ratio R64"] >= row["ratio R32"] * 0.99, name
