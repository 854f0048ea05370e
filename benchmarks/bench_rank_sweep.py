"""Extension: rank sweep of the memoization decision.

The paper evaluates only R ∈ {32, 64}; the model's inputs scale
differently with R (memo traffic ∝ R, structure traffic constant,
cache-residency boundaries move), so the *decision* can flip with rank.
This bench sweeps R ∈ {8..128} on three decision-sensitive tensors and
records the chosen configuration and its predicted traffic per non-zero —
the decision-boundary picture Table II only samples twice.
"""

from common import bench_tensor, emit
from repro.analysis.experiments import scale_for_tensor
from repro.core import plan_decomposition
from repro.parallel import INTEL_CLX_18
from repro.tensor import CsfTensor

RANKS = (8, 16, 32, 64, 128)
TENSORS = ("uber", "vast-2015-mc1-3d", "delicious-4d")


def test_rank_sweep(benchmark):
    def run():
        rows = {}
        for name in TENSORS:
            t = bench_tensor(name, nnz=8000)
            machine = INTEL_CLX_18.with_cache_scale(scale_for_tensor(t, name))
            csf = CsfTensor.from_coo(t)
            per_rank = {}
            for rank in RANKS:
                decision = plan_decomposition(csf, rank, machine)
                per_rank[rank] = (
                    decision.plan.save_levels,
                    decision.swap_last_two,
                    decision.best.predicted_traffic / t.nnz,
                )
            rows[name] = per_rank
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Rank sweep of the model-chosen configuration (Intel, scaled cache)"]
    for name, per_rank in rows.items():
        lines.append(f"\n{name}:")
        for rank, (save, swap, tpn) in per_rank.items():
            lines.append(
                f"  R={rank:4d}  save={list(save)!s:10} "
                f"swap={'yes' if swap else 'no ':3}  "
                f"traffic/nnz={tpn:8.1f}"
            )
    emit("rank_sweep.txt", "\n".join(lines))

    # Traffic per nnz grows with R for every tensor (more columns moved).
    for name, per_rank in rows.items():
        costs = [per_rank[r][2] for r in RANKS]
        assert all(a < b for a, b in zip(costs, costs[1:])), name
    # uber never memoizes its big partial, at any rank (Section IV-A).
    d_uber = 4
    for rank in RANKS:
        assert (d_uber - 2) not in rows["uber"][rank][0]
