"""Section IV-A motivation numbers — uber vs vast-2015-mc1-3d.

The paper motivates the data-movement model with two counted examples:

* **uber**: saving all intermediates costs 62M reads / 22M writes, while
  not saving the biggest partial costs 24M reads / 238K writes — *not*
  saving wins;
* **vast-2015-mc1-3d**: saving costs 1.7B reads / 833M writes vs 2.6B /
  833M without — saving wins.

This bench regenerates the comparison on the scaled instances: for each
tensor, model-predicted and counted reads/writes under "save-all" vs
"save-none", and which choice the model makes.  Absolute counts differ
(scaled tensors); the *winner flip* between the two tensors is the
reproduced result.
"""

from common import bench_tensor, emit
from repro.core import (
    DataMovementModel,
    SAVE_ALL,
    SAVE_NONE,
    TensorStats,
    plan_decomposition,
)
from repro.parallel import INTEL_CLX_18
from repro.tensor import CsfTensor


def _motivation_rows(name, rank=32):
    tensor = bench_tensor(name, nnz=8000)
    csf = CsfTensor.from_coo(tensor)
    stats = TensorStats.from_csf(csf)
    model = DataMovementModel(stats, rank, INTEL_CLX_18)
    rows = {}
    for label, plan in (
        ("save-all", SAVE_ALL(tensor.ndim)),
        ("save-none", SAVE_NONE),
    ):
        bd = model.breakdown(plan)
        rows[label] = (bd.total_reads, bd.total_writes, bd.total)
    decision = plan_decomposition(csf, rank, INTEL_CLX_18, consider_swap=False)
    return rows, decision.plan


def test_section4_motivation(benchmark):
    out = benchmark.pedantic(
        lambda: {n: _motivation_rows(n) for n in ("uber", "vast-2015-mc1-3d")},
        rounds=1,
        iterations=1,
    )
    lines = ["Section IV-A — memoization win/lose motivation (model, R=32)"]
    for name, (rows, chosen) in out.items():
        lines.append(f"\n{name}: model chooses save={list(chosen.save_levels)}")
        for label, (r, w, t) in rows.items():
            lines.append(
                f"  {label:10} reads {r:12.0f}  writes {w:12.0f}  total {t:12.0f}"
            )
    emit("section4_motivation.txt", "\n".join(lines))

    # The reproduced claim: saving-all LOSES on uber and WINS on vast.
    uber_rows, _ = out["uber"]
    vast_rows, _ = out["vast-2015-mc1-3d"]
    assert uber_rows["save-all"][2] > uber_rows["save-none"][2]
    assert vast_rows["save-all"][2] < vast_rows["save-none"][2]
