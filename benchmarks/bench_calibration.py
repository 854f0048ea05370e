"""Extension: calibrate the roofline model against this host's kernels.

Fits the two machine constants (effective bandwidth, effective compute
throughput) to the observed wall-clock of the NumPy kernels and reports
how well the two-resource model explains them.  On this Python substrate
the constants describe the interpreter+NumPy "machine"; the median
relative error quantifies how faithfully the simulated channel's *shape*
carries over to local wall-clock.
"""

from common import bench_tensor, emit
from repro.analysis import collect_samples, fit_roofline
from repro.parallel import INTEL_CLX_18

TENSORS = ("uber", "nell-2", "flickr-4d", "vast-2015-mc1-3d")


def test_calibrate_local_machine(benchmark):
    tensors = [(name, bench_tensor(name, nnz=8000)) for name in TENSORS]

    def run():
        samples = collect_samples(
            tensors, 32, INTEL_CLX_18,
            methods=("stef", "splatt-all", "alto"),
            num_threads=4, repeats=2,
        )
        return fit_roofline(samples), samples

    fit, samples = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Roofline calibration of the local (Python/NumPy) machine",
        f"samples: {fit.samples} kernel executions "
        f"({len(TENSORS)} tensors x 3 methods x levels x 2 repeats)",
        f"fitted effective bandwidth: {fit.dram_gbps:.2f} GB/s",
        f"fitted effective compute:   {fit.gflops:.2f} GFLOP/s",
        f"median relative error:      {100 * fit.median_rel_error:.0f}%",
        "",
        "(paper machines for scale: intel-clx-18 = 90 GB/s / 110 GF/s "
        "sustained-irregular; the Python substrate is orders of magnitude "
        "below — which is why figure-shape claims are validated on counted "
        "traffic, not wall-clock)",
    ]
    emit("calibration.txt", "\n".join(lines))

    assert fit.dram_gbps > 0 and fit.gflops > 0
    assert fit.median_rel_error < 5.0  # the model explains the kernels
