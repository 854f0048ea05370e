"""Helpers shared by the benchmark's workloads.

Statistics, process memory read from ``/proc``, the host-speed control
loop, run metadata and the scratch directory.  Nothing here imports the
program (``repro``): ``run.py`` checks that the sources exist first.
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Checkout root (the parent of this directory) and the program sources.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Everything a run writes lives under this directory of the checkout
#: (relative, so unix-socket paths stay short).
SCRATCH = ".perfbench-run"


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs)) if xs else math.nan


def percentile(xs: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: at least ``(1 - q) * n`` samples lie at or
    beyond it, so p90 of 100 samples leaves exactly 10 above its rank."""
    if not xs:
        return math.nan
    ordered = sorted(xs)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def quartiles(xs: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(xs) < 2:
        value = float(xs[0]) if xs else math.nan
        return [value, value, value]
    return [float(q) for q in statistics.quantiles(xs, n=4)]


def iqr_frac(xs: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else math.nan


# ----------------------------------------------------------------------
# process memory (/proc/<pid>/status, clear_refs)
# ----------------------------------------------------------------------
def _status_kb(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} missing from /proc/{pid}/status")


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MB (10^6 bytes)."""
    return _status_kb(pid, "VmHWM") * 1024 / 1e6


def rss_mb(pid: int) -> float:
    """``VmRSS`` of ``pid`` in MB (10^6 bytes)."""
    return _status_kb(pid, "VmRSS") * 1024 / 1e6


def reset_peak_rss(pid: int) -> None:
    """Reset ``VmHWM`` to the current RSS (``5`` > ``clear_refs``)."""
    with open(f"/proc/{pid}/clear_refs", "w") as fh:
        fh.write("5")


def child_pids(parent: Optional[int] = None) -> List[int]:
    """Live direct children of ``parent`` (default: this process)."""
    parent = os.getpid() if parent is None else parent
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == parent and fields[0] != "Z":
            out.append(int(name))
    return sorted(out)


def shm_leftovers() -> List[str]:
    """``repro-*`` shared-memory segments still present."""
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith("repro-"))
    except FileNotFoundError:
        return []


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker.

    The program's shared-memory segments start it as a child of this
    process; left alone it exits only after this process does.  The
    stdlib exposes no public way to wait for it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# host-speed control
# ----------------------------------------------------------------------
def host_calib() -> float:
    """Time a fixed loop (interpreter plus a small NumPy reduction).

    The work never changes, so its time tracks only how fast the host
    runs at that moment; runs taken in a slow phase show it here.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += (i * i) % 7
    a = np.arange(200_000, dtype=np.float64)
    for _ in range(20):
        acc += float((a * a).sum())
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# run metadata
# ----------------------------------------------------------------------
def blas_threads() -> str:
    """OpenBLAS thread count, from the environment or the loaded library."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def run_meta(workload: str, seed: int, kernel_tier: str, **extra) -> Dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "host_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "kernel_tier": kernel_tier,
        **extra,
    }


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``.

    ``metrics`` maps a metric name to ``(value, samples)``; ``failures``
    holds one reason per operation that failed the oracle.
    """

    meta: Dict
    metrics: Dict[str, Tuple[float, int]]
    attempted: int
    failures: List[str] = field(default_factory=list)
    calib: List[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# scratch directory and output
# ----------------------------------------------------------------------
def scratch_dir(*parts: str, fresh: bool = False) -> str:
    path = os.path.join(SCRATCH, *parts)
    if fresh and os.path.isdir(path):
        shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)
    return path


def describe_samples(name: str, xs: Iterable[float]) -> str:
    xs = list(xs)
    if not xs:
        return f"{name}: no samples"
    q1, q2, q3 = quartiles(xs)
    return (f"{name}: median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} "
            f"iqr/median {iqr_frac(xs):.3f} n={len(xs)}")
