#!/usr/bin/env python
"""Serial-vs-concurrent equivalence stress driver.

Sweeps a grid of (seed, thread-count, memo-plan) combinations over random
tensors and asserts, for every MTTKRP of every combination:

* **bit-identical outputs** — ``np.array_equal`` between the ``serial``
  execution backend and the backend under test (``threads`` or
  ``processes``; not ``allclose``: the replicated scatter scheme fixes
  the reduction order, so equality must be exact);
* **exactly equal traffic** — the counter snapshot (reads / writes /
  flops / every category) equals the deterministic serial run's.

Any drift means a data race, a charge that depends on the schedule, or
(under ``processes``) a stale shared-memory slot.  Runs the same invariants as
``tests/test_threads_stress.py`` but at configurable scale — CI uses
``--seeds 5 --threads 2 4 8 --nnz 2000`` once per backend::

    python scripts/stress_threads.py [--backend {threads,processes}]
                                     [--seeds N] [--threads T ...]
                                     [--nnz NNZ] [--rank R] [--iters K]
"""

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np

from repro.core import MemoPlan
from repro.engines import create_engine
from repro.parallel import TrafficCounter
from repro.tensor import random_tensor

SHAPES = ((40, 25, 18), (16, 12, 9, 7))


def run_once(tensor, factors, rank, threads, backend, plan, iters):
    counter = TrafficCounter(cache_elements=8192)
    # Forced plan + swap keep the CSF layout identical across backends,
    # so serial-vs-concurrent comparisons see the very same schedule.
    with create_engine(
        "stef", tensor, rank, plan=plan, swap_last_two=False,
        partition="nnz", num_threads=threads, exec_backend=backend,
        counter=counter,
    ) as engine:
        outs = []
        for _ in range(iters):
            outs = [res.copy() for _, res in engine.iteration_results(factors)]
        return outs, counter.snapshot()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=("threads", "processes"),
                        default="threads",
                        help="concurrent backend compared against serial")
    parser.add_argument("--seeds", type=int, default=5,
                        help="number of random tensors per shape")
    parser.add_argument("--threads", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--nnz", type=int, default=2000)
    parser.add_argument("--rank", type=int, default=8)
    parser.add_argument("--iters", type=int, default=2,
                        help="ALS-style repeats (exercises buffer reuse)")
    args = parser.parse_args()

    combos = failures = 0
    for shape in SHAPES:
        for seed in range(args.seeds):
            tensor = random_tensor(shape, nnz=args.nnz, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            factors = [
                rng.standard_normal((n, args.rank)) for n in tensor.shape
            ]
            plan = MemoPlan((1,)) if seed % 2 else MemoPlan(
                tuple(range(1, tensor.ndim - 1))
            )
            for threads in args.threads:
                combos += 1
                s_out, s_snap = run_once(
                    tensor, factors, args.rank, threads, "serial", plan,
                    args.iters,
                )
                t_out, t_snap = run_once(
                    tensor, factors, args.rank, threads, args.backend, plan,
                    args.iters,
                )
                bad = []
                for lvl, (a, b) in enumerate(zip(s_out, t_out)):
                    if not np.array_equal(a, b):
                        bad.append(f"level {lvl} output differs "
                                   f"(max |d|={np.abs(a - b).max():.3e})")
                if s_snap != t_snap:
                    diff = {
                        k: (s_snap.get(k), t_snap.get(k))
                        for k in set(s_snap) | set(t_snap)
                        if s_snap.get(k) != t_snap.get(k)
                    }
                    bad.append(f"traffic snapshots differ: {diff}")
                tag = (f"shape={shape} seed={seed} T={threads} "
                       f"plan={plan.save_levels}")
                if bad:
                    failures += 1
                    print(f"FAIL {tag}")
                    for line in bad:
                        print(f"     {line}")
                else:
                    print(f"ok   {tag}  traffic={t_snap['total']:.0f}")
    print(
        f"\n{combos - failures}/{combos} combinations bit-identical "
        f"(serial == {args.backend}, outputs and traffic)"
    )
    if combos == 0:
        print("error: no combinations ran (check --seeds/--threads)")
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
