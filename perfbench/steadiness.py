"""Steadiness report: is the benchmark steady enough for its own bounds?

Runs two sets of untraced runs per workload, every run with another
seed, interleaving sets and workloads so that both sets see the same
host phases.  For each end-to-end metric it prints each set's median
and quartiles, the spread (quartile distance over median) against the
metric's bound, and how far the second set's median moved from the
first's, also against the bound.  A metric passes when its spread stays
within the bound (``setup_s`` is exempt) and the second median is not
worse than the first by more than the bound; the target for a steady
benchmark is a spread under a third of the bound.

    python3 perfbench/steadiness.py --runs 10             # two sets of ten
    python3 perfbench/steadiness.py --runs 5 --sets 1 --workloads serve-uber
    python3 perfbench/steadiness.py --report .perfbench-run/steadiness/<file>.json

Exit status 0 when every metric passes, 1 otherwise.  Raw results go to
``.perfbench-run/steadiness/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.common import iqr_frac, median, quartiles, scratch_dir  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    calib = next((ln for ln in lines if ln.startswith("# host.calib_s")), "")
    result["calib_median"] = float(calib.split("median ")[1].split()[0]) if calib else None
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def report(spec: dict, results: dict, sets: int) -> bool:
    ok = True
    for workload, per_set in results.items():
        walls = [r["wall_s"] for runs in per_set for r in runs]
        calibs = [r["calib_median"] for runs in per_set for r in runs if r["calib_median"]]
        wrong = sum(not r["correct"] for runs in per_set for r in runs)
        print(f"\n== {workload}: {sum(map(len, per_set))} runs, wall median "
              f"{median(walls):.1f}s max {max(walls):.1f}s, host.calib_s median "
              f"{median(calibs):.4f}, incorrect runs {wrong}")
        ok &= wrong == 0
        print(f"{'metric':12s} {'set':>3s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'/bound':>7s}   {'worse':>7s} {'/bound':>7s}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for k, runs in enumerate(per_set):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(values)
                spread = iqr_frac(values)
                meds.append(q2)
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, ok = " SPREAD>BOUND", False
                elif spread > bound / 3:
                    flag = " (spread > bound/3)"
                tail = ""
                if k:
                    worse = worsening(meds[0], q2, m["better"])
                    tail = f"   {worse:+7.3f} {worse / bound:+7.2f}"
                    if worse > bound:
                        flag, ok = flag + " WORSE>BOUND", False
                print(f"{name:12s} {k + 1:3d} {q2:11.5g} {q1:11.5g} {q3:11.5g} "
                      f"{spread:7.3f} {spread / bound:7.2f}{tail}{flag}")
            if sets > 1:
                pooled = [r["metrics"][name]["value"] for runs in per_set for r in runs]
                q1, q2, q3 = quartiles(pooled)
                spread = iqr_frac(pooled)
                print(f"{name:12s} all {q2:11.5g} {q1:11.5g} {q3:11.5g} "
                      f"{spread:7.3f} {spread / bound:7.2f}")
    return ok


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--report", metavar="JSON", default=None,
                        help="re-print the report of saved raw results against "
                        "the current bounds instead of running")
    args = parser.parse_args(argv)
    if args.report:
        with open(args.report) as fh:
            saved = json.load(fh)
        ok = report(spec, saved["results"], saved["args"]["sets"])
        print("PASS" if ok else "FAIL")
        return 0 if ok else 1

    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for i in range(args.runs):
        for s in range(args.sets):
            for w in args.workloads:
                seed = args.seed_base + s * args.runs + i
                res = run_once(w, seed, args.seconds)
                results[w][s].append(res)
                print(f"[{time.strftime('%H:%M:%S')}] {w} set {s + 1} seed {seed}: "
                      f"{res['wall_s']:.1f}s correct={res['correct']} "
                      f"calib={res['calib_median']:.4f} " +
                      " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)
    path = os.path.join(scratch_dir("steadiness"),
                        time.strftime("steadiness-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "results": results}, fh)
    ok = report(spec, results, args.sets)
    print(f"\nraw results: {path}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
