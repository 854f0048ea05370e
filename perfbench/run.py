"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decompose-uber --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that gives the per-layer
metrics and writes span files under ``.perfbench-run/trace/``.  Human
tables go to standard output first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("decompose-uber", "decompose-nell2-procs", "serve-uber")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time to spend measuring (rounds that would "
                        "end after it are not started)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    from perfbench import decompose, serve_uber
    from perfbench.common import describe_samples

    module = serve_uber if args.workload.startswith("serve") else decompose
    outcome = module.run(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = len(outcome.failures)
    measured = dict(outcome.metrics)
    if not args.trace:
        measured["ok_frac"] = ((outcome.attempted - failed) / outcome.attempted,
                               outcome.attempted)
    names = [m["name"] for m in wanted]
    unknown = sorted(set(measured) - set(names))
    missing = sorted(set(names) - set(measured))
    if unknown or (missing and not args.trace):
        raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}; "
                           f"not measured: {missing}")
    for name in missing:
        # A layer this workload does not exercise (serve.* on decompose,
        # the process backend's shm refresh on serial, ...).
        measured[name] = (0.0, 0)

    print("# meta " + json.dumps(outcome.meta, sort_keys=True))
    print("# " + describe_samples("host.calib_s (one per round or boot)", outcome.calib))
    print(f"# {'metric':30s} {'value':>14s} {'unit':8s} {'better':7s} samples")
    for m in wanted:
        value, samples = measured[m["name"]]
        print(f"# {m['name']:30s} {value:14.6g} {m['unit']:8s} {m['better']:7s} {samples}")
    print(f"# correct={failed == 0} attempted={outcome.attempted} failed={failed}")
    for reason in outcome.failures[:10]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
