"""Command-line interface.

Subcommands expose the library's main flows without writing code
(``python -m repro --help`` lists all of them), among them:

* ``decompose`` — CP-decompose a FROSTT ``.tns`` file (or a named Table-I
  generator) with any backend, printing the fit trajectory.
* ``plan`` — show the planner's full configuration search for a tensor.
* ``compare`` — run every method's MTTKRP set and print the relative
  performance table in both channels.
* ``info`` — storage and sparsity statistics (CSF fiber counts per mode
  order, HiCOO blocks, ALTO bits).

Examples::

    python -m repro info uber --nnz 8000
    python -m repro plan data/enron.tns --rank 32
    python -m repro decompose nell-2 --rank 16 --engine stef2 --iters 10
    python -m repro compare vast-2015-mc1-3d --machine amd-tr-64
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from .analysis import format_table, relative_performance, run_comparison
from .baselines import ALL_BACKENDS
from .core import plan_decomposition
from .cpd import cp_als
from .engines import create_engine, engine_names
from .parallel import MACHINES
from .parallel.counters import TrafficCounter
from .parallel.executor import EXEC_BACKENDS
from .trace import (
    NULL_TRACER,
    Tracer,
    engine_run_meta,
    write_chrome_trace,
    write_jsonl,
)
from .tensor import (
    TABLE1_SPECS,
    CooTensor,
    CsfTensor,
    HicooTensor,
    AltoTensor,
    default_mode_order,
    generate,
    read_tns,
)

__all__ = ["main", "build_parser", "load_tensor"]


def load_tensor(source: str, nnz: int, seed: int) -> CooTensor:
    """Resolve a tensor argument: a ``.tns[.gz]`` path or a Table-I name."""
    if source in TABLE1_SPECS:
        return generate(TABLE1_SPECS[source], nnz=nnz, seed=seed)
    if os.path.exists(source):
        return read_tns(source)
    raise SystemExit(
        f"'{source}' is neither a readable file nor one of "
        f"{sorted(TABLE1_SPECS)}"
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STeF sparse tensor factorization (IPDPS 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("tensor", help=".tns file or Table-I tensor name")
        p.add_argument("--nnz", type=int, default=10_000,
                       help="non-zeros for generated tensors (default 10000)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rank", type=int, default=16)
        p.add_argument(
            "--machine", choices=sorted(MACHINES), default="intel-clx-18"
        )
        p.add_argument("--threads", type=int, default=None,
                       help="override the machine's thread count")

    def add_method_args(p: argparse.ArgumentParser) -> None:
        """The shared method/execution selectors (one definition — the
        ``decompose`` and ``profile`` copies previously drifted apart)."""
        names = engine_names()
        memoizing = [n for n in names if ALL_BACKENDS[n].memoize_capable]
        p.add_argument(
            "--engine", "--backend", choices=names,
            default="stef", dest="engine",
            help="MTTKRP engine (default stef); memoize-capable: "
            + ", ".join(memoizing) + "; every engine runs on "
            + "/".join(EXEC_BACKENDS),
        )
        p.add_argument(
            "--exec-backend", choices=list(EXEC_BACKENDS), default="serial",
            dest="exec_backend",
            help="pool execution: deterministic serial order, a real "
            "thread pool, or a persistent shared-memory process pool "
            "(results are bit-identical across all three; 'processes' is "
            "the one whose wall-clock scales with cores)",
        )

    p_info = sub.add_parser("info", help="storage & sparsity statistics")
    add_common(p_info)

    p_plan = sub.add_parser("plan", help="show the configuration search")
    add_common(p_plan)

    p_dec = sub.add_parser("decompose", help="run CPD-ALS")
    add_common(p_dec)
    add_method_args(p_dec)
    p_dec.add_argument("--iters", type=int, default=20)
    p_dec.add_argument("--tol", type=float, default=1e-4)
    p_dec.add_argument("--init", choices=["random", "hosvd"], default="random")
    p_dec.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a structured trace of the run: spans + metrics as "
        "JSONL at PATH, plus a Chrome trace-event view next to it "
        "(PATH with a .chrome.json suffix)",
    )

    p_cmp = sub.add_parser("compare", help="all methods, one tensor")
    add_common(p_cmp)
    p_cmp.add_argument(
        "--methods", nargs="+", default=engine_names(),
        choices=engine_names(),
    )

    p_prof = sub.add_parser("profile", help="per-mode cost breakdown")
    add_common(p_prof)
    add_method_args(p_prof)
    p_prof.add_argument(
        "--trace-chrome", metavar="PATH", default=None,
        help="also write a Chrome trace-event file of the profiled "
        "MTTKRP set (open in chrome://tracing or Perfetto)",
    )

    p_re = sub.add_parser(
        "reorder", help="Lexi-Order a tensor and write the relabeled .tns"
    )
    add_common(p_re)
    p_re.add_argument("--output", required=True, help="output .tns path")
    p_re.add_argument("--iterations", type=int, default=2)

    def add_socket_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--socket", default="repro-serve.sock",
            help="unix socket the daemon listens on "
            "(default ./repro-serve.sock)",
        )

    p_serve = sub.add_parser(
        "serve", help="run the decomposition job daemon"
    )
    add_socket_arg(p_serve)
    p_serve.add_argument(
        "--spool", default="repro-spool",
        help="state directory: job journals, checkpoints, request logs",
    )
    p_serve.add_argument("--workers", type=int, default=2,
                         help="concurrent decomposition workers")
    p_serve.add_argument("--max-depth", type=int, default=64,
                         dest="max_depth",
                         help="queue backlog bound (submits beyond it are "
                         "refused with queue-full)")
    p_serve.add_argument("--per-client", type=int, default=16,
                         dest="per_client",
                         help="max in-flight jobs per client name")
    p_serve.add_argument("--cache-capacity", type=int, default=8,
                         dest="cache_capacity",
                         help="planned engines kept alive (LRU)")

    p_submit = sub.add_parser(
        "submit", help="submit a decomposition job to a running daemon"
    )
    add_common(p_submit)
    add_method_args(p_submit)
    add_socket_arg(p_submit)
    p_submit.add_argument("--iters", type=int, default=20)
    p_submit.add_argument("--tol", type=float, default=1e-4)
    p_submit.add_argument("--init", choices=["random", "hosvd"],
                          default="random")
    p_submit.add_argument("--priority", type=int, default=10,
                          help="lower runs first (default 10)")
    p_submit.add_argument("--client", default="cli",
                          help="client name for per-client rate limiting")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="return the job id immediately instead of "
                          "waiting for the result")
    p_submit.add_argument(
        "--by-name", action="store_true",
        help="send the tensor reference for server-side loading instead "
        "of inlining the non-zeros (requires the daemon to reach it)",
    )
    p_submit.add_argument("--save", metavar="PATH", default=None,
                          help="write the returned factors as .npz")

    p_jobs = sub.add_parser(
        "jobs", help="list a running daemon's jobs (or --stats)"
    )
    add_socket_arg(p_jobs)
    p_jobs.add_argument("--stats", action="store_true",
                        help="print the flat service metrics (queue depth, "
                        "cache hit rate, per-engine latency) instead")
    p_jobs.add_argument("--json", action="store_true",
                        help="machine-readable output")
    return parser


def _cmd_info(args, out) -> int:
    tensor = load_tensor(args.tensor, args.nnz, args.seed)
    print(f"tensor: shape={tensor.shape} nnz={tensor.nnz} "
          f"density={tensor.density:.3e}", file=out)
    order = default_mode_order(tensor.shape)
    csf = CsfTensor.from_coo(tensor, order)
    print(f"CSF (order {order}): fibers {csf.fiber_counts}, "
          f"{csf.total_bytes() / 1e6:.2f} MB", file=out)
    for lvl in range(1, tensor.ndim):
        avg = csf.fiber_counts[lvl] / max(1, csf.fiber_counts[lvl - 1])
        print(f"  level {lvl}: avg branching {avg:.2f}", file=out)
    hic = HicooTensor.from_coo(tensor)
    print(f"HiCOO (B={hic.block_bits}): {hic.n_blocks} blocks, "
          f"occupancy {hic.average_block_occupancy:.2f}, "
          f"{hic.footprint_bytes() / 1e6:.2f} MB", file=out)
    alto = AltoTensor.from_coo(tensor)
    print(f"ALTO: {alto.index_bits}-bit indices, "
          f"{alto.footprint_bytes() / 1e6:.2f} MB", file=out)
    return 0


def _cmd_plan(args, out) -> int:
    tensor = load_tensor(args.tensor, args.nnz, args.seed)
    machine = MACHINES[args.machine]
    csf = CsfTensor.from_coo(tensor)
    decision = plan_decomposition(
        csf, args.rank, machine, consider_swap=tensor.ndim >= 3
    )
    print(f"configuration search for {args.tensor} "
          f"(R={args.rank}, {machine.name}):", file=out)
    for cfg in decision.configurations:
        marker = "  <== chosen" if cfg == decision.best else ""
        print(f"  {cfg.describe()}{marker}", file=out)
    return 0


def _chrome_path(jsonl_path: str) -> str:
    """The Chrome trace-event companion of a JSONL trace path."""
    base, ext = os.path.splitext(jsonl_path)
    return (base if ext in (".jsonl", ".json") else jsonl_path) + ".chrome.json"


def _cmd_decompose(args, out) -> int:
    tensor = load_tensor(args.tensor, args.nnz, args.seed)
    machine = MACHINES[args.machine]
    tracer = NULL_TRACER
    counter = None
    if args.trace:
        tracer = Tracer(
            meta={
                "command": "decompose",
                "tensor": args.tensor,
                "engine": args.engine,
                "exec_backend": args.exec_backend,
                "rank": args.rank,
                "machine": args.machine,
            }
        )
        counter = TrafficCounter(cache_elements=machine.cache_elements)
    with create_engine(
        args.engine, tensor, args.rank, machine=machine,
        num_threads=args.threads, exec_backend=args.exec_backend, tracer=tracer,
        **({"counter": counter} if counter is not None else {}),
    ) as engine:
        print(engine.describe(), file=out)
        # Resolved configuration (kernel tier, backend, threads) must
        # be read while the engine is alive; it stamps the trace header.
        run_meta = engine_run_meta(engine)
        result = cp_als(
            tensor,
            args.rank,
            engine=engine,
            max_iters=args.iters,
            tol=args.tol,
            init=args.init,
            seed=args.seed,
            tracer=tracer,
            callback=lambda it, fit: print(
                f"  iter {it + 1:3d}  fit {fit:.5f}", file=out
            ),
        )
    print(
        f"{'converged' if result.converged else 'stopped'} after "
        f"{result.iterations} iterations; final fit {result.final_fit:.5f}",
        file=out,
    )
    if args.trace:
        write_jsonl(tracer, args.trace, **run_meta)
        chrome = _chrome_path(args.trace)
        write_chrome_trace(tracer, chrome)
        print(f"trace: {args.trace} (+ {chrome})", file=out)
    return 0


def _cmd_compare(args, out) -> int:
    tensor = load_tensor(args.tensor, args.nnz, args.seed)
    machine = MACHINES[args.machine]
    methods = list(args.methods)
    if "splatt-all" not in methods:
        methods.append("splatt-all")
    grid = run_comparison(
        {args.tensor: tensor}, rank=args.rank, machine=machine,
        methods=methods, num_threads=args.threads,
    )
    for channel in ("simulated", "wall"):
        rel = relative_performance(grid, channel=channel)
        print(
            format_table(
                rel, methods,
                title=f"{machine.name} — {channel} channel "
                "(relative to splatt-all)",
            ),
            file=out,
        )
        print(file=out)
    return 0


def _cmd_profile(args, out) -> int:
    from .analysis import profile_method

    tensor = load_tensor(args.tensor, args.nnz, args.seed)
    machine = MACHINES[args.machine]
    tracer = NULL_TRACER
    if args.trace_chrome:
        tracer = Tracer(
            meta={
                "command": "profile",
                "tensor": args.tensor,
                "engine": args.engine,
                "exec_backend": args.exec_backend,
                "rank": args.rank,
                "machine": args.machine,
            }
        )
    profile = profile_method(
        args.engine, tensor, args.rank, machine,
        num_threads=args.threads, tensor_name=args.tensor,
        exec_backend=args.exec_backend, tracer=tracer,
    )
    print(profile.format(), file=out)
    if args.trace_chrome:
        write_chrome_trace(tracer, args.trace_chrome)
        print(f"chrome trace: {args.trace_chrome}", file=out)
    return 0


def _cmd_reorder(args, out) -> int:
    from .reorder import lexi_order
    from .tensor import write_tns
    from .tensor.hicoo import HicooTensor

    tensor = load_tensor(args.tensor, args.nnz, args.seed)
    rel = lexi_order(tensor, iterations=args.iterations)
    relabeled = rel.apply(tensor)
    before = HicooTensor.from_coo(tensor).n_blocks
    after = HicooTensor.from_coo(relabeled).n_blocks
    write_tns(
        relabeled,
        args.output,
        header=[
            f"Lexi-Order relabeling of {args.tensor}",
            f"HiCOO blocks {before} -> {after}",
        ],
    )
    print(
        f"wrote {args.output}: HiCOO blocks {before} -> {after} "
        f"({100 * (1 - after / max(before, 1)):.0f}% fewer)",
        file=out,
    )
    return 0


def _cmd_serve(args, out) -> int:
    import asyncio

    from .serve import DecompositionServer

    server = DecompositionServer(
        args.socket, args.spool, workers=args.workers,
        max_depth=args.max_depth, per_client=args.per_client,
        cache_capacity=args.cache_capacity,
    )
    print(
        f"serving on {args.socket} (spool {args.spool}, "
        f"{args.workers} workers)",
        file=out,
    )
    try:
        asyncio.run(server.run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit(args, out) -> int:
    from .serve import JobSpec, ServeClient, ServeError

    options = dict(
        engine=args.engine, rank=args.rank, machine=args.machine,
        num_threads=args.threads, exec_backend=args.exec_backend,
        max_iters=args.iters, tol=args.tol, init=args.init,
        seed=args.seed, priority=args.priority, client=args.client,
    )
    if args.by_name:
        source = dict(tensor=args.tensor, nnz=args.nnz, tensor_seed=args.seed)
    else:
        # Inline the non-zeros: the daemon never needs to see our files,
        # and the content fingerprint still matches a --by-name twin.
        tensor = load_tensor(args.tensor, args.nnz, args.seed)
        source = dict(coo={
            "indices": tensor.indices.tolist(),
            "values": tensor.values.tolist(),
            "shape": list(tensor.shape),
        })
    try:
        spec = JobSpec(**source, **options)
    except ValueError as exc:
        print(f"refused: {exc} (bad-request)", file=out)
        return 1
    try:
        with ServeClient(args.socket, connect_timeout=10.0) as client:
            if args.no_wait:
                response = client.submit(spec)
                print(f"submitted {response['job_id']}", file=out)
                return 0
            job = client.submit(spec, wait=True)
    except TimeoutError as exc:
        print(f"refused: {exc}", file=out)
        return 1
    except ServeError as exc:
        print(f"refused: {exc} ({exc.reason})", file=out)
        return 1
    if job["state"] != "done":
        print(f"{job['job_id']}: {job['state']} ({job['error']})", file=out)
        return 1
    result = job["result"]
    print(
        f"{job['job_id']}: done in {result['seconds']:.3f}s, "
        f"{result['iterations']} iterations, cache {job['cache']}",
        file=out,
    )
    if result["fits"]:
        print(f"  final fit {result['fits'][-1]:.5f}", file=out)
    if args.save:
        arrays = {"weights": np.asarray(result["weights"])}
        for mode, factor in enumerate(result["factors"]):
            arrays[f"factor_{mode}"] = np.asarray(factor)
        np.savez_compressed(args.save, **arrays)
        print(f"  factors -> {args.save}", file=out)
    return 0


def _cmd_jobs(args, out) -> int:
    import json

    from .serve import ServeClient

    try:
        client = ServeClient(args.socket, connect_timeout=10.0)
    except TimeoutError as exc:
        print(f"refused: {exc}", file=out)
        return 1
    with client:
        if args.stats:
            stats = client.stats()
            if args.json:
                print(json.dumps(stats, sort_keys=True), file=out)
                return 0
            for key in sorted(stats):
                value = stats[key]
                shown = f"{value:.4f}" if isinstance(value, float) else value
                print(f"{key:32s} {shown}", file=out)
            return 0
        rows = client.jobs()
    if args.json:
        print(json.dumps(rows), file=out)
        return 0
    if not rows:
        print("no jobs", file=out)
        return 0
    print(
        f"{'job':28s} {'state':10s} {'engine':12s} {'backend':10s} "
        f"{'cache':7s} {'iters':>5s} {'secs':>8s}",
        file=out,
    )
    for row in rows:
        iters = row.get("iterations")
        secs = row.get("seconds")
        print(
            f"{row['job_id']:28s} {row['state']:10s} {row['engine']:12s} "
            f"{row['exec_backend']:10s} {str(row['cache'] or '-'):7s} "
            f"{iters if iters is not None else '-':>5} "
            f"{f'{secs:.3f}' if secs is not None else '-':>8}",
            file=out,
        )
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handler = {
        "info": _cmd_info,
        "plan": _cmd_plan,
        "decompose": _cmd_decompose,
        "compare": _cmd_compare,
        "profile": _cmd_profile,
        "reorder": _cmd_reorder,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
    }[args.command]
    return handler(args, out)
