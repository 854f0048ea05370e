"""The ``serve-uber`` workload: the README quickstart under load.

Each *boot* starts a fresh ``repro serve --workers 2`` daemon, times the
spawn until the first job's response (``setup_s``), then runs a
closed-loop client: it sends its next request only after the reply to
the previous one, as ``repro submit`` does.  The client submits its hot
tensor :data:`HOT_PER_FRESH` times (cache hits) for every fresh tensor
(a miss: plan, insert, LRU eviction).  Request lines are encoded before
timing and responses parsed after it.  A boot does the same jobs every
time; boots repeat until the run's time is spent, so latency, set-up
and memory are each sampled across the run.

One client, not two: with two jobs in flight the daemon's two worker
threads contend for the GIL, each job's ``cp_als`` took about four times
as long, throughput fell by a fifth, and latency swung with host load
about three times as much as with one client.

After each boot every served result is checked against a direct
``create_engine`` + ``cp_als`` run of the same tensor: factors, weights
and fits bit-identical, traffic exactly equal.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cpd.init import random_init
from repro.parallel import MACHINES
from repro.parallel.counters import TrafficCounter
from repro.serve import JobSpec, build_tensor, wait_for_socket
from repro.serve.protocol import encode
from repro.tensor import TABLE1_SPECS, generate
from repro.trace import NULL_TRACER, Tracer

from . import layers, oracle
from .common import (
    SRC,
    Outcome,
    host_calib,
    median,
    peak_rss_mb,
    percentile,
    rss_mb,
    run_meta,
    scratch_dir,
    shm_leftovers,
)
from .decompose import Round, run_round

TENSOR = "uber"
#: Non-zeros per job tensor.  At 10k a job took ~1 s, too slow for 100
#: timed jobs inside one run.
JOB_NNZ = 2_000
RANK = 16
ITERS = 5
TOL = 0.0
MACHINE = "intel-clx-18"
WORKERS = 2
CLIENTS = 1
JOBS_PER_CLIENT = 34  # per boot: 3 boots give 102 timed jobs
HOT_PER_FRESH = 3
MIN_BOOTS = 3
#: Socket timeout for any single reply (a stuck daemon fails the run).
REPLY_TIMEOUT = 120.0


def _tensor_seed(seed: int, client: int, job: int) -> int:
    """Tensor seed of a client's job: its hot tensor, or a fresh one
    after every :data:`HOT_PER_FRESH` hot jobs.  ``client=-1`` is the
    warm-up job that measures set-up."""
    base = seed * 1000
    if client < 0:
        return base
    if job % (HOT_PER_FRESH + 1) != HOT_PER_FRESH:
        return base + 1 + client
    return base + 100 * (client + 1) + job


def _spec(tensor_seed: int, seed: int, client: str) -> JobSpec:
    tensor = generate(TABLE1_SPECS[TENSOR], nnz=JOB_NNZ, seed=tensor_seed)
    return JobSpec(
        coo={"indices": tensor.indices.tolist(), "values": tensor.values.tolist(),
             "shape": list(tensor.shape)},
        engine="stef", rank=RANK, machine=MACHINE, exec_backend="serial",
        max_iters=ITERS, tol=TOL, init="random", seed=seed, client=client,
    )


@dataclass
class Sent:
    """One timed request: client clocks around one round trip."""

    client: int
    tensor_seed: int
    request_bytes: int
    t_send: float
    t_recv: float
    wall_send: float
    wall_recv: float
    response: bytes


@dataclass
class Boot:
    calib_s: float
    setup_s: float
    loop_s: float
    client_cpu_s: float
    peak_mb: float
    rss_growth_mb: float
    stats: Dict
    warm: Tuple[int, bytes]
    sent: List[Sent] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    exit_code: Optional[int] = None
    spool: str = ""


def _connect(path: str) -> Tuple[socket.socket, object]:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(REPLY_TIMEOUT)
    sock.connect(path)
    return sock, sock.makefile("rb")


def _round_trip(path: str, line: bytes) -> bytes:
    sock, reader = _connect(path)
    try:
        sock.sendall(line)
        return reader.readline()
    finally:
        reader.close()
        sock.close()


def _client(path: str, client: int, jobs: List[Tuple[int, bytes]],
            out: List[Sent], errors: List[str], start: threading.Barrier) -> None:
    try:
        sock, reader = _connect(path)
    except OSError as exc:
        errors.append(f"client {client}: connect failed: {exc}")
        start.wait()
        return
    start.wait()
    try:
        for tensor_seed, line in jobs:
            t_send, wall_send = time.perf_counter(), time.time()
            sock.sendall(line)
            response = reader.readline()
            out.append(Sent(client, tensor_seed, len(line), t_send,
                            time.perf_counter(), wall_send, time.time(), response))
            if not response:
                errors.append(f"client {client}: connection closed")
                return
    except OSError as exc:
        errors.append(f"client {client}: {exc}")
    finally:
        reader.close()
        sock.close()


def run_boot(k: int, warm: Tuple[int, bytes],
             plans: List[List[Tuple[int, bytes]]], workdir: str) -> Boot:
    """Start a daemon, time set-up, run the timed closed loop, stop it."""
    sock_path = os.path.join(workdir, f"boot{k}.sock")
    spool = os.path.join(workdir, f"spool{k}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    calib = host_calib()
    with open(os.path.join(workdir, f"daemon{k}.log"), "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock_path,
             "--spool", spool, "--workers", str(WORKERS)],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
        try:
            wait_for_socket(sock_path, timeout=REPLY_TIMEOUT)
            warm_response = _round_trip(sock_path, warm[1])
            setup = time.perf_counter() - t0
            rss0 = rss_mb(proc.pid)

            sent: List[List[Sent]] = [[] for _ in plans]
            errors: List[str] = []
            barrier = threading.Barrier(len(plans) + 1)
            threads = [threading.Thread(target=_client,
                                        args=(sock_path, c, plans[c], sent[c],
                                              errors, barrier))
                       for c in range(len(plans))]
            for th in threads:
                th.start()
            barrier.wait()
            cpu0, start = time.process_time(), time.perf_counter()
            for th in threads:
                th.join()
            loop = time.perf_counter() - start
            cpu = time.process_time() - cpu0

            growth = rss_mb(proc.pid) - rss0
            stats = json.loads(_round_trip(sock_path, encode({"op": "stats"})))["stats"]
            peak = peak_rss_mb(proc.pid)
            _round_trip(sock_path, encode({"op": "shutdown"}))
            exit_code = proc.wait(timeout=REPLY_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return Boot(calib_s=calib, setup_s=setup, loop_s=loop, client_cpu_s=cpu,
                peak_mb=peak, rss_growth_mb=growth, stats=stats,
                warm=(warm[0], warm_response),
                sent=[s for per_client in sent for s in per_client],
                errors=errors, exit_code=exit_code, spool=spool)


def _job_log(spool: str, job_id: str) -> Tuple[List[float], List[float]]:
    """Per-iteration MTTKRP-set seconds and ``serve.plan`` seconds of a
    job, from its request log (the daemon traces every job)."""
    per_iter: Dict[int, float] = {}
    plans = []
    with open(os.path.join(spool, "logs", f"{job_id}.jsonl")) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("type") != "span":
                continue
            if rec["name"] in ("mttkrp.mode0", "mttkrp.mode_level"):
                per_iter[rec["parent"]] = per_iter.get(rec["parent"], 0.0) + rec["seconds"]
            elif rec["name"] == "serve.plan":
                plans.append(rec["seconds"])
    return list(per_iter.values()), plans


def _traced_seeds(seed: int) -> List[int]:
    """Job tensors the traced run decomposes in-process: each client's
    hot tensor and its first fresh one."""
    return sorted({_tensor_seed(seed, c, j) for c in range(CLIENTS)
                   for j in range(HOT_PER_FRESH + 1)})


class References:
    """Direct ``create_engine`` + ``cp_als`` runs, one per job tensor."""

    def __init__(self, specs: Dict[int, JobSpec]) -> None:
        self.specs = specs
        self.rounds: Dict[int, Round] = {}

    def get(self, tensor_seed: int, tracer: Tracer = NULL_TRACER) -> Round:
        """The direct run of one job tensor; untraced runs are cached."""
        if not tracer.enabled and tensor_seed in self.rounds:
            return self.rounds[tensor_seed]
        spec = self.specs[tensor_seed]
        machine = MACHINES[spec.machine]
        with tracer.span("bench.load"):
            tensor = build_tensor(spec)
        rnd = run_round(
            tensor, spec.rank,
            dict(machine=machine, num_threads=spec.num_threads,
                 exec_backend=spec.exec_backend),
            random_init(tensor.shape, spec.rank, spec.seed),
            dict(max_iters=spec.max_iters, tol=spec.tol, init=spec.init,
                 seed=spec.seed, compute_fit=spec.compute_fit),
            extra_sets=1,
            tracer=tracer,
            counter=TrafficCounter(cache_elements=machine.cache_elements),
        )
        if not tracer.enabled:
            self.rounds[tensor_seed] = rnd
        return rnd


@dataclass
class Served:
    """Measurements of one parsed timed job."""

    latency_s: float
    cache: str
    admit_s: float
    queue_wait_s: float
    run_s: float
    tail_s: float
    als_s: float
    request_bytes: int
    response_bytes: int
    journal_bytes: int
    set_s: List[float]
    plan_s: List[float]


def _check_job(raw: bytes, tensor_seed: int, refs: References,
               failures: List[str], label: str) -> Optional[Dict]:
    try:
        response = json.loads(raw)
    except ValueError:
        failures.append(f"{label}: unreadable response")
        return None
    if not response.get("ok"):
        failures.append(f"{label}: refused ({response.get('reason')}: "
                        f"{response.get('error')})")
        return None
    job = response["job"]
    ref = refs.get(tensor_seed)
    problem = oracle.check_served(job, ref.result, ref.solve_traffic)
    if problem:
        failures.append(f"{label} {job.get('job_id')}: {problem}")
    return job


def _parse_boot(k: int, boot: Boot, refs: References,
                failures: List[str]) -> List[Served]:
    missing = CLIENTS * JOBS_PER_CLIENT - len(boot.sent)
    reason = "; ".join(boot.errors) or "job never answered"
    failures.extend(f"boot {k}: {reason}" for _ in range(missing))
    if boot.exit_code != 0:
        failures.append(f"boot {k}: daemon exited with {boot.exit_code}")
    _check_job(boot.warm[1], boot.warm[0], refs, failures, f"boot {k} warm-up")
    served = []
    for s in boot.sent:
        job = _check_job(s.response, s.tensor_seed, refs, failures,
                         f"boot {k} client {s.client}")
        if job is None or job.get("state") != "done":
            continue
        set_s, plan_s = _job_log(boot.spool, job["job_id"])
        served.append(Served(
            latency_s=s.t_recv - s.t_send,
            cache=job["cache"],
            admit_s=job["submitted_at"] - s.wall_send,
            queue_wait_s=job["started_at"] - job["submitted_at"],
            run_s=job["finished_at"] - job["started_at"],
            tail_s=s.wall_recv - job["finished_at"],
            als_s=job["result"]["seconds"],
            request_bytes=s.request_bytes,
            response_bytes=len(s.response),
            journal_bytes=os.path.getsize(
                os.path.join(boot.spool, "jobs", f"{job['job_id']}.json")),
            set_s=set_s, plan_s=plan_s,
        ))
    return served


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    workdir = scratch_dir("serve", fresh=True)
    seeds = sorted({_tensor_seed(seed, c, j) for c in range(-1, CLIENTS)
                    for j in range(JOBS_PER_CLIENT)})
    specs = {s: _spec(s, seed, "warm-up" if s == seed * 1000 else "bench")
             for s in seeds}
    lines = {s: encode({"op": "submit", "spec": spec.to_dict(), "wait": True})
             for s, spec in specs.items()}
    plans = [[(_tensor_seed(seed, c, j), lines[_tensor_seed(seed, c, j)])
              for j in range(JOBS_PER_CLIENT)] for c in range(CLIENTS)]
    warm = (seed * 1000, lines[seed * 1000])
    refs = References(specs)

    boots: List[Boot] = []
    served: List[Served] = []
    failures: List[str] = []
    t_start = time.perf_counter()
    while True:
        boot = run_boot(len(boots), warm, plans, workdir)
        boots.append(boot)
        # The oracle runs here, after the boot's timed loop.
        served.extend(_parse_boot(len(boots) - 1, boot, refs, failures))
        boot.sent.clear()  # the raw responses are parsed and checked
        elapsed = time.perf_counter() - t_start
        if len(boots) >= MIN_BOOTS and elapsed + elapsed / len(boots) > seconds:
            break
    leftovers = shm_leftovers()
    if leftovers:
        failures.append(f"shared-memory segments left: {leftovers}")
    # Per boot the warm-up job, the timed jobs and the daemon's clean
    # exit; the final shared-memory check; the traced run's direct runs
    # (each compared with its untraced twin).
    attempted = (len(boots) * (2 + CLIENTS * JOBS_PER_CLIENT) + 1
                 + (len(_traced_seeds(seed)) if trace else 0))

    meta = run_meta(name, seed, refs.get(warm[0]).kernel_tier,
                    engine=refs.get(warm[0]).describe,
                    tensor=f"{TENSOR} nnz={JOB_NNZ} rank={RANK} iters={ITERS}",
                    boots=len(boots), timed_jobs=len(served))
    calib = [b.calib_s for b in boots]
    if trace:
        metrics = _layers(name, seed, meta, boots, served, refs, len(leftovers),
                          failures)
    else:
        lat = [s.latency_s for s in served]
        sets = [x for s in served for x in s.set_s]
        metrics = {
            "setup_s": (median([b.setup_s for b in boots]), len(boots)),
            "mttkrp_s": (median(sets), len(sets)),
            "solve_s": (median([s.als_s for s in served]), len(served)),
            "lat_p50_s": (median(lat), len(lat)),
            "lat_p90_s": (percentile(lat, 0.9), len(lat)),
            "jobs_per_s": (len(served) / sum(b.loop_s for b in boots), len(served)),
            "mem_peak_mb": (median([b.peak_mb for b in boots]), len(boots)),
        }
    return Outcome(meta=meta, metrics=metrics, attempted=attempted,
                   failures=failures, calib=calib)


def _layers(name: str, seed: int, meta: Dict, boots: List[Boot],
            served: List[Served], refs: References, leftovers: int,
            failures: List[str]) -> Dict:
    """Per-layer metrics: serve.* from the boots, the in-process layers
    from traced direct runs of four of the job tensors."""
    tracer = Tracer(workload=name, seed=seed)
    traced_seeds = _traced_seeds(seed)
    with layers.LayerHooks(tracer):
        traced = [refs.get(s, tracer=tracer) for s in traced_seeds]
    for tensor_seed, rnd in zip(traced_seeds, traced):
        problem = oracle.identical_results(rnd.result, refs.get(tensor_seed).result)
        if problem:
            failures.append(f"traced direct run of tensor {tensor_seed}: {problem}")
    values = layers.engine_layers(tracer, traced, [refs.get(s) for s in traced_seeds])
    values["engines.cold_setup_s"] = boots[0].setup_s
    values["parallel.shm_segments_left"] = leftovers
    values["host.calib_s"] = median([b.calib_s for b in boots])

    by_cache: Dict[str, List[float]] = {}
    for s in served:
        by_cache.setdefault(s.cache, []).append(s.latency_s)
    for field_name in ("admit_s", "queue_wait_s", "run_s", "als_s", "tail_s"):
        values[f"serve.{field_name}"] = median([getattr(s, field_name) for s in served])
    values["serve.plan_s"] = median([x for s in served for x in s.plan_s])
    values["serve.hit_lat_p50_s"] = median(by_cache.get("hit", []))
    values["serve.miss_lat_p50_s"] = median(by_cache.get("miss", []))
    lookups = [b.stats["cache.hits"] + b.stats["cache.misses"] + b.stats["cache.bypasses"]
               for b in boots]
    values["serve.cache_hit_ratio"] = median(
        [b.stats["cache.hits"] / n for b, n in zip(boots, lookups)])
    values["serve.bypasses"] = median([b.stats["cache.bypasses"] for b in boots])
    for field_name in ("request_bytes", "response_bytes", "journal_bytes"):
        values[f"serve.{field_name}"] = median([getattr(s, field_name) for s in served])
    per_boot = len(served) / len(boots)
    values["serve.rss_per_job_mb"] = median([b.rss_growth_mb / per_boot for b in boots])
    values["serve.client_cpu_s"] = median([b.client_cpu_s / per_boot for b in boots])
    layers.write_spans(tracer, name, seed, meta)
    return layers.finish(values, samples=len(served))
