"""End-to-end tests for the decomposition job service.

The acceptance criteria of the serve subsystem, verified against a live
server:

* **correctness under concurrency** — ≥8 jobs submitted at once across
  all three exec backends return factors *bit-identical* to direct
  ``cp_als`` runs, with exactly equal ``TrafficCounter`` totals;
* **cache semantics** — a resubmitted identical job hits the engine
  cache, and its JSONL request log carries **no** ``serve.plan`` span
  (the miss's log does);
* **bad input** — a job whose tensor holds a NaN fails with the reason,
  and the daemon goes on serving;
* **admission control** — per-client limits and queue backpressure
  refuse with retryable errors instead of buffering without bound;
* **crash recovery** — a server process SIGKILLed mid-job resumes the
  job from its checkpoint after restart, with the cumulative iteration
  count intact.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cpd import cp_als
from repro.engines import create_engine
from repro.parallel import MACHINES
from repro.parallel.counters import TrafficCounter
from repro.serve import (
    JobSpec,
    ServeClient,
    ServeError,
    start_in_thread,
    wait_for_socket,
)
from repro.tensor import random_tensor
from repro.trace import read_jsonl

BACKENDS = ("serial", "threads", "processes")
MACHINE_NAME = "intel-clx-18"
MACHINE = MACHINES[MACHINE_NAME]


def inline_coo(tensor) -> dict:
    return {
        "indices": tensor.indices.tolist(),
        "values": tensor.values.tolist(),
        "shape": list(tensor.shape),
    }


def make_spec(tensor, **overrides) -> JobSpec:
    options = dict(
        coo=inline_coo(tensor), engine="stef", rank=4, max_iters=3,
        tol=0.0, seed=0, machine=MACHINE_NAME, num_threads=2,
        exec_backend="serial",
    )
    options.update(overrides)
    return JobSpec(**options)


def wait_until_running(client, job_id, timeout=60.0):
    """Poll until the job has left the queue (the only worker is busy)."""
    deadline = time.monotonic() + timeout
    while client.status(job_id)["state"] == "queued":
        assert time.monotonic() < deadline, f"{job_id} never started"
        time.sleep(0.01)
    assert client.status(job_id)["state"] == "running"


def direct_run(tensor, spec):
    """The single-engine ground truth a served job must reproduce."""
    counter = TrafficCounter(cache_elements=MACHINE.cache_elements)
    with create_engine(
        spec.engine, tensor, spec.rank, machine=MACHINE,
        num_threads=spec.num_threads, exec_backend=spec.exec_backend,
        counter=counter,
    ) as engine:
        result = cp_als(
            tensor, spec.rank, engine=engine, max_iters=spec.max_iters,
            tol=spec.tol, init=spec.init, seed=spec.seed,
            compute_fit=spec.compute_fit,
        )
    totals = {"reads": counter.reads, "writes": counter.writes,
              "flops": counter.flops}
    totals.update(counter.by_category)
    return result, {k: v for k, v in totals.items() if v}


@pytest.fixture
def server(tmp_path):
    """An in-thread server; yields (socket_path, spool_dir, handle)."""
    sock = str(tmp_path / "s.sock")
    spool = str(tmp_path / "spool")
    handle = start_in_thread(sock, spool, workers=3)
    wait_for_socket(sock)
    yield sock, spool, handle
    handle.stop()


class TestConcurrentCorrectness:
    def test_nine_concurrent_jobs_bit_identical_across_backends(
        self, server
    ):
        """3 tensors x 3 exec backends, all in flight at once: every
        served result equals its direct cp_als twin bit for bit, and the
        per-job traffic deltas equal a fresh counter's totals exactly."""
        sock, _, _ = server
        tensors = {
            seed: random_tensor((12, 9, 7), nnz=200, seed=seed)
            for seed in (1, 2, 3)
        }
        with ServeClient(sock) as client:
            submitted = []
            for seed, tensor in tensors.items():
                for backend in BACKENDS:
                    spec = make_spec(tensor, exec_backend=backend)
                    response = client.submit(spec)
                    submitted.append((response["job_id"], seed, backend))
            assert len(submitted) == 9
            for job_id, seed, backend in submitted:
                job = client.wait(job_id, timeout=120)
                assert job["state"] == "done", job["error"]
                result = job["result"]
                spec = make_spec(tensors[seed], exec_backend=backend)
                direct, traffic = direct_run(tensors[seed], spec)
                assert result["exec_backend"] == backend
                assert result["iterations"] == direct.iterations
                assert np.array_equal(
                    np.asarray(result["weights"]), direct.model.weights
                ), (seed, backend)
                for got, want in zip(
                    result["factors"], direct.model.factors
                ):
                    assert np.array_equal(np.asarray(got), want), (
                        seed, backend,
                    )
                assert result["traffic"] == traffic, (seed, backend)

    def test_inline_and_by_name_submissions_share_fingerprint(
        self, server, tmp_path
    ):
        """A tensor submitted inline and the same tensor submitted as a
        server-readable .tns path land on one cache entry."""
        from repro.tensor import write_tns

        sock, _, _ = server
        tensor = random_tensor((10, 8, 6), nnz=150, seed=4)
        path = str(tmp_path / "t.tns")
        write_tns(tensor, path)
        with ServeClient(sock) as client:
            first = client.submit(make_spec(tensor), wait=True)
            spec = JobSpec(
                tensor=path, engine="stef", rank=4, max_iters=3, tol=0.0,
                seed=0, machine=MACHINE_NAME, num_threads=2,
            )
            second = client.submit(spec, wait=True)
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert first["result"]["fingerprint"] == (
            second["result"]["fingerprint"]
        )
        assert first["result"]["factors"] == second["result"]["factors"]


class TestCacheTrace:
    def test_resubmit_hits_and_log_has_no_plan_span(self, server):
        """The miss's request log records the serve.plan span; the
        identical resubmit's log must not — proof it skipped planning."""
        sock, spool, _ = server
        tensor = random_tensor((10, 8, 6), nnz=150, seed=5)
        with ServeClient(sock) as client:
            first = client.submit(make_spec(tensor), wait=True)
            second = client.submit(make_spec(tensor), wait=True)
            stats = client.stats()
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"

        def span_names(job):
            log = os.path.join(spool, "logs", f"{job['job_id']}.jsonl")
            return [s["name"] for s in read_jsonl(log)["spans"]]

        assert "serve.plan" in span_names(first)
        assert "serve.plan" not in span_names(second)
        # Both logs still carry the per-job ALS spans.
        assert "als.iteration" in span_names(second)
        assert stats["cache.hits"] >= 1.0
        assert stats["cache.hit_rate"] > 0.0

    def test_request_log_header_is_self_describing(self, server):
        sock, spool, _ = server
        tensor = random_tensor((10, 8, 6), nnz=150, seed=6)
        with ServeClient(sock) as client:
            job = client.submit(
                make_spec(tensor, exec_backend="threads"), wait=True
            )
        log = os.path.join(spool, "logs", f"{job['job_id']}.jsonl")
        meta = read_jsonl(log)["meta"]
        assert meta["engine"] == "stef"
        assert meta["jit_tier"] == "numpy"
        assert meta["exec_backend"] == "threads"
        assert meta["num_threads"] == 2
        assert meta["job_id"] == job["job_id"]
        assert meta["cache"] == "miss"


class TestBadInput:
    def test_nonfinite_job_fails_and_daemon_keeps_serving(self, server):
        """A NaN in an inline COO fails that job with the reason; the
        next job on the same daemon still runs."""
        sock, _, _ = server
        tensor = random_tensor((10, 8, 6), nnz=150, seed=7)
        coo = inline_coo(tensor)
        coo["values"][3] = float("nan")
        with ServeClient(sock) as client:
            bad = client.submit(make_spec(tensor, coo=coo), wait=True)
            good = client.submit(make_spec(tensor), wait=True)
        assert bad["state"] == "failed"
        assert f"1 of {tensor.nnz} values are not finite" in bad["error"]
        assert good["state"] == "done", good["error"]


class TestAdmissionControl:
    def test_per_client_limit_refuses_with_retryable_error(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        handle = start_in_thread(
            sock, str(tmp_path / "spool"), workers=1, per_client=1,
        )
        wait_for_socket(sock)
        try:
            # A job slow enough to still be in flight for the second
            # submit: plenty of iterations on a non-trivial tensor.
            tensor = random_tensor((30, 25, 20), nnz=4000, seed=7)
            slow = make_spec(tensor, max_iters=200, client="greedy")
            with ServeClient(sock) as client:
                first = client.submit(slow)
                with pytest.raises(ServeError) as excinfo:
                    client.submit(make_spec(tensor, client="greedy"))
                assert excinfo.value.reason == "client-limit"
                assert excinfo.value.retry
                # Another client is still admitted.
                other = client.submit(
                    make_spec(tensor, max_iters=1, client="patient")
                )
                client.wait(other["job_id"], timeout=120)
                client.wait(first["job_id"], timeout=120)
        finally:
            handle.stop()

    def test_queue_full_refuses_with_retryable_error(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        handle = start_in_thread(
            sock, str(tmp_path / "spool"), workers=1, max_depth=1,
            per_client=16,
        )
        wait_for_socket(sock)
        try:
            tensor = random_tensor((30, 25, 20), nnz=4000, seed=8)
            with ServeClient(sock) as client:
                running = client.submit(
                    make_spec(tensor, max_iters=200)
                )  # occupies the worker
                time.sleep(0.2)  # let the dispatcher pop it off the queue
                queued = client.submit(make_spec(tensor, max_iters=1))
                with pytest.raises(ServeError) as excinfo:
                    client.submit(make_spec(tensor, max_iters=1))
                assert excinfo.value.reason == "queue-full"
                assert excinfo.value.retry
                client.wait(running["job_id"], timeout=120)
                client.wait(queued["job_id"], timeout=120)
        finally:
            handle.stop()

    def test_priority_orders_the_backlog(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        handle = start_in_thread(sock, str(tmp_path / "spool"), workers=1)
        wait_for_socket(sock)
        try:
            blocker = random_tensor((30, 25, 20), nnz=4000, seed=9)
            quick = random_tensor((8, 7, 6), nnz=80, seed=10)
            with ServeClient(sock) as client:
                client.submit(make_spec(blocker, max_iters=150))
                time.sleep(0.2)
                low = client.submit(
                    make_spec(quick, priority=20, seed=1)
                )
                high = client.submit(
                    make_spec(quick, priority=1, seed=2)
                )
                done_high = client.wait(high["job_id"], timeout=120)
                low_state = client.status(low["job_id"])["state"]
                # When the urgent job finished, the low-priority one
                # submitted *earlier* had not been picked up before it.
                assert done_high["state"] == "done"
                assert done_high["spec"]["priority"] == 1
                client.wait(low["job_id"], timeout=120)
                assert low_state in ("queued", "running", "done")
        finally:
            handle.stop()


class TestCancelAndStatus:
    def test_cancel_queued_job(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        handle = start_in_thread(sock, str(tmp_path / "spool"), workers=1)
        wait_for_socket(sock)
        try:
            blocker = random_tensor((30, 25, 20), nnz=4000, seed=11)
            quick = random_tensor((8, 7, 6), nnz=80, seed=12)
            with ServeClient(sock) as client:
                # Over a second of ALS: the victim stays queued behind it.
                running = client.submit(make_spec(blocker, max_iters=1200))
                wait_until_running(client, running["job_id"])
                victim = client.submit(make_spec(quick))
                cancelled = client.cancel(victim["job_id"])
                assert cancelled["state"] == "cancelled"
                job = client.wait(victim["job_id"], timeout=10)
                assert job["state"] == "cancelled"
                client.wait(running["job_id"], timeout=120)
                rows = client.jobs()
                states = {r["job_id"]: r["state"] for r in rows}
                assert states[victim["job_id"]] == "cancelled"
                assert states[running["job_id"]] == "done"
        finally:
            handle.stop()


class TestCrashRecovery:
    def serve_argv(self, sock, spool):
        return [
            sys.executable, "-m", "repro", "serve", "--socket", sock,
            "--spool", spool, "--workers", "1",
        ]

    def test_sigkill_mid_job_resumes_from_checkpoint(self, tmp_path):
        """Kill -9 the server while a checkpointing job is mid-run; a
        restarted server on the same spool finishes it from the last
        complete checkpoint with the cumulative iteration count."""
        sock = str(tmp_path / "s.sock")
        spool = str(tmp_path / "spool")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")

        max_iters = 300
        tensor = random_tensor((25, 20, 15), nnz=3000, seed=13)
        spec = make_spec(
            tensor, max_iters=max_iters, checkpoint_every=1,
        )

        proc = subprocess.Popen(
            self.serve_argv(sock, spool), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            wait_for_socket(sock)
            with ServeClient(sock) as client:
                job_id = client.submit(spec)["job_id"]
            checkpoint = os.path.join(spool, "checkpoints", f"{job_id}.npz")

            # Wait for evidence of real progress, then kill without
            # ceremony: at least 2 complete checkpoints but far from done.
            deadline = time.monotonic() + 60
            progressed = 0
            while time.monotonic() < deadline:
                if os.path.exists(checkpoint):
                    try:
                        with np.load(checkpoint) as data:
                            progressed = int(data["iteration"])
                    except Exception:
                        pass  # mid-replace; retry
                    if progressed >= 2:
                        break
                time.sleep(0.01)
            assert 2 <= progressed < max_iters, (
                f"job finished too fast to kill mid-run "
                f"(checkpoint at {progressed})"
            )
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        # The journal must still say the job was in flight.
        with open(os.path.join(spool, "jobs", f"{job_id}.json")) as fh:
            journal = json.load(fh)
        assert journal["state"] == "running"

        proc = subprocess.Popen(
            self.serve_argv(sock, spool), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            wait_for_socket(sock)
            with ServeClient(sock) as client:
                job = client.wait(job_id, timeout=300)
                stats = client.stats()
            assert job["state"] == "done", job["error"]
            # Cumulative count: checkpointed iterations + the resumed
            # remainder reach exactly max_iters, and the second attempt
            # is on record.
            assert job["result"]["iterations"] == max_iters
            assert job["attempts"] == 2
            assert stats["jobs.completed"] >= 1.0
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=30)

        # Success cleared the checkpoint; the journal reached "done".
        assert not os.path.exists(
            os.path.join(spool, "checkpoints", f"{job_id}.npz")
        )
