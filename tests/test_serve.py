"""End-to-end tests for the decomposition job service.

The acceptance criteria of the serve subsystem, verified against a live
server:

* **correctness under concurrency** — ≥8 jobs submitted at once across
  all three exec backends return factors *bit-identical* to direct
  ``cp_als`` runs, with exactly equal ``TrafficCounter`` totals;
* **cache semantics** — a resubmitted identical job hits the engine
  cache, and its JSONL request log carries **no** ``serve.plan`` span
  (the miss's log does);
* **bad input** — a spec the workers could not run is refused at
  ``submit`` as ``bad-request``, unqueued and unjournaled; a job whose
  tensor holds a NaN fails with the reason, and the daemon goes on
  serving;
* **one encoding, one record** — a job's spec is encoded once and its
  result once, in the worker; every answer for a finished job is its
  journal's bytes, equal to ``Job.to_dict()``, and the job table keeps
  no COO, factors or event of a finished job;
* **admission control** — per-client limits and queue backpressure
  refuse with retryable errors instead of buffering without bound;
* **crash recovery** — a server process SIGKILLed mid-job resumes the
  job from its checkpoint after restart, with the cumulative iteration
  count intact;
* **journal faults** — a terminal journal write that fails (a full disk)
  fails the job with the reason instead of hanging its waiters or
  holding its client's slot, and the next start re-queues it; an
  admission write that fails admits nothing;
* **quiet shutdown** — a ``shutdown`` sent on a connection its client
  holds open ends the daemon with exit code 0 and no traceback.
"""

import asyncio
import errno
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.cpd import cp_als
from repro.engines import create_engine
from repro.parallel import MACHINES
from repro.parallel.counters import TrafficCounter
from repro.serve import (
    DecompositionServer,
    Job,
    JobSpec,
    ServeClient,
    ServeError,
    Spool,
    start_in_thread,
    wait_for_socket,
)
from repro.serve import jobs as jobs_module
from repro.serve.protocol import encode
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
        """3 tensors x 3 exec backends, plus splatt-all on serial and
        threads, all in flight at once: every served result equals its
        direct cp_als twin bit for bit, and the per-job traffic deltas
        equal a fresh counter's totals exactly."""
        sock, _, _ = server
        tensors = {
            seed: random_tensor((12, 9, 7), nnz=200, seed=seed)
            for seed in (1, 2, 3)
        }
        jobs = [
            (seed, make_spec(tensor, exec_backend=backend))
            for seed, tensor in tensors.items()
            for backend in BACKENDS
        ] + [
            (1, make_spec(tensors[1], engine="splatt-all", exec_backend=backend))
            for backend in ("serial", "threads")
        ]
        with ServeClient(sock) as client:
            submitted = [
                (client.submit(spec)["job_id"], seed, spec)
                for seed, spec in jobs
            ]
            assert len(submitted) == 11
            for job_id, seed, spec in submitted:
                job = client.wait(job_id, timeout=120)
                assert job["state"] == "done", job["error"]
                result = job["result"]
                label = (seed, spec.engine, spec.exec_backend)
                direct, traffic = direct_run(tensors[seed], spec)
                assert result["exec_backend"] == spec.exec_backend
                assert result["iterations"] == direct.iterations, label
                assert np.array_equal(
                    np.asarray(result["weights"]), direct.model.weights
                ), label
                for got, want in zip(
                    result["factors"], direct.model.factors
                ):
                    assert np.array_equal(np.asarray(got), want), label
                assert result["traffic"] == traffic, label

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


BAD_FIELDS = [
    ("engine", "nope"),
    ("machine", "nope"),
    ("exec_backend", "gpu"),
    ("init", "svd"),
    ("rank", 0),
    ("max_iters", -1),
    ("checkpoint_every", 0),
    ("num_threads", 0),
]


class TestAdmissionValidation:
    @pytest.mark.parametrize("field,value", BAD_FIELDS)
    def test_bad_spec_refused_before_queue_and_journal(self, server, field,
                                                       value):
        """A spec the workers could not run is refused at submit with the
        reason: nothing is queued or journaled, and the client refuses it
        locally too.  A valid job after it still runs."""
        sock, spool, _ = server
        tensor = random_tensor((8, 7, 6), nnz=80, seed=14)
        with pytest.raises(ValueError, match=field):
            make_spec(tensor, **{field: value})
        bad = dict(make_spec(tensor).to_dict(), **{field: value})
        with ServeClient(sock) as client:
            total = client.stats()["jobs.total"]
            with pytest.raises(ServeError) as excinfo:
                client.request({"op": "submit", "spec": bad, "wait": True})
            assert excinfo.value.reason == "bad-request"
            assert field in str(excinfo.value)
            assert os.listdir(os.path.join(spool, "jobs")) == []
            assert client.stats()["jobs.total"] == total
            good = client.submit(make_spec(tensor), wait=True)
        assert good["state"] == "done", good["error"]


def raw_request(sock_path, message) -> bytes:
    """One request, and the response line exactly as the server sent it."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.connect(sock_path)
        conn.sendall(encode(message))
        with conn.makefile("rb") as reader:
            return reader.readline()


class TestRecordEncoding:
    def test_record_is_encoded_to_dict_in_every_state(self, tmp_path):
        """The record assembled from the encoded fragments is byte for
        byte the encoding of Job.to_dict(), in every state, and so is
        the journal."""
        spool = Spool(str(tmp_path / "spool"))
        tensor = random_tensor((8, 7, 6), nnz=80, seed=15)
        job = Job(job_id="job-x", spec=make_spec(tensor))
        steps = [
            {},
            {"state": "running", "started_at": 2.5, "attempts": 1},
            {"state": "done", "finished_at": 3.25, "cache": "miss",
             "result": {"weights": [1.5, float("nan")],
                        "factors": [[[0.1, 2e-300]]], "fits": [],
                        "iterations": 3, "seconds": 0.125}},
            {"state": "failed", "error": 'ValueError: "quoted"\nline'},
        ]
        for step in steps:
            for name, value in step.items():
                setattr(job, name, value)
            assert job.record() == encode(job.to_dict())
            spool.write_journal(job)
            assert spool.read_journal(job.job_id) == encode(job.to_dict())

    def test_spec_and_result_encoded_once(self, server, monkeypatch):
        """Between admission and its response the server encodes a job's
        spec once, and its result once, in the worker thread."""
        sock, _, _ = server
        spec_calls, result_calls = [], []
        to_dict, compact = JobSpec.to_dict, jobs_module.compact

        def counting_to_dict(self):
            spec_calls.append(threading.current_thread().name)
            return to_dict(self)

        def counting_compact(obj):
            if isinstance(obj, dict) and "factors" in obj:
                result_calls.append(threading.current_thread().name)
            return compact(obj)

        monkeypatch.setattr(JobSpec, "to_dict", counting_to_dict)
        monkeypatch.setattr(jobs_module, "compact", counting_compact)
        tensor = random_tensor((10, 8, 6), nnz=150, seed=16)
        message = {"op": "submit", "spec": make_spec(tensor).to_dict(),
                   "wait": True}
        spec_calls.clear()
        response = json.loads(raw_request(sock, message))
        assert response["job"]["state"] == "done"
        server_side = [n for n in spec_calls
                       if n != threading.current_thread().name]
        assert len(server_side) == 1, spec_calls
        assert len(result_calls) == 1, result_calls
        assert result_calls[0].startswith("repro-serve_")  # a worker

    def test_finished_job_answers_are_its_journal(self, server, monkeypatch):
        """submit-with-wait, wait and status-with-result all answer a done
        job with its journal's bytes, equal to Job.to_dict() as it stood
        at the terminal write."""
        sock, spool, handle = server
        final = {}
        retire = Job.retire

        def snapshot_retire(self):
            final[self.job_id] = json.loads(json.dumps(self.to_dict()))
            retire(self)

        monkeypatch.setattr(Job, "retire", snapshot_retire)
        tensor = random_tensor((10, 8, 6), nnz=150, seed=17)
        spec = make_spec(tensor).to_dict()
        submitted = raw_request(sock, {"op": "submit", "spec": spec,
                                       "wait": True})
        job_id = json.loads(submitted)["job"]["job_id"]
        waited = raw_request(sock, {"op": "wait", "job_id": job_id})
        status = raw_request(sock, {"op": "status", "job_id": job_id,
                                    "result": True})
        journal = Spool(spool).read_journal(job_id)
        expected = b'{"ok":true,"job":' + journal.rstrip(b"\n") + b"}\n"
        assert submitted == waited == status == expected
        assert json.loads(journal) == final[job_id]
        assert final[job_id]["state"] == "done"
        assert final[job_id]["result"]["factors"]

    def test_finished_jobs_keep_no_payload_in_memory(self, server):
        """Once jobs are done or failed, the job table holds no COO
        lists, factor lists, encoded fragments or events, and
        status(result=True) still returns the factors bit for bit."""
        sock, _, handle = server
        tensor = random_tensor((10, 8, 6), nnz=150, seed=18)
        bad = inline_coo(tensor)
        bad["values"][0] = float("inf")
        spec = make_spec(tensor)
        with ServeClient(sock) as client:
            done = client.submit(spec, wait=True)
            failed = client.submit(make_spec(tensor, coo=bad), wait=True)
            waited = [client.submit(make_spec(tensor, seed=s))["job_id"]
                      for s in (1, 2)]
            for job_id in waited:
                client.wait(job_id, timeout=120)
            rows = {r["job_id"]: r for r in client.jobs()}
            fetched = client.status(done["job_id"], result=True)
        assert failed["state"] == "failed"
        server = handle.server
        assert server._events == {}
        for job in server.jobs.values():
            assert job.terminal
            assert job.spec.coo is None
            assert job.result is None or set(job.result) == {
                "iterations", "seconds"}
            assert job._spec_json is None and job._result_json is None
        assert fetched == done
        direct, traffic = direct_run(tensor, spec)
        assert np.array_equal(np.asarray(fetched["result"]["weights"]),
                              direct.model.weights)
        for got, want in zip(fetched["result"]["factors"],
                             direct.model.factors):
            assert np.array_equal(np.asarray(got), want)
        assert fetched["result"]["traffic"] == traffic
        row = rows[done["job_id"]]
        assert row["tensor"] == "<inline>"
        assert row["iterations"] == done["result"]["iterations"]
        assert row["seconds"] == done["result"]["seconds"]


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
                # Over a second of ALS: it occupies the only worker while
                # the next job fills the one-deep queue.
                running = client.submit(make_spec(tensor, max_iters=1200))
                wait_until_running(client, running["job_id"])
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
                # Over a second of ALS: both quick jobs queue behind it.
                running = client.submit(make_spec(blocker, max_iters=1200))
                wait_until_running(client, running["job_id"])
                low = client.submit(make_spec(quick, priority=20, seed=1))
                high = client.submit(make_spec(quick, priority=1, seed=2))
                done_high = client.wait(high["job_id"], timeout=120)
                done_low = client.wait(low["job_id"], timeout=120)
                assert done_high["state"] == done_low["state"] == "done"
                assert done_high["spec"]["priority"] == 1
                # Submitted second, the urgent job still started first.
                assert done_high["started_at"] < done_low["started_at"]
                client.wait(running["job_id"], timeout=120)
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
                assert job["spec"]["coo"] == inline_coo(quick)
                retired = handle.server.jobs[victim["job_id"]]
                assert retired.spec.coo is None
                assert victim["job_id"] not in handle.server._events
                client.wait(running["job_id"], timeout=120)
                rows = client.jobs()
                states = {r["job_id"]: r["state"] for r in rows}
                assert states[victim["job_id"]] == "cancelled"
                assert states[running["job_id"]] == "done"
        finally:
            handle.stop()


class TestBoot:
    def test_unreadable_journals_stay_out_of_the_queue(self, tmp_path):
        """A record with a field the job spec no longer has and a record
        cut short mid-JSON stay on disk and are counted; the valid job
        beside them still runs."""
        spool_dir = tmp_path / "spool"
        jobs_dir = spool_dir / "jobs"
        spool = Spool(str(spool_dir))
        tensor = random_tensor((8, 7, 6), nnz=80, seed=13)
        spool.write_journal(Job(job_id="job-valid", spec=make_spec(tensor)))
        stale = Job(job_id="job-stale", spec=make_spec(tensor)).to_dict()
        stale["spec"]["jit"] = None
        (jobs_dir / "job-stale.json").write_text(json.dumps(stale))
        record = json.dumps(Job(job_id="job-cut", spec=make_spec(tensor)).to_dict())
        (jobs_dir / "job-cut.json").write_text(record[: len(record) // 2])
        sock = str(tmp_path / "s.sock")
        handle = start_in_thread(sock, str(spool_dir), workers=1)
        wait_for_socket(sock)
        try:
            with ServeClient(sock) as client:
                job = client.wait("job-valid", timeout=120)
                assert job["state"] == "done", job["error"]
                assert client.stats()["jobs.unreadable"] == 2
                assert [r["job_id"] for r in client.jobs()] == ["job-valid"]
        finally:
            handle.stop()
        assert json.loads((jobs_dir / "job-stale.json").read_text()) == stale
        assert (jobs_dir / "job-cut.json").read_text() == record[: len(record) // 2]

    def test_boot_failure_raises_at_once(self, tmp_path):
        sock = str(tmp_path / "no-such-dir" / "s.sock")
        t0 = time.monotonic()
        with pytest.raises(OSError):
            start_in_thread(sock, str(tmp_path / "spool"))
        assert time.monotonic() - t0 < 1.0


class TestJournalFailure:
    def test_failed_terminal_write_fails_the_job_and_frees_it(
        self, tmp_path, monkeypatch
    ):
        """The ``done`` journal write raises ENOSPC: the waiter, ``wait``
        and ``status`` with ``result`` get ``journal-failed``, the
        client's slot is free, ``repro jobs`` lists the job ``failed``,
        and its journal, still ``running``, is re-queued at the next
        start."""
        write_journal = Spool.write_journal

        def full_disk_at_done(spool, job):
            if job.state == "done":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write_journal(spool, job)

        monkeypatch.setattr(Spool, "write_journal", full_disk_at_done)
        sock = str(tmp_path / "s.sock")
        spool_dir = tmp_path / "spool"
        tensor = random_tensor((8, 7, 6), nnz=80, seed=13)
        handle = start_in_thread(sock, str(spool_dir), workers=1)
        wait_for_socket(sock)
        try:
            with ServeClient(sock, timeout=30.0) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.submit(make_spec(tensor, client="c"), wait=True)
                error = str(excinfo.value)
                assert excinfo.value.reason == "journal-failed"
                assert os.strerror(errno.ENOSPC) in error
                [row] = client.jobs()
                job_id = row["job_id"]
                assert (row["state"], row["error"]) == ("failed", error)
                for answer in (lambda: client.wait(job_id),
                               lambda: client.status(job_id, result=True)):
                    with pytest.raises(ServeError) as again:
                        answer()
                    assert (again.value.reason, str(again.value)) == (
                        "journal-failed", error)
                stats = client.stats()
                assert (stats["jobs.completed"], stats["jobs.failed"]) == (0, 1)
                assert handle.server.queue.in_flight("c") == 0
        finally:
            handle.stop()
        journal = spool_dir / "jobs" / f"{job_id}.json"
        assert json.loads(journal.read_text())["state"] == "running"

        monkeypatch.setattr(Spool, "write_journal", write_journal)
        handle = start_in_thread(sock, str(spool_dir), workers=1)
        wait_for_socket(sock)
        try:
            with ServeClient(sock, timeout=120.0) as client:
                job = client.wait(job_id)
        finally:
            handle.stop()
        assert (job["state"], job["attempts"]) == ("done", 2), job["error"]

    def test_failed_admission_write_admits_nothing(self, tmp_path, monkeypatch):
        """The ``queued`` journal write raises ENOSPC: the submit is
        answered ``journal-failed``, and the job is not queued, listed,
        journaled or run, nor does it hold its client's slot."""
        write_journal = Spool.write_journal

        def full_disk_at_admission(spool, job):
            if job.state == "queued":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write_journal(spool, job)

        monkeypatch.setattr(Spool, "write_journal", full_disk_at_admission)
        sock = str(tmp_path / "s.sock")
        spool_dir = tmp_path / "spool"
        tensor = random_tensor((8, 7, 6), nnz=80, seed=14)
        handle = start_in_thread(sock, str(spool_dir), workers=1)
        wait_for_socket(sock)
        try:
            with ServeClient(sock, timeout=30.0) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.submit(make_spec(tensor, client="c"))
                assert excinfo.value.reason == "journal-failed"
                assert os.strerror(errno.ENOSPC) in str(excinfo.value)
                time.sleep(0.5)  # a queued job would have run by now
                assert client.jobs() == []
                stats = client.stats()
                assert (stats["queue.depth"], stats["queue.submitted"]) == (0, 0)
                assert (stats["jobs.total"], stats["jobs.completed"]) == (0, 0)
                assert handle.server.queue.in_flight("c") == 0
                assert os.listdir(spool_dir / "jobs") == []
                # The next admission that can be journaled runs.
                monkeypatch.setattr(Spool, "write_journal", write_journal)
                job = client.submit(make_spec(tensor, client="c"), wait=True)
                assert job["state"] == "done", job["error"]
        finally:
            handle.stop()


class TestShutdown:
    def test_shutdown_on_a_held_connection_exits_quietly(self, tmp_path):
        """``shutdown`` sent on a connection the client keeps open: the
        daemon exits 0 and prints no traceback."""
        sock = str(tmp_path / "s.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--spool", str(tmp_path / "spool"), "--workers", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            wait_for_socket(sock)
            with socket.socket(socket.AF_UNIX) as conn:
                conn.connect(sock)
                conn.sendall(b'{"op":"shutdown"}\n')
                assert json.loads(conn.makefile("rb").readline())["ok"]
                time.sleep(1.5)  # held open while the daemon stops
                _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == 0
        assert b"Traceback" not in stderr, stderr.decode()

    def test_stop_ends_held_connections_before_waiting_on_the_server(
        self, tmp_path
    ):
        """From Python 3.12.1, ``Server.wait_closed()`` waits for every
        connection to drop, so ``stop()`` must end the connections a
        client holds open before it waits, whatever the interpreter."""
        sock = str(tmp_path / "s.sock")

        async def scenario():
            server = DecompositionServer(sock, str(tmp_path / "spool"), workers=1)
            await server.start()
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(b'{"op":"ping"}\n')
            assert json.loads(await reader.readline())["ok"]
            open_at_wait = []
            wait_closed = server._server.wait_closed

            async def spy():
                open_at_wait.append(len(server._connections))
                await wait_closed()

            server._server.wait_closed = spy
            await asyncio.wait_for(server.stop(), 30)
            writer.close()
            return open_at_wait

        assert asyncio.run(scenario()) == [0]


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
