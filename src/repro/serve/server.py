"""The asyncio job server: unix socket in, worker pool out.

One event loop owns all coordination state (queue, job table, stats);
the only work that leaves the loop is :func:`~repro.serve.pool
.execute_job`, dispatched to a bounded ``ThreadPoolExecutor``.  MTTKRP
sweeps are NumPy calls that release the GIL, so thread workers
overlap real work while keeping one shared
:class:`~repro.serve.cache.EngineCache` — a process pool would defeat
the whole point of pooling planned engines and their shm segments.

Lifecycle guarantees:

* every state transition is journaled (atomic JSON under the spool)
  *before* the transition is visible to clients, so a ``SIGKILL`` at any
  point leaves a replayable record;
* on :meth:`start`, journals of ``queued``/``running`` jobs from a dead
  process re-enter the queue (``force=True`` — they were admitted once)
  and resume from their checkpoints; a journal that cannot be parsed
  stays on disk and is counted as ``jobs.unreadable``;
* ``wait`` is event-driven: a job that has waiters has an
  ``asyncio.Event``, set (and dropped) when it reaches a terminal state,
  so waiting clients cost nothing but a parked coroutine;
* a terminal job keeps only its summary in memory (:meth:`Job.retire`);
  every response that carries its record is its journal's bytes, so
  what a client sees is exactly what the journal says;
* a journal write that fails (a full disk, say) fails the job with the
  reason ``journal-failed`` and still frees its slot and wakes its
  waiters; the journal keeps its last state, so the next start re-queues
  the job, as after a killed daemon.  When the failed write is the
  admission's, the job was never admitted: it leaves nothing queued,
  listed or journaled, and the submit is answered ``journal-failed``;
* :meth:`stop` lets in-flight jobs finish, then ends the handlers of
  connections a client still holds open, so the loop exits quietly.

Protocol ops (one JSON object per line, one response line each):
``ping``, ``submit`` (optionally ``"wait": true``), ``wait``,
``status``, ``jobs``, ``stats``, ``cancel``, ``shutdown``.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Any, Dict, Optional, Set, Union

from .cache import EngineCache
from .jobs import CANCELLED, DONE, FAILED, QUEUED, RUNNING, Job, Spool
from .pool import execute_job
from .protocol import MAX_LINE_BYTES, JobSpec, decode_line, encode
from .queue import ClientLimitExceeded, JobQueue, QueueFull

__all__ = ["DecompositionServer", "ServerHandle", "start_in_thread"]


#: What an op answers: a message to encode, or a line already encoded.
Reply = Union[Dict[str, Any], bytes]


class DecompositionServer:
    def __init__(
        self,
        socket_path: str,
        spool_dir: str,
        *,
        workers: int = 2,
        max_depth: int = 64,
        per_client: int = 16,
        cache_capacity: int = 8,
    ) -> None:
        self.socket_path = socket_path
        self.spool = Spool(spool_dir)
        self.queue = JobQueue(max_depth=max_depth, per_client=per_client)
        self.cache = EngineCache(capacity=cache_capacity)
        self.workers = workers
        self.jobs: Dict[str, Job] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve",
        )
        self._events: Dict[str, asyncio.Event] = {}
        self._seq = itertools.count(1)
        self._latency: Dict[str, Dict[str, float]] = {}
        # The jobs whose journal write failed, and the error.
        self._journal_errors: Dict[str, str] = {}
        self.completed = 0
        self.failed = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._stopping: Optional[asyncio.Event] = None
        # The handlers of the open connections.
        self._connections: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._stopping = asyncio.Event()
        for job in self.spool.recoverable_jobs():
            self.jobs[job.job_id] = job
            self.spool.write_journal(job)
            await self.queue.push(job, force=True)
        if os.path.exists(self.socket_path):
            os.remove(self.socket_path)  # stale socket from a dead server
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path,
            limit=MAX_LINE_BYTES,
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def run(self) -> None:
        """Start and serve until a ``shutdown`` op (or :meth:`stop`)."""
        await self.start()
        assert self._stopping is not None
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._server is not None:
            self._server.close()
        # Let in-flight jobs finish so their journals reach a terminal
        # state; queued jobs stay journaled for the next start().
        await asyncio.get_running_loop().run_in_executor(
            None, self._executor.shutdown, True,
        )
        self.cache.close()
        if os.path.exists(self.socket_path):
            os.remove(self.socket_path)
        # A connection its client holds open would leave its handler
        # parked in readline() for the loop's teardown to cancel, and
        # (Python 3.12.1+) wait_closed() waiting on it; end each one
        # before waiting for the server.
        for task in list(self._connections):
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    def request_stop(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        semaphore = asyncio.Semaphore(self.workers)
        while True:
            # Acquire the worker slot *first*: a popped-but-unstarted job
            # would vanish from the queue's depth while still pending,
            # silently widening the backpressure bound by one.
            await semaphore.acquire()
            job = await self.queue.pop()
            asyncio.create_task(self._run_job(job, semaphore))

    async def _run_job(self, job: Job, semaphore: asyncio.Semaphore) -> None:
        try:
            try:
                await self._execute(job)
            except Exception as exc:  # a journal write failed
                job.state = FAILED
                job.finished_at = time.time()
                job.error = f"journal write failed: {type(exc).__name__}: {exc}"
                self._journal_errors[job.job_id] = job.error
            if job.state == DONE:
                self.completed += 1
                self._record_latency(job)
            else:
                self.failed += 1
            self.queue.release(job)
            self._finish(job)
        finally:
            semaphore.release()

    async def _execute(self, job: Job) -> None:
        """Run ``job`` on a worker, journaling its start and its end.  A
        worker error fails the job; only a journal write raises."""
        job.state = RUNNING
        job.started_at = time.time()
        job.attempts += 1
        self.spool.write_journal(job)
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(
                self._executor, execute_job, job, self.spool, self.cache,
            )
            job.state = DONE
        except Exception as exc:  # worker errors fail the job, not us
            job.state = FAILED
            job.error = f"{type(exc).__name__}: {exc}"
        job.finished_at = time.time()
        self.spool.write_journal(job)

    def _finish(self, job: Job) -> None:
        """After the terminal journal write: slim the job and wake its
        waiters, who answer from the journal (or, when the write failed,
        with the failure)."""
        job.retire()
        event = self._events.pop(job.job_id, None)
        if event is not None:
            event.set()

    def _record_latency(self, job: Job) -> None:
        assert job.result is not None
        stats = self._latency.setdefault(
            job.spec.engine, {"count": 0.0, "seconds": 0.0},
        )
        stats["count"] += 1.0
        stats["seconds"] += float(job.result["seconds"])

    def _event_for(self, job_id: str) -> asyncio.Event:
        event = self._events.get(job_id)
        if event is None:
            event = asyncio.Event()
            self._events[job_id] = event
        return event

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = decode_line(line)
                    response = await self._dispatch_op(message)
                except Exception as exc:
                    response = {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                        "reason": "bad-request",
                    }
                writer.write(response if isinstance(response, bytes)
                             else encode(response))
                await writer.drain()
        except asyncio.CancelledError:
            # stop() ends the connections still open.  The handler ends
            # normally: asyncio's stream callback (Python 3.11) reports a
            # cancelled handler as an unhandled error.
            pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
            except RuntimeError:
                pass  # loop already torn down under us (shutdown race)

    async def _dispatch_op(self, message: Dict[str, Any]) -> Reply:
        op = message.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "submit":
            return await self._op_submit(message)
        if op == "wait":
            return await self._op_wait(message)
        if op == "status":
            return self._op_status(message)
        if op == "jobs":
            return {
                "ok": True,
                "jobs": [j.summary() for j in self.jobs.values()],
            }
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "cancel":
            return self._op_cancel(message)
        if op == "shutdown":
            self.request_stop()
            return {"ok": True, "op": "shutdown"}
        return {"ok": False, "error": f"unknown op {op!r}",
                "reason": "bad-request"}

    async def _op_submit(self, message: Dict[str, Any]) -> Reply:
        spec = JobSpec.from_dict(message["spec"])
        job_id = f"job-{next(self._seq):06d}-{uuid.uuid4().hex[:8]}"
        job = Job(job_id=job_id, spec=spec)
        try:
            await self.queue.push(job)
        except QueueFull as exc:
            return {"ok": False, "error": str(exc), "reason": "queue-full",
                    "retry": True}
        except ClientLimitExceeded as exc:
            return {"ok": False, "error": str(exc), "reason": "client-limit",
                    "retry": True}
        try:
            self.spool.write_journal(job)
        except Exception as exc:  # a full disk, say: admit nothing
            self.queue.withdraw(job)
            return {"ok": False, "reason": "journal-failed",
                    "error": f"journal write failed: {type(exc).__name__}: {exc}"}
        self.jobs[job_id] = job
        if message.get("wait"):
            return await self._terminal_response(job)
        return {"ok": True, "job_id": job_id, "state": job.state}

    async def _op_wait(self, message: Dict[str, Any]) -> Reply:
        job = self.jobs.get(message.get("job_id", ""))
        if job is None:
            return {"ok": False, "error": "no such job", "reason": "not-found"}
        try:
            return await self._terminal_response(job, message.get("timeout"))
        except asyncio.TimeoutError:
            return {"ok": False, "error": "timed out waiting",
                    "reason": "timeout", "retry": True}

    async def _terminal_response(self, job: Job,
                                 timeout: Optional[float] = None) -> Reply:
        """Wait for ``job`` to finish, then answer with its record.  A job
        already terminal is answered at once: its event is gone, and a
        fresh one would never be set."""
        if not job.terminal:
            await asyncio.wait_for(self._event_for(job.job_id).wait(), timeout)
        return self._record_response(job)

    def _record_response(self, job: Job) -> Reply:
        """``{"ok": true, "job": <record>}``.  A terminal job's record is
        its journal; a live job's is assembled from its fragments.  A job
        whose journal write failed has no record to answer with."""
        error = self._journal_errors.get(job.job_id)
        if error is not None:
            return {"ok": False, "error": error, "reason": "journal-failed"}
        record = (self.spool.read_journal(job.job_id) if job.terminal
                  else job.record())
        return b'{"ok":true,"job":' + record.rstrip(b"\n") + b"}\n"

    def _op_status(self, message: Dict[str, Any]) -> Reply:
        job = self.jobs.get(message.get("job_id", ""))
        if job is None:
            return {"ok": False, "error": "no such job", "reason": "not-found"}
        if message.get("result"):
            return self._record_response(job)
        return {"ok": True, "job": job.summary()}

    def _op_cancel(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job = self.jobs.get(message.get("job_id", ""))
        if job is None:
            return {"ok": False, "error": "no such job", "reason": "not-found"}
        if job.state != QUEUED:
            return {"ok": False,
                    "error": f"job is {job.state}; only queued jobs cancel",
                    "reason": "not-cancellable"}
        job.state = CANCELLED
        job.finished_at = time.time()
        self.spool.write_journal(job)
        self._finish(job)
        return {"ok": True, "job_id": job.job_id, "state": job.state}

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The flat-metrics endpoint behind ``repro jobs --stats``."""
        out: Dict[str, Any] = {}
        out.update(self.queue.stats())
        out.update(self.cache.stats())
        out["jobs.completed"] = float(self.completed)
        out["jobs.failed"] = float(self.failed)
        out["jobs.total"] = float(len(self.jobs))
        out["jobs.unreadable"] = float(len(self.spool.unreadable))
        out["workers"] = float(self.workers)
        for engine, stats in sorted(self._latency.items()):
            count = stats["count"] or 1.0
            out[f"latency.{engine}.count"] = stats["count"]
            out[f"latency.{engine}.seconds"] = stats["seconds"]
            out[f"latency.{engine}.mean_seconds"] = stats["seconds"] / count
        return out


class ServerHandle:
    """A server running on a background thread (tests, benches, CI)."""

    def __init__(self, server: DecompositionServer,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self.loop = loop
        self.thread = thread

    def stop(self, timeout: float = 30.0) -> None:
        self.loop.call_soon_threadsafe(self.server.request_stop)
        self.thread.join(timeout)


def start_in_thread(socket_path: str, spool_dir: str,
                    **kwargs: Any) -> ServerHandle:
    """Boot a server on a daemon thread and wait for its socket.  A boot
    failure (an unusable socket path, say) is raised here as soon as the
    loop thread dies of it."""
    server = DecompositionServer(socket_path, spool_dir, **kwargs)
    loop = asyncio.new_event_loop()
    booted: "Future[None]" = Future()

    def main() -> None:
        asyncio.set_event_loop(loop)

        async def run() -> None:
            await server.start()
            booted.set_result(None)
            assert server._stopping is not None
            await server._stopping.wait()
            await server.stop()

        try:
            loop.run_until_complete(run())
        except Exception as exc:
            if booted.done():
                raise
            booted.set_exception(exc)
        finally:
            loop.close()

    thread = threading.Thread(target=main, name="repro-serve-loop",
                              daemon=True)
    thread.start()
    try:
        booted.result(timeout=30.0)
    except FutureTimeout:
        raise RuntimeError("serve loop failed to start within 30s") from None
    return ServerHandle(server, loop, thread)
