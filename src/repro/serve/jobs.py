"""Job records, journal persistence, and the on-disk spool layout.

A job's full lifecycle lives in two places:

* in memory, as a :class:`Job` (the dispatcher's unit of work), and
* on disk, as an atomically-written JSON **journal** under the spool
  directory — the crash-recovery record.

Spool layout (one directory per server instance)::

    <spool>/jobs/<job_id>.json         -- journal (state + spec + result)
    <spool>/checkpoints/<job_id>.npz   -- cp_als checkpoint (resumable)
    <spool>/logs/<job_id>.jsonl        -- per-request trace record

On restart the server replays the journals: jobs that were ``queued``
or ``running`` when the previous process died are re-enqueued with
``resume`` semantics — the worker passes the job's checkpoint path to
``cp_als(resume=True)``, so a killed mid-run job continues from its last
complete checkpoint instead of starting over, and its cumulative
iteration count keeps climbing.  Journal writes use the same
tmp + ``os.replace`` discipline as the checkpoints, so a journal is
always a complete JSON document.

A journal holds the job's *record* (:meth:`Job.to_dict`) as one line of
compact JSON, the bytes a response carries.  :meth:`Job.record`
assembles it from the spec and the result, each encoded once, and the
small state fields, so no transition re-encodes the inline COO or the
factors.  Once the terminal record is on disk, :meth:`Job.retire` drops
those payloads from memory, and the server answers for the job with the
journal's bytes.

A record that cannot be read all the same — a file cut short mid-JSON,
or a spec with a field this version's :class:`JobSpec` no longer has or
a value it refuses — stays on disk and out of the queue, and ``repro
jobs --stats`` counts it as ``jobs.unreadable``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from .protocol import JobSpec, compact

__all__ = [
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "Job",
    "Spool",
]

#: Lifecycle: queued -> running -> done | failed | cancelled.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

ACTIVE_STATES = (QUEUED, RUNNING)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


@dataclass
class Job:
    """One submitted decomposition request and everything known about it."""

    job_id: str
    spec: JobSpec
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    cache: Optional[str] = None      # "hit" | "miss" | "bypass"
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    # The spec and the result as compact JSON, each encoded at most once.
    _spec_json: Optional[str] = field(default=None, init=False, repr=False)
    _result_json: Optional[str] = field(default=None, init=False, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def summary(self) -> Dict[str, Any]:
        """The compact row ``repro jobs`` prints (no factor payload)."""
        out = {
            "job_id": self.job_id,
            "state": self.state,
            "client": self.spec.client,
            "engine": self.spec.engine,
            "tensor": self.spec.tensor or "<inline>",
            "rank": self.spec.rank,
            "exec_backend": self.spec.exec_backend,
            "priority": self.spec.priority,
            "attempts": self.attempts,
            "cache": self.cache,
            "error": self.error,
        }
        if self.result is not None:
            out["iterations"] = self.result.get("iterations")
            out["seconds"] = self.result.get("seconds")
        return out

    def _state(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "cache": self.cache,
            "error": self.error,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            **self._state(),
            "result": self.result,
        }

    def encode_result(self) -> None:
        """Encode the result, once.  The worker that produced it calls
        this, so the event loop never encodes the factors."""
        if self.result is not None and self._result_json is None:
            self._result_json = compact(self.result)

    def record(self) -> bytes:
        """The record as one line of compact JSON, byte for byte what
        ``protocol.encode(self.to_dict())`` writes, assembled from the
        encoded spec and result plus the small state fields."""
        if self._spec_json is None:
            self._spec_json = compact(self.spec.to_dict())
        self.encode_result()
        return (
            f'{{"job_id":{compact(self.job_id)},"spec":{self._spec_json},'
            f'{compact(self._state())[1:-1]},'
            f'"result":{self._result_json or "null"}}}\n'
        ).encode()

    def retire(self) -> None:
        """Drop what a terminal job no longer needs in memory once its
        journal holds the full record: the inline COO, the factors and
        the encoded fragments.  What stays is what :meth:`summary`, the
        queue and the server's counters read."""
        if self.spec.coo is not None:
            self.spec = replace(self.spec, coo=None, tensor="<inline>")
        if self.result is not None:
            self.result = {key: self.result[key]
                           for key in ("iterations", "seconds")}
        self._spec_json = self._result_json = None

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        data = dict(data)
        data["spec"] = JobSpec.from_dict(data["spec"])
        return cls(**data)


class Spool:
    """The server's on-disk state directory (journals, checkpoints, logs)."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        for sub in ("jobs", "checkpoints", "logs"):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)
        #: Journal files the last :meth:`load_jobs` could not parse.
        self.unreadable: List[str] = []

    # -- paths ---------------------------------------------------------
    def journal_path(self, job_id: str) -> str:
        return os.path.join(self.root, "jobs", f"{job_id}.json")

    def checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.root, "checkpoints", f"{job_id}.npz")

    def log_path(self, job_id: str) -> str:
        return os.path.join(self.root, "logs", f"{job_id}.jsonl")

    # -- journal I/O ---------------------------------------------------
    def write_journal(self, job: Job) -> None:
        """Persist the job record atomically (tmp + rename)."""
        path = self.journal_path(job.job_id)
        tmp = f"{path}.tmp-{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(job.record())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    def read_journal(self, job_id: str) -> bytes:
        """A job's journaled record, as written: one line of JSON."""
        with open(self.journal_path(job_id), "rb") as fh:
            return fh.read()

    def load_jobs(self) -> List[Job]:
        """Every readable journaled job, oldest submission first; the
        files it cannot parse are left alone and listed in
        :attr:`unreadable`."""
        jobs: List[Job] = []
        self.unreadable = []
        jobs_dir = os.path.join(self.root, "jobs")
        for name in os.listdir(jobs_dir):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(jobs_dir, name)) as fh:
                    jobs.append(Job.from_dict(json.load(fh)))
            except (ValueError, TypeError, KeyError):
                self.unreadable.append(name)
        jobs.sort(key=lambda j: j.submitted_at)
        return jobs

    def recoverable_jobs(self) -> List[Job]:
        """Jobs a previous server process left unfinished.

        ``queued`` jobs were accepted but never ran; ``running`` jobs
        died with the worker.  Both come back as ``queued`` (the
        dispatcher bumps ``attempts`` at every run start, so the journal's
        count already includes the dead attempt) — the worker's
        ``resume=True`` picks up whatever checkpoint the dead attempt
        managed to write.
        """
        recovered: List[Job] = []
        for job in self.load_jobs():
            if job.state in ACTIVE_STATES:
                job.state = QUEUED
                recovered.append(job)
        return recovered

    def clear_checkpoint(self, job_id: str) -> None:
        path = self.checkpoint_path(job_id)
        if os.path.exists(path):
            os.remove(path)
