"""Priority job queue with backpressure and per-client admission limits.

The queue is the server's *admission control* point, not just a buffer:

* **priority** — jobs pop in ``(priority, submission order)`` order, so
  a low-priority bulk batch cannot starve an interactive request, and
  equal priorities stay FIFO (heapq on a monotone sequence number).
* **backpressure** — a hard ``max_depth``: once the backlog is full the
  server *refuses* the submit (``queue-full``, retryable) instead of
  buffering without bound.  Unbounded acceptance just moves the failure
  from the client's retry loop to the server's memory.
* **per-client limits** — each client name may hold at most
  ``per_client`` jobs in flight (queued + running).  One greedy client
  saturating the workers is a rate-limit error (``client-limit``) for
  that client while others keep submitting.

All methods run on the server's event loop thread, so the only
synchronization needed is the ``asyncio.Condition`` that parks the
dispatcher while the queue is empty.  Jobs cancelled while queued are
skipped lazily at pop time (heap surgery is not worth it at these
depths).
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Dict, List, Tuple

from .jobs import CANCELLED, Job

__all__ = ["ClientLimitExceeded", "JobQueue", "QueueFull"]


class QueueFull(Exception):
    """The backlog reached ``max_depth``; the submit was refused."""


class ClientLimitExceeded(Exception):
    """The submitting client already has ``per_client`` jobs in flight."""


class JobQueue:
    def __init__(self, max_depth: int = 64, per_client: int = 16) -> None:
        self.max_depth = max_depth
        self.per_client = per_client
        self._heap: List[Tuple[int, int, Job]] = []
        self._seq = 0
        self._in_flight: Dict[str, int] = {}
        self._cond = asyncio.Condition()
        # Lifetime counters for the stats endpoint.
        self.submitted = 0
        self.refused_full = 0
        self.refused_client = 0
        self.max_depth_seen = 0

    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Jobs waiting to run (cancelled-but-unpopped entries excluded)."""
        return sum(1 for _, _, job in self._heap if job.state != CANCELLED)

    def in_flight(self, client: str) -> int:
        return self._in_flight.get(client, 0)

    # ------------------------------------------------------------------
    async def push(self, job: Job, *, force: bool = False) -> None:
        """Admit a job, or raise the applicable admission error.

        ``force=True`` skips admission checks — used only when replaying
        journaled jobs on restart, which were already admitted once.
        """
        async with self._cond:
            client = job.spec.client
            if not force:
                if self.depth() >= self.max_depth:
                    self.refused_full += 1
                    raise QueueFull(
                        f"queue depth {self.max_depth} reached; retry later"
                    )
                if self._in_flight.get(client, 0) >= self.per_client:
                    self.refused_client += 1
                    raise ClientLimitExceeded(
                        f"client {client!r} already has {self.per_client} "
                        f"jobs in flight"
                    )
            self._seq += 1
            heapq.heappush(self._heap, (job.spec.priority, self._seq, job))
            self._in_flight[client] = self._in_flight.get(client, 0) + 1
            self.submitted += 1
            self.max_depth_seen = max(self.max_depth_seen, self.depth())
            self._cond.notify()

    async def pop(self) -> Job:
        """Next runnable job, parking until one is available.

        Cancelled entries are dropped here (their in-flight slot is
        released) rather than dug out of the heap at cancel time.
        """
        async with self._cond:
            while True:
                while self._heap:
                    _, _, job = heapq.heappop(self._heap)
                    if job.state == CANCELLED:
                        self.release(job)
                        continue
                    return job
                await self._cond.wait()

    def withdraw(self, job: Job) -> None:
        """Take back a job admitted by :meth:`push` that never became
        visible (its admission journal write failed): out of the
        backlog and the lifetime count, its client's slot freed."""
        self._heap = [entry for entry in self._heap if entry[2] is not job]
        heapq.heapify(self._heap)
        self.submitted -= 1
        self.release(job)

    def release(self, job: Job) -> None:
        """Return a finished (or cancelled) job's per-client slot."""
        client = job.spec.client
        count = self._in_flight.get(client, 0) - 1
        if count <= 0:
            self._in_flight.pop(client, None)
        else:
            self._in_flight[client] = count

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        return {
            "queue.depth": float(self.depth()),
            "queue.max_depth": float(self.max_depth),
            "queue.max_depth_seen": float(self.max_depth_seen),
            "queue.submitted": float(self.submitted),
            "queue.refused_full": float(self.refused_full),
            "queue.refused_client": float(self.refused_client),
        }
