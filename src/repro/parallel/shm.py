"""Shared-memory array plumbing for the ``processes`` execution backend.

A true process-parallel backend cannot rely on Python object sharing: each
worker is a separate interpreter.  What *can* be shared, zero-copy, is raw
array storage — ``multiprocessing.shared_memory`` segments that both the
coordinator and every worker map into their address space.  This module
provides the two halves of that contract:

* **coordinator side** — :class:`SharedArena` owns a set of segments,
  copies arrays into them (:meth:`SharedArena.share`) or allocates zeroed
  ones (:meth:`SharedArena.zeros`), and hands out :class:`ShmToken`
  descriptors.  Tokens are tiny picklable tuples, so shipping one to a
  worker costs a few bytes regardless of the array size.  The arena
  unlinks every segment when closed (or garbage-collected), so engines
  cannot leak ``/dev/shm`` space.

* **worker side** — :func:`attach` resolves a token to a NumPy view of the
  same physical pages.  Attachments are cached per process (keyed by the
  segment name, which the arena makes unique), so repeated kernel
  invocations against the same engine pay the ``shm_open``/``mmap`` cost
  once.  The cache is bounded: least-recently-used segments are dropped
  (their mappings die with the last array reference) so long-lived shared
  worker pools do not accumulate mappings across many engines.

The segments hold *storage*, not objects: the coordinator writes factor
matrices into pre-allocated slots before dispatching a kernel and workers
see the update with no serialization at all, which is what makes per-call
dispatch cheap enough for MTTKRP-sized work units.
"""

from __future__ import annotations

import secrets
import weakref
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Dict, NamedTuple, Tuple

import numpy as np

__all__ = ["ShmToken", "SharedArena", "attach", "attached_segment_count"]


class ShmToken(NamedTuple):
    """Picklable descriptor of one shared array: segment + layout."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def _as_ndarray(seg: shared_memory.SharedMemory, token: ShmToken) -> np.ndarray:
    return np.ndarray(token.shape, dtype=np.dtype(token.dtype), buffer=seg.buf)


class SharedArena:
    """Owns shared-memory segments for one engine's lifetime.

    Every :meth:`share`/:meth:`zeros` call creates one segment with a
    fresh, collision-free name.  The arena keeps the coordinator-side
    mapping alive (NumPy views returned by :meth:`array` borrow the
    segment's buffer) and tears everything down in :meth:`close` —
    registered as a GC finalizer as well, so an engine that is simply
    dropped still releases its ``/dev/shm`` space.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._finalizer = weakref.finalize(self, _close_segments, self._segments)

    # ------------------------------------------------------------------
    def share(self, array: np.ndarray) -> ShmToken:
        """Copy ``array`` into a fresh segment; returns its token."""
        arr = np.ascontiguousarray(array)
        token = self.zeros(arr.shape, arr.dtype)
        self.array(token)[...] = arr
        return token

    def zeros(self, shape: Tuple[int, ...], dtype=np.float64) -> ShmToken:
        """Allocate a zero-filled shared array; returns its token."""
        if not self._finalizer.alive:
            raise RuntimeError("SharedArena is closed")
        token = ShmToken(
            f"repro-{secrets.token_hex(8)}",
            tuple(int(s) for s in shape),
            np.dtype(dtype).str,
        )
        seg = shared_memory.SharedMemory(
            name=token.name, create=True, size=max(1, token.nbytes())
        )
        # Fresh POSIX shm is zero-filled; no explicit memset needed.
        self._segments[token.name] = seg
        return token

    def array(self, token: ShmToken) -> np.ndarray:
        """Coordinator-side view of a segment this arena owns."""
        return _as_ndarray(self._segments[token.name], token)

    def release(self, token: ShmToken) -> None:
        """Unlink and unmap one owned segment before the arena closes."""
        _close_segments({token.name: self._segments.pop(token.name)})

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink and unmap every owned segment (idempotent)."""
        self._finalizer.detach()
        _close_segments(self._segments)

    def __len__(self) -> int:
        return len(self._segments)


def _close_segments(segments: Dict[str, shared_memory.SharedMemory]) -> None:
    for seg in segments.values():
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            seg.close()
        except BufferError:  # pragma: no cover - view outlives the arena
            # A live NumPy view still pins the mapping; the pages are
            # released when the last view dies, and the segment is
            # already unlinked, so nothing leaks either way.
            pass
    segments.clear()


# ----------------------------------------------------------------------
# worker-side attachment cache
# ----------------------------------------------------------------------

#: Max distinct segments kept mapped per worker process.  Evicted entries
#: merely drop the cache reference — the underlying mapping lives until
#: the last NumPy view of it dies, so eviction is always safe.
_ATTACH_CACHE_SIZE = 256

_attached: "OrderedDict[str, Tuple[shared_memory.SharedMemory, np.ndarray]]" = (
    OrderedDict()
)


def attach(token: ShmToken) -> np.ndarray:
    """Resolve a token to an array view, caching the segment mapping.

    Safe to call on the coordinator too (tests do); the arena's own
    segments resolve by name exactly like a worker's.
    """
    entry = _attached.get(token.name)
    if entry is not None:
        _attached.move_to_end(token.name)
        seg, arr = entry
        if arr.shape == token.shape and arr.dtype == np.dtype(token.dtype):
            return arr
        return _as_ndarray(seg, token)
    seg = shared_memory.SharedMemory(name=token.name)
    arr = _as_ndarray(seg, token)
    _attached[token.name] = (seg, arr)
    while len(_attached) > _ATTACH_CACHE_SIZE:
        _attached.popitem(last=False)
    return arr


def attached_segment_count() -> int:
    """Number of segments currently cached in this process (tests)."""
    return len(_attached)

