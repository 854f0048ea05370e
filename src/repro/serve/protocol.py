"""Wire protocol and job specification for the decomposition service.

Everything the daemon speaks is **line-delimited JSON** over a local
unix socket: one request object per line in, one (or more, for
``wait``-style ops) response objects per line out.  NDJSON keeps the
protocol inspectable with ``nc -U`` + eyes, trivially framable from
asyncio's ``readline``, and append-friendly for the request logs.

Two identities anchor the server's caching story:

* :func:`tensor_fingerprint` — a content hash over the *canonical* COO
  arrays (``from_arrays``-sorted indices, values, shape).  Two requests
  naming the same tensor differently (a ``.tns`` path vs the same
  non-zeros inlined) still collide onto one fingerprint, so they share
  one planned engine and one set of shm segments.
* :func:`cache_key` — the fingerprint joined with every *plan-affecting*
  option (engine, rank, machine, threads, exec backend, memoize).
  ALS-trajectory options (iterations, tolerance, init, seed) are
  deliberately excluded: they do not change the planned engine, so runs
  that differ only there still hit the cache.

Floats survive the wire bit-exactly: ``json`` emits ``repr`` shortest
round-trip representations, so factor matrices serialized as nested
lists compare ``np.array_equal`` with the in-process result.

A :class:`JobSpec` checks its options when it is built, so a spec the
workers could not run is refused at ``submit`` (``bad-request``, with
the reason) before it is queued or journaled.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..engines import engine_names
from ..parallel import MACHINES
from ..parallel.executor import EXEC_BACKENDS

__all__ = [
    "MAX_LINE_BYTES",
    "JobSpec",
    "cache_key",
    "compact",
    "decode_line",
    "encode",
    "tensor_fingerprint",
]

#: Stream limit for asyncio readline framing.  Inline COO payloads for
#: the Table-I tensors are a few MB; 256 MB leaves headroom without
#: letting one client exhaust the host.
MAX_LINE_BYTES = 256 * 1024 * 1024


def compact(obj: Any) -> str:
    """Compact JSON, the one encoding of every message and journal."""
    return json.dumps(obj, separators=(",", ":"))


def encode(obj: Dict[str, Any]) -> bytes:
    """One protocol message: compact JSON, newline-terminated."""
    return compact(obj).encode() + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line into a message dict."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("protocol messages must be JSON objects")
    return obj


def tensor_fingerprint(indices: np.ndarray, values: np.ndarray,
                       shape) -> str:
    """Content hash of a canonical COO tensor (sha256, hex).

    Hashes the dense extents plus the raw bytes of the contiguous
    int64 index and float64 value arrays.  Callers must pass arrays in
    canonical order (``CooTensor.from_arrays`` sorting) so equal tensors
    fingerprint equally regardless of the order the request listed the
    non-zeros in.
    """
    digest = hashlib.sha256()
    digest.update(np.asarray(shape, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(indices, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


@dataclass
class JobSpec:
    """One decomposition request, as submitted over the wire.

    ``tensor`` names a Table-I generator or a ``.tns[.gz]`` path readable
    by the *server*; ``coo`` inlines the non-zeros (``{"indices":
    [[...]...], "values": [...], "shape": [...]}``) for clients whose
    tensors the server cannot see.  Exactly one of the two must be set.
    """

    # -- what to decompose --------------------------------------------
    tensor: Optional[str] = None
    coo: Optional[Dict[str, Any]] = None
    nnz: int = 5000          # Table-I generator size
    tensor_seed: int = 0     # Table-I generator seed

    # -- plan-affecting engine options (part of the cache key) ---------
    engine: str = "stef"
    rank: int = 8
    machine: str = "intel-clx-18"
    num_threads: Optional[int] = None
    exec_backend: str = "serial"
    memoize: Optional[bool] = None

    # -- ALS trajectory options (not part of the cache key) ------------
    max_iters: int = 50
    tol: float = 1e-5
    init: str = "random"
    seed: int = 0
    compute_fit: bool = True
    checkpoint_every: int = 5

    # -- scheduling ----------------------------------------------------
    priority: int = 10       # lower runs first
    client: str = "anon"

    def __post_init__(self) -> None:
        if (self.tensor is None) == (self.coo is None):
            raise ValueError("exactly one of tensor= or coo= must be set")
        for name, allowed in (("engine", engine_names()),
                              ("machine", sorted(MACHINES)),
                              ("exec_backend", EXEC_BACKENDS),
                              ("init", ("random", "hosvd"))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {list(allowed)}, "
                                 f"got {getattr(self, name)!r}")
        for name in ("rank", "max_iters", "checkpoint_every", "num_threads"):
            value = getattr(self, name)
            if name == "num_threads" and value is None:
                continue  # the machine's thread count
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, "
                                 f"got {value!r}")

    # ------------------------------------------------------------------
    def plan_options(self) -> Dict[str, Any]:
        """The options that change the planned engine (cache key part)."""
        return {
            "engine": self.engine,
            "rank": self.rank,
            "machine": self.machine,
            "num_threads": self.num_threads,
            "exec_backend": self.exec_backend,
            "memoize": self.memoize,
        }

    def to_dict(self) -> Dict[str, Any]:
        """The fields as they are: the inline COO is shared, not copied."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown job spec fields: {sorted(unknown)}")
        return cls(**data)


def cache_key(fingerprint: str, spec: JobSpec) -> str:
    """Engine-cache key: tensor content identity + plan options."""
    opts = spec.plan_options()
    parts = [fingerprint] + [f"{k}={opts[k]}" for k in sorted(opts)]
    return "|".join(parts)
