"""EngineBase — shared lifecycle and protocol defaults for MTTKRP engines.

Every engine (STeF, STeF2, and the baselines) inherits this base, so
``cp_als``, the harness and the CLI see one surface:

* **context management** — ``with create_engine(...) as eng:`` releases
  shared-memory segments even when the body raises; ``__exit__`` calls
  :meth:`close`, which subclasses with real resources (the ``processes``
  backend's shm arenas) override.  Bare ``close()`` keeps working — the
  context-manager form just makes the release exception-safe.
* **iteration_results** — the generic "all ``d`` MTTKRPs in level order"
  loop over :meth:`mttkrp_level`.
* **kernel_span** — the one ``mttkrp.mode0`` / ``mttkrp.mode_level``
  span every kernel call opens.
* **describe** — a one-line configuration summary, defaulting to the
  engine's registry name.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["EngineBase", "resolve_exec_backend", "resolve_num_threads"]


def resolve_num_threads(machine, num_threads: Optional[int]) -> int:
    """The effective thread count: an explicit override wins, else the
    machine model's count, else 1 (the cache-less single-thread model)."""
    if num_threads is not None:
        return int(num_threads)
    return int(machine.num_threads) if machine is not None else 1


def resolve_exec_backend(exec_backend: Optional[str]) -> str:
    """The pool-execution mode: ``"serial"`` unless one is given."""
    return "serial" if exec_backend is None else exec_backend


class EngineBase:
    """Protocol-default mixin for MTTKRP engines (see module docstring)."""

    #: Registry name; subclasses set their harness/plot name.
    name: str = "?"
    #: Update-position → original-mode mapping; subclasses set this.
    mode_order: Tuple[int, ...] = ()

    #: The implementation of the flat-array kernel ABI (:mod:`repro.kernels`)
    #: every engine runs; stamped into run metadata.
    kernel_tier: str = "numpy"
    #: The resolved pool-execution mode (:func:`resolve_exec_backend`);
    #: every engine sets it in ``__init__``; stamped into run metadata.
    exec_backend: str

    #: Whether the engine memoizes partial results (accepts ``plan=`` /
    #: the factory's ``memoize=`` knob; read by create_engine).
    memoize_capable: bool = False

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release engine resources (shared-memory segments under the
        ``processes`` exec backend; a no-op for engines without any)."""
        return None

    # -- pooling (repro.serve engine cache) ----------------------------
    @property
    def leased(self) -> bool:
        """Whether a pool has checked this engine out to a job."""
        return getattr(self, "_lease_owner", None) is not None

    @property
    def lease_owner(self) -> Optional[str]:
        """Identity of the current lease holder (``None`` when idle)."""
        return getattr(self, "_lease_owner", None)

    def lease(self, owner: str) -> "EngineBase":
        """Check the engine out for exclusive use by ``owner``.

        Pooled engines (the serve-layer fingerprint cache) are planned
        once and reused across jobs, but a single engine must never run
        two jobs concurrently — its counter snapshots and scoped tracer
        target are per-job state.  Double-leasing is a pool bug, so it
        raises rather than queues; stored via an attribute (not
        ``__init__`` state) so every existing engine class participates
        without a constructor change.
        """
        current = getattr(self, "_lease_owner", None)
        if current is not None:
            raise RuntimeError(
                f"engine {self.name!r} already leased by {current!r}; "
                f"refusing lease for {owner!r}"
            )
        self._lease_owner = owner
        return self

    def release(self) -> None:
        """Return a leased engine to its pool (idempotent)."""
        self._lease_owner = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- protocol defaults ---------------------------------------------
    def iteration_results(
        self, factors: Sequence[np.ndarray]
    ) -> List[Tuple[int, np.ndarray]]:
        """All ``d`` MTTKRPs of one CPD iteration in level order, without
        factor updates in between (kernel benchmarking; the ALS driver
        interleaves the dense updates itself).

        Returns ``[(original_mode, result), ...]``.
        """
        return [
            (self.mode_order[level], self.mttkrp_level(factors, level))
            for level in range(len(self.mode_order))
        ]

    def kernel_span(self, level: int, mode: int, nnz: int, source: Any = None):
        """The span of one MTTKRP kernel call on the engine's ``tracer``:
        ``mttkrp.mode0`` at level 0, else ``mttkrp.mode_level`` tagged with
        the kernel's ``source``.  It carries the exact deltas of the
        engine's ``counter`` (the only span level that passes
        ``counter=``; see :mod:`repro.trace`)."""
        attrs: Dict[str, Any] = {"level": level}
        if level:
            attrs["source"] = source
        attrs.update(mode=int(mode), nnz=int(nnz), threads=self.num_threads)
        name = "mttkrp.mode_level" if level else "mttkrp.mode0"
        return self.tracer.span(name, counter=self.counter, **attrs)

    def describe(self) -> str:
        """One-line configuration summary for harness output."""
        return self.name

    # Subclasses implement the one real kernel entry point.
    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        raise NotImplementedError
