"""repro.engines — the unified MTTKRP-engine registry and factory.

Before this module existed, every consumer (the CLI, ``cp_als``, the
benchmark harness, the stress driver) carried its own copy of the
name → constructor dispatch.  Now there is exactly one:

    from repro.engines import create_engine

    with create_engine("stef2", tensor, rank, num_threads=8) as eng:
        result = cp_als(tensor, rank, engine=eng)

Every registered engine satisfies the :class:`MttkrpEngine` protocol —
``mttkrp_level``, ``iteration_results``, ``per_thread_traffic``,
``describe``, ``close`` (plus the ``mode_order`` attribute the ALS
driver reads) — and inherits :class:`~repro.engines.base.EngineBase`,
so each is a context manager whose ``__exit__`` releases shared-memory
segments even on exceptions (the ``engine-protocol`` lint rule enforces
the inheritance statically; ``tests/test_engines.py`` checks the
protocol at runtime).

The factory has a **typed signature**: ``create_engine(name, tensor,
rank, *, machine=None, num_threads=None, exec_backend=None,
memoize=None, counter=None, tracer=None, **engine_opts)``.
The named keywords are validated against the engine's capability
metadata (:class:`EngineInfo` — ``exec_backends``, ``memoize_capable``)
*before* construction, so a typo'd backend or a ``memoize=`` request to
an engine that keeps no partial results fails with a targeted message.
Any other keyword goes to the engine's constructor, which raises
Python's own ``TypeError`` for one it does not take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    Union,
    runtime_checkable,
)

import numpy as np

from .base import EngineBase, resolve_num_threads

__all__ = [
    "MttkrpEngine",
    "EngineBase",
    "EngineInfo",
    "ENGINES",
    "create_engine",
    "engine_names",
    "register_engine",
    "resolve_num_threads",
]


@runtime_checkable
class MttkrpEngine(Protocol):
    """What the ALS driver, harness, and CLI require of an engine.

    Engines additionally expose a ``mode_order`` tuple (update position →
    original mode) and a ``name`` string; those are data members, which
    ``runtime_checkable`` protocols cannot verify, so the registry's
    :func:`register_engine` checks them explicitly.
    """

    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """The MTTKRP result for update position ``level``."""

    def iteration_results(
        self, factors: Sequence[np.ndarray]
    ) -> List[Tuple[int, np.ndarray]]:
        """All MTTKRPs of one CPD iteration: ``[(mode, result), ...]``."""

    def per_thread_traffic(self) -> List[float]:
        """Most recent kernel's per-thread traffic totals."""

    def describe(self) -> str:
        """One-line configuration summary."""

    def close(self) -> None:
        """Release engine resources (idempotent)."""


#: name → engine class; populated by :func:`register_engine` below and
#: seeded from :mod:`repro.baselines` on first factory use.
ENGINES: Dict[str, Type[EngineBase]] = {}

_PROTOCOL_METHODS = (
    "mttkrp_level",
    "iteration_results",
    "per_thread_traffic",
    "describe",
    "close",
)


def register_engine(name: str, cls: Type[EngineBase]) -> Type[EngineBase]:
    """Register an engine class under ``name`` (idempotent re-register).

    Raises ``TypeError`` unless ``cls`` inherits :class:`EngineBase` and
    implements every :class:`MttkrpEngine` method — the same contract the
    ``engine-protocol`` lint rule checks statically.
    """
    if not (isinstance(cls, type) and issubclass(cls, EngineBase)):
        raise TypeError(
            f"engine {name!r} must inherit repro.engines.EngineBase, "
            f"got {cls!r}"
        )
    missing = [m for m in _PROTOCOL_METHODS if not callable(getattr(cls, m, None))]
    if missing:
        raise TypeError(
            f"engine {name!r} does not implement the MttkrpEngine "
            f"protocol: missing {missing}"
        )
    ENGINES[name] = cls
    return cls


@dataclass(frozen=True)
class EngineInfo:
    """Capability metadata of one registered engine (read off the class
    attributes :class:`~repro.engines.base.EngineBase` declares)."""

    name: str
    exec_backends: Tuple[str, ...]
    memoize_capable: bool

    @classmethod
    def of(cls, name: str, engine_cls: Type[EngineBase]) -> "EngineInfo":
        return cls(
            name=name,
            exec_backends=tuple(engine_cls.exec_backends),
            memoize_capable=bool(engine_cls.memoize_capable),
        )

    def summary(self) -> str:
        """One-line capability summary (the CLI's ``--engine`` help)."""
        caps = []
        if self.memoize_capable:
            caps.append("memoize")
        caps.append("/".join(self.exec_backends))
        return f"{self.name} [{', '.join(caps)}]"


def engine_names(detail: bool = False) -> Union[List[str], List[EngineInfo]]:
    """Sorted registered engine names (the CLI's ``--engine`` choices).

    With ``detail=True``, returns :class:`EngineInfo` records instead of
    bare names, in the same sorted order.
    """
    _ensure_seeded()
    names = sorted(ENGINES)
    if detail:
        return [EngineInfo.of(n, ENGINES[n]) for n in names]
    return names


def create_engine(
    name: str,
    tensor,
    rank: int,
    *,
    machine=None,
    num_threads: Optional[int] = None,
    exec_backend: Optional[str] = None,
    memoize: Optional[bool] = None,
    counter=None,
    tracer=None,
    **engine_opts: Any,
) -> EngineBase:
    """Construct the engine registered under ``name``.

    The named keywords are the canonical cross-engine knobs, validated
    against the engine's :class:`EngineInfo` capabilities before
    construction:

    * ``exec_backend`` must be one of the engine's ``exec_backends``;
    * ``memoize`` requires a memoize-capable engine; ``memoize=False``
      forces the empty memoization plan (and conflicts with an explicit
      ``plan=``), ``memoize=True`` just asserts the capability and lets
      the engine's planner choose.

    Engine-specific knobs (STeF's ``plan=`` / ``swap_last_two=``, TACO's
    ``autotune=``) pass through ``**engine_opts``.  This is the **only**
    supported construction path for name-driven dispatch; consumers must
    not reimplement the ``if name == ...`` ladder.
    """
    _ensure_seeded()
    try:
        cls = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; registered engines: {engine_names()}"
        ) from None
    info = EngineInfo.of(name, cls)
    if exec_backend is not None and exec_backend not in info.exec_backends:
        raise ValueError(
            f"engine {name!r} supports exec_backend in "
            f"{list(info.exec_backends)}, got {exec_backend!r}"
        )
    if memoize is not None:
        if not info.memoize_capable:
            raise TypeError(
                f"engine {name!r} does not support memoize= (it keeps no "
                "partial results); memoize-capable engines: "
                f"{[i.name for i in engine_names(detail=True) if i.memoize_capable]}"
            )
        if not memoize:
            if "plan" in engine_opts:
                raise TypeError(
                    "memoize=False conflicts with an explicit plan=; "
                    "pass one or the other"
                )
            from ..core.memoization import SAVE_NONE

            engine_opts["plan"] = SAVE_NONE
    opts: Dict[str, Any] = dict(engine_opts)
    if machine is not None:
        opts["machine"] = machine
    if num_threads is not None:
        opts["num_threads"] = num_threads
    if exec_backend is not None:
        opts["exec_backend"] = exec_backend
    if counter is not None:
        opts["counter"] = counter
    if tracer is not None:
        opts["tracer"] = tracer
    return cls(tensor, rank, **opts)


_seeded = False


def _ensure_seeded() -> None:
    """Populate the registry with the built-in engines on first use.

    Seeding is lazy because the engine implementations themselves import
    :mod:`repro.engines.base` (via this package) at class-definition
    time — an eager ``from ..baselines import ALL_BACKENDS`` here would
    close that cycle while :mod:`repro.core.mttkrp` is still half
    initialized.  Deferring to the first ``create_engine`` /
    ``engine_names`` call keeps the import graph acyclic.
    """
    global _seeded
    if _seeded:
        return
    _seeded = True
    from ..baselines import ALL_BACKENDS

    for name, cls in ALL_BACKENDS.items():
        register_engine(name, cls)
