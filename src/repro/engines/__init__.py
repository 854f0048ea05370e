"""repro.engines — the one name-driven MTTKRP-engine factory.

Every consumer (the CLI, ``cp_als``, the benchmark harness,
``scripts/stress_threads.py``) constructs engines by name through
exactly one path:

    from repro.engines import create_engine

    with create_engine("stef2", tensor, rank, num_threads=8) as eng:
        result = cp_als(tensor, rank, engine=eng)

The names are the keys of :data:`repro.baselines.ALL_BACKENDS`, and
every engine there inherits :class:`~repro.engines.base.EngineBase`, so
each is a context manager whose ``__exit__`` releases shared-memory
segments even on exceptions.

The factory has a **typed signature**: ``create_engine(name, tensor,
rank, *, machine=None, num_threads=None, exec_backend=None,
memoize=None, counter=None, tracer=None, **engine_opts)``.
The named keywords are validated *before* construction — an
``exec_backend`` outside :data:`~repro.parallel.executor.EXEC_BACKENDS`
or a ``memoize=`` request to an engine that keeps no partial results
fails with a targeted message.  Any other keyword goes to the engine's
constructor, which raises Python's own ``TypeError`` for one it does not
take.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Type

from ..parallel.executor import EXEC_BACKENDS
from .base import EngineBase, resolve_num_threads

__all__ = [
    "EngineBase",
    "create_engine",
    "engine_names",
    "resolve_num_threads",
]


def _engines() -> Dict[str, Type[EngineBase]]:
    """The name → class table, :data:`repro.baselines.ALL_BACKENDS`.

    Imported on first use because the engine implementations themselves
    import :mod:`repro.engines.base` (via this package) at
    class-definition time — an eager import here would close that cycle
    while :mod:`repro.core.mttkrp` is still half initialized.
    """
    from ..baselines import ALL_BACKENDS

    return ALL_BACKENDS


def engine_names() -> List[str]:
    """Sorted engine names (the CLI's ``--engine`` choices)."""
    return sorted(_engines())


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
    """Construct the engine named ``name``.

    The named keywords are the canonical cross-engine knobs, validated
    before construction:

    * ``exec_backend`` must be one of ``EXEC_BACKENDS``;
    * ``memoize`` requires a ``memoize_capable`` engine; ``memoize=False``
      forces the empty memoization plan (and conflicts with an explicit
      ``plan=``), ``memoize=True`` just asserts the capability and lets
      the engine's planner choose.

    Engine-specific knobs (STeF's ``plan=`` / ``swap_last_two=``, TACO's
    ``autotune=``) pass through ``**engine_opts``.  This is the **only**
    supported construction path for name-driven dispatch; consumers must
    not reimplement the ``if name == ...`` ladder.
    """
    engines = _engines()
    try:
        cls = engines[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; registered engines: {engine_names()}"
        ) from None
    if exec_backend is not None and exec_backend not in EXEC_BACKENDS:
        raise ValueError(
            f"engine {name!r} supports exec_backend in "
            f"{list(EXEC_BACKENDS)}, got {exec_backend!r}"
        )
    if memoize is not None:
        if not cls.memoize_capable:
            capable = [n for n in engine_names() if engines[n].memoize_capable]
            raise TypeError(
                f"engine {name!r} does not support memoize= (it keeps no "
                f"partial results); memoize-capable engines: {capable}"
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
