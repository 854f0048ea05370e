"""Tests for the engine factory (:mod:`repro.engines`).

Three contracts:

* **registry round-trip** — ``create_engine(name, ...)`` is *the same
  construction* as calling the class directly: bit-identical MTTKRP
  outputs and identical configuration;
* **context-manager lifecycle** — every engine is a context manager
  whose ``__exit__`` releases resources even when the body raises
  (``/dev/shm`` segments under the ``processes`` backend must not leak);
* **protocol conformance** — every engine inherits
  :class:`~repro.engines.base.EngineBase` and answers its surface.
"""

import glob
from functools import partial

import numpy as np
import pytest

from repro.baselines import ALL_BACKENDS
from repro.engines import EngineBase, create_engine, engine_names
from repro.tensor import random_tensor
from tests.conftest import make_factors


@pytest.fixture
def tensor3():
    return random_tensor((12, 9, 7), nnz=150, seed=7)


@pytest.fixture
def factors3(tensor3):
    return make_factors(tensor3.shape, rank=4, seed=11)


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(engine_names()) == set(ALL_BACKENDS)

    def test_unknown_name_lists_registered(self, tensor3):
        with pytest.raises(ValueError, match="unknown engine"):
            create_engine("no-such-engine", tensor3, 4)

    @pytest.mark.parametrize("name", sorted(ALL_BACKENDS))
    def test_round_trip_bit_identical(self, name, tensor3, factors3):
        """Factory construction == direct class construction, exactly."""
        with create_engine(name, tensor3, 4, num_threads=2) as via_factory:
            with ALL_BACKENDS[name](tensor3, 4, num_threads=2) as direct:
                a = via_factory.iteration_results(factors3)
                b = direct.iteration_results(factors3)
                assert len(a) == len(b) == tensor3.ndim
                for (mode_a, res_a), (mode_b, res_b) in zip(a, b):
                    assert mode_a == mode_b
                    assert np.array_equal(res_a, res_b)

    @pytest.mark.parametrize("name", sorted(ALL_BACKENDS))
    def test_protocol_conformance(self, name, tensor3, factors3):
        with create_engine(name, tensor3, 4, num_threads=2) as eng:
            assert isinstance(eng, EngineBase)
            assert isinstance(eng.mode_order, tuple)
            assert eng.name == name
            assert isinstance(eng.describe(), str)
            eng.mttkrp_level(factors3, 0)


class TestContextManager:
    def test_enter_returns_engine(self, tensor3):
        eng = create_engine("stef", tensor3, 4, num_threads=2)
        with eng as entered:
            assert entered is eng

    def test_bare_close_still_works(self, tensor3):
        eng = create_engine("stef", tensor3, 4, num_threads=2)
        eng.close()
        eng.close()  # idempotent

    @pytest.mark.parametrize("name", ["stef", "stef2", "splatt-all", "alto", "taco"])
    def test_shm_released_on_exception(self, name, tensor3, factors3):
        """__exit__ must release /dev/shm segments when the body raises."""
        before = set(glob.glob("/dev/shm/repro-*"))
        with pytest.raises(RuntimeError, match="injected"):
            with create_engine(
                name, tensor3, 4, num_threads=2, exec_backend="processes"
            ) as eng:
                eng.mttkrp_level(factors3, 0)
                raise RuntimeError("injected")
        after = set(glob.glob("/dev/shm/repro-*"))
        leaked = after - before
        assert not leaked, f"{name} leaked shm segments: {sorted(leaked)}"

    def test_stef_close_clears_process_context(self, tensor3, factors3):
        before = set(glob.glob("/dev/shm/repro-*"))
        with create_engine(
            "stef", tensor3, 4, num_threads=2, exec_backend="processes"
        ) as eng:
            eng.mttkrp_level(factors3, 0)
            assert set(glob.glob("/dev/shm/repro-*")) - before
        assert not set(glob.glob("/dev/shm/repro-*")) - before
        with pytest.raises(RuntimeError, match="engine is closed"):
            eng.mttkrp_level(factors3, 0)

    @pytest.mark.parametrize("exec_backend", ["serial", "threads", "processes"])
    @pytest.mark.parametrize(
        "name", [n for n in engine_names() if n != "dimtree"]
    )
    def test_closed_engine_raises_on_every_backend(
        self, name, exec_backend, tensor3, factors3
    ):
        """close() releases the reduction operators: a later kernel call
        fails loudly instead of scattering through nothing (dimtree owns
        no operators)."""
        eng = create_engine(
            name, tensor3, 4, num_threads=2, exec_backend=exec_backend
        )
        eng.mttkrp_level(factors3, 0)
        eng.close()
        with pytest.raises(RuntimeError, match="engine is closed"):
            eng.mttkrp_level(factors3, 0)


class TestRetiredKwargs:
    """``threads=`` and ``backend=`` (the pre-1.0 spellings of
    ``num_threads=`` / ``exec_backend=``, and of ``engine=`` on
    ``cp_als``) and the removed ``jit`` keyword are parameters of
    nothing: Python raises its own ``TypeError`` on every path."""

    @pytest.mark.parametrize("path", ["factory", "constructor", "cp_als"])
    @pytest.mark.parametrize(
        "key,value",
        [
            pytest.param("threads", 3, id="threads"),
            pytest.param("backend", "serial", id="backend"),
            pytest.param("jit", "off", id="jit"),
        ],
    )
    def test_retired_spelling_is_a_type_error(self, key, value, path, tensor3):
        from repro.core.mttkrp import MemoizedMttkrp
        from repro.cpd.als import cp_als
        from repro.tensor import CsfTensor

        if path == "factory":
            calls = [
                partial(create_engine, name, tensor3, 4)
                for name in sorted(ALL_BACKENDS)
            ]
        elif path == "constructor":
            csf = CsfTensor.from_coo(tensor3, (0, 1, 2))
            calls = [
                partial(cls, tensor3, 4)
                for _, cls in sorted(ALL_BACKENDS.items())
            ]
            calls.append(partial(MemoizedMttkrp, csf, 4))
        else:
            calls = [partial(cp_als, tensor3, 4, max_iters=1)]
        unexpected = f"unexpected keyword argument '{key}'"
        for call in calls:
            with pytest.raises(TypeError, match=unexpected):
                call(**{key: value})

    def test_unknown_kwarg_still_fails_loudly(self, tensor3):
        with pytest.raises(TypeError, match="unexpected keyword"):
            create_engine("stef", tensor3, 4, exec_backed="serial")


class TestTypedFactory:
    """create_engine's named knobs are validated before construction."""

    def test_bad_exec_backend_is_valueerror(self, tensor3):
        with pytest.raises(ValueError, match="exec_backend"):
            create_engine("stef", tensor3, 4, exec_backend="cluster")

    def test_memoize_rejected_on_non_capable_engine(self, tensor3):
        with pytest.raises(TypeError, match="does not support memoize="):
            create_engine("taco", tensor3, 4, memoize=True)

    def test_memoize_false_forces_empty_plan(self, tensor3):
        with create_engine("stef", tensor3, 4, memoize=False) as eng:
            assert list(eng.plan.save_levels) == []

    def test_memoize_false_conflicts_with_plan(self, tensor3):
        from repro.core.memoization import MemoPlan

        with pytest.raises(TypeError, match="conflicts"):
            create_engine(
                "stef", tensor3, 4, memoize=False, plan=MemoPlan((1,))
            )


class TestLeasing:
    """Pooling primitives: the serve-layer cache checks engines out per
    job; exclusivity is enforced, release is idempotent."""

    def test_lease_release_cycle(self):
        tensor = random_tensor((8, 7, 6), nnz=100, seed=0)
        with create_engine("stef", tensor, 3) as eng:
            assert not eng.leased and eng.lease_owner is None
            assert eng.lease("job-1") is eng  # chains for pool code
            assert eng.leased and eng.lease_owner == "job-1"
            eng.release()
            assert not eng.leased
            eng.release()  # idempotent: releasing an idle engine is fine
            eng.lease("job-2")  # and it can be checked out again
            assert eng.lease_owner == "job-2"

    def test_double_lease_raises(self):
        tensor = random_tensor((8, 7, 6), nnz=100, seed=0)
        with create_engine("splatt-all", tensor, 3) as eng:
            eng.lease("job-1")
            with pytest.raises(RuntimeError, match="already leased by 'job-1'"):
                eng.lease("job-2")
            # The failed lease must not have clobbered the holder.
            assert eng.lease_owner == "job-1"
