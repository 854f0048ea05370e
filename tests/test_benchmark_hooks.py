"""The benchmark's traced run wraps program names from outside the program.

``perfbench/layers.py`` builds its per-layer table by replacing module
globals and class attributes (the kernel-ABI names imported into
:mod:`repro.core.csf_kernels`, ``mttkrp.scatter_add_rows``,
``stef.MemoizedMttkrp``, ...) with span-opening wrappers.  Renaming or
re-homing one of them breaks ``perfbench/run.py --trace 1`` while every
other test stays green, so this test drives the hooks on a small engine.
"""

from collections import Counter

from perfbench.layers import LayerHooks
from repro.core import csf_kernels, mttkrp, planner, proc_tasks, stef
from repro.cpd import als, kruskal
from repro.engines import create_engine
from repro.parallel import executor
from repro.tensor import coo, csf, random_tensor
from repro.trace import Tracer
from tests.conftest import make_factors

#: Every module and class whose names LayerHooks replaces.
OWNERS = (
    csf_kernels,
    mttkrp,
    planner,
    stef,
    als,
    csf.CsfTensor,
    coo.CooTensor,
    executor.ReplicatedArray,
    proc_tasks.ProcessEngineContext,
    kruskal.KruskalTensor,
)

LAYER_SPANS = (
    "kernels.abi",
    "core.scatter",
    "core.engine_init",
    "core.plan",
    "tensor.csf_build",
    "parallel.merge",
)


class TestLayerHooks:
    def test_hooks_record_layer_spans_and_restore_names(self):
        tensor = random_tensor((30, 20, 10), nnz=500, seed=0)
        factors = make_factors(tensor.shape, rank=4, seed=1)
        before = [dict(vars(owner)) for owner in OWNERS]
        tracer = Tracer()
        with LayerHooks(tracer):
            patched = sum(
                value is not vars(owner)[name]
                for owner, names in zip(OWNERS, before)
                for name, value in names.items()
            )
            with create_engine(
                "stef", tensor, 4, num_threads=3, tracer=tracer
            ) as engine:
                engine.iteration_results(factors)
                assert engine.kernel_tier == "numpy"
        assert patched > 0
        spans = Counter(rec.name for rec in tracer.spans())
        for name in LAYER_SPANS:
            assert spans[name] > 0, f"no {name} span recorded"
        for owner, names in zip(OWNERS, before):
            for name, value in names.items():
                assert vars(owner)[name] is value, f"{owner!r}.{name} not restored"
