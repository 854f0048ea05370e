"""repro — reproduction of "Sparsity-Aware Tensor Decomposition" (IPDPS 2022).

STeF: memoized, load-balanced, data-movement-model-driven MTTKRP for
sparse CP decomposition, plus the substrates (CSF/ALTO storage, tensor
algebra, a simulated shared-memory machine) and the baselines (SPLATT
variants, AdaTM, ALTO, TACO-style) the paper evaluates against.

Quickstart::

    from repro import cp_als, create_engine, random_tensor

    tensor = random_tensor((500, 400, 300), nnz=50_000, seed=0)
    with create_engine("stef", tensor, 16, num_threads=8) as engine:
        result = cp_als(tensor, rank=16, engine=engine)
    print(result.final_fit, result.iterations)

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .tensor import (
    AltoTensor,
    CooTensor,
    CsfTensor,
    TABLE1_SPECS,
    TensorSpec,
    default_mode_order,
    generate,
    load_or_generate,
    low_rank_tensor,
    random_tensor,
    read_tns,
    write_tns,
    HicooTensor,
    ValidationError,
)
from .core import (
    DataMovementModel,
    MemoPlan,
    MemoizedMttkrp,
    PlanDecision,
    Stef,
    Stef2,
    TensorStats,
    build_schedule,
    count_swapped_fibers,
    enumerate_plans,
    plan_decomposition,
)
from .cpd import AlsResult, KruskalTensor, cp_als
from .reorder import Relabeling, lexi_order, random_relabel
from .parallel import (
    AMD_TR_64,
    INTEL_CLX_18,
    MACHINES,
    MachineSpec,
    TrafficCounter,
)
from .baselines import ALL_BACKENDS
from .engines import create_engine, engine_names
from .trace import NULL_TRACER, NullTracer, Tracer

__version__ = "1.0.0"

__all__ = [
    "AltoTensor",
    "CooTensor",
    "CsfTensor",
    "TABLE1_SPECS",
    "TensorSpec",
    "default_mode_order",
    "generate",
    "load_or_generate",
    "low_rank_tensor",
    "random_tensor",
    "read_tns",
    "write_tns",
    "DataMovementModel",
    "MemoPlan",
    "MemoizedMttkrp",
    "PlanDecision",
    "Stef",
    "Stef2",
    "TensorStats",
    "build_schedule",
    "count_swapped_fibers",
    "enumerate_plans",
    "plan_decomposition",
    "AlsResult",
    "KruskalTensor",
    "cp_als",
    "Relabeling",
    "lexi_order",
    "random_relabel",
    "HicooTensor",
    "ValidationError",
    "AMD_TR_64",
    "INTEL_CLX_18",
    "MACHINES",
    "MachineSpec",
    "TrafficCounter",
    "ALL_BACKENDS",
    "create_engine",
    "engine_names",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "__version__",
]
