"""Sparse tensor storage substrate: COO, CSF, ALTO, HiCOO, I/O, generators."""

from .coo import CooTensor
from .csf import CsfTensor, default_mode_order, root_order
from .alto import AltoMask, AltoTensor, bits_for_mode
from .hicoo import HicooTensor
from .io import read_tns, write_tns
from .toolbox import (
    add,
    extract_slice,
    frobenius_distance,
    hadamard_product,
    mode_marginals,
    subtract,
    top_slices,
)
from .validate import (
    ValidationError,
    check_alto,
    check_coo,
    check_csf,
    check_hicoo,
    validate_alto,
    validate_coo,
    validate_csf,
    validate_hicoo,
)
from .synthetic import (
    TABLE1_SPECS,
    TensorSpec,
    generate,
    load_or_generate,
    low_rank_tensor,
    random_tensor,
)

__all__ = [
    "CooTensor",
    "CsfTensor",
    "default_mode_order",
    "root_order",
    "AltoMask",
    "AltoTensor",
    "bits_for_mode",
    "HicooTensor",
    "ValidationError",
    "check_alto",
    "check_coo",
    "check_csf",
    "check_hicoo",
    "validate_alto",
    "validate_coo",
    "validate_csf",
    "validate_hicoo",
    "read_tns",
    "write_tns",
    "add",
    "subtract",
    "hadamard_product",
    "frobenius_distance",
    "mode_marginals",
    "extract_slice",
    "top_slices",
    "TABLE1_SPECS",
    "TensorSpec",
    "generate",
    "load_or_generate",
    "low_rank_tensor",
    "random_tensor",
]
