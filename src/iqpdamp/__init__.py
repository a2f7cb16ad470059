"""Truncated operator-frame simulation of IQP circuits under amplitude damping.

The pipeline: parse or draw a diagonal-gate circuit (`circuit_model`),
propagate a weight-truncated set of operator-frame strings through it
(`frame_engine`, or `fastpath` for the closed-form low-weight case), collect
the surviving coefficients in a Hamming-weight-indexed table (`hw_basis`),
certify the truncation error (`bounds`), and sample outcome bitstrings from
the truncated quasidistribution (`sampler`). `dense_oracle` is the brute-force
reference implementation everything is validated against.
"""

from .bounds import (
    ErrorBudget,
    binary_entropy,
    coefficient_bound,
    depth_threshold,
    hs_truncation_bound,
    rank_td_bound,
    select_k,
    td_truncation_bound,
    trace_deficit_bound,
)
from .circuit_model import (
    Circuit,
    CircuitFormatError,
    Gate,
    idle_circuit,
    parse_circuit,
    random_circuit,
    serialize_circuit,
    validate,
)
from .dense_oracle import DenseState, born_distribution, distances, evolve_dense
from .errors import CertificationError, NumericalError
from .fastpath import build_table_auto, g2_low_weight_coefficients, g2_low_weight_table
from .frame_engine import (
    DIAG,
    MINUS,
    PLUS,
    FrameString,
    apply_damping_layer,
    apply_single_qubit_rotation,
    initial_strings,
    llocal_branch,
    propagate,
    reconstruct_dense,
)
from .hw_basis import (
    HWCoefficientTable,
    HWIndex,
    build_table,
    count_weight_h_with_r_zeroblocks,
    parse_table,
    zero_block_range,
)
from .sampler import QuasiDistribution, fourier_table, induced_distribution, marginal, sample

__all__ = [
    "CertificationError",
    "Circuit",
    "CircuitFormatError",
    "DIAG",
    "DenseState",
    "ErrorBudget",
    "FrameString",
    "Gate",
    "HWCoefficientTable",
    "HWIndex",
    "MINUS",
    "NumericalError",
    "PLUS",
    "QuasiDistribution",
    "apply_damping_layer",
    "apply_single_qubit_rotation",
    "binary_entropy",
    "born_distribution",
    "build_table",
    "build_table_auto",
    "coefficient_bound",
    "count_weight_h_with_r_zeroblocks",
    "depth_threshold",
    "distances",
    "evolve_dense",
    "fourier_table",
    "g2_low_weight_coefficients",
    "g2_low_weight_table",
    "hs_truncation_bound",
    "idle_circuit",
    "induced_distribution",
    "initial_strings",
    "llocal_branch",
    "marginal",
    "parse_circuit",
    "parse_table",
    "propagate",
    "random_circuit",
    "rank_td_bound",
    "reconstruct_dense",
    "sample",
    "select_k",
    "serialize_circuit",
    "td_truncation_bound",
    "trace_deficit_bound",
    "validate",
    "zero_block_range",
]

__version__ = "0.1.0"
