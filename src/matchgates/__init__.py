"""Nearest-neighbour matchgate circuits: polynomial simulation via rotations,
plus two-way compilation against general quantum circuits."""

from .algebra import (
    PlaneRotation,
    givens_factor,
    jordan_wigner,
    make_matchgate,
    matchgate_of_rotation,
    rotation_of_matchgate,
)
from .circuits import (
    CircuitError,
    GateApp,
    GeneralCircuit,
    GuardError,
    MatchgateCircuit,
    ParseError,
    UsageError,
    ValidationError,
    validate,
)
from .compress import (
    compress_circuit,
    compress_gate_stream,
    gray,
    gray_converter_circuit,
    pad_to_power_of_two,
)
from .expand import (
    RealGate,
    expand_circuit,
    realify_gate,
    two_level_to_matchgates,
)
from .oracle import adjoint_action_check, expectation_z, run_statevector, verify_equivalent
from .simulate import (
    output_distribution,
    s_matrix,
    simulate_expectation,
    simulate_expectation_reference,
)
from .standardize import standardize
from .textformat import parse_circuit, serialize_circuit

__version__ = "0.1.0"

__all__ = [
    "PlaneRotation",
    "givens_factor",
    "jordan_wigner",
    "make_matchgate",
    "matchgate_of_rotation",
    "rotation_of_matchgate",
    "CircuitError",
    "GateApp",
    "GeneralCircuit",
    "GuardError",
    "MatchgateCircuit",
    "ParseError",
    "UsageError",
    "ValidationError",
    "parse_circuit",
    "serialize_circuit",
    "validate",
    "compress_circuit",
    "compress_gate_stream",
    "gray",
    "gray_converter_circuit",
    "pad_to_power_of_two",
    "RealGate",
    "expand_circuit",
    "realify_gate",
    "two_level_to_matchgates",
    "adjoint_action_check",
    "expectation_z",
    "run_statevector",
    "verify_equivalent",
    "output_distribution",
    "s_matrix",
    "simulate_expectation",
    "simulate_expectation_reference",
    "standardize",
]
