"""Measurement-calculus workbench.

Pattern IR and notation, open-graph flow analyzers (gflow, Pauli flow, and
the extended variant), an exact dense simulator with a robust-determinism
oracle, and the Pauli-push rewrite system, cross-validated on small
instances by the brute-force references in ``mbqc.oracles`` (not exported
here).

The public names are imported from their submodule on first use, so that
``import mbqc`` loads numpy only once a simulator name is touched.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "angles": ("Angle",),
    "bits": ("bit_list", "mask_of"),
    "errors": (
        "DocumentError", "DomainError", "InvariantViolationError", "MbqcError", "PatternSyntaxError",
        "PreconditionError", "ResourceLimitError",
    ),
    "flows": (
        "CorrectionFunction", "FlowCertificate", "StrictPartialOrder", "check_extended_pauli_flow",
        "check_gflow", "check_pauli_flow", "find_extended_pauli_flow", "find_inducing_certificate",
        "find_pauli_flow", "induced_pattern", "is_induced_by",
    ),
    "graphs": ("Axis", "Graph", "Label", "OpenGraph", "odd_neighborhood"),
    "notation": ("parse_pattern", "serialize_pattern"),
    "pauli": ("PauliOperator",),
    "patterns": ("MeasurementStep", "Pattern", "is_pauli_first", "underlying_open_graph", "validate"),
    "rewrite": ("PushChoice", "RewriteTrace", "normalize_pauli_first", "pauli_inversions", "push_step"),
    "simulate": (
        "BranchMap", "MeasurementBasisPair", "QuantumState", "Superoperator", "branch_map",
        "enumerate_projected_stabilizers", "graph_state", "is_robustly_deterministic",
        "measurement_basis", "plane_fixed_point", "semantics", "stabilizer_sign",
        "superoperator_equal",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
