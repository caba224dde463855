"""Pauli operators on labeled qubits, up to phase.

An operator is a pair of X- and Z-support bitmasks over a fixed vertex
universe; a vertex in both supports carries ``Y`` up to phase.  It is the
result type of :func:`mbqc.simulate.enumerate_projected_stabilizers`, which
enumerates stabilizers up to phase, so no phase is stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class PauliOperator:
    """``X_{xsupport} * Z_{zsupport}`` over ``universe``, up to phase."""

    universe: int
    xsupport: int
    zsupport: int

    def __post_init__(self) -> None:
        if self.xsupport & ~self.universe or self.zsupport & ~self.universe:
            raise DomainError("support outside the vertex universe")
