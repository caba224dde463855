"""Symbolic Pauli operators on labeled qubits.

An operator is a phase ``i**k`` together with X- and Z-support bitmasks over
a fixed vertex universe.  A vertex in both supports carries ``XZ``; the usual
``Y`` is ``i * XZ``, so phases stay exact under multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import parity
from .errors import DomainError, UniverseMismatchError
from .graphs import Axis, OpenGraph, odd_neighborhood

_PHASES = (1, 1j, -1, -1j)


@dataclass(frozen=True)
class PauliOperator:
    """``i**phase_pow * X_{xsupport} * Z_{zsupport}`` over ``universe``."""

    universe: int
    xsupport: int
    zsupport: int
    phase_pow: int = 0

    def __post_init__(self) -> None:
        if self.xsupport & ~self.universe or self.zsupport & ~self.universe:
            raise DomainError("support outside the vertex universe")
        object.__setattr__(self, "phase_pow", self.phase_pow & 3)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_pow]

    def axis_at(self, v: int) -> Axis | None:
        x = (self.xsupport >> v) & 1
        z = (self.zsupport >> v) & 1
        if x and z:
            return Axis.Y
        if x:
            return Axis.X
        if z:
            return Axis.Z
        return None


def identity(universe: int) -> PauliOperator:
    return PauliOperator(universe, 0, 0, 0)


def single(universe: int, v: int, axis: Axis) -> PauliOperator:
    """Single-qubit Pauli at ``v``; ``Y`` is encoded as ``i * X Z``."""
    bit = 1 << v
    if axis is Axis.X:
        return PauliOperator(universe, bit, 0, 0)
    if axis is Axis.Z:
        return PauliOperator(universe, 0, bit, 0)
    return PauliOperator(universe, bit, bit, 1)


def pauli_multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Product ``a * b`` with the phase tracked exactly."""
    if a.universe != b.universe:
        raise UniverseMismatchError("operators live on different universes")
    # Z_{a.z} X_{b.x} = (-1)^{|a.z & b.x|} X_{b.x} Z_{a.z}
    k = a.phase_pow + b.phase_pow + 2 * parity(a.zsupport & b.xsupport)
    return PauliOperator(a.universe, a.xsupport ^ b.xsupport, a.zsupport ^ b.zsupport, k)


def pauli_commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff the symplectic product of the supports is even."""
    if a.universe != b.universe:
        raise UniverseMismatchError("operators live on different universes")
    return (parity(a.xsupport & b.zsupport) ^ parity(a.zsupport & b.xsupport)) == 0


def stabilizer_of(g: OpenGraph, d: int) -> PauliOperator:
    """The graph-state stabilizer ``X_d Z_{Odd(d)}`` with phase +1.

    The overall sign it acquires on a concrete resource state is measured by
    the simulator, not encoded here.
    """
    if d & ~g.vmask:
        raise DomainError("set contains vertices outside the graph")
    return PauliOperator(g.vmask, d, odd_neighborhood(g, d), 0)
