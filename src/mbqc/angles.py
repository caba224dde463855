"""Measurement angles.

Angles are kept exact when possible: a rational multiple of pi, normalized
into [0, 2), survives round trips and makes the {0, pi} restriction on Pauli
measurements decidable.  A float fallback and free symbolic variables (for
patterns stated with a generic plane angle) are also supported; simulation
requires all variables to be bound first.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .graphs import Label

_TWO_PI = 2.0 * math.pi

#: Distance from 0, pi or 2 pi within which a real angle counts as Pauli.
PAULI_ANGLE_TOL = 1e-12

#: An angle variable: a Latin or Greek letter or an underscore, then letters,
#: digits or underscores; not ``pi`` or ``π``, the notation's angle pi.
_NAME = re.compile(r"(?!(pi|π)$)[A-Za-z_Ͱ-Ͽ][A-Za-z0-9_Ͱ-Ͽ]*")


def pauli_multiple(value: float) -> int | None:
    """0 or 1 when ``value`` is within ``PAULI_ANGLE_TOL`` of an even or an
    odd multiple of pi (0, pi or 2 pi after reduction), else None."""
    r = abs(math.fmod(value, _TWO_PI))
    if r <= PAULI_ANGLE_TOL or _TWO_PI - r <= PAULI_ANGLE_TOL:
        return 0
    if abs(r - math.pi) <= PAULI_ANGLE_TOL:
        return 1
    return None


@dataclass(frozen=True)
class Angle:
    """Exactly one of ``pi_mult``, ``real``, ``var`` is set."""

    pi_mult: Fraction | None = None
    real: float | None = None
    var: str | None = None

    def __post_init__(self) -> None:
        present = [x is not None for x in (self.pi_mult, self.real, self.var)]
        if sum(present) != 1:
            raise DomainError("angle must be exactly one of pi-multiple, real, variable")
        if self.pi_mult is not None:
            object.__setattr__(self, "pi_mult", Fraction(self.pi_mult) % 2)
        if self.real is not None:
            value = float(self.real)
            if not math.isfinite(value):
                raise DomainError(f"real angle must be finite, got {value!r}")
            r = math.fmod(value, _TWO_PI)
            if r < 0.0:
                r += _TWO_PI
            # A tiny negative value rounds up to exactly 2 pi; that is 0.
            object.__setattr__(self, "real", 0.0 if r == _TWO_PI else r)
        if self.var is not None and not (isinstance(self.var, str) and _NAME.fullmatch(self.var)):
            raise DomainError(f"angle variable must be a name other than pi, got {self.var!r}")

    @staticmethod
    def of_pi(mult: Fraction | int | str) -> Angle:
        return Angle(pi_mult=Fraction(mult))

    @staticmethod
    def of_real(value: float) -> Angle:
        return Angle(real=float(value))

    @staticmethod
    def variable(name: str) -> Angle:
        return Angle(var=name)

    @property
    def is_symbolic(self) -> bool:
        return self.var is not None

    def to_float(self) -> float:
        if self.var is not None:
            raise DomainError(f"angle variable {self.var!r} is unbound")
        if self.pi_mult is not None:
            return float(self.pi_mult) * math.pi
        assert self.real is not None
        return self.real

    def is_pauli_angle(self) -> bool:
        """True iff the angle is 0 or pi (a real one within ``PAULI_ANGLE_TOL``)."""
        if self.pi_mult is not None:
            return self.pi_mult.denominator == 1  # reduced mod 2: 0 or 1
        if self.real is not None:
            return pauli_multiple(self.real) is not None
        return False

    def bind(self, bindings: dict[str, Angle]) -> Angle:
        if self.var is not None and self.var in bindings:
            return bindings[self.var]
        return self

    def __str__(self) -> str:
        if self.var is not None:
            return self.var
        if self.pi_mult is not None:
            m = self.pi_mult
            if m == 0:
                return "0"
            if m == 1:
                return "pi"
            if m.denominator == 1:
                return f"{m.numerator}pi"
            if m.numerator == 1:
                return f"pi/{m.denominator}"
            return f"{m.numerator}pi/{m.denominator}"
        return repr(self.real)


Angle.ZERO = Angle.of_pi(0)
Angle.PI = Angle.of_pi(1)
_QUARTER_PI = Angle.of_pi("1/4")


def default_angle(label: Label) -> Angle:
    """pi/4 for a plane label, 0 for a Pauli label: the angle of a measurement
    given none (``mbqc induce`` without ``--angles``, the pattern corpus and
    criterion 2's first angle map)."""
    return _QUARTER_PI if label.is_plane else Angle.ZERO
