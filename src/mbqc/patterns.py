"""Measurement-calculus patterns in normal form.

A pattern is an entangled preparation (graph plus input set) followed by an
ordered list of measurement steps.  Steps are stored in execution order,
first-executed first; the serializer renders the conventional right-to-left
command notation.  Each step carries outcome-conditioned X/Z correction
targets.  Unmeasured qubits are the outputs.

A ``Pattern`` is valid by construction: its constructor raises
``PreconditionError("invalid pattern: ...")`` on any breach of the
normal-form rules (``_violations``).  So ``Pattern.bind`` raises on a binding
that breaks them, ``parse_pattern`` on a well-formed but invalid pattern, and
no other module checks them again.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .angles import Angle
from .bits import bit_list, mask_of
from .errors import DomainError, PreconditionError
from .graphs import Axis, Graph, Label, OpenGraph

#: Classical outcomes for the measured qubits, one bit per qubit id.
OutcomeAssignment = Mapping[int, int]


@dataclass(frozen=True)
class MeasurementStep:
    """One measurement with its outcome-conditioned corrections."""

    qubit: int
    label: Label
    angle: Angle
    x_corr: int = 0
    z_corr: int = 0


@dataclass(frozen=True)
class Pattern:
    graph: Graph
    inputs: int
    steps: tuple[MeasurementStep, ...]
    measured: int = field(init=False, repr=False, compare=False)
    outputs: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        problems = _violations(self)
        if problems:
            raise PreconditionError("invalid pattern: " + "; ".join(problems))
        m = 0
        for s in self.steps:
            m |= 1 << s.qubit
        object.__setattr__(self, "measured", m)
        object.__setattr__(self, "outputs", self.graph.vmask & ~m)

    @staticmethod
    def make(
        graph: Graph,
        inputs: Iterable[int] | int,
        steps: Iterable[MeasurementStep],
    ) -> Pattern:
        imask = inputs if isinstance(inputs, int) else mask_of(inputs)
        return Pattern(graph, imask, tuple(steps))

    def step_of(self, qubit: int) -> MeasurementStep:
        for s in self.steps:
            if s.qubit == qubit:
                return s
        raise DomainError(f"qubit {qubit} is not measured")

    def step_index(self, qubit: int) -> int:
        for i, s in enumerate(self.steps):
            if s.qubit == qubit:
                return i
        raise DomainError(f"qubit {qubit} is not measured")

    def measurement_order(self) -> list[int]:
        return [s.qubit for s in self.steps]

    def bind(self, bindings: dict[str, Angle]) -> Pattern:
        """Substitute angle variables."""
        steps = tuple(
            MeasurementStep(s.qubit, s.label, s.angle.bind(bindings), s.x_corr, s.z_corr)
            for s in self.steps
        )
        return Pattern(self.graph, self.inputs, steps)

    def total_qubits(self) -> int:
        return len(self.graph.vertices)


def _violations(pat: Pattern) -> list[str]:
    """All violations of the pattern normal-form constraints; empty if valid.

    Checked: inputs inside the graph, each qubit measured at most once,
    Pauli measurements restricted to angles {0, pi}, measured inputs
    restricted to the XY plane, and corrections targeting only qubits that
    are still unmeasured (and distinct from the measured qubit) at the time
    of the step.
    """
    out: list[str] = []
    vmask = pat.graph.vmask
    if pat.inputs & ~vmask:
        out.append("inputs are not a subset of the vertex set")
    seen = 0
    for i, s in enumerate(pat.steps):
        bit = 1 << s.qubit
        if not bit & vmask:
            out.append(f"step {i}: measured qubit {s.qubit} is not a graph vertex")
            continue
        if bit & seen:
            out.append(f"step {i}: qubit {s.qubit} measured twice")
        seen |= bit
        if s.label.is_pauli and not (s.angle.is_symbolic or s.angle.is_pauli_angle()):
            out.append(f"step {i}: Pauli measurement with non-{{0, pi}} angle {s.angle}")
        if bit & pat.inputs and Axis.Z in s.label:
            out.append(f"step {i}: input qubit {s.qubit} measured outside the XY plane")
        remaining = vmask & ~seen
        for name, corr in (("X", s.x_corr), ("Z", s.z_corr)):
            if corr & ~vmask:
                out.append(f"step {i}: {name}-correction targets unknown vertices")
            elif corr & ~remaining:
                out.append(
                    f"step {i}: {name}-correction targets already-measured qubits "
                    f"{bit_list(corr & ~remaining)}"
                )
    return out


def underlying_open_graph(pat: Pattern) -> OpenGraph:
    """The (graph, inputs, outputs, labels) abstraction of a pattern."""
    labels = {s.qubit: s.label for s in pat.steps}
    return OpenGraph.make(pat.graph, pat.inputs, pat.outputs, labels)


def is_pauli_first(pat: Pattern) -> bool:
    """True iff no Pauli measurement is executed after a plane measurement."""
    plane_seen = False
    for s in pat.steps:
        if s.label.is_plane:
            plane_seen = True
        elif plane_seen:
            return False
    return True


def outcome_mask(pat: Pattern, m: OutcomeAssignment) -> int:
    """Pack an outcome assignment into a bitmask; it must cover all steps."""
    mask = 0
    for s in pat.steps:
        try:
            bit = m[s.qubit]
        except KeyError:
            raise DomainError(f"outcome assignment misses qubit {s.qubit}") from None
        if bit not in (0, 1):
            raise DomainError(f"outcome of qubit {s.qubit} must be 0 or 1")
        mask |= bit << s.qubit
    return mask
