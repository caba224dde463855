"""Exact dense-linear-algebra semantics for patterns.

One kernel serves every caller.  A register is an isometry (one column per
input basis state) over the qubits prepared so far: it starts as the inputs
with the CZs among them, and ``_add`` prepares a qubit in |+> with a CZ to
each live neighbour only when a step first touches it.  Each measurement
step slices every branch once per vector of a reference eigenbasis and
corrects both halves (``project``, ``apply_pauli``); the two outcome sides
at any angle are then two axpys.  ``branch_map`` follows one side per step,
``semantics`` keeps both and stores the completely positive sum of the
branches as a Choi matrix.  Robust determinism is decided by the
definitional recursion: at every step the two outcome-conditioned channels
must agree as linear maps.  While they do, the channel keeps one Kraus
operator, and a step compares the two rank-one Choi matrices by the
Frobenius norm of their difference (never below their max-entry distance)
without forming a D x D matrix.  The universally quantified perturbation
angle of plane measurements is discharged by sampling three equally spaced
offsets of the step's one projection pair (both sides are trigonometric
polynomials of degree one in the offset, so three samples pin them down —
the reduction itself is validated by dense sampling in the test suite).
The brute-force stabilizer search that criterion 7 checks
``enumerate_projected_stabilizers`` against lives in ``mbqc.oracles``.

Qubit tensor ordering is the canonical numeric vertex order throughout,
first qubit most significant.  ``MBQC_MAX_QUBITS`` bounds the live width
of the oracle and of ``branch_map``, and the qubit count of ``semantics``
(whose Choi matrix is D x D) and of ``graph_state``.

Tolerances are the module constants below, not arguments, except the ``tol``
of ``is_robustly_deterministic``, which the CLI's ``--tol`` sets.
"""

from __future__ import annotations

import bisect
import math
import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .angles import Angle, pauli_multiple
from .bits import bit_list, iter_bits, mask_of, subsets
from .errors import (
    DomainError,
    InvariantViolationError,
    PreconditionError,
    ResourceLimitError,
)
from .graphs import Axis, Graph, Label, OpenGraph, odd_neighborhood
from .pauli import PauliOperator
from .patterns import MeasurementStep, OutcomeAssignment, Pattern, outcome_mask, require_valid

#: Default tolerance of the determinism oracle and the state comparisons.
DEFAULT_TOL = 1e-9
#: A state norm, or an entry-wise difference, below this counts as zero.
NORM_FLOOR = 1e-12
#: Tolerance of the phase and norm checks between projected states.
PHASE_TOL = 1e-8
_DEFAULT_MAX_QUBITS = 12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_Z_SIGNS = np.array([[1.0], [-1.0]])
_PLUS_AXIS = np.full((1, 2, 1), _INV_SQRT2)

#: Single-qubit eigenbases at angle 0: axis -> (plus, minus).
_BASIS0: dict[Axis, tuple[np.ndarray, np.ndarray]] = {
    Axis.X: (
        np.array([1, 1], dtype=complex) / math.sqrt(2),
        np.array([1, -1], dtype=complex) / math.sqrt(2),
    ),
    Axis.Y: (
        np.array([1, 1j], dtype=complex) / math.sqrt(2),
        np.array([1, -1j], dtype=complex) / math.sqrt(2),
    ),
    Axis.Z: (
        np.array([1, 0], dtype=complex),
        np.array([0, 1], dtype=complex),
    ),
}

#: Reference eigenbasis of each label: its axis, or the axis outside its plane.
_REFERENCE: dict[Label, tuple[np.ndarray, np.ndarray]] = {
    label: _BASIS0[label.axes[0] if label.is_pauli else label.complement] for label in Label
}

_PAULI_MATRICES: dict[Axis, np.ndarray] = {
    Axis.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Axis.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Axis.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def max_qubits() -> int:
    """Simulator size bound; override with the MBQC_MAX_QUBITS variable."""
    value = os.environ.get("MBQC_MAX_QUBITS")
    if not value:
        return _DEFAULT_MAX_QUBITS
    try:
        bound = int(value)
    except ValueError:
        bound = -1
    if bound < 0:
        raise ResourceLimitError(f"MBQC_MAX_QUBITS must be a non-negative integer, got {value!r}")
    return bound


def _check_size(n: int) -> int:
    """The simulator bound, once ``n`` qubits are known to fit it."""
    bound = max_qubits()
    if n > bound:
        raise ResourceLimitError(f"{n} qubits exceeds the simulator bound {bound}")
    return bound


@dataclass(frozen=True)
class QuantumState:
    """Amplitude vector over the given qubit labels (ascending order)."""

    qubits: tuple[int, ...]
    vector: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        if tuple(sorted(self.qubits)) != self.qubits:
            raise DomainError("qubit labels must be sorted")
        if self.vector.shape != (1 << len(self.qubits),):
            raise DomainError("vector length must be 2^(number of qubits)")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


@dataclass(frozen=True)
class MeasurementBasisPair:
    plus: np.ndarray
    minus: np.ndarray


@dataclass(frozen=True)
class BranchMap:
    """Linear map from input amplitudes to output amplitudes for one branch."""

    matrix: np.ndarray
    outcomes: tuple[tuple[int, int], ...]
    in_qubits: tuple[int, ...]
    out_qubits: tuple[int, ...]


@dataclass(frozen=True)
class Superoperator:
    """Choi matrix of rho -> sum_m K_m rho K_m^dagger."""

    choi: np.ndarray
    in_qubits: tuple[int, ...]
    out_qubits: tuple[int, ...]
    kraus: tuple[np.ndarray, ...] = field(compare=False, default=())


def _basis_vectors(label: Label, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Measurement basis at a numeric angle (no constraint checks)."""
    p0, m0 = _REFERENCE[label]
    if label.is_pauli:
        # Angle pi measures the negated observable: outcomes swap.
        return (m0, p0) if pauli_multiple(alpha) == 1 else (p0, m0)
    phase = complex(math.cos(alpha), math.sin(alpha))
    plus = (p0 + phase * m0) / math.sqrt(2)
    minus = (p0 - phase * m0) / math.sqrt(2)
    return plus, minus


def measurement_basis(label: Label, angle: Angle) -> MeasurementBasisPair:
    """The orthonormal pair measured for the given label and angle."""
    if label.is_pauli and not angle.is_pauli_angle():
        raise DomainError(f"Pauli label {label.value} requires angle 0 or pi, got {angle}")
    plus, minus = _basis_vectors(label, angle.to_float())
    return MeasurementBasisPair(plus, minus)


# ---------------------------------------------------------------------------
# The project-and-correct kernel.  A register is an array whose leading axis
# runs over the basis of the sorted qubits (the qubit at tuple position a
# owns flat-index bit n-1-a); trailing axes ride along, so a state is a
# vector and a branch map has one column per input basis state.


def apply_pauli(k: np.ndarray, qubits: Sequence[int], xmask: int, zmask: int) -> np.ndarray:
    """Apply Z_{zmask} X_{xmask} (X first, then Z) to a register: X reverses
    a qubit's axis and Z negates its 1 half."""
    out = k
    for a, q in enumerate(qubits):
        x, z = (xmask >> q) & 1, (zmask >> q) & 1
        if x or z:
            t = out.reshape((1 << a, 2, -1))
            t = t[:, ::-1] if x else t
            out = (t * _Z_SIGNS if z else t).reshape(k.shape)
    return out


def project(
    k: np.ndarray, qubits: tuple[int, ...], q: int, bra: np.ndarray
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Contract qubit ``q`` of a register with ``<bra|``; returns the rest.

    The register is sliced as (2^position, 2, rest); a zero bra entry skips
    its term, and a lone entry of 1 returns the slice itself.
    """
    a = qubits.index(q)
    t = k.reshape((1 << a, 2, -1))
    c0, c1 = np.conj(bra).tolist()
    if not c1:
        out = t[:, 0] if c0 == 1 else c0 * t[:, 0]
    elif not c0:
        out = t[:, 1] if c1 == 1 else c1 * t[:, 1]
    else:
        out = c0 * t[:, 0] + c1 * t[:, 1]
    return out.reshape((-1,) + k.shape[1:]), qubits[:a] + qubits[a + 1 :]


def _cz(k: np.ndarray, qubits: tuple[int, ...], u: int, v: int) -> None:
    """CZ on qubits u and v of a C-contiguous register, in place."""
    a, b = qubits.index(u), qubits.index(v)
    if a > b:
        a, b = b, a
    t = k.reshape((1 << a, 2, 1 << (b - a - 1), 2, -1))
    t[:, 1, :, 1] *= -1


def _inputs(graph: Graph, inputs: int, columns: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """The input register: a copy of ``columns`` (one row per input basis
    state) with the CZs among the inputs applied."""
    qubits = tuple(bit_list(inputs))
    k = np.array(columns, dtype=complex)
    for u in qubits:
        for v in bit_list(graph.adj[u] & inputs & ~((2 << u) - 1)):
            _cz(k, qubits, u, v)
    return k, qubits


def _add(
    k: np.ndarray, qubits: tuple[int, ...], new: int, adj: Mapping[int, int], bound: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Prepare each qubit of ``new`` in |+> at its sorted position, with a CZ
    to each live neighbour; the live width may not pass ``bound``."""
    if not new:
        return k, qubits
    live = mask_of(qubits)
    tail = k.shape[1:]
    for q in iter_bits(new):
        if len(qubits) >= bound:
            raise ResourceLimitError(f"live width {len(qubits) + 1} exceeds the simulator bound {bound}")
        a = bisect.bisect(qubits, q)
        k = (k.reshape((1 << a, 1, -1)) * _PLUS_AXIS).reshape((-1,) + tail)
        qubits = qubits[:a] + (q,) + qubits[a:]
        for w in iter_bits(adj[q] & live):
            _cz(k, qubits, q, w)
        live |= 1 << q
    return k, qubits


def graph_state(g: OpenGraph | Graph, input_state: np.ndarray | None = None) -> QuantumState:
    """Entangled resource state: CZ over every edge on plus-states and inputs.

    ``input_state`` is the joint amplitude vector over the sorted input
    qubits; None means there are no inputs (for a bare graph every vertex is
    prepared in the plus state).
    """
    if isinstance(g, OpenGraph):
        graph, inputs = g.graph, g.inputs
    else:
        graph, inputs = g, 0
    if input_state is None:
        if inputs:
            raise DomainError("input state required for a graph with inputs")
        input_state = np.ones(1)
    state = np.asarray(input_state, dtype=complex).reshape(-1)
    if state.shape != (1 << inputs.bit_count(),):
        raise DomainError("input state dimension does not match the input set")
    bound = _check_size(len(graph.vertices))
    k, qubits = _inputs(graph, inputs, state[:, None])
    k, qubits = _add(k, qubits, graph.vmask & ~inputs, graph.adj, bound)
    return QuantumState(qubits, k[:, 0])


def _measure(
    k: np.ndarray, qubits: tuple[int, ...], step: MeasurementStep
) -> tuple[Callable[[float], tuple[np.ndarray, np.ndarray]], tuple[int, ...]]:
    """One measurement step: ``sides(angle)`` and the remaining qubits.

    k is projected onto the reference eigenbasis (e0, e1), the axis of a
    Pauli label or the complement axis of a plane, and both halves are
    corrected.  ``sides(angle)`` is the outcome-0 branch and the corrected
    outcome-1 branch: a Pauli label swaps the halves at pi, and a plane's
    basis (e0 +/- e^{i angle} e1) / sqrt(2) makes them two axpys.
    """
    label = step.label
    e0, e1 = _REFERENCE[label]
    k0, rest = project(k, qubits, step.qubit, e0)
    k1, _ = project(k, qubits, step.qubit, e1)
    c0 = apply_pauli(k0, rest, step.x_corr, step.z_corr)
    c1 = apply_pauli(k1, rest, step.x_corr, step.z_corr)

    def sides(angle: float) -> tuple[np.ndarray, np.ndarray]:
        if label.is_pauli:
            return (k1, c0) if pauli_multiple(angle) == 1 else (k0, c1)
        phase = complex(math.cos(angle), -math.sin(angle))
        return (k0 + phase * k1) * _INV_SQRT2, (c0 - phase * c1) * _INV_SQRT2

    return sides, rest


def _schedule(pat: Pattern, bound: int) -> tuple[np.ndarray, tuple[int, ...], list[int]]:
    """The input register and the qubits to prepare before each step, then
    the leftover outputs.

    A step prepares the unprepared qubits it touches: the measured qubit and
    its neighbours (a projection must follow every CZ of its qubit), its X
    and Z targets, and the neighbours of its X targets (an X does not commute
    with a pending CZ; a Z does).  The full register is then W (k ⊗ |+…+>),
    with W the product of the pending CZs: a unitary that commutes with every
    projection and correction so far, so every distance and norm is the
    dense one.
    """
    require_valid(pat)
    width = pat.inputs.bit_count()
    if width > bound:
        raise ResourceLimitError(f"live width {width} exceeds the simulator bound {bound}")
    adj = pat.graph.adj
    prepared = pat.inputs
    adds = []
    for s in pat.steps:
        touched = (1 << s.qubit) | adj[s.qubit] | s.x_corr | s.z_corr
        for t in bit_list(s.x_corr):
            touched |= adj[t]
        adds.append(touched & ~prepared)
        prepared |= touched
    adds.append(pat.graph.vmask & ~prepared)
    k, qubits = _inputs(pat.graph, pat.inputs, np.eye(1 << width, dtype=complex))
    return k, qubits, adds


def branch_map(pat: Pattern, m: OutcomeAssignment) -> BranchMap:
    """The linear map of one outcome branch; corrections fire on outcome 1."""
    bound = max_qubits()
    k, qubits, adds = _schedule(pat, bound)
    target = outcome_mask(pat, m)
    for step, new in zip(pat.steps, adds):
        sides, qubits = _measure(*_add(k, qubits, new, pat.graph.adj, bound), step)
        k = sides(step.angle.to_float())[(target >> step.qubit) & 1]
    k, qubits = _add(k, qubits, adds[-1], pat.graph.adj, bound)
    outcomes = tuple((s.qubit, (target >> s.qubit) & 1) for s in pat.steps)
    return BranchMap(k, outcomes, tuple(bit_list(pat.inputs)), qubits)


def _choi(kraus: Sequence[np.ndarray]) -> np.ndarray:
    vecs = np.stack([k.reshape(-1) for k in kraus], axis=1)
    return vecs @ vecs.conj().T


def semantics(pat: Pattern) -> Superoperator:
    """Superoperator semantics: the CP sum of all outcome branches."""
    bound = _check_size(pat.total_qubits())
    k, qubits, adds = _schedule(pat, bound)
    branches = [k]
    for step, new in zip(pat.steps, adds):
        angle = step.angle.to_float()
        measured = [_measure(*_add(k, qubits, new, pat.graph.adj, bound), step) for k in branches]
        branches = [side for sides, _ in measured for side in sides(angle)]
        qubits = measured[0][1]
    grown = [_add(k, qubits, adds[-1], pat.graph.adj, bound) for k in branches]
    kraus = tuple(k for k, _ in grown)
    return Superoperator(_choi(kraus), tuple(bit_list(pat.inputs)), grown[0][1], kraus)


def superoperator_equal(s1: Superoperator, s2: Superoperator) -> bool:
    """Max-entry distance of the Choi matrices within ``DEFAULT_TOL``."""
    if s1.in_qubits != s2.in_qubits or len(s1.out_qubits) != len(s2.out_qubits):
        raise DomainError("superoperator dimensions differ")
    return choi_distance(s1, s2) <= DEFAULT_TOL


def choi_distance(s1: Superoperator, s2: Superoperator) -> float:
    if s1.choi.shape != s2.choi.shape:
        raise DomainError("superoperator dimensions differ")
    return float(np.max(np.abs(s1.choi - s2.choi)))


# ---------------------------------------------------------------------------
# Robust determinism.

_PLANE_OFFSETS = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)


@dataclass(frozen=True)
class StepDiagnostic:
    index: int
    qubit: int
    label: Label
    epsilons: tuple[float, ...]
    choi_distance: float
    branch_norms: tuple[float, ...]
    ok: bool


@dataclass(frozen=True)
class RobustDeterminismReport:
    """``width`` is the most qubits the oracle held at once, inputs included."""

    ok: bool
    tol: float
    steps: tuple[StepDiagnostic, ...]
    width: int

    def __bool__(self) -> bool:
        return self.ok

    @property
    def failing_step(self) -> StepDiagnostic | None:
        for s in self.steps:
            if not s.ok:
                return s
        return None


def _rank_one_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of vec(a)vec(a)^dagger - vec(b)vec(b)^dagger in O(D).

    With b's global phase aligned so that <b, a> is real, s = a + b and
    d = a - b give aa^dagger - bb^dagger = (sd^dagger + ds^dagger) / 2 and
    <s, d> = |a|^2 - |b|^2.  Unlike the Gram form |a|^4 + |b|^4 - 2|<a, b>|^2,
    which cancels to noise near 1e-8, this stays at rounding level when the
    two sides agree.
    """
    a, b = a.reshape(-1), b.reshape(-1)
    overlap = complex(np.vdot(b, a))
    if overlap != 0:
        b = b * (overlap / abs(overlap))
    d = a - b
    aa, bb, dd = np.vdot(a, a).real, np.vdot(b, b).real, np.vdot(d, d).real
    ss = 2.0 * (aa + bb) - dd  # <s, s> by the parallelogram law
    return math.sqrt(0.5 * (ss * dd + (aa - bb) ** 2))


def is_robustly_deterministic(
    pat: Pattern,
    tol: float = DEFAULT_TOL,
    epsilon_offsets: Sequence[float] | None = None,
) -> RobustDeterminismReport:
    """Definitional recursion for robust determinism.

    At each step the channel conditioned on outcome 0 must equal the
    corrected channel conditioned on outcome 1, as linear maps of the input
    density matrix.  Plane measurements must satisfy this for every
    perturbation of their angle; three offsets suffice (see module docs),
    and ``epsilon_offsets`` lets callers re-run the check with denser
    sampling.  The check stops at the first failing step.

    The channel so far is one Kraus operator k: when a step passes, the
    corrected outcome-1 branch b is the outcome-0 branch a up to a global
    phase, so a rho a^dagger + b rho b^dagger = 2 a rho a^dagger and the next
    k is sqrt(2) a.  A step's distance is the Frobenius norm of
    vec(a)vec(a)^dagger - vec(b)vec(b)^dagger, never below its max-entry
    norm, and no D x D matrix is formed.  ``branch_norms`` has one entry,
    the norm of k.  The register holds the live qubits only (``_schedule``),
    and ``MBQC_MAX_QUBITS`` bounds their number, the report's ``width``.
    """
    bound = max_qubits()
    k, qubits, adds = _schedule(pat, bound)
    width = len(qubits)
    offsets = tuple(epsilon_offsets) if epsilon_offsets is not None else _PLANE_OFFSETS
    diagnostics: list[StepDiagnostic] = []
    for i, step in enumerate(pat.steps):
        alpha = step.angle.to_float()
        eps = tuple(alpha + o for o in offsets) if step.label.is_plane else (alpha,)
        k, qubits = _add(k, qubits, adds[i], pat.graph.adj, bound)
        width = max(width, len(qubits))
        sides, rest = _measure(k, qubits, step)
        worst = 0.0
        taken = None
        for angle in eps:
            a, b = sides(angle)
            worst = max(worst, _rank_one_distance(a, b))
            if angle == alpha:
                taken = a
        norms = (math.sqrt(np.vdot(k, k).real),)
        ok = worst <= tol
        diagnostics.append(StepDiagnostic(i, step.qubit, step.label, eps, worst, norms, ok))
        if not ok:
            return RobustDeterminismReport(False, tol, tuple(diagnostics), width)
        if taken is None:
            taken = sides(alpha)[0]
        k, qubits = math.sqrt(2.0) * taken, rest
    return RobustDeterminismReport(True, tol, tuple(diagnostics), width)


# ---------------------------------------------------------------------------
# Stabilizer fixed points.


def stabilizer_sign(g: OpenGraph, d: int, input_state: np.ndarray | None = None) -> int:
    """Sign of the stabilizer at ``d`` on the resource state.

    Applies X_d Z_{Odd(d)} and compares with the original state; by the
    fixed-point property this is exactly +1 or -1 for d within the
    non-inputs, and anything else raises.
    """
    if d & ~g.non_inputs or d & ~g.vmask:
        raise DomainError("stabilizer set must avoid input vertices")
    state = graph_state(g, input_state)
    moved = apply_pauli(state.vector, state.qubits, d, odd_neighborhood(g, d))
    ref = int(np.argmax(np.abs(state.vector)))
    if abs(state.vector[ref]) < NORM_FLOOR:
        raise InvariantViolationError("resource state is numerically zero")
    ratio = moved[ref] / state.vector[ref]
    for sign in (1, -1):
        if abs(ratio - sign) <= DEFAULT_TOL and np.max(np.abs(moved - sign * state.vector)) <= DEFAULT_TOL:
            return sign
    raise InvariantViolationError("state is not a +/-1 eigenvector of the stabilizer")


@dataclass(frozen=True)
class SignedAxis:
    axis: Axis
    sign: int

    def matrix(self) -> np.ndarray:
        return self.sign * _PAULI_MATRICES[self.axis]

    def __str__(self) -> str:
        return ("" if self.sign > 0 else "-") + self.axis.value


def plane_fixed_point(label: Label, angle: Angle | float) -> tuple[SignedAxis, SignedAxis]:
    """Axes (P, Q) of the plane with (cos a P + sin a Q) fixing the plus state.

    Both orderings and both signs per axis are tried; the orientation of the
    plane forces a negative sign for one axis in the YZ case, so signed axes
    are returned.
    """
    if not label.is_plane:
        raise DomainError("fixed-point decomposition needs a plane label")
    alpha = angle.to_float() if isinstance(angle, Angle) else float(angle)
    plus, _ = _basis_vectors(label, alpha)
    a1, a2 = label.axes
    for first, second in ((a1, a2), (a2, a1)):
        for s1 in (1, -1):
            for s2 in (1, -1):
                op = math.cos(alpha) * s1 * _PAULI_MATRICES[first] + math.sin(alpha) * s2 * _PAULI_MATRICES[second]
                if np.max(np.abs(op @ plus - plus)) <= NORM_FLOOR:
                    return SignedAxis(first, s1), SignedAxis(second, s2)
    raise InvariantViolationError(f"no fixed-point axis pair for {label.value} at {alpha}")


# ---------------------------------------------------------------------------
# Projected stabilizer groups.

#: Pauli assignment: vertex -> (axis, sign) with sign in {+1, -1}.
PauliAssignment = Mapping[int, tuple[Axis, int]]


def _assignment_masks(assignment: PauliAssignment) -> tuple[int, int, int]:
    amask = xmask = zmask = 0
    for v, (axis, sign) in assignment.items():
        if sign not in (1, -1):
            raise DomainError("assignment signs must be +1 or -1")
        amask |= 1 << v
        if axis in (Axis.X, Axis.Y):
            xmask |= 1 << v
        if axis in (Axis.Y, Axis.Z):
            zmask |= 1 << v
    return amask, xmask, zmask


def project_assignment(g: Graph, assignment: PauliAssignment) -> QuantumState:
    """Project the graph state of the bare graph onto the assigned eigenstates."""
    state = graph_state(g if isinstance(g, Graph) else g.graph)
    vec, qubits = state.vector, state.qubits
    for v in sorted(assignment):
        axis, sign = assignment[v]
        plus, minus = _BASIS0[axis]
        bra = plus if sign > 0 else minus
        vec, qubits = project(vec, qubits, v, bra)
    return QuantumState(qubits, vec)


def enumerate_projected_stabilizers(
    g: Graph | OpenGraph, assignment: PauliAssignment
) -> frozenset[PauliOperator]:
    """Stabilizers of a Pauli-projected graph state, up to phase.

    Requires the projection to be "strong" (its norm is exactly
    2^(-|A|/2)); the result is the set of operators X_{S minus the X-like
    assigned vertices} Z_{Odd(S) minus the Z-like ones} over subsets S whose
    clash with the assignment cancels.
    """
    graph = g.graph if isinstance(g, OpenGraph) else g
    amask, xa, za = _assignment_masks(assignment)
    projected = project_assignment(graph, assignment)
    expected = 2.0 ** (-len(assignment) / 2.0)
    if abs(projected.norm - expected) > DEFAULT_TOL:
        raise PreconditionError(
            f"projection norm {projected.norm:.6g} != 2^(-|A|/2) = {expected:.6g}"
        )
    remaining = graph.vmask & ~amask
    found: set[tuple[int, int]] = set()
    for smask in subsets(graph.vmask):
        odd = odd_neighborhood(graph, smask)
        if smask & za != odd & xa:
            continue
        found.add((smask & ~xa, odd & ~za))
    return frozenset(PauliOperator(remaining, x, z) for x, z in found)


def _proportional(a: np.ndarray, b: np.ndarray, tol: float) -> complex | None:
    """Phase c with a = c*b (same norms), or None."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < NORM_FLOOR and nb < NORM_FLOOR:
        return 1.0 + 0.0j
    if abs(na - nb) > tol or nb < NORM_FLOOR:
        return None
    ref = int(np.argmax(np.abs(b)))
    c = a[ref] / b[ref]
    if np.max(np.abs(a - c * b)) <= tol * max(1.0, float(nb)):
        return complex(c)
    return None
