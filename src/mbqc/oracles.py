"""Brute-force references that the acceptance suite checks the library against.

Each function here restates a library result the slow, obvious way: the
Pauli-flow condition as the historical per-axis membership clauses
(criterion 1, against :func:`mbqc.flows.check_pauli_flow_many`), the
stabilizers of a Pauli-projected graph state by trying every support pair on
the state vector (criterion 7, against
:func:`mbqc.simulate.enumerate_projected_stabilizers`), and one Pauli push
through the explicit exponent formulas (the rewrite tests, against
:func:`mbqc.rewrite.push_step`).  No library module imports this one, so a
reference can never quietly become the thing it checks.
"""

from __future__ import annotations

from collections.abc import Sequence

from .bits import bit_list
from .flows import CorrectionFunction, StrictPartialOrder, _check_correction_function
from .errors import DomainError
from .graphs import Axis, Graph, OpenGraph, odd_neighborhood
from .patterns import MeasurementStep, Pattern
from .pauli import PauliOperator
from .rewrite import _anticommutes_with_axis, _merge_axis, _supports_commute, _swap_steps
from .simulate import (
    DEFAULT_TOL,
    PauliAssignment,
    _assignment_masks,
    _proportional,
    apply_pauli,
    project_assignment,
)


def check_pauli_flow_original(
    g: OpenGraph, p: CorrectionFunction, order: StrictPartialOrder
) -> bool:
    """The three per-axis membership conditions, stated the historical way.

    For every measured v: if X is in v's label, v lies in the odd
    neighborhood of p(v) and in no odd neighborhood of p(u) for u not
    already before v; likewise for Y with the self-difference sets and for
    Z with the sets themselves.  Equivalent to :func:`check_pauli_flow`.
    """
    return check_pauli_flow_original_many(g, p, [order])[0]


def check_pauli_flow_original_many(
    g: OpenGraph, p: CorrectionFunction, orders: Sequence[StrictPartialOrder]
) -> list[bool]:
    """Batch variant of :func:`check_pauli_flow_original`."""
    _check_correction_function(g, p)
    measured = sorted(p)
    odd_p = {u: odd_neighborhood(g, p[u]) for u in measured}
    codd_p = {u: p[u] ^ odd_p[u] for u in measured}
    verdicts = []
    for order in orders:
        ok = True
        for v in measured:
            bv = 1 << v
            others = [u for u in measured if u != v and not order.less(u, v)]
            if g.x_labelled & bv:
                union = 0
                for u in others:
                    union |= odd_p[u]
                if not (odd_p[v] & bv) or (union & bv):
                    ok = False
                    break
            if g.y_labelled & bv:
                union = 0
                for u in others:
                    union |= codd_p[u]
                if not (codd_p[v] & bv) or (union & bv):
                    ok = False
                    break
            if g.z_labelled & bv:
                union = 0
                for u in others:
                    union |= p[u]
                if not (p[v] & bv) or (union & bv):
                    ok = False
                    break
        verdicts.append(ok)
    return verdicts


def brute_force_projected_stabilizers(
    g: Graph | OpenGraph, assignment: PauliAssignment
) -> frozenset[PauliOperator]:
    """Oracle: try every support pair on the remaining qubits directly."""
    graph = g.graph if isinstance(g, OpenGraph) else g
    amask, _, _ = _assignment_masks(assignment)
    projected = project_assignment(graph, assignment)
    vec, qubits = projected.vector, projected.qubits
    remaining = graph.vmask & ~amask
    rem = bit_list(remaining)
    out = set()
    for xm_bits in range(1 << len(rem)):
        xm = sum(1 << rem[i] for i in range(len(rem)) if (xm_bits >> i) & 1)
        for zm_bits in range(1 << len(rem)):
            zm = sum(1 << rem[i] for i in range(len(rem)) if (zm_bits >> i) & 1)
            moved = apply_pauli(vec, qubits, xm, zm)
            if _proportional(moved, vec, DEFAULT_TOL) is not None:
                out.add((xm, zm))
    return frozenset(PauliOperator(remaining, x, z) for x, z in out)


def push_step_robust(pat: Pattern, u: int, sigma_prime: Axis | None = None) -> Pattern:
    """One push of ``u`` via the exponent formulas, always among the
    patterns :func:`mbqc.rewrite.push_step` returns for the same plane axis.

    With sigma = X^x Z^z the mark on ``u``, y the commutation defect of R
    and C, and P the measured axis, the exponent of the conditional plane
    mark is ``(y+z)(1+x)`` for P=Z, ``(y+x)(1+z)`` for P=X and
    ``(y+z)(1+x+z)`` for P=Y, all mod 2; the plane step keeps R exactly when
    that exponent vanishes and additionally receives C when sigma
    anticommutes with P.  Any axis of the plane may serve as the mark.
    """
    i = pat.step_index(u)
    step_u = pat.steps[i]
    if not step_u.label.is_pauli:
        raise DomainError(f"qubit {u} is not Pauli-measured")
    if i == 0 or not pat.steps[i - 1].label.is_plane:
        raise DomainError(f"no plane measurement directly before qubit {u}")
    step_v = pat.steps[i - 1]
    v = step_v.qubit
    bu = 1 << u
    x = int(bool(step_v.x_corr & bu))
    z = int(bool(step_v.z_corr & bu))
    rx, rz = step_v.x_corr & ~bu, step_v.z_corr & ~bu
    cx, cz = step_u.x_corr, step_u.z_corr
    p_axis = step_u.label.axes[0]
    y = 0 if _supports_commute(rx, rz, cx, cz) else 1
    r = 1 if _anticommutes_with_axis(x, z, p_axis) else 0
    if p_axis is Axis.Z:
        alpha = (y + z) * (1 + x)
    elif p_axis is Axis.X:
        alpha = (y + x) * (1 + z)
    else:
        alpha = (y + z) * (1 + x + z)
    alpha &= 1

    axis = sigma_prime if sigma_prime is not None else step_v.label.axes[0]
    if axis not in step_v.label:
        raise DomainError(f"axis {axis.value} is not in the plane of qubit {v}")
    ncx, ncz = (cx, cz) if alpha == 0 else _merge_axis(cx, cz, v, axis)
    keep_r = (alpha + 1) & 1
    vx = (cx if r else 0) ^ (rx if keep_r else 0)
    vz = (cz if r else 0) ^ (rz if keep_r else 0)
    new_u = MeasurementStep(u, step_u.label, step_u.angle, ncx, ncz)
    new_v = MeasurementStep(v, step_v.label, step_v.angle, vx, vz)
    return _swap_steps(pat, i, new_u, new_v)
