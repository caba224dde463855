"""Brute-force references that the acceptance suite checks the library against.

Each function here restates a library result the slow, obvious way: the
Pauli-flow condition as the historical per-axis membership clauses
(criterion 1, against :func:`mbqc.flows.check_pauli_flow_many`), and the
stabilizers of a Pauli-projected graph state by trying every support pair on
the state vector (criterion 7, against
:func:`mbqc.simulate.enumerate_projected_stabilizers`).  No library module
imports this one, so a reference can never quietly become the thing it checks.
"""

from __future__ import annotations

from collections.abc import Sequence

from .bits import bit_list
from .flows import CorrectionFunction, StrictPartialOrder, _check_correction_function
from .graphs import Graph, OpenGraph, odd_neighborhood
from .pauli import PauliOperator
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
    return frozenset(PauliOperator(remaining, x, z, 0) for x, z in out)
