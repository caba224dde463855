"""Reference flow checkers written from the definitions, apart from mbqc.flows.

Graphs and certificates are plain Python data here (vertex sets are
frozensets, labels are strings such as ``"XY"``), so nothing in this module
shares code with the library checkers it is used to cross-check.

Definitions, for a measured vertex ``v`` with label axes ``A`` and a set
``d`` of non-input vertices:

* ``S_X(d) = Odd(d)``, ``S_Y(d) = d xor Odd(d)``, ``S_Z(d) = d``, where
  ``Odd(d)`` holds the vertices with an odd number of neighbours in ``d``.
* ``v`` corrects ``u`` via ``d`` when, for some axis ``A`` of ``v``'s label,
  ``v in S_A(d)`` differs from ``u == v``.

A Pauli flow ``(p, <)`` asks, per axis ``A`` of every measured ``v``, that
``v`` lies in ``S_A(p(v))`` and in no ``S_A(p(u))`` of a measured ``u != v``
that is not strictly before ``v``.  The extended condition is the one stated
in the README of the repository: a vertex corrected from the past must be
plane-measured and carry a compensation set.
"""

from __future__ import annotations

from dataclasses import dataclass

LABELS = ("X", "Y", "Z", "XY", "XZ", "YZ")


@dataclass(frozen=True)
class RefGraph:
    vertices: frozenset
    edges: frozenset  # of frozenset pairs
    inputs: frozenset
    outputs: frozenset
    labels: dict  # measured vertex -> label string

    @property
    def measured(self) -> frozenset:
        return self.vertices - self.outputs

    def neighbours(self, v: int) -> set:
        return {w for e in self.edges if v in e for w in e if w != v}

    def odd(self, d) -> frozenset:
        return frozenset(
            v for v in self.vertices if len(self.neighbours(v) & set(d)) % 2 == 1
        )

    def axis_set(self, axis: str, d) -> frozenset:
        d = frozenset(d)
        if axis == "X":
            return self.odd(d)
        if axis == "Y":
            return d ^ self.odd(d)
        return d

    def corrects(self, u: int, v: int, d) -> bool:
        """Whether ``v`` corrects the measurement of ``u`` via ``d``."""
        return any((v in self.axis_set(a, d)) != (u == v) for a in self.labels[v])


def ref_graph(vertices, edges, inputs, outputs, labels) -> RefGraph:
    return RefGraph(
        frozenset(vertices),
        frozenset(frozenset(e) for e in edges),
        frozenset(inputs),
        frozenset(outputs),
        dict(labels),
    )


def closure(domain, pairs) -> set | None:
    """Transitive closure of a relation, or None when it has a cycle."""
    rel = {(a, b) for a, b in pairs}
    if any(a not in domain or b not in domain for a, b in rel):
        return None
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    if any(a == b for a, b in rel):
        return None
    return rel


def _graph_violation(g: RefGraph) -> str | None:
    if set(g.labels) != set(g.measured):
        return "labels must be defined exactly on the measured vertices"
    if any(lab not in LABELS for lab in g.labels.values()):
        return "unknown label"
    for v in g.inputs & g.measured:
        if "Z" in g.labels[v]:
            return f"input {v} is not measured within the XY plane"
    return None


def _domain_violation(g: RefGraph, p: dict) -> str | None:
    err = _graph_violation(g)
    if err is not None:
        return err
    if set(p) != set(g.measured):
        return "p must be defined exactly on the measured vertices"
    for u, d in p.items():
        if not set(d) <= g.vertices - g.inputs:
            return f"p({u}) leaves the non-input vertices"
    return None


def pauli_flow_violation(g: RefGraph, p: dict, order_pairs) -> str | None:
    """First violated clause of the per-axis Pauli-flow definition, or None."""
    err = _domain_violation(g, p)
    if err is not None:
        return err
    less = closure(g.measured, order_pairs)
    if less is None:
        return "order is not a strict partial order on the measured vertices"
    for v in sorted(g.measured):
        for axis in g.labels[v]:
            if v not in g.axis_set(axis, p[v]):
                return f"{v} not in S_{axis}(p({v}))"
            for u in sorted(g.measured):
                if u != v and (u, v) not in less and v in g.axis_set(axis, p[u]):
                    return f"{v} in S_{axis}(p({u})) but {u} is not before {v}"
    return None


def extended_flow_violation(g: RefGraph, p: dict, order_pairs, comp: dict) -> str | None:
    """First violated clause of the extended-flow definition, or None."""
    err = _domain_violation(g, p)
    if err is not None:
        return err
    less = closure(g.measured, order_pairs)
    if less is None:
        return "order is not a strict partial order on the measured vertices"

    def leq(a, b):
        return a == b or (a, b) in less

    for v in sorted(g.measured):
        u_set = [u for u in sorted(g.measured) if leq(v, u) and g.corrects(u, v, p[u])]
        if not u_set:
            continue
        if len(g.labels[v]) != 2:
            return f"{v} is corrected from the past but not plane-measured"
        if v in u_set:
            return f"{v} corrects itself"
        if v not in comp:
            return f"compensation missing for {v}"
        d = frozenset(comp[v])
        if not d <= g.vertices - g.inputs:
            return f"D_{v} leaves the non-input vertices"
        union = d | g.odd(d)
        if v not in union:
            return f"{v} not covered by D_{v} or its odd neighbourhood"
        if not union <= g.measured:
            return f"D_{v} reaches output vertices"
        for w in sorted(union):
            if g.corrects(v, w, d):
                return f"{w} corrects {v} via D_{v}"
            for u in u_set:
                if not leq(w, u):
                    return f"D_{v} member {w} is not measured at-or-before {u}"
    return None


def induced_corrections(g: RefGraph, p: dict, total: list) -> dict:
    """``u -> (x targets, z targets)`` of the pattern a certificate induces.

    The targets are ``p(u)`` and ``Odd(p(u))`` restricted to the vertices
    still unmeasured after ``u`` in the total order, outputs included.
    """
    out = {}
    for i, u in enumerate(total):
        future = set(total[i + 1 :]) | g.outputs
        out[u] = (frozenset(p[u]) & future, g.odd(p[u]) & future)
    return out
