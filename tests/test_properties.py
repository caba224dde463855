"""Property-based checks on generated inputs (hypothesis)."""

from __future__ import annotations

import math
from itertools import combinations

import pytest

from mbqc import (
    Angle,
    Graph,
    Label,
    OpenGraph,
    find_extended_pauli_flow,
    find_inducing_certificate,
    find_pauli_flow,
    induced_pattern,
    is_induced_by,
    is_robustly_deterministic,
    normalize_pauli_first,
    semantics,
)
from mbqc.corpus import angle_assignments
from mbqc.simulate import choi_distance

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def open_graphs(
    draw, min_vertices: int = 1, max_vertices: int = 5, max_outputs: int | None = None
) -> OpenGraph:
    n = draw(st.integers(min_vertices, max_vertices))
    verts = range(n)
    edges = [e for e in combinations(verts, 2) if draw(st.booleans())]
    outputs = draw(st.sets(st.sampled_from(verts), max_size=max_outputs))
    inputs = draw(st.sets(st.sampled_from(verts)))
    labels = {}
    for v in verts:
        if v not in outputs:
            # Inputs are measured within the XY plane.
            options = [Label.XY, Label.X, Label.Y] if v in inputs else list(Label)
            labels[v] = draw(st.sampled_from(options))
    return OpenGraph.make(Graph.make(verts, edges), inputs, outputs, labels)


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(open_graphs())
def test_pauli_and_extended_flow_existence_agree(og):
    # The extended search backtracks over every total order, independently
    # of the layer peeling in find_pauli_flow.
    assert (find_pauli_flow(og) is None) == (find_extended_pauli_flow(og) is None)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(open_graphs())
def test_pattern_induced_by_a_found_flow_has_inducing_certificates(og):
    cert = find_pauli_flow(og)
    hypothesis.assume(cert is not None)
    total = cert.order.canonical_extension()
    pat = induced_pattern(og, cert.p_map(), cert.order, total, angle_assignments(og)[0])
    for kind in ("pauli", "extended"):
        found = find_inducing_certificate(pat, kind)
        assert found is not None, kind
        assert is_induced_by(pat, found)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(open_graphs(min_vertices=3, max_outputs=2), st.data())
def test_pauli_first_normal_form_keeps_semantics_of_flow_induced_patterns(og, data):
    # Pushes keep the channel of robustly deterministic patterns, and a
    # pattern induced by a flow is one, at any angles and in any linear
    # extension of the flow's order.  Few outputs leave steps to push.
    cert = find_pauli_flow(og)
    hypothesis.assume(cert is not None)
    total, left = [], set(og.measured_vertices())
    while left:
        ready = sorted(v for v in left if not any(cert.order.less(w, v) for w in left))
        total.append(data.draw(st.sampled_from(ready)))
        left.remove(total[-1])
    angles = {
        v: Angle.of_real(data.draw(st.floats(0.0, 2.0 * math.pi)))
        if og.label(v).is_plane
        else data.draw(st.sampled_from([Angle.ZERO, Angle.PI]))
        for v in og.measured_vertices()
    }
    pat = induced_pattern(og, cert.p_map(), cert.order, total, angles)
    nf = normalize_pauli_first(pat)
    assert is_robustly_deterministic(pat)
    assert is_robustly_deterministic(nf)
    assert choi_distance(semantics(pat), semantics(nf)) <= 1e-9
