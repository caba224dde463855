"""Property-based checks on generated inputs (hypothesis)."""

from __future__ import annotations

from itertools import combinations

import pytest

from mbqc import (
    Graph,
    Label,
    OpenGraph,
    find_extended_pauli_flow,
    find_inducing_certificate,
    find_pauli_flow,
    induced_pattern,
    is_induced_by,
)
from mbqc.corpus import angle_assignments

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def open_graphs(draw, max_vertices: int = 5) -> OpenGraph:
    n = draw(st.integers(1, max_vertices))
    verts = range(n)
    edges = [e for e in combinations(verts, 2) if draw(st.booleans())]
    outputs = draw(st.sets(st.sampled_from(verts)))
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
