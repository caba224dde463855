"""Property-based checks on generated inputs (hypothesis)."""

from __future__ import annotations

import json
import math
from itertools import combinations

import pytest

from mbqc import (
    Angle,
    DomainError,
    Graph,
    Label,
    MeasurementStep,
    OpenGraph,
    Pattern,
    find_extended_pauli_flow,
    find_inducing_certificate,
    find_pauli_flow,
    induced_pattern,
    is_induced_by,
    is_robustly_deterministic,
    mask_of,
    normalize_pauli_first,
    parse_pattern,
    semantics,
    serialize_pattern,
)
from mbqc.corpus import angle_assignments
from mbqc.documents import certificate_from_json, certificate_to_json, pattern_from_json, pattern_to_json
from mbqc.graphs import MAX_VERTEX_ID
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
@hypothesis.given(open_graphs(min_vertices=3, max_outputs=2))
def test_pauli_and_extended_flow_existence_agree(og):
    # The extended search backtracks over every total order, independently
    # of the layer peeling in find_pauli_flow.  At least three vertices and
    # at most two outputs, so every drawn graph measures some vertex.
    assert (find_pauli_flow(og) is None) == (find_extended_pauli_flow(og) is None)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(open_graphs(min_vertices=3, max_outputs=2))
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


def _variable(name: str) -> Angle | None:
    try:
        return Angle.variable(name)
    except DomainError:  # a name the notation would not read back as itself
        return None


_VARIABLES = (
    st.one_of(st.sampled_from(["pi", "π", "theta", "θ"]), st.text("aipπθ_0", min_size=1, max_size=3))
    .map(_variable)
    .filter(lambda angle: angle is not None)
)
_ANGLES = st.one_of(
    st.fractions(-4, 4, max_denominator=12).map(Angle.of_pi),
    st.floats(-10.0, 10.0).map(Angle.of_real),
    _VARIABLES,
)
_PAULI_ANGLES = st.sampled_from([Angle.ZERO, Angle.PI]) | _VARIABLES


@st.composite
def patterns(draw) -> Pattern:
    """Valid patterns on up to five vertices, ids up to MAX_VERTEX_ID."""
    ids = st.integers(0, 12) | st.integers(0, MAX_VERTEX_ID)
    verts = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    edges = [e for e in combinations(sorted(verts), 2) if draw(st.booleans())]
    inputs = draw(st.sets(st.sampled_from(verts)))
    order = draw(st.permutations(verts))[: draw(st.integers(0, len(verts)))]
    steps = []
    for i, v in enumerate(order):
        label = draw(st.sampled_from([Label.XY, Label.X, Label.Y] if v in inputs else list(Label)))
        angle = draw(_PAULI_ANGLES if label.is_pauli else _ANGLES)
        later = [w for w in verts if w not in order[: i + 1]]
        corrections = st.sets(st.sampled_from(later)) if later else st.just(set())
        x_corr, z_corr = mask_of(draw(corrections)), mask_of(draw(corrections))
        steps.append(MeasurementStep(v, label, angle, x_corr, z_corr))
    return Pattern.make(Graph.make(verts, edges), inputs, steps)


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(patterns())
def test_notation_round_trip(pat):
    assert parse_pattern(serialize_pattern(pat)) == pat


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(patterns())
def test_pattern_document_round_trip(pat):
    assert pattern_from_json(json.loads(json.dumps(pattern_to_json(pat)))) == pat


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(open_graphs())
def test_certificate_document_round_trip(og):
    for cert in (find_pauli_flow(og), find_extended_pauli_flow(og)):
        if cert is not None:
            doc = json.loads(json.dumps(certificate_to_json(cert)))
            assert certificate_from_json(doc, og) == cert
