"""Pattern IR, validation, and command-notation tests."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from mbqc import (
    Angle,
    Graph,
    Label,
    MeasurementStep,
    Pattern,
    PatternSyntaxError,
    is_pauli_first,
    mask_of,
    measurement_basis,
    parse_pattern,
    serialize_pattern,
    underlying_open_graph,
    validate,
)
from mbqc.bits import bit_list
from mbqc.corpus import pattern_corpus, random_valid_patterns
from mbqc.errors import DomainError, PreconditionError

TWO_QUBIT = "X_2^{s_1} M_1^{{X,Y},0} E_{12} N_2"


def test_canonical_two_qubit_pattern_is_valid():
    pat = parse_pattern(TWO_QUBIT)
    assert validate(pat) == []
    assert bit_list(pat.inputs) == [1]
    assert bit_list(pat.outputs) == [2]
    step = pat.steps[0]
    assert step.qubit == 1 and step.label is Label.XY
    assert bit_list(step.x_corr) == [2]


def test_pauli_angle_restriction():
    g = Graph.make([1, 2], [(1, 2)])
    bad = Pattern.make(g, [1], [MeasurementStep(1, Label.X, Angle.of_pi("1/3"), mask_of([2]), 0)])
    assert any("non-{0, pi}" in v for v in validate(bad))
    ok = Pattern.make(g, [1], [MeasurementStep(1, Label.X, Angle.PI, mask_of([2]), 0)])
    assert validate(ok) == []


def test_input_plane_restriction():
    g = Graph.make([1, 2], [(1, 2)])
    bad = Pattern.make(g, [1], [MeasurementStep(1, Label.YZ, Angle.of_pi("1/3"), 0, 0)])
    assert any("outside the XY plane" in v for v in validate(bad))


def test_correction_ordering_restriction():
    g = Graph.make([0, 1, 2], [(0, 1), (1, 2)])
    bad = Pattern.make(
        g,
        [],
        [
            MeasurementStep(0, Label.XY, Angle.ZERO, 0, 0),
            MeasurementStep(1, Label.XY, Angle.ZERO, mask_of([0]), 0),
        ],
    )
    assert any("already-measured" in v for v in validate(bad))
    dupl = Pattern.make(
        g,
        [],
        [
            MeasurementStep(0, Label.XY, Angle.ZERO, 0, 0),
            MeasurementStep(0, Label.X, Angle.ZERO, 0, 0),
        ],
    )
    assert any("twice" in v for v in validate(dupl))


def test_underlying_open_graph():
    pat = parse_pattern(TWO_QUBIT)
    og = underlying_open_graph(pat)
    assert og.graph.edges == ((1, 2),)
    assert bit_list(og.inputs) == [1]
    assert bit_list(og.outputs) == [2]
    assert og.label(1) is Label.XY


def test_underlying_open_graph_no_measurements():
    g = Graph.make([0, 1], [(0, 1)])
    pat = Pattern.make(g, [], [])
    og = underlying_open_graph(pat)
    assert og.label_of == {}
    assert og.outputs == g.vmask


def test_underlying_open_graph_rejects_invalid():
    g = Graph.make([1, 2], [(1, 2)])
    bad = Pattern.make(g, [1], [MeasurementStep(1, Label.X, Angle.of_pi("1/3"), 0, 0)])
    with pytest.raises(PreconditionError):
        underlying_open_graph(bad)


@pytest.mark.parametrize(
    "steps, expected",
    [
        ([("0", Label.X), ("1", Label.Z)], True),  # all Pauli: vacuous
        ([("0", Label.XY), ("1", Label.Z)], False),  # plane then Pauli
        ([("0", Label.Z), ("1", Label.XY)], True),  # Pauli then plane
        ([], True),
    ],
)
def test_is_pauli_first(steps, expected):
    g = Graph.make([0, 1], [(0, 1)])
    pat = Pattern.make(
        g,
        [],
        [
            MeasurementStep(int(q), lab, Angle.ZERO if lab.is_pauli else Angle.of_pi("1/4"))
            for q, lab in steps
        ],
    )
    assert is_pauli_first(pat) is expected


def test_parse_worked_three_qubit_string():
    pat = parse_pattern("Z_3^{s2} M_2^Z Z_2^{s1} M_1^{YZ,θ} E_{1,2} E_{2,3} N_1 N_2 N_3")
    assert bit_list(pat.inputs) == []
    assert pat.graph.edges == ((1, 2), (2, 3))
    assert pat.measurement_order() == [1, 2]
    first, second = pat.steps
    assert first.label is Label.YZ and first.angle.var == "θ"
    assert bit_list(first.z_corr) == [2]
    assert second.label is Label.Z and bit_list(second.z_corr) == [3]
    assert bit_list(pat.outputs) == [3]


def test_parse_empty_is_error():
    with pytest.raises(PatternSyntaxError):
        parse_pattern("")


@pytest.mark.parametrize(
    "text",
    [
        "M_1^Q N_1",  # bad label
        "M_1^{XY,}",  # missing angle after comma
        "M_1",  # missing superscript
        "N_1 N_1",  # duplicate preparation
        "M_1^X M_1^X N_1",  # duplicate measurement
        "X_2^{s_3} M_1^X N_1 N_2 N_3",  # signal does not match the measurement
        "X_2^{s_1} N_1 N_2",  # dangling correction
        "E_1 N_1",  # entangler needs two vertices
        "Z_5^{s_1} M_1^X N_1",  # unknown vertex reference
        "M_1^{XY,1e400} N_1",  # angle overflows to infinity
        "M_1^{XY,pi/0} N_1 N_2",  # zero denominator
        "N_{²}",  # str.isdigit accepts superscript digits, int() does not
        "E_{1,²} N_1",
        "N_65536",  # above MAX_VERTEX_ID
        # Past int()'s 4,300-digit limit.
        pytest.param("N_" + "1" * 5000, id="N_<5000 digits>"),
        pytest.param("M_1^{XY," + "3" * 5000 + "pi} N_1", id="M_1^{XY,<5000 digits>pi} N_1"),
        pytest.param("X_2^{s_" + "1" * 5000 + "} M_1^X N_1 N_2", id="X_2^{s_<5000 digits>} M_1^X N_1 N_2"),
        "gibberish",
    ],
)
def test_parse_errors(text):
    with pytest.raises(PatternSyntaxError):
        parse_pattern(text)


def test_parse_positions_reported():
    try:
        parse_pattern("M_1^X M_1^X N_1")
    except PatternSyntaxError as exc:
        assert exc.position > 0
    else:  # pragma: no cover
        raise AssertionError("expected a syntax error")


def test_roundtrip_on_corpus_sample():
    count = 0
    for pat in pattern_corpus():
        count += 1
        if count > 400:
            break
        assert parse_pattern(serialize_pattern(pat)) == pat
    for pat in random_valid_patterns(200, max_qubits=6, seed=17):
        assert parse_pattern(serialize_pattern(pat)) == pat


def test_pattern_corpus_is_pinned():
    # The corpus feeds criteria 3, 4 and 9; a change to how it is built must
    # leave every pattern and their order as they are.
    digest = hashlib.sha256()
    count = 0
    for pat in pattern_corpus():
        digest.update((serialize_pattern(pat) + "\n").encode())
        count += 1
    assert count == 12927
    assert digest.hexdigest() == "1c7a13574add6ca6aa96ad07590b44fab56feec1dfab76120cfada39efac6240"


def test_roundtrip_isolated_input():
    g = Graph.make([0, 1], [])
    pat = Pattern.make(g, [0, 1], [])
    assert parse_pattern(serialize_pattern(pat)) == pat


def test_roundtrip_two_digit_vertex_ids():
    g = Graph.make([3, 10, 11], [(3, 10), (10, 11)])
    pat = Pattern.make(
        g,
        [],
        [MeasurementStep(10, Label.X, Angle.ZERO, mask_of([11]), mask_of([3, 11]))],
    )
    text = serialize_pattern(pat)
    assert parse_pattern(text) == pat
    # Unbraced subscripts carry one id; braced digit runs are per-digit.
    assert parse_pattern("M_10^X N_10").measurement_order() == [10]
    assert parse_pattern("E_{12} N_1 N_2").graph.edges == ((1, 2),)


def test_angle_forms():
    assert Angle.of_pi(2) == Angle.ZERO  # normalized into [0, 2)
    assert Angle.of_pi("3/2").pi_mult == Fraction(3, 2)
    assert str(Angle.of_pi("3/2")) == "3pi/2"
    for x in (-1.0, -1e-20):  # wrapped into [0, 2 pi)
        assert 0.0 <= Angle.of_real(x).real < 2 * math.pi
    assert Angle.of_real(-1e-20).is_pauli_angle()
    assert Angle.variable("theta").is_symbolic
    with pytest.raises(DomainError):
        Angle.variable("theta").to_float()
    assert Angle.PI.is_pauli_angle() and Angle.ZERO.is_pauli_angle()
    assert not Angle.of_pi("1/2").is_pauli_angle()
    for mult, pauli in ((0, True), (1, True), (2, True), (3, True), (-1, True),
                        ("1/2", False), ("3/2", False), ("7/4", False)):
        assert Angle.of_pi(mult).is_pauli_angle() is pauli
    # Real angles within rounding of 0, pi or 2 pi are Pauli, and the
    # simulator measures them as 0 or pi.
    near = {math.pi * (1 - 1e-15): Angle.PI, math.pi * (1 + 1e-15): Angle.PI, 2 * math.pi - 1e-15: Angle.ZERO}
    for x, exact in near.items():
        assert Angle.of_real(x).is_pauli_angle()
        got = measurement_basis(Label.Z, Angle.of_real(x))
        assert np.array_equal(got.plus, measurement_basis(Label.Z, exact).plus)
    assert not Angle.of_real(math.pi + 1e-9).is_pauli_angle()
    # A variable is a name that the notation reads back as itself.
    for name in ("pi", "π", "", "2t", "t u", "t\n"):
        with pytest.raises(DomainError):
            Angle.variable(name)


def test_bind_angles():
    pat = parse_pattern("M_1^{XY,theta} E_{1,2} N_1 N_2")
    bound = pat.bind({"theta": Angle.of_pi("1/2")})
    assert bound.steps[0].angle == Angle.of_pi("1/2")
    # Unknown names stay symbolic.
    assert pat.bind({"other": Angle.ZERO}).steps[0].angle.var == "theta"

