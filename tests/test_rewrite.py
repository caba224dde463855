"""Pauli-push rewrite tests."""

from __future__ import annotations

import itertools

import pytest

from mbqc import (
    Angle,
    Axis,
    Graph,
    Label,
    MeasurementStep,
    Pattern,
    is_pauli_first,
    is_robustly_deterministic,
    mask_of,
    normalize_pauli_first,
    parse_pattern,
    pauli_inversions,
    push_step,
    semantics,
    serialize_pattern,
    superoperator_equal,
)
from mbqc.corpus import pattern_corpus, random_valid_patterns
from mbqc.errors import DomainError
from mbqc.oracles import push_step_robust
from mbqc.rewrite import PushChoice, normalize_with_trace, push_step_choices

THETA = {"θ": Angle.of_real(0.613)}
SRC_A = "Z_3^{s2} M_2^Z Z_2^{s1} M_1^{YZ,θ} E_{1,2} E_{2,3} N_1 N_2 N_3"
SRC_B = "Z_3^{s2} M_2^Z Z_3^{s1} Z_2^{s1} M_1^{YZ,θ} E_{1,2} E_{2,3} N_1 N_2 N_3"
SRC_NF = "M_1^{YZ,θ} Z_1^{s2} Z_3^{s2} M_2^Z E_{1,2} E_{2,3} N_1 N_2 N_3"


def pattern_a() -> Pattern:
    return parse_pattern(SRC_A).bind(THETA)


def pattern_b() -> Pattern:
    return parse_pattern(SRC_B).bind(THETA)


def test_push_case_ii_plain_swap():
    # sigma = identity, R and C commute, sigma != lambda: the steps just swap.
    g = Graph.make([0, 1, 2, 3], [(0, 1)])
    steps = (
        MeasurementStep(0, Label.XY, Angle.of_pi("1/4"), mask_of([2]), 0),
        MeasurementStep(1, Label.Z, Angle.ZERO, mask_of([2]), 0),
    )
    pat = Pattern.make(g, [], steps)
    (succ,) = push_step(pat, 1)
    assert succ.measurement_order() == [1, 0]
    assert succ.step_of(0) == steps[0]
    assert succ.step_of(1) == steps[1]
    choices = push_step_choices(pat, 1)
    assert choices[0][1] == PushChoice("ii")


def test_push_case_i_anticommuting_mark():
    # sigma = X against a Z measurement with trivial R: the new plane
    # corrections become C itself.
    g = Graph.make([0, 1, 2, 3], [(0, 1)])
    steps = (
        MeasurementStep(0, Label.XY, Angle.of_pi("1/4"), mask_of([1]), 0),
        MeasurementStep(1, Label.Z, Angle.ZERO, mask_of([2]), mask_of([3])),
    )
    pat = Pattern.make(g, [], steps)
    (succ,) = push_step(pat, 1)
    assert succ.step_of(0).x_corr == mask_of([2])
    assert succ.step_of(0).z_corr == mask_of([3])
    assert succ.step_of(1).x_corr == mask_of([2])
    assert succ.step_of(1).z_corr == mask_of([3])
    assert push_step_choices(pat, 1)[0][1] == PushChoice("i")


def test_push_worked_example_yields_stated_form():
    a = pattern_a()
    succ = push_step(a, 2, plane_axis=Axis.Z)
    stated = parse_pattern(SRC_NF).bind(THETA)
    assert stated in succ
    # Nondeterministic case with trivial R: both branches coincide.
    assert len(succ) == 1
    (_, choice), = push_step_choices(a, 2, (Axis.Z,))
    assert choice.case == "iii"


def test_push_inapplicable_returns_empty():
    nf = parse_pattern(SRC_NF).bind(THETA)
    assert push_step(nf, 2) == frozenset()  # nothing before the Pauli step
    with pytest.raises(DomainError):
        push_step(nf, 1)  # qubit 1 is plane-measured
    with pytest.raises(DomainError):
        push_step_robust(nf, 2)


def test_push_requires_plane_neighbor():
    # Two adjacent Pauli measurements: the later one cannot move yet.
    pat = parse_pattern("M_2^X M_1^Z E_{1,2} N_1 N_2 N_3")
    assert push_step(pat, 2) == frozenset()


def _exponent_template(x: int, z: int, y: int, p_axis: Axis) -> Pattern:
    """Four-qubit template realizing the requested (x, z, y, P) combination.

    v = 0 measured in a plane, u = 1 measured along P; R = X_2, and C is
    X_2 when it must commute with R (y = 0) or Z_2 when it must not.
    """
    g = Graph.make([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    r_x, r_z = mask_of([2]), 0
    c_x, c_z = (mask_of([2]), 0) if y == 0 else (0, mask_of([2]))
    v_x = r_x | (mask_of([1]) if x else 0)
    v_z = r_z | (mask_of([1]) if z else 0)
    steps = (
        MeasurementStep(0, Label.XY, Angle.of_pi("1/4"), v_x, v_z),
        MeasurementStep(1, Label(p_axis.value), Angle.ZERO, c_x, c_z),
    )
    return Pattern.make(g, [], steps)


@pytest.mark.parametrize(
    "x, z, y, p_axis",
    list(itertools.product((0, 1), (0, 1), (0, 1), tuple(Axis))),
)
def test_push_robust_exponent_table(x, z, y, p_axis):
    # Direct formula evaluation oracle for the 24 exponent combinations.
    if p_axis is Axis.Z:
        alpha = ((y + z) * (1 + x)) % 2
        r = x
    elif p_axis is Axis.X:
        alpha = ((y + x) * (1 + z)) % 2
        r = z
    else:
        alpha = ((y + z) * (1 + x + z)) % 2
        r = (x + z) % 2
    pat = _exponent_template(x, z, y, p_axis)
    out = push_step_robust(pat, 1, sigma_prime=Axis.X)
    step_u, step_v = out.step_of(1), out.step_of(0)
    c_x, c_z = pat.step_of(1).x_corr, pat.step_of(1).z_corr
    r_x, r_z = mask_of([2]), 0
    want_u_x = c_x ^ (mask_of([0]) if alpha else 0)  # sigma' = X lands on v = 0
    assert step_u.x_corr == want_u_x and step_u.z_corr == c_z
    keep_r = (alpha + 1) % 2
    want_v_x = (c_x if r else 0) ^ (r_x if keep_r else 0)
    want_v_z = (c_z if r else 0) ^ (r_z if keep_r else 0)
    assert step_v.x_corr == want_v_x and step_v.z_corr == want_v_z


def test_push_robust_trivial_case():
    # x = z = 0, commuting R and C, P = Z: all exponents vanish.
    pat = _exponent_template(0, 0, 0, Axis.Z)
    out = push_step_robust(pat, 1)
    assert out.step_of(1) == pat.step_of(1)
    assert out.step_of(0).x_corr == mask_of([2]) and out.step_of(0).z_corr == 0


def test_push_robust_matches_worked_example():
    a = pattern_a()
    out = push_step_robust(a, 2, sigma_prime=Axis.Z)
    assert out in push_step(a, 2, plane_axis=Axis.Z)
    assert out == parse_pattern(SRC_NF).bind(THETA)


def test_push_robust_output_always_among_choices():
    for pat in random_valid_patterns(300, max_qubits=5, seed=41):
        for i, step in enumerate(pat.steps):
            if i == 0 or not step.label.is_pauli or not pat.steps[i - 1].label.is_plane:
                continue
            for axis in pat.steps[i - 1].label.axes:
                out = push_step_robust(pat, step.qubit, sigma_prime=axis)
                assert out in push_step(pat, step.qubit, plane_axis=axis)


def test_push_preserves_validity_and_measure():
    for pat in random_valid_patterns(200, max_qubits=5, seed=43):
        for i, step in enumerate(pat.steps):
            if i == 0 or not step.label.is_pauli or not pat.steps[i - 1].label.is_plane:
                continue
            for succ in push_step(pat, step.qubit):
                assert pauli_inversions(succ) == pauli_inversions(pat) - 1


def test_normalize_already_pauli_first_is_identity():
    nf = parse_pattern(SRC_NF).bind(THETA)
    assert normalize_pauli_first(nf) == nf
    assert normalize_pauli_first(nf, "all") == frozenset([nf])


def test_normalize_worked_pair_to_same_form():
    a, b = pattern_a(), pattern_b()
    na = normalize_pauli_first(a)
    nb = normalize_pauli_first(b)
    assert na == nb
    assert is_pauli_first(na)
    assert is_robustly_deterministic(na)
    # All-strategy normal forms of A are reachable with either plane mark and
    # stay semantically equal to A (it is robustly deterministic).
    sa = semantics(a)
    for form in normalize_pauli_first(a, "all"):
        assert is_pauli_first(form)
        assert superoperator_equal(sa, semantics(form))
    stated = parse_pattern(SRC_NF).bind(THETA)
    assert stated in normalize_pauli_first(b, "all")


def test_normalize_all_outputs_pauli_first_on_corpus():
    count = 0
    for pat in pattern_corpus():
        if is_pauli_first(pat):
            continue
        count += 1
        if count > 60:
            break
        for form in normalize_pauli_first(pat, "all"):
            assert is_pauli_first(form)


def test_normalize_trace_lines():
    a = pattern_a()
    out, trace = normalize_with_trace(a)
    assert is_pauli_first(out)
    assert len(trace.entries) == 1
    line = trace.lines()[0]
    assert line.startswith("u=2 case=iii")
    assert "drop-R" in line


def test_normalize_unknown_strategy():
    with pytest.raises(DomainError):
        normalize_pauli_first(pattern_a(), "sometimes")


def test_inversions_measure():
    assert pauli_inversions(pattern_a()) == 1
    assert pauli_inversions(parse_pattern(SRC_NF).bind(THETA)) == 0
    mixed = parse_pattern("M_3^Z M_2^{XY,0} M_1^X E_{1,2} N_1 N_2 N_3 N_4")
    # Execution order is 1 (Pauli), 2 (plane), 3 (Pauli): one inversion.
    assert pauli_inversions(mixed) == 1


def test_serialize_roundtrip_through_push():
    a = pattern_a()
    for succ in push_step(a, 2, plane_axis=Axis.Y):
        assert parse_pattern(serialize_pattern(succ)) == succ
