"""Exact-semantics and determinism-oracle tests."""

from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest

from mbqc import (
    Angle,
    Axis,
    Graph,
    Label,
    MeasurementStep,
    OpenGraph,
    Pattern,
    StrictPartialOrder,
    branch_map,
    enumerate_projected_stabilizers,
    graph_state,
    induced_pattern,
    is_robustly_deterministic,
    mask_of,
    measurement_basis,
    odd_neighborhood,
    parse_pattern,
    plane_fixed_point,
    semantics,
    stabilizer_sign,
    superoperator_equal,
    underlying_open_graph,
)
from mbqc import simulate
from mbqc.bits import bit_list, subsets
from mbqc.corpus import pattern_corpus
from mbqc.errors import DomainError, PreconditionError, ResourceLimitError
from mbqc.oracles import brute_force_projected_stabilizers
from mbqc.simulate import _basis_vectors, apply_pauli, choi_distance, project

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / math.sqrt(2)


def outcome_assignments(pat: Pattern) -> list[dict[int, int]]:
    """All 2^k outcome assignments, in lexicographic order over step order."""
    qubits = [s.qubit for s in pat.steps]
    return [{q: (k >> i) & 1 for i, q in enumerate(qubits)} for k in range(1 << len(qubits))]


def test_outcome_assignments_order():
    pat = parse_pattern("M_2^X M_1^X E_{1,2} N_1 N_2")
    outs = outcome_assignments(pat)
    assert len(outs) == 4
    assert outs[0] == {1: 0, 2: 0}
    assert outs[1] == {1: 1, 2: 0}


def kraus_sum(kraus) -> np.ndarray:
    """sum_m K_m^dagger K_m, the identity exactly when the channel is trace preserving."""
    return sum(k.conj().T @ k for k in kraus)


def test_measurement_basis_pauli_z():
    pair = measurement_basis(Label.Z, Angle.ZERO)
    assert np.allclose(pair.plus, KET0)
    assert np.allclose(pair.minus, KET1)
    swapped = measurement_basis(Label.Z, Angle.PI)
    assert np.allclose(swapped.plus, KET1)
    assert np.allclose(swapped.minus, KET0)


def test_measurement_basis_xy_zero():
    pair = measurement_basis(Label.XY, Angle.ZERO)
    assert np.allclose(pair.plus, PLUS)
    assert np.allclose(pair.minus, MINUS)


def test_measurement_basis_xz_half_pi():
    # Built from the complementary Y axis; recompute the formula directly.
    pair = measurement_basis(Label.XZ, Angle.of_pi("1/2"))
    y_plus = np.array([1, 1j], dtype=complex) / math.sqrt(2)
    y_minus = np.array([1, -1j], dtype=complex) / math.sqrt(2)
    phase = np.exp(1j * math.pi / 2)
    assert np.allclose(pair.plus, (y_plus + phase * y_minus) / math.sqrt(2))
    assert np.allclose(pair.minus, (y_plus - phase * y_minus) / math.sqrt(2))


def test_measurement_basis_orthonormal_everywhere():
    for label in Label:
        angles = [Angle.ZERO, Angle.PI] if label.is_pauli else [
            Angle.of_real(0.1 + 0.4 * k) for k in range(6)
        ]
        for angle in angles:
            pair = measurement_basis(label, angle)
            assert abs(np.vdot(pair.plus, pair.plus) - 1) < 1e-12
            assert abs(np.vdot(pair.minus, pair.minus) - 1) < 1e-12
            assert abs(np.vdot(pair.plus, pair.minus)) < 1e-12


def test_measurement_basis_rejects_bad_pauli_angle():
    with pytest.raises(DomainError):
        measurement_basis(Label.Z, Angle.of_pi("1/3"))


def test_graph_state_no_edges():
    g = Graph.make([0, 1], [])
    og = OpenGraph.make(g, [], [0, 1], {})
    state = graph_state(og)
    assert np.allclose(state.vector, np.kron(PLUS, PLUS))


def test_graph_state_single_edge():
    g = Graph.make([0, 1], [(0, 1)])
    og = OpenGraph.make(g, [], [0, 1], {})
    state = graph_state(og)
    assert np.allclose(state.vector, np.array([1, 1, 1, -1]) / 2.0)


def test_graph_state_edge_order_irrelevant():
    verts = [0, 1, 2, 3]
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    a = Graph.make(verts, edges)
    b = Graph.make(verts, list(reversed(edges)))
    assert np.allclose(graph_state(a).vector, graph_state(b).vector)


def test_graph_state_input_dimension_mismatch():
    g = Graph.make([0, 1], [(0, 1)])
    og = OpenGraph.make(g, [0], [1], {0: Label.XY})
    with pytest.raises(DomainError):
        graph_state(og, np.ones(4))


def test_branch_map_hadamard_example():
    # Hand oracle: both branches of the canonical 2-qubit pattern are H/sqrt(2).
    pat = parse_pattern("X_2^{s_1} M_1^{{X,Y},0} E_{12} N_2")
    k0 = branch_map(pat, {1: 0})
    k1 = branch_map(pat, {1: 1})
    assert np.allclose(k0.matrix, H / math.sqrt(2))
    assert np.allclose(k1.matrix, H / math.sqrt(2))
    assert k0.in_qubits == (1,) and k0.out_qubits == (2,)


def test_branch_map_no_measurements_is_isometry():
    pat = parse_pattern("E_{1,2} N_2 I_1")
    k = branch_map(pat, {})
    acc = k.matrix.conj().T @ k.matrix
    assert np.allclose(acc, np.eye(2))


def test_branch_completeness_on_deterministic_pattern():
    pat = parse_pattern("X_2^{s_1} M_1^{{X,Y},0} E_{12} N_2")
    acc = kraus_sum(branch_map(pat, m).matrix for m in outcome_assignments(pat))
    assert np.allclose(acc, np.eye(2))


def test_branch_completeness_on_deterministic_corpus_sample():
    checked = 0
    for pat in pattern_corpus():
        if not is_robustly_deterministic(pat):
            continue
        checked += 1
        if checked > 25:
            break
        sup = semantics(pat)
        assert np.allclose(kraus_sum(sup.kraus), np.eye(1 << len(sup.in_qubits)), rtol=0, atol=1e-9)
    assert checked > 10


def test_semantics_hadamard_choi():
    pat = parse_pattern("X_2^{s_1} M_1^{{X,Y},0} E_{12} N_2")
    sup = semantics(pat)
    expected = np.outer(H.reshape(-1), H.reshape(-1).conj())
    assert np.allclose(sup.choi, expected)
    assert np.allclose(kraus_sum(sup.kraus), np.eye(2), rtol=0, atol=1e-9)


def test_superoperator_equal_examples():
    pat = parse_pattern("X_2^{s_1} M_1^{{X,Y},0} E_{12} N_2")
    s = semantics(pat)
    assert superoperator_equal(s, s)
    # X rho X differs from H rho H.
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    other = type(s)(np.outer(x.reshape(-1), x.reshape(-1).conj()), s.in_qubits, s.out_qubits, ())
    assert not superoperator_equal(s, other)
    assert choi_distance(s, other) > 0.4


def test_semantics_resource_bound(monkeypatch):
    monkeypatch.setenv("MBQC_MAX_QUBITS", "3")
    big = Graph.make(list(range(4)), [])
    pat = parse_pattern("N_1 N_2 N_3 N_4")
    del big
    with pytest.raises(ResourceLimitError):
        semantics(pat.bind({}))


@pytest.mark.parametrize("alpha", ["0", "1/4"])
def test_rd_canonical_pattern(alpha):
    pat = parse_pattern(f"X_2^{{s_1}} M_1^{{{{X,Y}},{Angle.of_pi(alpha)}}} E_{{12}} N_2")
    report = is_robustly_deterministic(pat)
    assert report.ok
    assert report.steps[0].epsilons and len(report.steps[0].epsilons) == 3


def test_rd_worked_pair():
    theta = {"θ": Angle.of_real(0.931)}
    a = parse_pattern("Z_3^{s2} M_2^Z Z_2^{s1} M_1^{YZ,θ} E_{1,2} E_{2,3} N_1 N_2 N_3").bind(theta)
    b = parse_pattern(
        "Z_3^{s2} M_2^Z Z_3^{s1} Z_2^{s1} M_1^{YZ,θ} E_{1,2} E_{2,3} N_1 N_2 N_3"
    ).bind(theta)
    assert is_robustly_deterministic(a).ok
    rep = is_robustly_deterministic(b)
    assert not rep.ok
    assert rep.failing_step is not None


def test_rd_missing_corrections_fails():
    pat = parse_pattern("M_1^{{X,Y},0} E_{12} N_2")
    rep = is_robustly_deterministic(pat)
    assert not rep.ok
    assert rep.failing_step.qubit == 1


def test_rd_three_point_sampling_matches_dense(monkeypatch):
    # One-time validation of the three-offset reduction for the universally
    # quantified plane perturbation: both sides are trig polynomials of
    # degree one, so three samples decide; confirm against 17 dense offsets.
    # Strided over the corpus so every base family contributes.
    # The shifted set samples the same three points but leaves out offset 0,
    # so the oracle rebuilds the branch at each step's own angle to move on.
    dense = tuple(2.0 * math.pi * k / 17.0 for k in range(17))
    shifted = tuple(2.0 * math.pi * k / 3.0 for k in (1, 2, 3))
    seen = count = disagree = 0
    for pat in pattern_corpus():
        if not any(s.label.is_plane for s in pat.steps):
            continue
        seen += 1
        if seen % 60 != 0:
            continue
        count += 1
        fast = is_robustly_deterministic(pat)
        monkeypatch.setattr(simulate, "_PLANE_OFFSETS", dense)
        slow = bool(is_robustly_deterministic(pat))
        disagree += bool(fast) != slow
        monkeypatch.setattr(simulate, "_PLANE_OFFSETS", shifted)
        moved = is_robustly_deterministic(pat)
        monkeypatch.undo()
        assert [s.ok for s in moved.steps] == [s.ok for s in fast.steps]
        assert np.allclose(
            [s.choi_distance for s in moved.steps], [s.choi_distance for s in fast.steps], atol=1e-12
        )
    assert count > 100 and disagree == 0


def _choi_sum(kraus):
    return sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in kraus)


def _dense_reference(pat, tol=1e-9):
    """The oracle before its rank-one form: 2^i branches after step i, two
    D x D Choi matrices per sampled angle, max-entry distance.  Returns the
    step distances up to and including the first failing step."""
    og = underlying_open_graph(pat)
    eye = np.eye(1 << pat.inputs.bit_count())
    branches = [np.stack([graph_state(og, e).vector for e in eye], axis=1)]
    qubits = tuple(pat.graph.vertices)
    distances = []
    for step in pat.steps:
        offsets = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0) if step.label.is_plane else (0.0,)
        sides = []
        for o in offsets:
            pair = measurement_basis(step.label, Angle.of_real(step.angle.to_float() + o) if o else step.angle)
            zeros = [project(k, qubits, step.qubit, pair.plus)[0] for k in branches]
            ones = [project(k, qubits, step.qubit, pair.minus) for k in branches]
            ones = [apply_pauli(k, rest, step.x_corr, step.z_corr) for k, rest in ones]
            sides.append((zeros, ones))
        distances.append(max(float(np.max(np.abs(_choi_sum(z) - _choi_sum(o)))) for z, o in sides))
        if distances[-1] > tol:
            break
        branches = [k for pair in zip(*sides[0]) for k in pair]
        qubits = tuple(q for q in qubits if q != step.qubit)
    return distances


def _chain(n, drop=False):
    """Flow-induced path 0-...-(n-1) with input 0; ``drop`` removes the X
    correction of the middle step, which is an XY step."""
    labels = {u: (Label.XY, Label.X, Label.XY, Label.Y)[u % 4] for u in range(n - 1)}
    og = OpenGraph.make(Graph.make(range(n), [(v, v + 1) for v in range(n - 1)]), [0], [n - 1], labels)
    angles = {
        u: Angle.of_real(0.3 + 0.7 * u) if label.is_plane else (Angle.PI if u % 8 == 1 else Angle.ZERO)
        for u, label in labels.items()
    }
    total = list(range(n - 1))
    pat = induced_pattern(og, {u: 1 << (u + 1) for u in total}, StrictPartialOrder.chain(total), total, angles)
    if drop:
        mid = 2 * (n // 4)
        steps = list(pat.steps)
        steps[mid] = dataclasses.replace(steps[mid], x_corr=0)
        pat = Pattern(pat.graph, pat.inputs, tuple(steps))
    return pat


def _ladder(n, drop=False):
    """Flow-induced two-row ladder, vertex 2c+r at column c and row r, with a
    rung at every other column, inputs 0 and 1 and the last column as
    outputs; p(u) = {u+2}.  ``drop`` removes the X correction of the middle
    step."""
    edges = [(v, v + 2) for v in range(n - 2)] + [(c, c + 1) for c in range(0, n, 4)]
    measured = range(n - 2)
    labels = {u: (Label.XY, Label.XY, Label.X, Label.XY, Label.Y)[u % 5] for u in measured}
    og = OpenGraph.make(Graph.make(range(n), edges), [0, 1], [n - 2, n - 1], labels)
    angles = {
        u: Angle.of_real(0.2 + 0.9 * u) if label.is_plane else (Angle.PI if u % 7 == 2 else Angle.ZERO)
        for u, label in labels.items()
    }
    total = list(measured)
    pat = induced_pattern(og, {u: 1 << (u + 2) for u in total}, StrictPartialOrder.chain(total), total, angles)
    if drop:
        mid = (n - 2) // 2
        mid -= labels[mid].is_pauli  # keep the dropped correction on a plane step
        steps = list(pat.steps)
        steps[mid] = dataclasses.replace(steps[mid], x_corr=0)
        pat = Pattern(pat.graph, pat.inputs, tuple(steps))
    return pat


def test_rd_matches_dense_reference():
    # The rank-one oracle keeps the reference's verdicts and failing steps;
    # its Frobenius distance is never below the reference's max-entry one.
    # The flow-induced chains and ladder of up to 11 qubits, and their twins
    # one correction short, are the widest patterns the dense reference fits.
    flows = [_chain(7), _chain(9), _chain(10), _chain(11), _ladder(10)]
    twins = [_chain(7, drop=True), _chain(9, drop=True), _chain(10, drop=True), _chain(11, drop=True)]
    twins.append(_ladder(10, drop=True))
    cases = list(pattern_corpus())[::10] + flows + twins
    failing = 0
    for pat in cases:
        report = is_robustly_deterministic(pat)
        reference = _dense_reference(pat)
        assert [s.ok for s in report.steps] == [d <= 1e-9 for d in reference]
        for step, distance in zip(report.steps, reference):
            assert step.choi_distance >= distance - 1e-12
            assert len(step.branch_norms) == 1
            if step.ok:
                assert step.choi_distance <= 1e-12
        failing += not report.ok
    assert all(is_robustly_deterministic(pat) for pat in flows)
    assert not any(is_robustly_deterministic(pat) for pat in twins)
    assert len(cases) > 1000 and 0 < failing < len(cases)


@pytest.mark.parametrize("n", [100, 300])
def test_rd_streams_wide_flow_induced_patterns(monkeypatch, n):
    # Each qubit is prepared just before the first step that touches it, so
    # a chain holds 3 qubits at once and a two-row ladder 5, however long.
    monkeypatch.delenv("MBQC_MAX_QUBITS", raising=False)
    for build, width in ((_chain, 3), (_ladder, 5)):
        good, bad = build(n), build(n, drop=True)
        report = is_robustly_deterministic(good)
        assert report.ok and len(report.steps) == len(good.steps) and report.width == width
        twin = is_robustly_deterministic(bad)
        dropped = next(i for i, (s, t) in enumerate(zip(good.steps, bad.steps)) if s != t)
        assert not twin.ok and twin.failing_step.index == dropped and twin.width == width
    # branch_map streams too: every branch of a deterministic pattern is
    # 2^(-steps/2) times an isometry.
    pat = _chain(n)
    k = branch_map(pat, {s.qubit: s.qubit % 2 for s in pat.steps}).matrix
    assert k.shape == (2, 2)
    assert np.allclose(k.conj().T @ k * 2.0 ** len(pat.steps), np.eye(2), atol=1e-9)


def test_rd_live_width_bound(monkeypatch):
    # MBQC_MAX_QUBITS bounds the qubits held at once: a star measured centre
    # first needs all of them, the same star measured leaves first only two.
    star = Graph.make(range(6), [(0, v) for v in range(1, 6)])
    centre_first = Pattern.make(star, [], [MeasurementStep(v, Label.XY, Angle.ZERO) for v in range(6)])
    leaves_first = Pattern.make(star, [], [MeasurementStep(v, Label.Z, Angle.ZERO) for v in range(5, 0, -1)])
    monkeypatch.setenv("MBQC_MAX_QUBITS", "5")
    with pytest.raises(ResourceLimitError, match="live width 6"):
        is_robustly_deterministic(centre_first)
    with pytest.raises(ResourceLimitError, match="live width 6"):
        branch_map(centre_first, {v: 0 for v in range(6)})
    assert is_robustly_deterministic(leaves_first).width == 2
    monkeypatch.setenv("MBQC_MAX_QUBITS", "6")
    assert is_robustly_deterministic(centre_first).width == 6


@pytest.mark.parametrize("n", [9, 12])
def test_rd_offsets_without_zero_and_one_projection_pair_per_step(monkeypatch, n):
    # Seven offsets that leave out 0 make the oracle rebuild the branch it
    # takes at the step's own angle; verdicts and failing steps must not
    # move.  Every step projects the register exactly twice, however many
    # angles it samples.
    three = simulate._PLANE_OFFSETS
    seven = tuple(2.0 * math.pi * (k + 0.5) / 7.0 for k in range(7))
    projected = []

    def counting(k, qubits, q, bra):
        projected.append(q)
        return project(k, qubits, q, bra)

    monkeypatch.setattr(simulate, "project", counting)
    for pat in (_chain(n), _chain(n, drop=True)):
        reports = []
        for offsets in (three, seven):
            monkeypatch.setattr(simulate, "_PLANE_OFFSETS", offsets)
            projected.clear()
            report = is_robustly_deterministic(pat)
            assert projected == [s.qubit for s in report.steps for _ in range(2)]
            reports.append(report)
        default, shifted = reports
        assert [s.ok for s in default.steps] == [s.ok for s in shifted.steps]
        assert len(shifted.steps[0].epsilons) == 7 and 0.0 not in seven
    monkeypatch.setattr(simulate, "_PLANE_OFFSETS", three)
    assert is_robustly_deterministic(_chain(n)).ok
    assert is_robustly_deterministic(_chain(n, drop=True)).failing_step.index == 2 * (n // 4)


def test_rd_forms_no_choi_matrix(monkeypatch):
    # A 12-qubit chain with one input fits the default bound; a Choi matrix
    # of its first step would hold (2^12)^2 complex entries, about 268 MB.
    def refuse(kraus):
        raise AssertionError("the oracle formed a Choi matrix")

    monkeypatch.delenv("MBQC_MAX_QUBITS", raising=False)
    monkeypatch.setattr(simulate, "_choi", refuse)
    tracemalloc.start()
    try:
        good = is_robustly_deterministic(_chain(12))
        bad = is_robustly_deterministic(_chain(12, drop=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert good.ok and len(good.steps) == 11
    assert not bad.ok and bad.failing_step.index == 6
    assert peak < 8 * 2**20


def test_semantics_is_the_sum_over_branch_maps():
    # semantics and branch_map share one measurement step: the Choi matrix
    # is the sum of vec(K) vec(K)^dagger over every outcome branch, and the
    # Kraus list runs over the outcomes with the first step most significant.
    with_inputs = [pat for pat in pattern_corpus() if pat.inputs]
    for pat in with_inputs[::20]:
        sup = semantics(pat)
        k = len(pat.steps)
        expected = np.zeros_like(sup.choi)
        for m in outcome_assignments(pat):
            kraus = branch_map(pat, m).matrix
            expected += np.outer(kraus.reshape(-1), kraus.reshape(-1).conj())
            index = sum(m[s.qubit] << (k - 1 - i) for i, s in enumerate(pat.steps))
            assert np.array_equal(sup.kraus[index], kraus)
        assert np.allclose(sup.choi, expected, atol=1e-12)
    assert len(with_inputs[::20]) > 50


def test_rd_strongness_of_branch_probabilities():
    rng = random.Random(3)
    checked = 0
    for pat in pattern_corpus():
        if not is_robustly_deterministic(pat):
            continue
        checked += 1
        if checked > 40:
            break
        k = len(pat.steps)
        dim_in = 1 << len(bit_list(pat.inputs))
        state = np.array([rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(dim_in)])
        state /= np.linalg.norm(state)
        for m in outcome_assignments(pat):
            prob = float(np.linalg.norm(branch_map(pat, m).matrix @ state) ** 2)
            assert abs(prob - 2.0 ** (-k)) < 1e-9
    assert checked > 20


def test_stabilizer_sign_examples():
    g = Graph.make([0, 1, 2], [(0, 1), (1, 2)])
    og = OpenGraph.make(g, [], [0, 1, 2], {})
    assert stabilizer_sign(og, 0) == 1
    for v in (0, 1, 2):
        assert stabilizer_sign(og, mask_of([v])) == 1
    for d in subsets(og.non_inputs):
        assert stabilizer_sign(og, d) in (1, -1)


def test_stabilizer_sign_minus_one():
    # Triangle, d = all three vertices: X_{012} Z_{012} has sign -1.
    g = Graph.make([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    og = OpenGraph.make(g, [], [0, 1, 2], {})
    signs = {d: stabilizer_sign(og, d) for d in subsets(og.non_inputs)}
    assert -1 in signs.values()
    # Sign multiplicativity up to the Y-convention phase is not asserted;
    # the simulator only promises membership in {+1, -1}.


def test_stabilizer_sign_rejects_inputs():
    g = Graph.make([0, 1], [(0, 1)])
    og = OpenGraph.make(g, [0], [1], {0: Label.XY})
    with pytest.raises(DomainError):
        stabilizer_sign(og, mask_of([0]), np.array([1, 0]))


def test_plane_fixed_point_examples():
    p, q = plane_fixed_point(Label.XY, Angle.ZERO)
    assert p.axis is Axis.X and p.sign == 1
    p, _ = plane_fixed_point(Label.YZ, Angle.ZERO)
    assert p.axis is Axis.Z and p.sign == 1
    # The YZ plane needs a sign flip away from the axes' own orientation.
    _, q = plane_fixed_point(Label.YZ, Angle.of_pi("1/2"))
    assert q.sign == -1 and q.axis is Axis.Y
    for label in (Label.XY, Label.XZ, Label.YZ):
        for k in range(32):
            alpha = 2 * math.pi * k / 32
            p, q = plane_fixed_point(label, alpha)
            plus, _ = _basis_vectors(label, alpha)
            op = math.cos(alpha) * p.matrix() + math.sin(alpha) * q.matrix()
            assert np.max(np.abs(op @ plus - plus)) < 1e-12


def test_plane_fixed_point_rejects_pauli():
    with pytest.raises(DomainError):
        plane_fixed_point(Label.Z, Angle.ZERO)


def test_projected_stabilizers_empty_assignment():
    # With nothing measured this is the full stabilizer group, phase-stripped.
    g = Graph.make([0, 1, 2], [(0, 1), (1, 2)])
    got = enumerate_projected_stabilizers(g, {})
    og = OpenGraph.make(g, [], [0, 1, 2], {})
    expected = set()
    for d in subsets(g.vmask):
        expected.add((d, odd_neighborhood(og, d)))
    assert {(p.xsupport, p.zsupport) for p in got} == expected
    assert got == brute_force_projected_stabilizers(g, {})


def test_projected_stabilizers_single_x_measurement():
    g = Graph.make([0, 1], [(0, 1)])
    got = enumerate_projected_stabilizers(g, {0: (Axis.X, 1)})
    assert got == brute_force_projected_stabilizers(g, {0: (Axis.X, 1)})
    assert len(got) >= 2  # identity plus a nontrivial survivor


def test_projected_stabilizers_strongness_precondition():
    # X-measuring an isolated plus-state vertex is deterministic, not strong.
    g = Graph.make([0, 1], [])
    with pytest.raises(PreconditionError):
        enumerate_projected_stabilizers(g, {0: (Axis.X, 1)})


def test_corrected_branch_equivalence_extends_off_plane():
    # For a deterministic pattern, the state before a plane measurement of u
    # with corrections X_A Z_B satisfies phi ~ (X_A Z_B P_u) phi, where P is
    # the axis outside the plane: the branch agreement at every angle forces
    # the extended operator to fix the state up to phase.
    from mbqc.simulate import _proportional, apply_pauli, project

    checked = 0
    for pat in pattern_corpus():
        if pat.inputs or not is_robustly_deterministic(pat):
            continue
        prefix_vec = graph_state(pat.graph).vector
        qubits = tuple(pat.graph.vertices)
        for step in pat.steps:
            if step.label.is_plane:
                comp = step.label.complement
                op_x = step.x_corr | ((1 << step.qubit) if comp in (Axis.X, Axis.Y) else 0)
                op_z = step.z_corr | ((1 << step.qubit) if comp in (Axis.Y, Axis.Z) else 0)
                moved = apply_pauli(prefix_vec, qubits, op_x, op_z)
                assert _proportional(moved, prefix_vec, 1e-9) is not None
                checked += 1
            # advance along the outcome-0 branch (no corrections there)
            plus, _ = _basis_vectors(step.label, step.angle.to_float())
            prefix_vec, qubits = project(prefix_vec, qubits, step.qubit, plus)
        if checked > 60:
            break
    assert checked > 30


def test_plane_fixed_point_never_fails_dense():
    # The invariant-violation branch of the fixed-point search must be
    # unreachable; sweep all planes densely to witness it staying silent.
    for label in (Label.XY, Label.XZ, Label.YZ):
        for k in range(64):
            plane_fixed_point(label, 2.0 * math.pi * k / 64.0)


# ---------------------------------------------------------------------------
# The register kernel against explicit Kronecker-product matrices.

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_ONE = np.diag([0.0, 1.0]).astype(complex)


def _kron_all(factors):
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def _on(n, a, op):
    """``op`` (a 2 x 2 matrix or a 1 x 2 bra) on qubit position a of n."""
    return _kron_all([op if i == a else np.eye(2) for i in range(n)])


def _kron_pauli(qubits, xmask, zmask):
    """Z_{zmask} X_{xmask}: X acts first."""
    x = _kron_all([_X if (xmask >> q) & 1 else np.eye(2) for q in qubits])
    z = _kron_all([_Z if (zmask >> q) & 1 else np.eye(2) for q in qubits])
    return z @ x


def _kron_graph_state(graph, inputs, input_state):
    """Sum over input basis states of the product state, then every CZ."""
    verts = list(graph.vertices)
    n = len(verts)
    vec = np.zeros(1 << n, dtype=complex)
    for j, amp in enumerate(input_state):
        bits = {q: (j >> (len(inputs) - 1 - i)) & 1 for i, q in enumerate(inputs)}
        vec += amp * _kron_all([(KET0, KET1)[bits[v]] if v in bits else PLUS for v in verts]).reshape(-1)
    for u, v in graph.edges:
        cz = np.eye(1 << n) - 2 * _kron_all([_ONE if w in (u, v) else np.eye(2) for w in verts])
        vec = cz @ vec
    return vec


def _ref_plus(label, alpha):
    """Plus state of a measurement; the YZ plane is oriented so that its
    plus state is cos(a/2)|0> - i sin(a/2)|1> (see plane_fixed_point)."""
    plane, offset = {
        Label.X: (Label.XY, 0.0),
        Label.Y: (Label.XY, math.pi / 2),
        Label.Z: (Label.XZ, 0.0),
    }.get(label, (label, 0.0))
    a = alpha + offset
    if plane is Label.XY:
        return np.array([1, np.exp(1j * a)]) / math.sqrt(2)
    if plane is Label.XZ:
        return np.array([math.cos(a / 2), math.sin(a / 2)], dtype=complex)
    return np.array([math.cos(a / 2), -1j * math.sin(a / 2)])


def _kron_branches(pat):
    """Every outcome branch of a pattern, keyed by the outcomes in step order."""
    inputs = bit_list(pat.inputs)
    eye = np.eye(1 << len(inputs))
    branches = {(): np.stack([_kron_graph_state(pat.graph, inputs, e) for e in eye], axis=1)}
    qubits = list(pat.graph.vertices)
    for step in pat.steps:
        a, n = qubits.index(step.qubit), len(qubits)
        alpha = step.angle.to_float()
        plus, minus = _ref_plus(step.label, alpha), _ref_plus(step.label, alpha + math.pi)
        qubits = qubits[:a] + qubits[a + 1 :]
        corr = _kron_pauli(qubits, step.x_corr, step.z_corr)
        zero, one = _on(n, a, plus.conj()[None, :]), corr @ _on(n, a, minus.conj()[None, :])
        branches = {
            out + (bit,): op @ k for out, k in branches.items() for bit, op in ((0, zero), (1, one))
        }
    return branches


@pytest.mark.parametrize("inputs", [[], [2], [0, 3]])
def test_graph_state_matches_kron_reference(inputs):
    g = Graph.make([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (0, 2)])
    og = OpenGraph.make(g, inputs, [0, 1, 2, 3], {})
    rng = np.random.default_rng(len(inputs))
    state = rng.normal(size=1 << len(inputs)) + 1j * rng.normal(size=1 << len(inputs))
    state = state / np.linalg.norm(state) if inputs else np.ones(1)
    got = graph_state(og, state if inputs else None)
    assert got.qubits == (0, 1, 2, 3)
    assert np.allclose(got.vector, _kron_graph_state(g, inputs, state), atol=1e-12)
    if not inputs:
        assert np.allclose(graph_state(g).vector, got.vector, atol=1e-12)


@pytest.mark.parametrize("tail", [(), (3,), (2, 3)])
def test_project_matches_kron_reference(tail):
    rng = np.random.default_rng(7)
    qubits = (1, 3, 4, 7)
    k = rng.normal(size=(16,) + tail) + 1j * rng.normal(size=(16,) + tail)
    bras = [KET0, KET1, PLUS, MINUS, rng.normal(size=2) + 1j * rng.normal(size=2)]
    for a, q in enumerate(qubits):
        for bra in bras:
            got, rest = project(k, qubits, q, bra)
            expected = _on(4, a, bra.conj()[None, :]) @ k.reshape(16, -1)
            assert rest == qubits[:a] + qubits[a + 1 :]
            assert got.shape == (8,) + tail
            assert np.allclose(got, expected.reshape((8,) + tail), atol=1e-12)


def test_apply_pauli_matches_kron_reference():
    rng = np.random.default_rng(5)
    qubits = (0, 2, 5)
    vmask = mask_of(qubits)
    k = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    for xmask in subsets(vmask):
        for zmask in subsets(vmask):
            expected = _kron_pauli(qubits, xmask, zmask) @ k
            assert np.allclose(apply_pauli(k, qubits, xmask, zmask), expected, atol=1e-12)
            assert np.allclose(apply_pauli(k[:, 0], qubits, xmask, zmask), expected[:, 0], atol=1e-12)


def _mixed_patterns():
    """Three-step patterns on five qubits with inputs 0 and 4 that together
    take every label at angles 0 and pi, and every plane at a generic angle."""
    generic = 0.37
    choices = [(label, a) for label in (Label.XY, Label.XZ, Label.YZ) for a in (0.0, math.pi, generic)]
    choices += [(label, a) for label in (Label.X, Label.Y, Label.Z) for a in (0.0, math.pi)]
    xy_choices = [c for c in choices if Axis.Z not in c[0]]
    g = Graph.make(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (1, 4)])
    rng = random.Random(4)
    pats = []
    for i in range(len(choices)):
        measured = [(1, choices[i]), (0, xy_choices[i % len(xy_choices)]), (3, choices[(i + 5) % len(choices)])]
        steps, remaining = [], g.vmask
        for q, (label, a) in measured:
            remaining &= ~(1 << q)
            x, z = (sum(1 << v for v in bit_list(remaining) if rng.random() < 0.5) for _ in range(2))
            angle = Angle.of_real(a) if label.is_plane else (Angle.PI if a else Angle.ZERO)
            steps.append(MeasurementStep(q, label, angle, x, z))
        pats.append(Pattern.make(g, [0, 4], steps))
    return pats


def test_semantics_and_branch_map_match_kron_reference():
    pats = _mixed_patterns()
    for pat in pats:
        reference = _kron_branches(pat)
        assert np.allclose(semantics(pat).choi, _choi_sum(reference.values()), atol=1e-12)
        for m in outcome_assignments(pat):
            got = branch_map(pat, m)
            assert got.out_qubits == (2, 4)
            # A branch is fixed up to the global phases of the bases.
            expected = reference[tuple(m[s.qubit] for s in pat.steps)]
            assert np.allclose(_choi_sum([got.matrix]), _choi_sum([expected]), atol=1e-12)
    labels = {s.label for pat in pats for s in pat.steps}
    assert labels == set(Label) and len(pats) == 15
