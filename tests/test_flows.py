"""Corrector predicate, flow checkers, and certificate search tests."""

from __future__ import annotations

import dataclasses
import random

import pytest

from mbqc import acceptance
from mbqc import (
    Angle,
    DomainError,
    FlowCertificate,
    Graph,
    Label,
    OpenGraph,
    Pattern,
    PreconditionError,
    StrictPartialOrder,
    check_extended_pauli_flow,
    check_gflow,
    check_pauli_flow,
    find_extended_pauli_flow,
    find_inducing_certificate,
    find_pauli_flow,
    induced_pattern,
    is_induced_by,
    mask_of,
    serialize_pattern,
    validate,
)
from mbqc.bits import bit_list, subsets
from mbqc.corpus import (
    all_open_graphs,
    all_partial_orders,
    extended_flow_example,
    random_open_graph,
    random_partial_order,
)
from mbqc.errors import ResourceLimitError
from mbqc.flows import (
    EXTENDED_FLOW_MAX_VERTICES,
    PAULI_FLOW_MAX_VERTICES,
    certificate_violation,
    kappa_row,
)
from mbqc.oracles import before_table, check_pauli_flow_original, pauli_flow_original_verdicts

EDGE = Graph.make([1, 2], [(1, 2)])
EDGE_OG = OpenGraph.make(EDGE, [1], [2], {1: Label.XY})


def naive_is_corrector(g: OpenGraph, d: int, u: int, v: int) -> bool:
    """Clause-by-clause re-implementation used as the independent oracle."""
    from mbqc import odd_neighborhood

    lab = g.label(v)
    out = False
    if "X" in lab.value:
        out |= bool((odd_neighborhood(g, d) >> v) & 1) ^ (u == v)
    if "Y" in lab.value:
        out |= bool(((d ^ odd_neighborhood(g, d)) >> v) & 1) ^ (u == v)
    if "Z" in lab.value:
        out |= bool((d >> v) & 1) ^ (u == v)
    return out


def test_is_corrector_worked_example():
    # d = {2}: every clause of kappa_{1,1} cancels, so bit 1 of the row is clear.
    assert not (kappa_row(EDGE_OG, mask_of([2]), 1) >> 1) & 1


def test_is_corrector_empty_set_self():
    g = Graph.make([0, 1], [])
    og = OpenGraph.make(g, [], [1], {0: Label.XY})
    assert (kappa_row(og, 0, 0) >> 0) & 1  # X-clause: false xor true


def test_is_corrector_matches_naive_exhaustively():
    for og in all_open_graphs(3, with_inputs=False):
        measured = og.measured_vertices()
        for d in subsets(og.non_inputs):
            for u in measured:
                row = kappa_row(og, d, u)
                for v in measured:
                    assert bool((row >> v) & 1) == naive_is_corrector(og, d, u, v)


def corrector_pairs(g: OpenGraph, p) -> list[tuple[int, int]]:
    """The edges (u, v) of the corrector graph: v corrects u via p(u)."""
    return [(u, v) for u in sorted(p) for v in bit_list(kappa_row(g, p[u], u))]


def corrector_graph_is_acyclic(g: OpenGraph, p) -> bool:
    try:
        StrictPartialOrder.make(g.measured, corrector_pairs(g, p))
    except DomainError:
        return False
    return True


def test_corrector_graph_examples():
    cert = find_pauli_flow(EDGE_OG)
    assert corrector_pairs(EDGE_OG, cert.p_map()) == []
    assert corrector_graph_is_acyclic(EDGE_OG, cert.p_map())
    # p(u) = empty with XY labels puts a self-loop at every measured vertex.
    g = Graph.make([0, 1, 2], [(0, 1), (1, 2)])
    og = OpenGraph.make(g, [], [2], {0: Label.XY, 1: Label.XY})
    p = {0: 0, 1: 0}
    assert {(0, 0), (1, 1)} <= set(corrector_pairs(og, p))
    assert not corrector_graph_is_acyclic(og, p)


def test_check_pauli_flow_worked_example():
    order = StrictPartialOrder.make([1], [])
    assert check_pauli_flow(EDGE_OG, {1: mask_of([2])}, order)
    assert check_pauli_flow_original(EDGE_OG, {1: mask_of([2])}, order)


def test_self_loop_false_for_every_order():
    g = Graph.make([0, 1, 2], [(0, 1)])
    og = OpenGraph.make(g, [], [2], {0: Label.XY, 1: Label.XY})
    p = {0: 0, 1: 0}
    for order in all_partial_orders([0, 1]):
        assert not check_pauli_flow(og, p, order)
        assert not check_pauli_flow_original(og, p, order)


def test_original_all_empty_fails():
    g = Graph.make([0, 1], [(0, 1)])
    og = OpenGraph.make(g, [], [], {0: Label.XY, 1: Label.XY})
    order = StrictPartialOrder.make([0, 1], [(0, 1)])
    assert not check_pauli_flow_original(og, {0: 0, 1: 0}, order)


def test_flow_equivalence_random_instances():
    rng = random.Random(5)
    for _ in range(300):
        og = random_open_graph(rng, rng.randint(2, 6))
        measured = og.measured_vertices()
        if not measured:
            continue
        p = {u: rng.choice(list(subsets(og.non_inputs))) for u in measured}
        order = random_partial_order(rng, measured)
        assert check_pauli_flow(og, p, order) == check_pauli_flow_original(og, p, order)


def test_dagness_equals_compatible_order_existence():
    # A corrector graph is acyclic exactly when some partial order passes the
    # flow condition; cross-checked by exhaustive order enumeration.
    rng = random.Random(77)
    count_dag = 0
    for og in all_open_graphs(3, with_inputs=False):
        measured = og.measured_vertices()
        if not measured:
            continue
        p = {u: rng.choice(list(subsets(og.non_inputs))) for u in measured}
        acyclic = corrector_graph_is_acyclic(og, p)
        some_order = any(
            check_pauli_flow(og, p, order) for order in all_partial_orders(measured)
        )
        assert acyclic == some_order
        count_dag += acyclic
    assert count_dag > 0


def test_criterion_1_tables_match_check_pauli_flow():
    # Criterion 1 judges a (graph, p) under every order at once through two
    # bitset tables; bit i of each verdict must be check_pauli_flow's verdict
    # under orders[i].
    rng = random.Random(11)
    tried = 0
    for _ in range(60):
        og = random_open_graph(rng, rng.randint(2, 5))
        measured = og.measured_vertices()
        if len(measured) > 3:
            continue
        tried += 1
        orders = all_partial_orders(measured)
        after = acceptance._after_table(orders, og.measured)
        before = before_table(orders, measured)
        for _ in range(5):
            p = {u: rng.choice(list(subsets(og.non_inputs))) for u in measured}
            library = -1
            for u in measured:
                library &= after[u][kappa_row(og, p[u], u)]
            want = sum(check_pauli_flow(og, p, o) << i for i, o in enumerate(orders))
            assert library == want
            assert pauli_flow_original_verdicts(og, p, before) == want
    assert tried > 20


def test_check_gflow_examples():
    order = StrictPartialOrder.make([1], [])
    assert check_gflow(EDGE_OG, {1: mask_of([2])}, order)
    # Same plane clause on the input-free variant: a YZ label needs 1 in p(1).
    og = OpenGraph.make(EDGE, [], [2], {1: Label.YZ})
    assert not check_gflow(og, {1: mask_of([2])}, order)
    with pytest.raises(PreconditionError):
        og_pauli = OpenGraph.make(EDGE, [], [2], {1: Label.X})
        check_gflow(og_pauli, {1: mask_of([2])}, order)


def test_gflow_equals_pauli_flow_on_planes():
    # On plane-only instances the per-plane membership clauses are exactly
    # the no-self-corrector conditions, so the two checks coincide.
    rng = random.Random(23)
    agree_true = 0
    for og in all_open_graphs(3, with_inputs=False):
        measured = og.measured_vertices()
        if not measured or any(og.label(v).is_pauli for v in measured):
            continue
        for _ in range(3):
            p = {u: rng.choice(list(subsets(og.non_inputs))) for u in measured}
            order = random_partial_order(rng, measured)
            gf = check_gflow(og, p, order)
            assert gf == check_pauli_flow(og, p, order)
            agree_true += gf
    assert agree_true > 0


def test_extended_flow_showcase_instance():
    og, cert = extended_flow_example()
    assert check_extended_pauli_flow(og, cert)
    # The same pair is not a plain flow: vertex 1 corrects 2 from the past.
    assert not check_pauli_flow(og, cert.p_map(), cert.order)
    found = find_extended_pauli_flow(og)
    assert found is not None and check_extended_pauli_flow(og, found)


def test_extended_flow_checker_rejects_unordered_past_corrector():
    # A corrector that the partial order leaves unordered relative to u is a
    # past corrector of u.  Here 1 corrects 0 via p(0), 0 corrects 1 via
    # p(1), and the empty order relates neither, so vertex 1 (a Z vertex,
    # which no D set can compensate) must be rejected; both linear
    # extensions induce non-deterministic patterns.
    g = Graph.make([0, 1], [(0, 1)])
    og = OpenGraph.make(g, [], [], {0: Label.X, 1: Label.Z})
    p = {0: mask_of([1]), 1: mask_of([1])}
    empty_order = StrictPartialOrder.make([0, 1], [])
    cert = FlowCertificate.make("extended", og, p, empty_order, {})
    assert not check_extended_pauli_flow(og, cert)
    assert certificate_violation(og, cert) == "U_1 nonempty but vertex 1 is not plane-measured"
    from mbqc import is_robustly_deterministic

    for total in ([0, 1], [1, 0]):
        pat = induced_pattern(og, p, empty_order, total, {0: Angle.ZERO, 1: Angle.ZERO})
        assert not is_robustly_deterministic(pat)
        assert find_inducing_certificate(pat, "extended") is None
        chain_cert = FlowCertificate.make("extended", og, p, StrictPartialOrder.chain(total), {})
        assert not check_extended_pauli_flow(og, chain_cert)
    assert find_extended_pauli_flow(og) is None


def test_extended_flow_missing_compensation():
    og, cert = extended_flow_example()
    incomplete = FlowCertificate.make("extended", og, cert.p_map(), cert.order, {})
    assert not check_extended_pauli_flow(og, incomplete)
    assert certificate_violation(og, incomplete) == "compensation missing for vertex 0"


def test_pauli_flow_is_extended_flow_without_compensations():
    # With no D sets, every past corrector is a violation for both kinds, so
    # the two checkers agree on every partial order, unordered pairs included.
    rng = random.Random(18)
    for _ in range(3000):
        og = random_open_graph(rng, rng.randint(2, 5))
        measured = og.measured_vertices()
        p = {u: rng.choice(list(subsets(og.non_inputs))) for u in measured}
        order = random_partial_order(rng, measured)
        cert = FlowCertificate.make("extended", og, p, order, {})
        assert check_pauli_flow(og, p, order) == check_extended_pauli_flow(og, cert)


def test_compensations_only_on_extended_certificates():
    order = StrictPartialOrder.make([1], [])
    for kind in ("pauli", "gflow"):
        with pytest.raises(DomainError):
            FlowCertificate.make(kind, EDGE_OG, {1: mask_of([2])}, order, {1: mask_of([2])})
        assert FlowCertificate.make(kind, EDGE_OG, {1: mask_of([2])}, order, {}).compensations == ()


def test_extended_flow_self_in_u_rejected():
    g = Graph.make([0, 1], [])
    og = OpenGraph.make(g, [], [1], {0: Label.XY})
    # kappa_{0,0}^{empty} holds, putting 0 into its own U set.
    cert = FlowCertificate.make(
        "extended", og, {0: 0}, StrictPartialOrder.make([0], []), {0: mask_of([0])}
    )
    assert not check_extended_pauli_flow(og, cert)


def test_pauli_flow_certificates_are_extended_valid():
    # Monotonicity: a plain flow is an extended flow with no compensations.
    checked = 0
    for og in all_open_graphs(2, with_inputs=False):
        cert = find_pauli_flow(og)
        if cert is None:
            continue
        checked += 1
        as_epf = FlowCertificate.make("extended", og, cert.p_map(), cert.order, {})
        assert check_extended_pauli_flow(og, as_epf)
    assert checked > 0


def test_find_pauli_flow_edge_graph():
    cert = find_pauli_flow(EDGE_OG)
    assert cert is not None
    assert cert.p_map() == {1: mask_of([2])}
    assert check_pauli_flow(EDGE_OG, cert.p_map(), cert.order)


def test_find_pauli_flow_none_for_isolated_plane_vertex():
    g = Graph.make([0], [])
    og = OpenGraph.make(g, [], [], {0: Label.XY})
    assert find_pauli_flow(og) is None


def test_find_pauli_flow_resource_bound():
    def edgeless(n: int) -> OpenGraph:
        return OpenGraph.make(Graph.make(list(range(n)), []), [], list(range(n)), {})

    assert (PAULI_FLOW_MAX_VERTICES, EXTENDED_FLOW_MAX_VERTICES) == (8, 6)
    with pytest.raises(ResourceLimitError, match="9 vertices; bound is 8"):
        find_pauli_flow(edgeless(9))
    with pytest.raises(ResourceLimitError, match="7 vertices; bound is 6"):
        find_extended_pauli_flow(edgeless(7))
    assert find_pauli_flow(edgeless(8)) is not None
    assert find_extended_pauli_flow(edgeless(6)) is not None


def brute_force_has_pauli_flow(og: OpenGraph) -> bool:
    """Independent cycle-detection oracle over every correction function."""
    measured = og.measured_vertices()
    if not measured:
        return True
    options = list(subsets(og.non_inputs))
    import itertools

    for combo in itertools.product(options, repeat=len(measured)):
        succ = {u: kappa_row(og, d, u) for u, d in zip(measured, combo)}
        # Kahn-style cycle check.
        indeg = {v: 0 for v in measured}
        for u in measured:
            for v in bit_list(succ[u]):
                indeg[v] += 1
        queue = [v for v in measured if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in bit_list(succ[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if seen == len(measured):
            return True
    return False


def test_find_pauli_flow_matches_brute_force():
    count_with = 0
    for og in all_open_graphs(3, with_inputs=False):
        got = find_pauli_flow(og)
        assert (got is not None) == brute_force_has_pauli_flow(og)
        if got is not None:
            count_with += 1
            assert check_pauli_flow(og, got.p_map(), got.order)
    assert count_with > 0


def test_find_pauli_flow_certificates_on_random_8_vertex_graphs():
    # At this size a backtracking search over correction functions ran for
    # more than 20 s on some graphs.
    rng = random.Random(2109)
    found = none = 0
    for _ in range(150):
        og = random_open_graph(rng, 8)
        cert = find_pauli_flow(og)
        if cert is None:
            none += 1
            continue
        found += 1
        assert check_pauli_flow(og, cert.p_map(), cert.order)
        assert check_pauli_flow_original(og, cert.p_map(), cert.order)
    assert found > 0 and none > 0


def test_find_extended_pauli_flow_soundness_and_pf_subsumption():
    for og in all_open_graphs(2):
        pf = find_pauli_flow(og)
        epf = find_extended_pauli_flow(og)
        if pf is not None:
            assert epf is not None
        if epf is not None:
            assert check_extended_pauli_flow(og, epf)


def test_extended_and_plain_flow_existence_coincide():
    # Graph-level equivalence: pushing Pauli measurements first preserves the
    # open graph, so extended-flow existence cannot exceed plain-flow
    # existence.  Exhaustive on input-free open graphs with <= 3 vertices.
    both = neither = 0
    for og in all_open_graphs(3, with_inputs=False):
        has_pf = find_pauli_flow(og) is not None
        has_epf = find_extended_pauli_flow(og) is not None
        assert has_pf == has_epf
        both += has_pf
        neither += not has_pf
    assert both > 0 and neither > 0


def test_induced_pattern_worked_example():
    cert = find_pauli_flow(EDGE_OG)
    pat = induced_pattern(EDGE_OG, cert.p_map(), cert.order, [1], {1: Angle.ZERO})
    assert serialize_pattern(pat) == "X_2^{s_1} M_1^{XY,0} E_{1,2} N_2 I_1"
    assert validate(pat) == []
    assert is_induced_by(pat, cert)


def test_induced_pattern_past_correctors_drop():
    og, cert = extended_flow_example()
    angles = {v: Angle.of_pi("1/4") if og.label(v).is_plane else Angle.ZERO for v in [0, 1, 2, 3]}
    pat = induced_pattern(og, cert.p_map(), cert.order, [0, 1, 2, 3], angles)
    # p(2) = {1} lies entirely in the past of 2, so the X side empties; only
    # the future slice {3, 4} of Odd({1}) = {0, 2, 3, 4} survives on the Z side.
    step2 = pat.step_of(2)
    assert step2.x_corr == 0 and step2.z_corr == mask_of([3, 4])
    assert is_induced_by(pat, cert)


def test_induced_pattern_errors():
    og, cert = extended_flow_example()
    angles = {v: Angle.of_pi("1/4") if og.label(v).is_plane else Angle.ZERO for v in [0, 1, 2, 3]}
    with pytest.raises(DomainError):
        induced_pattern(og, cert.p_map(), cert.order, [1, 0, 2, 3], angles)  # violates 0 < 1
    bad_angles = dict(angles)
    bad_angles[2] = Angle.of_pi("1/3")  # Pauli vertex needs 0 or pi
    with pytest.raises(PreconditionError):
        induced_pattern(og, cert.p_map(), cert.order, [0, 1, 2, 3], bad_angles)


def test_is_induced_by_rejects_extra_correction():
    cert = find_pauli_flow(EDGE_OG)
    pat = induced_pattern(EDGE_OG, cert.p_map(), cert.order, [1], {1: Angle.ZERO})
    from mbqc import MeasurementStep, Pattern

    tampered = Pattern(
        pat.graph,
        pat.inputs,
        (MeasurementStep(1, Label.XY, Angle.ZERO, mask_of([2]), mask_of([2])),),
    )
    assert not is_induced_by(tampered, cert)


def test_is_induced_by_graph_mismatch():
    cert = find_pauli_flow(EDGE_OG)
    other = OpenGraph.make(Graph.make([1, 2], []), [1], [2], {1: Label.XY})
    pat = induced_pattern(other, {1: 0}, StrictPartialOrder.make([1], []), [1], {1: Angle.ZERO})
    with pytest.raises(DomainError):
        is_induced_by(pat, cert)


def test_find_inducing_certificate_roundtrip():
    og, cert = extended_flow_example()
    angles = {v: Angle.of_pi("1/4") if og.label(v).is_plane else Angle.ZERO for v in [0, 1, 2, 3]}
    pat = induced_pattern(og, cert.p_map(), cert.order, [0, 1, 2, 3], angles)
    found = find_inducing_certificate(pat, "extended")
    assert found is not None
    assert is_induced_by(pat, found)
    assert check_extended_pauli_flow(og, found)


def test_find_inducing_certificate_z_correction_on_an_input():
    # Odd(p(1)) = {0} reaches the input 0, which is also an output.
    g = Graph.make([0, 1], [(0, 1)])
    og = OpenGraph.make(g, [0], [0], {1: Label.Y})
    p = {1: mask_of([1])}
    pat = induced_pattern(og, p, StrictPartialOrder.chain([1]), [1], {1: Angle.ZERO})
    assert serialize_pattern(pat) == "Z_0^{s_1} M_1^Y E_{0,1} N_1 I_0"
    for kind in ("pauli", "extended"):
        cert = find_inducing_certificate(pat, kind)
        assert cert is not None and cert.kind == kind and cert.p_map() == p
        assert is_induced_by(pat, cert)
        assert certificate_violation(og, cert) is None


def chain_and_twin(n: int) -> tuple[Pattern, Pattern]:
    """A pattern induced by the flow p(u) = {u+1} on an n-qubit chain (input
    0, output n-1, labels XY/X/Y in turn) and its twin without the X
    correction of the last step.
    """
    g = Graph.make(range(n), [(u, u + 1) for u in range(n - 1)])
    measured = list(range(n - 1))
    labels = {u: (Label.XY, Label.X, Label.Y)[u % 3] for u in measured}
    og = OpenGraph.make(g, [0], [n - 1], labels)
    angles = {u: Angle.of_pi("1/4") if labels[u].is_plane else Angle.ZERO for u in measured}
    p = {u: 1 << (u + 1) for u in measured}
    pat = induced_pattern(og, p, StrictPartialOrder.chain(measured), measured, angles)
    last = dataclasses.replace(pat.steps[-1], x_corr=0)
    return pat, dataclasses.replace(pat, steps=pat.steps[:-1] + (last,))


def test_find_inducing_certificate_chain_twin_is_fast():
    # The twin's last step admits every subset of the earlier vertices that
    # leaves its Z targets alone; a backtracking search took 77 s at 11 qubits.
    pat, twin = chain_and_twin(14)
    for kind in ("extended", "pauli", "gflow"):
        assert find_inducing_certificate(twin, kind) is None
    cert = find_inducing_certificate(pat, "extended")
    assert cert is not None
    assert is_induced_by(pat, cert)
    assert check_extended_pauli_flow(cert.graph, cert)


def test_find_inducing_certificate_agrees_with_oracle_on_chain():
    from mbqc import is_robustly_deterministic

    pat, twin = chain_and_twin(11)
    assert is_robustly_deterministic(pat)
    assert find_inducing_certificate(pat) is not None
    assert not is_robustly_deterministic(twin)
    assert find_inducing_certificate(twin) is None


def test_determinism_iff_certificate_random_stress():
    # Same equivalence the acceptance corpus checks, on unstructured random
    # patterns (inputs, mixed labels, arbitrary bounded corrections).
    from mbqc import is_robustly_deterministic
    from mbqc.corpus import random_valid_patterns

    rd_count = 0
    for pat in random_valid_patterns(800, max_qubits=4, seed=314):
        if any(s.angle.is_symbolic for s in pat.steps):
            continue
        rd = bool(is_robustly_deterministic(pat))
        cert = find_inducing_certificate(pat, "extended")
        assert rd == (cert is not None), serialize_pattern(pat)
        rd_count += rd
    assert rd_count > 0


def test_partial_order_basics():
    order = StrictPartialOrder.make([0, 1, 2], [(0, 1), (1, 2)])
    assert order.less(0, 2)  # transitive closure
    assert not order.less(2, 0)
    assert order.refines_to([0, 1, 2])
    assert not order.refines_to([2, 1, 0])
    assert order.canonical_extension() == [0, 1, 2]
    with pytest.raises(DomainError):
        StrictPartialOrder.make([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(DomainError):
        StrictPartialOrder.make([0, 1], [(0, 0)])
