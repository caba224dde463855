"""Tests of the benchmark's own code: reference checkers and seeded generators.

Run from the root of the repository: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import refcheck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mbqc.corpus import extended_flow_example, random_open_graph, random_partial_order  # noqa: E402
from mbqc.flows import (  # noqa: E402
    StrictPartialOrder,
    check_extended_pauli_flow,
    check_pauli_flow,
    find_extended_pauli_flow,
    find_pauli_flow,
)

# Path 0 - 1 - 2, output 2: p(0) = {1}, p(1) = {2} with 0 before 1.
PATH = refcheck.ref_graph([0, 1, 2], [(0, 1), (1, 2)], [], [2], {0: "XY", 1: "XY"})
PATH_P = {0: frozenset({1}), 1: frozenset({2})}


def test_reference_accepts_known_pauli_flow():
    assert refcheck.pauli_flow_violation(PATH, PATH_P, [(0, 1)]) is None


@pytest.mark.parametrize(
    "p, order",
    [
        (PATH_P, [(1, 0)]),  # 0 corrects 1's measurement from the past
        (PATH_P, [(0, 1), (1, 0)]),  # cyclic order
        ({0: frozenset({0}), 1: frozenset({2})}, [(0, 1)]),  # 0 not in Odd(p(0))
        ({0: frozenset({1})}, [(0, 1)]),  # p undefined on 1
        ({0: frozenset({1}), 1: frozenset({2, 5})}, [(0, 1)]),  # unknown vertex
    ],
)
def test_reference_rejects_tampered_pauli_flow(p, order):
    assert refcheck.pauli_flow_violation(PATH, p, order) is not None


def test_reference_rejects_correction_on_an_input():
    g = refcheck.ref_graph([0, 1, 2], [(0, 1), (1, 2)], [0], [2], {0: "XY", 1: "XY"})
    assert refcheck.pauli_flow_violation(g, PATH_P, [(0, 1)]) is None
    assert refcheck.pauli_flow_violation(g, {0: frozenset({0, 1}), 1: frozenset({2})}, [(0, 1)]) is not None


def test_reference_extended_checker_on_the_showcase():
    og, cert = extended_flow_example()
    g = inputs.ref_of(og)
    p, order, comp = inputs.ref_cert(cert)
    assert refcheck.extended_flow_violation(g, p, order, comp) is None
    # The certificate corrects from the past, so it is no plain Pauli flow.
    assert refcheck.pauli_flow_violation(g, p, order) is not None
    missing = {v: d for v, d in comp.items() if v != 1}
    assert refcheck.extended_flow_violation(g, p, order, missing) is not None
    emptied = {**p, 3: frozenset()}  # 3 is Z-measured and not in p(3)
    assert refcheck.extended_flow_violation(g, emptied, order, comp) is not None


def test_reference_agrees_with_the_library_checkers():
    rng = random.Random(3)
    verdicts = set()
    for _ in range(300):
        og = random_open_graph(rng, rng.randint(2, 4))
        measured = og.measured_vertices()
        if rng.random() < 0.3 and (cert := find_pauli_flow(og)) is not None:
            p, order = cert.p_map(), cert.order
        else:
            non_inputs = [v for v in og.graph.vertices if not (og.inputs >> v) & 1]
            p = {u: sum(1 << v for v in non_inputs if rng.random() < 0.4) for u in measured}
            order = random_partial_order(rng, measured)
        want = check_pauli_flow(og, p, order)
        got = refcheck.pauli_flow_violation(
            inputs.ref_of(og), {u: frozenset(inputs._bits(d)) for u, d in p.items()}, order.pairs
        )
        assert (got is None) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_reference_accepts_found_extended_flows():
    rng = random.Random(5)
    found = 0
    for _ in range(40):
        og = random_open_graph(rng, 4)
        cert = find_extended_pauli_flow(og)
        if cert is not None:
            assert check_extended_pauli_flow(og, cert)
            assert refcheck.extended_flow_violation(inputs.ref_of(og), *inputs.ref_cert(cert)) is None
            found += 1
    assert found > 0


@pytest.mark.parametrize("seed", range(20))
def test_flow_graph_has_its_flow(seed):
    og, p = inputs.flow_graph(random.Random(seed), 4 + seed % 2)
    order = StrictPartialOrder.chain(sorted(p))
    assert check_pauli_flow(og, p, order)
    assert refcheck.pauli_flow_violation(
        inputs.ref_of(og), {u: frozenset(inputs._bits(d)) for u, d in p.items()}, order.pairs
    ) is None


def test_induced_corrections_match_the_library():
    og, p = inputs.flow_chain(random.Random(1), 6)
    pat = inputs.induced(random.Random(2), og, p)
    want = refcheck.induced_corrections(
        inputs.ref_of(og), {u: frozenset(inputs._bits(d)) for u, d in p.items()}, sorted(p)
    )
    got = {s.qubit: (frozenset(inputs._bits(s.x_corr)), frozenset(inputs._bits(s.z_corr))) for s in pat.steps}
    assert got == want


def test_twin_drops_one_target_before_the_last_step():
    og, p = inputs.flow_ladder(random.Random(4), 10)
    pat = inputs.induced(random.Random(4), og, p)
    tw = inputs.twin(random.Random(4), pat)
    diff = [(a, b) for a, b in zip(pat.steps, tw.steps) if a != b]
    assert len(diff) == 1
    a, b = diff[0]
    dropped = (a.x_corr ^ b.x_corr) | (a.z_corr ^ b.z_corr)
    assert dropped.bit_count() == 1 and not (b.x_corr | b.z_corr) & dropped
    assert pat.steps.index(a) < len(pat.steps) - 1


def _flow_key(seed):
    return [(c.graph, c.source) for c in inputs.flow_search_cases(seed)]


def _wide_key(seed):
    return [(c.pattern, c.flow_induced) for c in inputs.wide_cases(seed)]


@pytest.mark.parametrize("key", [_flow_key, _wide_key, inputs.corpus_sample], ids=["flow", "wide", "corpus"])
def test_generators_are_seeded(key):
    assert key(1) == key(1)
    assert key(1) != key(2)


def test_flow_search_family_is_fixed_across_seeds():
    # The seed renumbers and reorders; the graphs stay the same up to renaming.
    def shape(og):
        return (len(og.graph.vertices), len(og.graph.edges), sorted(lab.value for _, lab in og.labels))

    assert sorted(map(shape, (c.graph for c in inputs.flow_search_cases(1)))) == sorted(
        map(shape, (c.graph for c in inputs.flow_search_cases(2)))
    )


def _cli_documents(seed, tmp_path):
    wl = workloads.Cli(seed, tracing.NullTracer(), tmp_path / str(seed))
    wl.setup()
    return {p.name: p.read_text() for p in sorted(wl.workdir.iterdir())}, wl


def test_cli_documents_are_seeded(tmp_path):
    a, _ = _cli_documents(1, tmp_path / "a")
    b, _ = _cli_documents(1, tmp_path / "b")
    c, wl = _cli_documents(2, tmp_path / "c")
    assert a == b and a != c
    assert {op[0] for op in wl.ops} == {
        "check-flow", "find-flow", "check-determinism", "push-pauli", "semantics", "induce", "corpus-verify",
    }


def _choi_doc(rows):
    return {"choi": [[[z.real, z.imag] for z in row] for row in rows]}


@pytest.mark.parametrize(
    "rows, ok",
    [
        ([[1, 0], [0, 0]], True),  # preparing |0>: one output qubit, no input
        ([[1, 0.5], [0, 0]], False),  # not Hermitian
        ([[1.5, 0], [0, -0.5]], False),  # not positive semidefinite
        ([[0.5, 0], [0, 0]], False),  # does not trace out to the identity
    ],
)
def test_choi_check(rows, ok):
    err = workloads._choi_violation(_choi_doc([[complex(x) for x in r] for r in rows]), 1, 2)
    assert (err is None) == ok


def test_cli_tampered_certificate_is_invalid_for_every_seed(tmp_path):
    # Seed 88 drew a graph whose reversed chain is still a flow; set-up
    # raises when the reference checker accepts the tampered certificate.
    for seed in list(range(40)) + [88, 89, 131, 138]:
        _cli_documents(seed, tmp_path)
