"""Acceptance suite: one test per criterion, printing one verdict line each.

Criterion 10 includes a graph-level "no plain flow" clause that is provably
unattainable: an open graph has an extended flow iff it has a plain flow,
because pushing the Pauli measurements first preserves the open graph (the
claim is checked exhaustively on small instances elsewhere in the suite).
The clause is asserted anyway and fails deliberately, recording the
discrepancy instead of hiding it.
"""

from __future__ import annotations

from mbqc import acceptance


def _run(fn) -> acceptance.CriterionResult:
    result = fn()
    print(result.line())
    return result


def test_criterion_1_flow_condition_equivalence():
    result = _run(acceptance.criterion_1)
    assert result.passed, result.detail


def test_criterion_2_extended_flow_sufficiency():
    result = _run(acceptance.criterion_2)
    assert result.passed, result.detail


def test_criterion_3_determinism_iff_induced():
    result = _run(acceptance.criterion_3)
    assert result.passed, result.detail


def test_criterion_4_push_preserves_semantics():
    result = _run(acceptance.criterion_4)
    assert result.passed, result.detail


def test_criterion_5_regression_pair():
    result = _run(acceptance.criterion_5)
    assert result.passed, result.detail


def test_criterion_6_rewrite_termination():
    result = _run(acceptance.criterion_6)
    assert result.passed, result.detail


def test_criterion_7_projected_stabilizers():
    result = _run(acceptance.criterion_7)
    assert result.passed, result.detail


def test_criterion_8_fixed_point_suites():
    result = _run(acceptance.criterion_8)
    assert result.passed, result.detail
    assert "pauli-absorb 1200/0f" in result.detail


def test_criterion_9_necessity_on_restricted_corpora():
    result = _run(acceptance.criterion_9)
    assert result.passed, result.detail


def test_criterion_10_showcase_instance():
    result = _run(acceptance.criterion_10)
    assert result.passed, (
        f"{result.detail} -- the graph-level no-plain-flow clause cannot hold: "
        "every open graph with an extended flow also has a plain flow, since "
        "pushing Pauli measurements first preserves the open graph; the "
        "failure is deliberate and documents the discrepancy"
    )
