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

# The detail strings of criteria 1-9 pin each criterion's instance counts, so
# a corpus cannot shrink unnoticed; a change that grows one edits its string.


def _run(fn) -> acceptance.CriterionResult:
    result = fn()
    print(result.line())
    return result


def test_criterion_1_flow_condition_equivalence():
    result = _run(acceptance.criterion_1)
    assert result.passed, result.detail
    assert result.detail == "16981588 instances, 0 mismatches"


def test_criterion_2_extended_flow_sufficiency():
    result = _run(acceptance.criterion_2)
    assert result.passed, result.detail
    assert result.detail == "2146 graphs with a flow (151 with compensations), 6438 induced patterns, 0 failures"


def test_criterion_3_determinism_iff_induced():
    result = _run(acceptance.criterion_3)
    assert result.passed, result.detail
    assert result.detail == "12927 patterns, 695 deterministic, 0 mismatches, 0 unsound certificates"


def test_criterion_4_push_preserves_semantics():
    result = _run(acceptance.criterion_4)
    assert result.passed, result.detail
    assert result.detail == "247 successors, 0 semantic drifts, 0 determinism losses"


def test_criterion_5_regression_pair():
    result = _run(acceptance.criterion_5)
    assert result.passed, result.detail
    assert result.detail == "3 angles checked"


def test_criterion_6_rewrite_termination():
    result = _run(acceptance.criterion_6)
    assert result.passed, result.detail
    assert result.detail == "10000 random patterns, 0 failures"


def test_criterion_7_projected_stabilizers():
    result = _run(acceptance.criterion_7)
    assert result.passed, result.detail
    assert result.detail == "14391 instances, 2154 non-strong projections skipped, 0 mismatches"


def test_criterion_8_fixed_point_suites():
    result = _run(acceptance.criterion_8)
    assert result.passed, result.detail
    assert result.detail == "stabilizer 50796/0f, plane 192/0f, pauli-absorb 1200/0f, compensated 78/0f"


def test_criterion_9_necessity_on_restricted_corpora():
    result = _run(acceptance.criterion_9)
    assert result.passed, result.detail
    assert result.detail == "pauli-first 530/0 missing, plane-only 32/0 missing"


def test_criterion_10_showcase_instance():
    result = _run(acceptance.criterion_10)
    assert result.passed, (
        f"{result.detail} -- the graph-level no-plain-flow clause cannot hold: "
        "every open graph with an extended flow also has a plain flow, since "
        "pushing Pauli measurements first preserves the open graph; the "
        "failure is deliberate and documents the discrepancy"
    )
