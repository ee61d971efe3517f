"""Acceptance battery: every criterion of `tracelab.acceptance` runs at its
stated size and exact tolerance, the test asserts its coverage floors, and
it prints one PASS line on success (run with -s to see them)."""

import pytest

from tracelab import acceptance


@pytest.fixture(scope="module")
def promotion_batch():
    return acceptance.promotion_batch()


def test_criterion_1_conflict_bound(promotion_batch):
    counts = acceptance.conflict_bound(promotion_batch)
    assert counts["runs"] >= 200
    assert counts["oracles"] == ["honest", "random", "scripted"]
    print(acceptance.pass_line(1, counts))


def test_criterion_2_witness_certification(promotion_batch):
    counts = acceptance.witness_certification(promotion_batch)
    assert counts["audits"] >= 50  # the adversaries reliably manufacture conflicts
    print(acceptance.pass_line(2, counts))


def test_criterion_3_capacity(promotion_batch):
    counts = acceptance.capacity(promotion_batch)
    assert counts["boxes"] >= 200
    print(acceptance.pass_line(3, counts))


def test_criterion_4_believability_and_convergence(promotion_batch):
    counts = acceptance.believability(promotion_batch)
    assert counts["extractions"] >= 40
    print(acceptance.pass_line(4, counts))


def test_criterion_5_change_set_dominance():
    counts = acceptance.change_set_dominance()
    assert counts["instances"] >= 500 + 74954 // 2
    print(acceptance.pass_line(5, counts))


def test_criterion_6_speedup_budget():
    counts = acceptance.speedup_budget()
    assert counts["speedups"] == 100
    print(acceptance.pass_line(6, counts))


def test_criterion_7_synth_benignity():
    counts = acceptance.synth_benignity()
    assert counts["budgets"] == [0, 1, 2]
    print(acceptance.pass_line(7, counts))


def test_criterion_8_final_accounting():
    counts = acceptance.final_accounting()
    assert counts["audits"] >= 20  # every qualifying run audits a requirement
    print(acceptance.pass_line(8, counts))


def test_criterion_9_sum_of_benign():
    counts = acceptance.sum_of_benign()
    print(acceptance.pass_line(9, counts))


def test_criterion_10_totalization():
    counts = acceptance.totalization()
    print(acceptance.pass_line(10, counts))
