"""Acceptance battery: every criterion of `tracelab.acceptance` runs at its
stated size and exact tolerance, the test asserts its coverage floors, and
it prints one PASS line on success (run with -s to see them).  An engine
fault injected into a criterion's runs names the case it hit."""

import re

import pytest

from tracelab import acceptance
from tracelab.errors import InvariantViolation
from tracelab.fuzz import boxpromo_batch
from tracelab.promotion import PromotionEngine
from tracelab.synthesis import SynthesisRun


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


def test_a_promotion_batch_fault_names_its_fuzz_case(monkeypatch):
    check = PromotionEngine._check_chain

    def faulty(engine, stage):
        if engine.policy.kind == "random" and stage == 7:
            raise InvariantViolation(f"length chain out of order at stage {stage}")
        check(engine, stage)

    monkeypatch.setattr(PromotionEngine, "_check_chain", faulty)
    message = "boxpromo fuzz case 2 (batch seed 0): length chain out of order at stage 7"
    with pytest.raises(InvariantViolation, match=rf"^{re.escape(message)}$"):
        acceptance.verify(0)
    # The same payload fails the same way in the fuzz batch.
    with pytest.raises(InvariantViolation, match=rf"^{re.escape(message)}$"):
        boxpromo_batch(20, 0)


def test_a_synthesis_fault_names_its_criterion_and_run(monkeypatch):
    def faulty(run):
        raise InvariantViolation("stage map went backwards")

    monkeypatch.setattr(SynthesisRun, "run", faulty)
    for check, message in (
        (acceptance.synth_benignity, "criterion 7 (synth benignity, seed 77): run 0: "),
        (acceptance.final_accounting, "criterion 8 (final accounting, seed 31): run 1: "),
    ):
        with pytest.raises(InvariantViolation, match=rf"^{re.escape(message)}stage map"):
            check()


def test_a_final_accounting_audit_fault_names_its_criterion_and_run(monkeypatch):
    def faulty(run, requirement):
        raise InvariantViolation(f"charge 3 for requirement {requirement} has no recorded change")

    monkeypatch.setattr(acceptance, "audit_requirement", faulty)
    message = "criterion 8 (final accounting, seed 31): run 1: charge 3 for requirement 0"
    with pytest.raises(InvariantViolation, match=rf"^{re.escape(message)}"):
        acceptance.final_accounting(qualifying=1)
