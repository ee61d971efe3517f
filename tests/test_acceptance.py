"""Acceptance battery: every criterion runs at its stated size and exact
tolerance and prints one PASS line on success (run with -s to see them)."""

import random
from fractions import Fraction
from itertools import product

import pytest

from oracles import capacity_sweep
from tracelab.approximations import (
    WordApproximation,
    change_set,
    changeset_obedience,
    decode,
    obedience_speedup,
    pair_code,
)
from tracelab.costs import (
    CostTable,
    PartialCostTable,
    dyadic_decay_row,
    marker_sequence,
    obedience_sum,
    static_table,
    sum_benign,
    totalize,
)
from tracelab.errors import HorizonExhausted
from tracelab.fuzz import boxpromo_payload, synth_payload
from tracelab.scenarios import build_promotion_engine, build_synthesis_run
from tracelab.synthesis import audit_requirement, closed_form_bound
from tracelab.words import is_prefix

F = Fraction


def random_monotone_table(rng, horizon, width):
    grid = [[F(rng.randint(0, 8), 8) for _ in range(width)] for _ in range(horizon)]
    for x in range(width):
        column = sorted(grid[s][x] for s in range(horizon))
        for s in range(horizon):
            grid[s][x] = column[s]
    for s in range(horizon):
        for x in range(1, width):
            grid[s][x] = min(grid[s][x], grid[s][x - 1])
    return CostTable(tuple(tuple(row) for row in grid), normalized=True)


@pytest.fixture(scope="module")
def promotion_batch():
    """200 mixed-oracle promotion runs; every engine-internal bound audit is
    armed, so a single falsified lemma aborts the batch."""
    rng = random.Random(20240811)
    runs = []
    for index in range(200):
        payload = boxpromo_payload(rng, index)
        engine = build_promotion_engine(payload)
        engine.run()
        extraction = None
        if payload["oracle"]["policy"] == "honest":
            extraction = engine.extract_approximation()
            if extraction.anchor and extraction.anchor_stage < engine.horizon:
                engine.uniqueness_sweep(extraction.anchor, extraction.anchor_stage)
        runs.append((payload, engine, extraction))
    return runs


def test_criterion_1_conflict_bound(promotion_batch):
    assert len(promotion_batch) >= 200
    oracles = set()
    for payload, engine, _ in promotion_batch:
        oracles.add(payload["oracle"]["policy"])
        assert payload["overhead"] in (1, 2)
        assert engine.top_level <= 4
        assert engine.horizon <= 100
        for level, state in engine.levels.items():
            # Conflicts latch monotonically, so the final tally is the
            # per-stage maximum.
            assert len(state.conflicts) <= level - 1
    assert oracles == {"honest", "random", "scripted"}
    print("PASS criterion 1: conflict bound <= n-1 over 200 mixed-oracle runs")


def test_criterion_2_witness_certification(promotion_batch):
    audited = 0
    for _, engine, _ in promotion_batch:
        for audit in engine.witness_audits:
            audited += 1
            hits = len(audit.conflicted)
            assert hits >= 1
            assert audit.trace_members >= hits + 1
            deficits = audit.deficits
            for slot in range(1, len(deficits)):
                assert deficits[slot - 1] >= deficits[slot]
            for slot in audit.conflicted:
                assert deficits[slot - 1] > deficits[slot]
        conflicted_levels = sum(
            1 for state in engine.levels.values() if state.conflicts
        )
        if conflicted_levels:
            assert engine.witness_audits
    assert audited >= 50  # the adversaries reliably manufacture conflicts
    print(f"PASS criterion 2: {audited} witness audits certified |T| >= N+1")


def test_criterion_3_capacity(promotion_batch):
    for _, engine, _ in promotion_batch:
        for level, state in engine.levels.items():
            assert len(state.slots) <= engine.layout.lengths_capacity(level)
        for _, size, cap in capacity_sweep(engine.env):
            assert size <= cap
    print("PASS criterion 3: length lists and trace components within capacity")


def test_criterion_4_believability_and_convergence(promotion_batch):
    extracted = 0
    for payload, engine, extraction in promotion_batch:
        if extraction is None:
            continue
        # uniqueness_sweep already ran stage by stage inside the fixture
        truth = payload["ground_truth"]
        assert payload["oracle"]["delay"] <= 2
        if extraction.anchor_stage >= engine.horizon:
            continue
        extracted += 1
        assert is_prefix(extraction.anchor, truth)
        for step in extraction.steps:
            assert is_prefix(step.word, truth)
        for n, hits in extraction.expensive.items():
            assert len(hits) <= n + n * (n - 1) // 2
        assert extraction.total_cost <= extraction.layered_bound
    assert extracted >= 40
    print(
        f"PASS criterion 4: unique credible words and ground-truth convergence "
        f"on {extracted} honest runs"
    )


def test_criterion_5_change_set_dominance():
    table = static_table(dyadic_decay_row(80), 12, normalized=True)
    checked = 0
    for stages in range(1, 5):
        for width in range(1, 5):
            for bits in product("01", repeat=stages * width):
                rows = tuple(
                    "".join(bits[i * width : (i + 1) * width]) for i in range(stages)
                )
                block = WordApproximation(rows)
                cs = change_set(block)
                assert changeset_obedience(table, cs) <= obedience_sum(table, rows)
                assert decode(cs, rows[0]) == rows[-1]
                checked += 1
    rng = random.Random(5)
    for _ in range(500):
        stages, width = rng.randint(5, 9), rng.randint(5, 9)
        rows = tuple(
            "".join(rng.choice("01") for _ in range(width)) for _ in range(stages)
        )
        d = random_monotone_table(rng, stages, max(pair_code(width, stages) + 1, width))
        block = WordApproximation(rows)
        cs = change_set(block)
        assert changeset_obedience(d, cs) <= obedience_sum(d, rows)
        assert decode(cs, rows[0]) == rows[-1]
        checked += 1
    assert checked >= 500 + 74954 // 2
    print(f"PASS criterion 5: change-set dominance and decoding on {checked} instances")


def speedup_instance(rng, horizon=20, width=12):
    final = "".join(rng.choice("01") for _ in range(width))
    settle = rng.randint(3, 6)

    def path(extra_flips):
        word = final
        flips = []
        for _ in range(extra_flips):
            stage = rng.randint(1, settle - 1)
            pos = rng.randint(3, width - 1)
            flips.append((stage, pos))
        rows = []
        current = word
        # Walk backwards so the sequence provably settles on `final`.
        rows = [current] * horizon
        for stage, pos in flips:
            for s in range(stage):
                bit = "1" if rows[s][pos] == "0" else "0"
                rows[s] = rows[s][:pos] + bit + rows[s][pos + 1 :]
        return WordApproximation(tuple(rows))

    witness = path(rng.randint(0, 2))
    target = path(rng.randint(0, 3))
    cost = static_table(dyadic_decay_row(width), horizon, normalized=True)
    return cost, cost, target, witness


def test_criterion_6_speedup_budget():
    rng = random.Random(9)
    produced = 0
    for _ in range(100):
        cost, witness_cost, target, witness = speedup_instance(rng)
        witness_total = obedience_sum(witness_cost, witness.rows)
        assert witness_total <= F(1, 4)
        result = obedience_speedup(cost, witness_cost, target, witness, steps=4)
        assert result.tail_sum <= 1
        assert all(a < b for a, b in zip(result.speedup, result.speedup[1:]))
        produced += 1
    assert produced == 100
    # Horizon failures surface as a dedicated error, never silently.
    zero = static_table([F(0)] * 12, 20)
    cost, _, target, witness = speedup_instance(rng)
    flipped = list(target.rows)
    flipped[5] = flipped[5][:1] + ("1" if flipped[5][1] == "0" else "0") + flipped[5][2:]
    flipped[6:] = [flipped[5]] * (len(flipped) - 6)
    noisy = WordApproximation(tuple(flipped))
    with pytest.raises(HorizonExhausted):
        obedience_speedup(cost, zero, noisy, noisy, steps=4)
    print("PASS criterion 6: 100 speed-ups within budget 1; failures raise loudly")


@pytest.fixture(scope="module")
def synth_batch():
    rng = random.Random(77)
    runs = []
    for index in range(50):
        payload = synth_payload(
            rng,
            index,
            horizon=120,
            slow_maps=index % 2 == 1,
            min_flip_position=2 if index % 3 else 4,
            max_flips=3,
        )
        run = build_synthesis_run(payload)
        runs.append(run.run())
    return runs


def test_criterion_7_synth_benignity(synth_batch):
    assert closed_form_bound(0)(F(1, 2)) == 163
    budgets = set()
    for out in synth_batch:
        budgets.add(out.budget_exp)
        assert all(v <= 1 for row in out.cost_table.rows for v in row)
        for eps in (F(1, 2), F(1, 4), F(1, 8)):
            seq = marker_sequence(out.cost_table, eps)
            sharp = 0
            while F(1, 2**sharp) >= eps / 2:
                sharp += 1
            wide = 2 ** (out.budget_exp + sharp)
            bound = 2 + wide + sharp * sharp * (1 + 2**sharp + wide)
            assert seq.count <= bound
            assert out.bound(eps) == bound
    assert budgets == {0, 1, 2}
    print("PASS criterion 7: 50 synth runs within the closed-form marker bound; g(1/2)=163 at budget 0")


def test_criterion_8_final_accounting():
    rng = random.Random(31)
    qualifying = 0
    index = 0
    while qualifying < 20:
        index += 1
        payload = synth_payload(
            rng,
            index,
            horizon=500,
            max_flips=2,
            min_flip_position=4,
            slow_maps=index % 4 == 0,
            requirement_flavor="dyadic",
        )
        out = build_synthesis_run(payload).run()
        if out.halted_at is not None or out.measured > 2**out.budget_exp:
            continue
        if any(a > 1 for a in out.activity):
            continue
        qualifying += 1
        for e in range(len(out.requirements)):
            assert len(out.checkpoints[e]) - 1 >= 5
            audit = audit_requirement(out, e)
            bound = 1 + F(2 ** (out.budget_exp + e + 1))
            assert audit.total <= bound
            assert all(charge.case in (1, 2) for charge in audit.charges)
            assert audit.persistent_total <= 1
    print(f"PASS criterion 8: final accounting bounded on {qualifying} qualifying runs")


def test_criterion_9_sum_of_benign():
    rng = random.Random(13)
    eps_list = [F(1, 2), F(1, 4), F(1, 3)]
    for trial in range(30):
        count = rng.randint(1, 5)
        parts = []
        for _ in range(count):
            table = random_monotone_table(rng, 8, 8)
            bounds = {eps / 4: marker_sequence(table, eps / 4).count for eps in eps_list}
            parts.append((table, bounds))
        combined, certified = sum_benign(parts)
        for eps in eps_list:
            assert marker_sequence(combined, eps).count <= certified(eps)
    print("PASS criterion 9: combined marker counts within the certified part sums")


def test_criterion_10_totalization():
    rng = random.Random(17)
    for _ in range(100):
        stages, width = rng.randint(1, 6), rng.randint(1, 6)
        cells = []
        for u in range(stages):
            row = []
            for x in range(width):
                roll = rng.random()
                if roll < 0.15:
                    row.append(None)
                elif roll < 0.25:
                    row.append((F(rng.randint(9, 16), 8), 0))
                else:
                    row.append((F(rng.randint(0, 8), 8 + x), rng.randint(0, 4)))
            cells.append(tuple(row))
        partial = PartialCostTable(tuple(cells))
        out = totalize(partial, horizon=8, width=8)  # constructor checks invariants
        assert out.normalized
        # Wherever the input is a genuine monotone approximation bounded by 1,
        # the output must copy it on the certified prefix.
        for s in range(8):
            frontier = -1
            for t in range(min(s + 1, stages, width)):
                square = [
                    partial.cell(u, x) for u in range(t + 1) for x in range(t + 1)
                ]
                if any(c is None or c[1] > s or c[0] > 1 for c in square):
                    break
                ok = all(
                    partial.cell(u, x - 1)[0] >= partial.cell(u, x)[0]
                    for u in range(t + 1)
                    for x in range(1, t + 1)
                ) and all(
                    partial.cell(u - 1, x)[0] <= partial.cell(u, x)[0]
                    for u in range(1, t + 1)
                    for x in range(t + 1)
                )
                if not ok:
                    break
                frontier = t
            for x in range(8):
                expected = (
                    partial.cell(frontier, x)[0] if 0 <= x <= frontier else F(0)
                )
                assert out.value(s, x) == expected
    print("PASS criterion 10: totalization valid and faithful on 100 partial inputs")
