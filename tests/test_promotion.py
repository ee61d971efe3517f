import random
import re
from fractions import Fraction

import pytest
import oracles
from hypothesis import given, settings, strategies as st
from oracles import expensive_counts

from tracelab.acceptance import capacity_sweep, promotion_batch, random_monotone_table
from tracelab.costs import (
    CostTable,
    dyadic_decay_row,
    format_cost_table,
    parse_cost_table,
    static_table,
)
from tracelab.errors import InvariantViolation, ScenarioError
from tracelab.fuzz import CANNED_SCRIPT, boxpromo_payload, canned_scripted_payload
from tracelab.promotion import Candidate, CoherentLengths, PromotionEngine
from tracelab.scenarios import build_promotion_engine, machine_format, parse_script, run_scenario
from tracelab.tracer import BoxLayout, HonestPolicy, ScriptedPolicy
from tracelab.words import flip, is_prefix

F = Fraction


def decay(horizon, width=None):
    return static_table(dyadic_decay_row(width or horizon), horizon, normalized=True)


def zero_cost(horizon):
    return CostTable(tuple(tuple(F(0) for _ in range(horizon)) for _ in range(horizon)))


# ---- coherent lengths -----------------------------------------------------------


def test_length_for_level_on_dyadic_decay():
    table = decay(10)
    coherent = CoherentLengths(table, 4)
    assert coherent.length(2, 5) == 3
    # max over {2}, markers(1)<=5 -> {0,1}, markers(1/2) -> {0,1,2},
    # markers(1/4) -> {0,1,2,3}


def test_length_for_level_on_zero_cost_is_the_level():
    table = zero_cost(10)
    coherent = CoherentLengths(table, 4)
    for level in (1, 2, 3):
        for stage in (level, level + 3, 9):
            assert coherent.length(level, stage) == level


def test_length_for_level_tolerates_the_marker_boundary():
    table = decay(10)
    coherent = CoherentLengths(table, 4)
    # At stage == level the newest threshold marker is the stage itself and
    # the cost sits exactly at 2^-level; the certificate must not fire.
    assert coherent.length(2, 2) == 2
    assert coherent.length(3, 3) == 3


def test_marker_table_matches_one_scan_per_threshold():
    rng = random.Random(5)
    tables = [zero_cost(6), decay(10), CostTable([[3, 2, 0], [3, 2, 1]])]
    tables += [random_monotone_table(rng, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(40)]
    for table in tables:
        for top in (0, 1, 3, 12):
            assert CoherentLengths(table, top).markers == oracles.marker_table(table, top)


def test_slack_from_markers_covers_observed_lengths():
    table = decay(12)
    coherent = CoherentLengths(table, 3)
    counts = [sequence.count for sequence in oracles.marker_table(table, 3).values()]
    for level in (1, 2, 3):
        assert coherent.slack[level] == 1 + sum(counts[: level + 1])
        values = {coherent.length(level, s) for s in range(level, 12)}
        assert len(values) <= coherent.slack[level]


# ---- the canned scripted conflict ------------------------------------------------


def test_scripted_conflict_promotes_and_certifies():
    report = run_scenario(canned_scripted_payload())
    level2 = report["levels"]["2"]
    assert level2["lengths"] == [2, 3]
    assert level2["conflicts"] == {"2": {"stage": 5, "pair": [1, 2]}}
    level1 = report["levels"]["1"]
    assert level1["lengths"] == [1, 2, 3]
    assert level1["added"] == [1, 2, 5]  # promoted length lands the same stage
    first_audit = report["witness_audits"][0]
    assert first_audit["stage"] == 5
    assert first_audit["box"] == "M2.2:1+2"
    assert first_audit["chain_sizes"] == [2, 2, 0]
    assert first_audit["deficits"] == [1, 1, 0]
    assert first_audit["trace_members"] == 2
    assert report["tallies"]["conflicts"] == 1


def test_a_slack_field_is_ignored():
    # Each level's length capacity comes from the cost table's marker counts,
    # so a `slack` field, here tighter than those counts, changes nothing.
    payload = canned_scripted_payload()
    report = machine_format(run_scenario(payload))
    assert machine_format(run_scenario(dict(payload, slack={"1": 1, "2": 1}))) == report


TWO_CONFLICT_FEEDS = [
    # Every class a pair's success check ranges over, fed with a certified
    # comparable value; the maximal class ends exactly at capacity 3.
    ("M3.1:1", ["00000"]),
    ("M3.1:1.2:1", ["00000"]),
    ("M3.1:1.2:2", ["00010"]),
    ("M3.1:1.2:1+2", ["00000", "00010"]),
    ("M3.1:1+2", ["00000", "00100"]),
    ("M3.1:1+2.2:1", ["00000", "00100"]),
    ("M3.1:1+2.2:2", ["00010", "00100"]),
    ("M3.1:1+2.2:1+2", ["00000", "00010", "00100"]),
    ("M3.1:2", ["00100"]),
    ("M3.1:2.2:1", ["00100", "000000"]),
    ("M3.1:2.2:2", ["00100", "000100"]),
    ("M3.1:2.2:1+2", ["00100", "000000", "000100"]),
    ("M3.2:1", ["000000"]),
    ("M3.2:2", ["000100"]),
    ("M3.2:1+2", ["000000", "000100"]),
]


def two_conflict_payload():
    horizon = 10
    table = decay(horizon)
    script = [
        "5 I3.1 000",
        "5 I3.1 001",
        "6 I3.2 0000",
        "6 I3.2 0001",
    ]
    for spec, values in TWO_CONFLICT_FEEDS:
        for value in values:
            script.append(f"7 {spec} {value}")
    return {
        "kind": "boxpromo",
        "horizon": horizon,
        "overhead": 1,
        "top_level": 3,
        "cost_table": format_cost_table(table),
        "oracle": {"policy": "scripted", "script": script},
    }


def test_two_stacked_conflicts_build_a_three_element_witness():
    report = run_scenario(two_conflict_payload())
    level3 = report["levels"]["3"]
    assert level3["lengths"] == [3, 4]
    assert set(level3["conflicts"]) == {"1", "2"}
    assert level3["conflicts"]["1"]["stage"] == 7
    assert level3["conflicts"]["2"]["stage"] == 7
    audit = report["witness_audits"][0]
    assert audit["conflicted"] == [1, 2]
    assert audit["box"] == "M3.1:2.2:1+2"
    assert audit["chain_sizes"][0] == 3
    assert audit["deficits"][0] >= 2
    assert audit["trace_members"] >= 3
    # The longer conflicted length moves down; the equal one is dropped.
    assert report["levels"]["2"]["lengths"] == [2, 3, 4]
    assert [entry[0] for entry in report["levels"]["2"]["dropped_promotions"]] == [3]


# ---- honest runs ------------------------------------------------------------------


def honest_payload(seed, horizon=24, overhead=1, top=3, delay=1):
    rng = random.Random(seed)
    from tracelab.costs import format_cost_table

    return {
        "kind": "boxpromo",
        "horizon": horizon,
        "overhead": overhead,
        "top_level": top,
        "cost_table": format_cost_table(decay(horizon)),
        "ground_truth": "".join(rng.choice("01") for _ in range(horizon)),
        "oracle": {"policy": "honest", "delay": delay},
    }


def test_honest_oracle_never_conflicts():
    for seed in range(6):
        report = run_scenario(honest_payload(seed))
        assert report["tallies"]["conflicts"] == 0
        assert report["witness_audits"] == []


def test_honest_extraction_tracks_the_ground_truth():
    payload = honest_payload(3)
    report = run_scenario(payload)
    truth = payload["ground_truth"]
    extraction = report["extraction"]
    assert extraction["truncated_at"] is None
    assert is_prefix(extraction["anchor"], truth)
    for step in extraction["steps"]:
        assert is_prefix(step["word"], truth)
    counts = extraction["expensive_counts"]
    for n_text, hits in counts.items():
        n = int(n_text)
        assert hits <= n + n * (n - 1) // 2


def test_run_extracts_for_honest_oracles_only():
    truth = {"ground_truth": "01101001100101"}
    scripted = build_promotion_engine(dict(canned_scripted_payload(), **truth)).run()
    adversary = dict(canned_scripted_payload(), oracle={"policy": "random", "seed": 3}, **truth)
    assert scripted.extraction is None
    assert build_promotion_engine(adversary).run().extraction is None
    engine = build_promotion_engine(honest_payload(4)).run()
    assert engine.extraction is not None
    assert engine.extraction == engine.extract_approximation()


def test_believable_is_the_anchor_at_the_anchor_stage():
    engine = build_promotion_engine(honest_payload(4)).run()
    extraction = engine.extraction
    anchor = extraction.anchor
    assert engine.believable(engine.overhead, extraction.anchor_stage, anchor) == anchor


def test_believable_is_none_when_nothing_was_traced():
    payload = canned_scripted_payload()
    engine = build_promotion_engine(payload)
    engine.run()
    # level 1 never saw a candidate, so nothing is credible there
    assert engine.believable(1, 8, "0") is None


def test_uniqueness_sweep_passes_on_honest_runs():
    engine = build_promotion_engine(honest_payload(5)).run()
    extraction = engine.extraction
    credible = engine.uniqueness_sweep(extraction.anchor, extraction.anchor_stage)
    assert credible[engine.overhead, extraction.anchor_stage] == extraction.anchor
    for step in extraction.steps:
        assert credible[step.index, step.stage] == step.word


def test_every_level_of_a_run_lists_a_length():
    # Level n lists its coherent length at stage n, and the top level is
    # capped below the horizon, so the uniqueness sweep has no empty level
    # to skip.
    payloads = [
        boxpromo_payload(random.Random(seed), index, horizon)
        for seed in range(3)
        for index in range(10)
        for horizon in (None, 3)  # at horizon 3 the cap binds
    ]
    tall = dict(canned_scripted_payload(), top_level=10000, ground_truth="0" * 14)
    payloads.append(dict(tall, oracle={"policy": "honest"}))
    for payload in payloads:
        engine = build_promotion_engine(payload).run()
        assert engine.top_level < engine.horizon
        assert all(state.slots for state in engine.levels.values())
    assert engine.top_level == 13 and engine.extraction.steps


def test_expensive_counts_match_the_per_threshold_comparison():
    extracted = 0
    for engine in promotion_batch().runs:
        extraction = engine.extraction
        if extraction is None or extraction.anchor_stage >= engine.horizon:
            continue
        extracted += 1
        assert extraction.expensive == expensive_counts(extraction.steps, engine.top_level)
    assert extracted >= 40


def add_twins(engine, word: str, delay=None) -> None:
    """Beside each candidate `word`, a twin that flips its last bit, listed
    with the same stages or, given `delay`, `delay` stages later and
    successful one stage after that."""
    twin = flip(word, len(word) - 1)
    for state in engine.levels.values():
        for slot in state.slots:
            for c in [c for c in slot.candidates if c.word == word]:
                appeared, since = c.appeared, c.since
                if delay is not None:
                    appeared = c.appeared + delay
                    since = appeared + 1
                index = len(slot.candidates) + 1
                slot.candidates.append(Candidate(twin, appeared, c.slot, index, since=since))


def second_credible_word(twin_delay=None):
    """An honest engine after its run, with a twin beside its first step word
    longer than the anchor; the message the every-stage scan raises with."""
    engine = build_promotion_engine(honest_payload(4)).run()
    anchor, anchor_stage = engine.extraction.anchor, engine.extraction.anchor_stage
    word = next(s.word for s in engine.extraction.steps if len(s.word) > len(anchor))
    add_twins(engine, word, twin_delay)  # each twin extends the anchor too
    with pytest.raises(InvariantViolation) as raised:
        oracles.scan_uniqueness(engine, anchor, anchor_stage)
    return engine, str(raised.value)


def test_a_second_credible_word_is_an_invariant_violation():
    engine, message = second_credible_word()
    assert message == "two credible words at level 2, stage 5: ['010', '011']"
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        engine.extract_approximation()


def test_a_second_credible_word_first_at_a_later_change_stage_is_an_invariant_violation():
    # The twin is listed at stage 9 and succeeds at 10, a stage that only its
    # `since` makes a change stage, well after the anchor stage 4.
    engine, message = second_credible_word(twin_delay=5)
    assert message == "two credible words at level 2, stage 10: ['010', '011']"
    assert engine.extraction.anchor_stage == 4
    run = build_promotion_engine(honest_payload(4)).run()
    assert max(set().union(*(s.change_stages() for s in run.levels.values()))) < 9
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        engine.extract_approximation()


def test_an_extraction_step_over_its_allowance_is_an_invariant_violation():
    engine = promotion_batch(runs=20).runs[5]
    assert engine.extraction.steps  # an honest run with a step to charge
    cost = engine.coherent.cost
    engine.coherent.cost = CostTable([[1] * cost.width] * cost.horizon)
    with pytest.raises(InvariantViolation, match=r"^1 expensive extraction steps at threshold 2\^-0,"):
        engine.extract_approximation()


def test_monotone_length_chain_and_capacity_hold():
    for seed in (0, 1):
        engine = build_promotion_engine(honest_payload(seed, top=4))
        engine.run()
        tops = [
            engine.levels[n].top_length()
            for n in range(engine.overhead, engine.top_level + 1)
        ]
        assert tops == sorted(tops)
        for n, state in engine.levels.items():
            assert len(state.slots) <= engine.layout.lengths_capacity(n)
        for _, size, cap in capacity_sweep(engine.env):
            assert size <= cap


def test_capacity_holds_and_trace_content_only_grows_at_every_stage():
    # `max_trace` and the membership flags rest on this: a box's (value,
    # stage) pairs only grow, and a flag changes only when an initial box
    # is tested.
    for seed in (0, 1, 2):
        oracle = {"policy": "random", "seed": seed, "feed_rate": 1.0, "junk_rate": 0.5}
        engine = build_promotion_engine(dict(canned_scripted_payload(30), top_level=3, oracle=oracle))
        previous, max_trace = {}, 0
        for stage in range(engine.overhead, engine.horizon):
            engine._stage(stage)
            for name, size, cap in capacity_sweep(engine.env):
                assert size <= cap, name
            for box in engine.env.boxes():
                pairs, flags = [e[:2] for e in box.content], [e[2] for e in box.content]
                old_pairs, old_flags = previous.get(box, ([], []))
                assert pairs[: len(old_pairs)] == old_pairs, box.name
                events = box.functional.events
                if not (box.kind == "I" and events and events[0].stage == stage):
                    assert flags[: len(old_flags)] == old_flags, box.name
                previous[box] = pairs, flags
            assert engine.env.max_trace >= max_trace
            max_trace = engine.env.max_trace
        assert engine.env.max_trace == engine.layout.trace_capacity(engine.top_level)


def test_scenario_requires_cost_table_covering_horizon():
    payload = honest_payload(0)
    payload["cost_table"] = "2 2\n1/1 1/2\n1/1 1/2\n"
    with pytest.raises(ScenarioError):
        build_promotion_engine(payload)


def test_success_needs_the_stage_after_testing():
    # The canned run's candidates appear at stage 4 and are fed at stage 5;
    # success is recorded from stage 5 on, never at the testing stage itself.
    engine = build_promotion_engine(canned_scripted_payload())
    engine.run()
    state = engine.levels[2]
    for slot in state.slots:
        for candidate in slot.candidates:
            if candidate.since is not None:
                assert candidate.since > candidate.appeared


def canned_engine_through(last_stage):
    """The canned scripted engine after its stages up to `last_stage`."""
    engine = build_promotion_engine(canned_scripted_payload())
    for stage in range(engine.overhead, last_stage + 1):
        engine._stage(stage)
    return engine


def test_a_successful_pair_that_a_new_class_lacks_is_an_invariant_violation():
    # After stage 4 level 2 slot 2 lists 000 and 001, and the classes
    # naming them are still unfed.  Forge success for 000, then list a
    # sibling at slot 1: the class M2.1:1.2:1 spawns without a witness for 000.
    engine = canned_engine_through(4)
    state = engine.levels[2]
    assert [slot.length for slot in state.slots] == [2, 3] and not state.slots[0].candidates
    first = state.slots[1].candidates[0]
    assert first.word == "000" and engine.env.lacking[2, 2, 1] and first.since is None
    first.since = 4
    events = {"new_candidates": [], "new_successes": []}
    message = r"^successful pair \(2, 2, 1\) lost its witness on spawn$"
    with pytest.raises(InvariantViolation, match=message):
        engine._list_candidate(state, 1, "00", 5, events)


def test_a_latched_conflict_whose_pair_lost_success_is_an_invariant_violation():
    # The canned run latches level 2 slot 2 at stage 5; clear the success of
    # one member of the pair and run the next stage.
    engine = canned_engine_through(5)
    stage, pair = engine.levels[2].slots[1].conflict
    assert stage == 5
    pair[0].since = None
    with pytest.raises(InvariantViolation, match=r"^latched conflict at level 2 slot 2 lost its pair$"):
        engine._stage(6)


def test_a_trace_value_outside_a_reused_chain_is_an_invariant_violation():
    # Level 2's chain is built at stage 5 and reused at stage 6; a member
    # value that extends neither member of the pair breaks the ownership check.
    engine = canned_engine_through(5)
    chain = engine.levels[2].chain
    assert chain.box.name == "M2.2:1+2" and [c.word for c in chain.members] == ["000", "001"]
    chain.box.content.append(("0100", 5, True))
    message = r"^trace value 0100 on witness M2.2:1\+2 extends 0 chain members$"
    with pytest.raises(InvariantViolation, match=message):
        engine._stage(6)
    assert engine.levels[2].chain is chain


def test_a_truncated_witness_box_under_a_reused_chain_is_an_invariant_violation():
    engine = canned_engine_through(5)
    chain = engine.levels[2].chain
    del chain.box.content[1:]
    message = r"^witness M2.2:1\+2 carries 1 certified values, needs 2$"
    with pytest.raises(InvariantViolation, match=message):
        engine._stage(6)
    assert engine.levels[2].chain is chain


def test_a_forged_twin_success_over_the_budget_is_an_invariant_violation():
    # Level 2 latched its one allowed conflict at slot 2 on stage 5.  List
    # two twins at the empty slot 1 and forge their success from stage 6
    # through the success writer: the scan files slot 1 and latches a second
    # conflict.
    engine = canned_engine_through(5)
    state = engine.levels[2]
    slot = state.slots[0]
    assert not slot.candidates and state.slots[1].conflict is not None
    events = {"new_successes": []}
    for index, word in enumerate(("00", "01"), start=1):
        slot.candidates.append(Candidate(word, 5, 1, index))
        engine._succeed(state, slot.candidates[-1], 6, events)
    message = r"^2 conflicted lengths at level 2, stage 6; the promotion budget allows 1$"
    with pytest.raises(InvariantViolation, match=message):
        engine._stage(6)


def test_a_length_past_the_layout_capacity_is_an_invariant_violation():
    # A scenario's layout takes its capacities from the cost table, so only a
    # layout built by hand can be too small: the canned run lists a third
    # length at level 1 on stage 5.
    cost = parse_cost_table(canned_scripted_payload()["cost_table"])
    layout = BoxLayout(1, {1: 1, 2: 1}, 2)
    engine = PromotionEngine(
        coherent=CoherentLengths(cost, 2),
        layout=layout,
        horizon=14,
        policy=ScriptedPolicy(parse_script("\n".join(CANNED_SCRIPT)), layout),
    )
    with pytest.raises(InvariantViolation, match=r"^level 1 exceeded its length capacity 2 at stage 5$"):
        engine.run()


def test_a_hand_built_engine_without_a_stage_is_refused():
    # The stages run from the overhead to horizon - 1: at overhead 14 and
    # horizon 14 an honest run would stage nothing and then extract nothing.
    cost = parse_cost_table(canned_scripted_payload()["cost_table"])
    coherent = CoherentLengths(cost, 14)
    message = r"^boxpromo scenario needs a horizon above its overhead, got overhead 14 at horizon 14$"
    with pytest.raises(ScenarioError, match=message):
        PromotionEngine(
            coherent=coherent,
            layout=BoxLayout(14, coherent.slack, 14),
            horizon=14,
            policy=HonestPolicy(),
            ground_truth="0" * 14,
        )


def test_honest_trace_completeness_at_the_final_stage():
    payload = honest_payload(7, horizon=26, delay=1)
    engine = build_promotion_engine(payload)
    engine.run()
    truth = payload["ground_truth"]
    final = engine.horizon - 1
    for box in engine.env.boxes():
        values = [v for v, _, _ in box.content]
        if box.kind == "I":
            if box.functional.events[0].stage + 1 <= final:
                assert any(is_prefix(v, truth) for v in values)
            continue
        due = engine.env.honest_value(box)
        if due is not None and due[0] + 1 <= final:
            assert any(is_prefix(v, truth) or is_prefix(truth[: len(v)], v) for v in values)


def test_scenario_accepts_an_approximation_block_for_the_truth():
    payload = honest_payload(2, horizon=16)
    truth = payload.pop("ground_truth")
    rows = [truth] * 16
    payload["approximation"] = "\n".join(["16 16"] + rows)
    report = run_scenario(payload)
    assert report["extraction"]["anchor"] == truth[: len(report["extraction"]["anchor"])]


def conflict_is_active(engine, level, slot, stage):
    conflict = engine.levels[level].slots[slot - 1].conflict
    return conflict is not None and conflict[0] <= stage


def test_conflict_query_latches_per_stage():
    engine = build_promotion_engine(canned_scripted_payload())
    engine.run()
    assert not conflict_is_active(engine, 2, 2, 4)
    assert conflict_is_active(engine, 2, 2, 5)
    assert conflict_is_active(engine, 2, 2, 9)  # once true, true forever
    assert not conflict_is_active(engine, 2, 1, 9)
    state = engine.levels[2]
    first, second = state.slots[1].candidates[:2]
    assert state.slots[1].conflict == (5, (first, second))
    assert not first.successful_at(4)
    assert first.successful_at(5)
    assert second.successful_at(5)


def early_trace_payload():
    return {
        "kind": "boxpromo",
        "horizon": 14,
        "overhead": 1,
        "top_level": 2,
        "cost_table": format_cost_table(decay(14)),
        # Level 2 tests length 3 in slot 2 at stage 3; enumerate at stage 2.
        "oracle": {"policy": "scripted", "script": ["2 I2.2 000"]},
    }


def test_early_trace_values_become_candidates_when_the_test_exists():
    # A value of the right length enumerated before its slot is tested must
    # surface as a candidate the moment the test is placed.
    report = run_scenario(early_trace_payload())
    assert report["levels"]["2"]["candidates"]["2"] == ["000"]


def test_a_candidate_its_classes_already_witness_succeeds_on_listing():
    # The root class holds 01101 when 01 is listed at level 2 slot 1 in the
    # same stage.  The class spawned for the pair tests the length-5
    # extensions of 01, so the 01101 it inherits is a member that witnesses
    # 01 at once.
    payload = {
        "kind": "boxpromo",
        "horizon": 14,
        "overhead": 1,
        "top_level": 2,
        "cost_table": format_cost_table(decay(14)),
        "oracle": {"policy": "scripted", "script": ["5 M2.root 01101", "5 I2.1 01"]},
    }
    engine = build_promotion_engine(payload).run()
    (candidate,) = engine.levels[2].slots[0].candidates
    assert (candidate.word, candidate.appeared, candidate.since) == ("01", 5, 6)
    stage_five = next(events for events in engine.stage_log if events["stage"] == 5)
    assert stage_five["new_successes"] == [{"level": 2, "slot": 1, "index": 1}]


def test_extraction_without_an_anchor_stage_is_empty_and_truncated():
    # At horizon 2 the base slot is added at stage 1 and no later stage is
    # left to anchor on.
    payload = {
        "kind": "boxpromo",
        "horizon": 2,
        "overhead": 1,
        "top_level": 1,
        "cost_table": format_cost_table(decay(2)),
        "ground_truth": "01",
        "oracle": {"policy": "honest", "delay": 0},
    }
    extraction = build_promotion_engine(payload).run().extraction
    assert extraction.anchor_stage == 2
    assert extraction.steps == [] and extraction.truncated_at == 1


def test_witness_with_no_conflicts_is_the_empty_chain():
    engine = build_promotion_engine(honest_payload(1))
    engine.run()
    audit = engine._audit_witness(engine.levels[2], engine.horizon - 1)
    assert audit.conflicted == []
    assert audit.chain_sizes[0] == 0
    assert audit.box.endswith("root")


def test_extraction_reports_truncation_on_short_horizons():
    # With the oracle delay eating most of an 8-stage run, upper levels never
    # produce a credible word; extraction must say so rather than pretend.
    payload = honest_payload(6, horizon=8, top=3, delay=2)
    extraction = build_promotion_engine(payload).run().extraction
    assert extraction.truncated_at is not None or len(extraction.steps) < 2


# ---- every stage against its references ------------------------------------------


def late_length_payload():
    """An honest run whose costs stay 0 until stage 12 and then reach 2^-3
    but not 2^-2: only level 3 adds a length there, after its first word
    became credible, so no word is credible at level 3 at stages 12-13."""
    rows = [(F(0),) * 24] * 12 + [dyadic_decay_row(24, shift=3)] * 12
    return dict(
        honest_payload(0, top=3),
        cost_table=format_cost_table(CostTable(rows, normalized=True)),
    )


def fixed_payloads():
    """Each fuzz index (honest, honest, random, random, scripted) at seeds 0
    and 1, a horizon-60 random run at top level 5 for each seed 0-3 (at seed
    3 level 5 latches a second conflict without adding a slot), the
    two-conflict script, the early-trace script and the late-length run."""
    payloads = []
    for seed in (0, 1):
        rng = random.Random(seed)
        payloads += [boxpromo_payload(rng, index) for index in range(5)]
    for seed in range(4):
        oracle = {"policy": "random", "seed": seed}
        payloads.append(dict(canned_scripted_payload(60), top_level=5, oracle=oracle))
    return payloads + [two_conflict_payload(), early_trace_payload(), late_length_payload()]


def stages_of_fixed_payloads():
    for payload in fixed_payloads():
        yield from oracles.promotion_stages(payload)


def test_success_ledger_matches_the_lacking_oracle_at_every_stage():
    for engine, stage, *_ in stages_of_fixed_payloads():
        oracles.check_ledger(engine, stage)


def test_membership_flags_match_the_recursive_definition_at_every_stage():
    members = {}
    for engine, stage, *_ in stages_of_fixed_payloads():
        oracles.check_membership(engine, stage, members)


def test_slot_candidates_are_the_initial_box_members_at_every_stage():
    for engine, stage, *_ in stages_of_fixed_payloads():
        oracles.check_slot_candidates(engine, stage)


def test_every_class_holding_a_pair_has_one_event_at_its_word_at_every_stage():
    for engine, stage, *_ in stages_of_fixed_payloads():
        oracles.check_class_events(engine, stage)


def test_coherent_lengths_conflicts_and_audits_match_the_full_scans_on_fixed_payloads():
    for payload in fixed_payloads():
        latched = {}
        for engine, stage, before, _ in oracles.promotion_stages(payload):
            oracles.check_scans(engine, stage, before, latched)


def test_honest_enumerations_match_the_full_box_scan_at_every_stage():
    honest = 0
    for engine, stage, _, moves in stages_of_fixed_payloads():
        if moves is not None:
            oracles.check_honest_moves(engine, stage, moves)
            honest += bool(moves)
    assert honest >= 20  # stages that fed a box


def test_uniqueness_sweep_and_anchor_stage_match_their_scans_on_fixed_payloads():
    extracted = 0
    for payload in fixed_payloads():
        engine = build_promotion_engine(payload).run()
        if engine.extraction is not None:
            oracles.check_extraction(engine)
            extracted += engine.extraction.anchor_stage < engine.horizon
    assert extracted == 5


def test_two_conflicts_latched_at_one_stage_match_the_full_scans():
    oracles.check_promotion_run(two_conflict_payload())


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**30),
    index=st.integers(0, 4),  # honest, honest, random, random, scripted
    horizon=st.none() | st.integers(14, 40),
    top_level=st.none() | st.integers(2, 5),
)
def test_stage_matches_the_full_scans_at_every_stage(seed, index, horizon, top_level):
    payload = boxpromo_payload(random.Random(seed), index, horizon)
    if top_level is not None:
        payload["top_level"] = top_level
    oracles.check_promotion_run(payload)


def test_coherent_lengths_match_the_marker_scan_on_a_tall_layout():
    payload = dict(canned_scripted_payload(), top_level=10000, ground_truth="0" * 14)
    payload["oracle"] = {"policy": "honest"}
    engine = build_promotion_engine(payload)
    for stage in range(engine.overhead, engine.horizon):
        for level in range(engine.overhead, stage + 1):
            expected = oracles.scan_coherent_length(level, stage, engine.coherent.markers)
            assert engine.coherent.length(level, stage) == expected, (level, stage)
