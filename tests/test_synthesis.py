import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import observed_values, scan_readable_depth
from tracelab.acceptance import stepping_bound
from tracelab.approximations import WordApproximation, compose_rows, readable_depth
from tracelab.costs import CostTable, halving_exponent, marker_sequence
from tracelab.errors import InvariantViolation, ScenarioError
from tracelab.fuzz import synth_payload
from tracelab import scenarios
from tracelab.scenarios import build_synthesis_run, machine_format, run_synth
from tracelab.synthesis import (
    PartialStageMap,
    Requirement,
    SynthesisRun,
    audit_requirement,
    closed_form_bound,
)
from tracelab.words import flip

F = Fraction


def flat_requirement(horizon, delay=0, scale=F(1)):
    rows = tuple(
        tuple(scale if x < s else F(0) for x in range(horizon)) for s in range(horizon)
    )
    table = CostTable(rows, normalized=True, listed_form=True)
    return Requirement(table, PartialStageMap([(i, i, i + delay) for i in range(horizon)]))


def constant_block(horizon, word=None):
    word = word or "0" * horizon
    return WordApproximation(tuple(word for _ in range(horizon)))


def flipping_block(horizon, flips, width=None):
    width = width or horizon
    word = "0" * width
    rows = [word]
    for s in range(1, horizon):
        for stage, pos in flips:
            if stage == s:
                word = flip(word, pos)
        rows.append(word)
    return WordApproximation(tuple(rows))


# ---- stage maps ---------------------------------------------------------------


def test_stage_map_rejects_gaps_and_non_increase():
    with pytest.raises(ScenarioError):
        PartialStageMap([(0, 0, 0), (2, 5, 0)])
    with pytest.raises(ScenarioError):
        PartialStageMap([(0, 3, 0), (1, 3, 0)])
    with pytest.raises(ScenarioError):
        PartialStageMap([(0, 0, 5), (1, 1, 2)])


def test_stage_map_observation_delays():
    sm = PartialStageMap([(0, 0, 0), (1, 4, 9)])
    assert sm.observed(1, 8) is None
    assert sm.observed(1, 9) == 4
    assert observed_values(sm, 8) == [0]


@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=8),
    st.integers(0, 14),
    st.integers(-1, 14),
)
def test_least_observed_above_matches_a_scan(shape, stage, bound):
    entries, value, visible = [], -1, 0
    for arg, (step, delay) in enumerate(shape):
        value, visible = value + 1 + step, visible + delay
        entries.append((arg, value, visible))
    sm = PartialStageMap(entries)
    above = [v for v in observed_values(sm, stage) if v > bound]
    assert sm.least_observed_above(bound, stage) == (min(above) if above else None)
    assert observed_values(sm, stage) == [v for _, v, d in entries if d <= stage]


def test_requirement_validates_listed_form():
    table = CostTable(((F(1),),), normalized=True)
    with pytest.raises(ScenarioError):
        Requirement(table, PartialStageMap([(0, 0, 0)]))


# ---- hand-traced runs -----------------------------------------------------------


def test_constant_input_extends_the_speedup_every_stage():
    horizon = 12
    run = SynthesisRun(constant_block(horizon), 0, [], horizon)
    out = run.run()
    assert out.speedup == list(range(horizon - 1))
    assert out.halted_at is None
    assert out.measured == 0
    assert out.cost_table.rows[0] == out.cost_table.rows[-1]  # costs never moved


def test_flip_at_every_stage_halts_at_stage_three():
    horizon = 10
    rows = []
    word = "0" * horizon
    for s in range(horizon):
        rows.append(word if s % 2 == 0 else "1" + word[1:])
    run = SynthesisRun(WordApproximation(tuple(rows)), 0, [], horizon)
    out = run.run()
    # Stage 2 measures one unit change (within budget 2^0); stage 3 sees two.
    assert out.halted_at == 3
    assert out.measured == 2
    assert out.speedup == [0, 1]
    assert out.cost_table.rows[2] == out.cost_table.rows[-1]  # frozen afterwards


def test_divergent_origin_keeps_every_output_total():
    horizon = 8
    block = WordApproximation(
        tuple("0" * horizon for _ in range(horizon)), schedule={(0, 0): None}
    )
    out = SynthesisRun(block, 1, [flat_requirement(horizon)], horizon).run()
    assert out.speedup == [0]
    assert out.halted_at is None
    assert out.cost_table.horizon == horizon + 1
    assert out.cost_table.rows[0] == out.cost_table.rows[-1]
    assert out.bound(F(1, 2)) > 0
    assert out.cover.pairs == {}


def test_incremental_readable_depth_matches_reference():
    rng = random.Random(8)
    for _ in range(25):
        horizon = rng.randint(3, 12)
        schedule = {}
        for _ in range(rng.randint(0, 6)):
            s = rng.randrange(horizon)
            x = rng.randrange(horizon)
            schedule[(s, x)] = None if rng.random() < 0.3 else s + rng.randint(0, 6)
        block = WordApproximation(
            tuple("0" * horizon for _ in range(horizon)), schedule=schedule
        )
        for stage in range(1, horizon):
            assert readable_depth(block, stage) == scan_readable_depth(block, stage)


class PendingScanRun(SynthesisRun):
    """The stage loop by the reference definitions.  Charge booking re-walks
    each readable stage u <= bar at every stage and scans rows u - 1 and u up
    to the bar for their first difference.  The worry scan compares the
    bar's row with each anchor row at every position below the frontier and
    both widths."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.found: dict[int, int] = {}

    def _measure(self, bar):
        for u in range(1, bar + 1):
            if u in self.found:
                continue
            for x in range(min(bar + 1, self.appr.width)):
                if self.appr.rows[u][x] != self.appr.rows[u - 1][x]:
                    self.found[u] = x
                    if x < self.width:
                        self.measured += self.rows[u][x]
                    break
        return self.measured

    def _worried_pairs(self, stage, bar):
        frontier = self.frontier
        out = []
        row = self.rows[-1]
        for e, state in enumerate(self.states[:frontier]):
            if not state.checkpoints or state.activity > 1 or state.added_at[0] >= stage:
                continue
            t_e = len(state.checkpoints) - 1
            anchor_row = self.sped[state.checkpoints[-1]]
            bar_row = self.appr.rows[bar]
            share = F(1, 2 ** (e + 1))
            for z in range(min(frontier, self.width, self.appr.width)):
                if bar_row[z] != anchor_row[z] and row[z] < share * state.requirement.cost.value(t_e, z):
                    out.append((e, z))
        return out


@st.composite
def measured_runs(draw):
    """Run arguments: a flipping approximation with a random schedule, a run
    horizon and cost width that may be smaller or larger than the
    approximation's, a budget that some flip sets exceed, and at most one
    delayed requirement.  The bar never passes the approximation's width, so
    only a wide approximation lets it reach flips late enough to worry the
    requirement, whose worry doubles costs.  Some flips are undone a few
    stages later: transient changes."""
    appr_horizon = draw(st.integers(2, 40))
    appr_width = draw(st.sampled_from([appr_horizon, draw(st.integers(2, 12))]))
    stages, positions = st.integers(1, appr_horizon - 1), st.integers(0, appr_width - 1)
    cheap = st.integers(0, min(3, appr_width - 1))  # flips here cost most
    flips = draw(st.lists(st.tuples(stages, st.one_of(cheap, positions)), max_size=12))
    # A flip worries a flat requirement once the requirement has more
    # checkpoints than the flipped position, and costs little enough to be
    # doubled at positions 2 and up.
    delay = draw(st.integers(0, 20))
    late = st.integers(min(delay + 8, appr_horizon - 1), appr_horizon - 1)
    worrying = st.integers(min(2, appr_width - 1), min(6, appr_width - 1))
    undone = draw(st.lists(st.tuples(late, worrying, st.integers(1, 4)), max_size=2))
    flips += [(s, x) for s, x, _ in undone] + [(s + d, x) for s, x, d in undone if s + d < appr_horizon]
    cells = st.tuples(st.integers(0, appr_horizon - 1), positions)
    walls = draw(st.lists(st.tuples(cells, st.integers(0, 12)), max_size=3))
    schedule = {(u, x): u + d for (u, x), d in walls}
    if draw(st.integers(0, 5)) == 0:
        schedule[draw(cells)] = None  # a never-readable cell freezes the bar
    block = WordApproximation(flipping_block(appr_horizon, flips, appr_width).rows, schedule)
    horizon = max(2, appr_horizon + draw(st.integers(-4, 4)))
    width = draw(st.sampled_from([None, appr_width, max(1, appr_width - 3), appr_width + 3]))
    requirements = [flat_requirement(horizon, delay=delay)] * draw(st.sampled_from([0, 1, 1]))
    return block, draw(st.integers(0, 2)), requirements, horizon, width


def alternating_block(horizon):
    rest = "0" * (horizon - 1)
    return WordApproximation(tuple(("1" if s % 2 else "0") + rest for s in range(horizon)))


@settings(max_examples=400, deadline=None)
@given(measured_runs())
@example((alternating_block(10), 0, [], 10, None))  # halts at stage 3
@example((alternating_block(12), 2, [], 12, 1))
@example((flipping_block(60, [(36, 3)]), 0, [flat_requirement(60, delay=20)], 60, None))  # doubles
@example((flipping_block(60, [(36, 3)]), 0, [flat_requirement(60, delay=20)], 60, 3))
# The stage-37 change is charged at stage 37's cost, before that stage's doubling.
@example((flipping_block(60, [(36, 3), (37, 4)]), 0, [flat_requirement(60, delay=20)], 60, None))
@example((flipping_block(70, [(40, 1), (43, 1)]), 0, [flat_requirement(70, 18, F(1, 2))], 70, 80))
# Two positions worried at stage 37, one of them undone at stage 38.
@example((flipping_block(60, [(30, 4), (36, 3), (38, 3), (44, 5)]), 2, [flat_requirement(60, 12)], 60, None))
# Position 4 undone while position 5 is still worried.
@example((flipping_block(60, [(30, 4), (31, 5), (34, 4), (44, 5)]), 2, [flat_requirement(60, 12)], 60, None))
def test_measure_matches_the_pending_scan_at_every_stage(args):
    block, budget_exp, requirements, horizon, width = args
    fast = SynthesisRun(block, budget_exp, requirements, horizon, width)
    slow = PendingScanRun(block, budget_exp, requirements, horizon, width)
    for stage in range(1, horizon):
        if fast.halted_at is not None:
            break
        fast._stage(stage)
        slow._stage(stage)
        assert fast.measured == slow.measured
        assert fast.halted_at == slow.halted_at
        assert fast.worried_log == slow.worried_log
        assert fast.doubling_stages == slow.doubling_stages
        assert fast.rows == slow.rows
        assert fast.sped == compose_rows(block, fast.speedup)
    assert fast.halted_at == slow.halted_at


def test_worry_doubles_the_cost_until_the_share_is_met():
    horizon = 60
    flip_stage, flip_pos = 36, 3
    block = flipping_block(horizon, [(flip_stage, flip_pos)])
    requirement = flat_requirement(horizon, delay=20)
    run = SynthesisRun(block, 0, [requirement], horizon)
    out = run.run()
    assert out.worried_log, "the delayed checkpoint window should trigger worry"
    stages = [s for s, e, z in out.worried_log]
    positions = {z for s, e, z in out.worried_log}
    assert positions == {flip_pos}
    assert min(stages) > flip_stage
    # Doubling discipline: each cost bump doubles the least worried position
    # and lifts lower positions to that value, never past 1.  A second run,
    # stepped as run() steps it, gives the frontier each stage starts from.
    stepped = SynthesisRun(block, 0, [requirement], horizon)
    frontier_at = {}
    for stage in range(1, horizon):
        if stepped.halted_at is not None:
            break
        frontier_at[stage] = stepped.frontier
        stepped._stage(stage)
    table = out.cost_table
    for stage, target in out.doubling_stages:
        frontier_then = frontier_at[stage]
        before, after = table.rows[stage], table.rows[stage + 1]
        assert after[target] == 2 * before[target]
        for y, (old, new) in enumerate(zip(before, after)):
            expected = max(old, 2 * before[target]) if y < frontier_then else old
            assert new == expected
            assert new <= 1
    # Worry dies once the cost reaches the requirement's share of its price.
    final = table.rows[-1]
    share = F(1, 2)
    assert final[flip_pos] >= share * 1 or out.halted_at is not None


def test_a_doubling_past_one_is_an_invariant_violation():
    # A worried entry lies below its share of a normalized cost, at most 1/2,
    # so its double stays within 1.  With the cost scaled to 4 after the
    # requirement's checks, the entry 3/4 at the flipped position is worried
    # and doubles to 3/2.
    horizon = 60
    block = flipping_block(horizon, [(36, 3)])
    requirement = flat_requirement(horizon, delay=20)
    first = SynthesisRun(block, 0, [requirement], horizon).run().worried_log[0][0]
    run = SynthesisRun(block, 0, [requirement], horizon)
    for stage in range(1, first):
        run._stage(stage)
    requirement.cost = CostTable([[4 * v for v in row] for row in requirement.cost.rows], listed_form=True)
    run.rows[-1] = run.rows[-1][:3] + (F(3, 4),) + run.rows[-1][4:]
    with pytest.raises(InvariantViolation, match=rf"^cost doubling escaped the unit bound at stage {first}$"):
        run._stage(first)


class AtOrAboveStageMap(PartialStageMap):
    """A stage map whose `least_observed_above` is off by one: it answers the
    least observed value at or above its bound."""

    def least_observed_above(self, bound, stage):
        visible = bisect_right(self.visible_at, stage)
        k = bisect_left(self.values, bound, 0, visible)
        return self.values[k] if k < visible else None


def test_a_checkpoint_at_its_predecessor_is_an_invariant_violation():
    # A stage map's answer lies above the bound it is asked for, which is at
    # least the last checkpoint, whatever its values.  An off-by-one map
    # answers the last checkpoint itself once the sped-up rows agree.
    horizon = 20
    requirement = flat_requirement(horizon)
    requirement.stage_map = AtOrAboveStageMap([(i, i, i) for i in range(horizon)])
    run = SynthesisRun(constant_block(horizon), 0, [requirement], horizon)
    with pytest.raises(InvariantViolation, match="^checkpoint left the observed-range/speed-up-domain corridor$"):
        run.run()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.builds(lambda k: F(2) ** -k, st.integers(-3, 70)),  # powers of two, 8 down to 2^-70
        st.builds(lambda n, k: F(n, 2**k), st.integers(1, 10**4), st.integers(0, 60)),  # dyadic
        st.builds(F, st.integers(1, 10**9), st.integers(1, 10**9)),  # any, above 2 included
    ),
    st.integers(0, 3),
)
@example(F(2), 0)  # eps/2 is 2^0 exactly
@example(F(5, 2), 1)
@example(F(1, 3), 0)
@example(F(1, 10**30), 2)
def test_closed_form_bound_matches_the_stepping_loop(eps, budget_exp):
    assert closed_form_bound(budget_exp)(eps) == stepping_bound(budget_exp, eps)


def test_closed_form_bound_refuses_a_nonpositive_threshold():
    for eps in (0, F(-1, 2)):
        with pytest.raises(ScenarioError, match="^threshold must be positive$"):
            closed_form_bound(0)(eps)


def test_checkpoints_stall_while_a_change_sits_inside_every_window():
    horizon = 60
    flip_stage, flip_pos = 20, 0
    block = flipping_block(horizon, [(flip_stage, flip_pos)])
    requirement = flat_requirement(horizon, delay=10, scale=F(1, 2))
    out = SynthesisRun(block, 0, [requirement], horizon).run()
    values = out.states[0].checkpoints
    stages = out.states[0].added_at
    assert values, "the map starts once its first entry is observed"
    # A window that straddles the change must end on the settled side.
    final = block.rows[-1][flip_pos]
    for a, b in zip(values, values[1:]):
        if out.speedup[a] < flip_stage <= out.speedup[b]:
            assert block.rows[out.speedup[b]][flip_pos] == final
    # The extension clock stalls while the change blocks every candidate
    # window, then resumes: a temporal gap well above the usual cadence.
    waits = [b - a for a, b in zip(stages, stages[1:])]
    assert max(waits) > 3
    assert len(values) - 1 >= 5


def test_checkpoints_stay_inside_observed_range_and_dom_speedup():
    rng = random.Random(3)
    for i in range(6):
        payload = synth_payload(rng, i, horizon=70, slow_maps=bool(i % 2))
        run = build_synthesis_run(payload)
        out = run.run()
        for state in out.states:
            req, values = state.requirement, state.checkpoints
            observed = set(observed_values(req.stage_map, run.horizon))
            for a, b in zip(values, values[1:]):
                assert a < b
            for v in values:
                assert v in observed
                assert v <= len(out.speedup) - 1
            for t, v in enumerate(values):
                assert v >= req.stage_map.values[t]  # r(x) >= h(x)


# ---- the audit ------------------------------------------------------------------


def test_audit_empty_cover_has_no_charges():
    horizon = 20
    out = SynthesisRun(constant_block(horizon), 0, [flat_requirement(horizon)], horizon).run()
    audit = audit_requirement(out, 0)
    assert audit.charges == []
    assert audit.total == 0


def test_audit_classifies_a_persistent_change_as_case_one():
    horizon = 40
    block = flipping_block(horizon, [(9, 1)])
    out = SynthesisRun(block, 0, [flat_requirement(horizon)], horizon).run()
    audit = audit_requirement(out, 0)
    cases = [c.case for c in audit.charges]
    assert cases.count(1) == 1 and cases.count(2) == 0
    assert audit.persistent_total <= 1
    assert audit.charges[0].position == 1


def test_audit_classifies_an_erased_change_as_case_two():
    horizon = 70
    # The flip pair sits inside one wide checkpoint window: the change is
    # recorded by the cover and then undone before the window closes.
    block = flipping_block(horizon, [(40, 1), (43, 1)])
    requirement = flat_requirement(horizon, delay=18, scale=F(1, 2))
    out = SynthesisRun(block, 0, [requirement], horizon).run()
    audit = audit_requirement(out, 0)
    assert any(c.case == 2 for c in audit.charges)
    assert audit.transient_total <= F(2**out.budget_exp) / F(1, 2)
    assert audit.total <= 1 + F(2 ** (out.budget_exp + 0 + 1))


def test_audit_requires_bounded_activity():
    horizon = 40
    block = flipping_block(horizon, [(5, 0), (9, 0), (13, 0)])
    out = SynthesisRun(block, 2, [flat_requirement(horizon)], horizon).run()
    if out.states[0].activity > 1:
        with pytest.raises(ScenarioError):
            audit_requirement(out, 0)
    else:
        audit_requirement(out, 0)


# ---- scenario-level wrapper -------------------------------------------------------


def test_run_synth_reports_benignity_against_the_closed_form():
    rng = random.Random(1)
    payload = synth_payload(rng, 0, horizon=50)
    report = run_synth(payload)
    for entry in report["benign"].values():
        assert entry["ok"]
    assert report["cost_table_shape"] == [51, 50]


def test_run_synth_skips_the_final_accounting_above_unit_activity():
    # Flat costs and flips from position 2 on drive the one requirement's
    # activity above 1, where the final accounting has no bound to hold.
    payload = synth_payload(
        random.Random(3), 0, horizon=40, min_flip_position=2, max_flips=3, requirement_flavor="flat"
    )
    assert [state.activity > 1 for state in build_synthesis_run(payload).run().states] == [True]
    assert run_synth(payload)["audits"] == [{"requirement": 0, "skipped": "activity sum above 1"}]


def test_run_synth_always_runs_the_final_accounting():
    payload = synth_payload(random.Random(1), 0, horizon=50)
    report = run_synth(dict(payload, audit=False))  # no key turns the audits off
    assert report["audits"] and all("charges" in audit for audit in report["audits"])
    assert machine_format(report) == machine_format(run_synth(payload))


def test_a_huge_budget_without_thresholds_compares_exponents_only():
    # With no `eps` no bound is built; the halting check and the audit's
    # transient ceiling compare exponents, never building 2^budget_exp.
    payload = dict(synth_payload(random.Random(1), 0, horizon=30), eps=[])
    huge = run_synth(dict(payload, budget_exp=10**12))
    modest = run_synth(dict(payload, budget_exp=64))
    assert huge["parameters"].pop("budget_exp") == 10**12
    del modest["parameters"]["budget_exp"]
    assert huge == modest and huge["halted_at"] is None
    assert all("charges" in audit for audit in huge["audits"])
    # The comparison the halting check makes: measured > 2^budget_exp.
    for measured in (F(0), F(1, 3), F(1), F(2), F(3), F(4), F(9, 2)):
        for budget_exp in range(4):
            halts = bool(measured) and budget_exp < halving_exponent(1 / measured)
            assert halts == (measured > 2**budget_exp)


def test_run_returns_itself_and_runs_can_share_requirements(monkeypatch):
    """The run carries its outputs, and each run keeps its ledgers off the
    `Requirement`s, so two runs over the same requirement objects report
    byte for byte what a run over fresh ones does."""
    rng = random.Random(4)
    for index in range(4):  # the fourth payload worries and charges both requirements
        payload = synth_payload(rng, index, horizon=60, slow_maps=True, min_flip_position=2)
    first = build_synthesis_run(payload)
    assert first.run() is first
    assert len(first.states) == 2 and first.worried_log and first.cover.pairs
    assert all(state.activity > 0 for state in first.states)
    fresh = machine_format(run_synth(payload))
    shared = [state.requirement for state in first.states]
    runs = []

    def rebuild(_payload):
        runs.append(SynthesisRun(first.appr, first.budget_exp, shared, first.horizon, first.width))
        return runs[-1]

    monkeypatch.setattr(scenarios, "build_synthesis_run", rebuild)
    assert machine_format(run_synth(payload)) == machine_format(run_synth(payload)) == fresh
    assert runs[0].states == runs[1].states == first.states
    assert runs[0].speedup == runs[1].speedup == first.speedup


def test_emitted_cost_table_is_monotone_and_bounded():
    rng = random.Random(2)
    payload = synth_payload(rng, 1, horizon=50, slow_maps=True, min_flip_position=2)
    run = build_synthesis_run(payload)
    out = run.run()
    table = out.cost_table  # CostTable construction re-validates monotonicity
    assert all(v <= 1 for row in table.rows for v in row)
    seq = marker_sequence(table, F(1, 4))
    assert seq.count <= out.bound(F(1, 4))


def test_worried_log_entries_satisfy_both_conditions():
    horizon = 60
    flip_stage, flip_pos = 36, 3
    block = flipping_block(horizon, [(flip_stage, flip_pos)])
    requirement = flat_requirement(horizon, delay=20)
    out = SynthesisRun(block, 0, [requirement], horizon).run()
    assert out.worried_log
    for stage, e, z in out.worried_log:
        depth = readable_depth(block, stage)
        state = out.states[e]
        values = [v for v, at in zip(state.checkpoints, state.added_at) if at <= stage]
        anchor_row = block.rows[out.speedup[values[-1]]]
        assert block.rows[depth][z] != anchor_row[z]
        t_e = len(values) - 1
        share = F(1, 2 ** (e + 1))
        assert out.cost_table.rows[stage][z] < share * state.requirement.cost.value(t_e, z)
