import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from oracles import covers, materialize, recursive_member
from tracelab.acceptance import capacity_sweep
from tracelab.errors import HorizonExhausted, InvariantViolation, ScenarioError
from tracelab.tracer import (
    BoxLayout,
    Environment,
    Functional,
    HonestPolicy,
    RandomPolicy,
    ScriptedPolicy,
    box_name,
    oracle_step,
    parse_box_spec,
    resolve_box,
)
from tracelab.words import comparable


def small_layout(overhead=1, top=3):
    return BoxLayout(overhead, {n: 3 for n in range(1, top + 1)}, top)


# ---- layout ---------------------------------------------------------------------


def test_cube_box_is_deterministic_and_injective():
    layout = small_layout()
    a = layout.cube_box(2, {1: (1,)})
    b = layout.cube_box(2, [(1, (1,))])
    assert (a.pattern, a.name) == (b.pattern, b.name)
    c = layout.cube_box(2, {1: (2,)})
    assert a.pattern != c.pattern and a.name != c.name


def test_layout_checks_its_levels_and_holds_their_capacities():
    for overhead, top in ((0, 3), (2, 1), (1, -1)):
        with pytest.raises(ScenarioError):
            BoxLayout.check_levels(overhead, top)
        with pytest.raises(ScenarioError):
            BoxLayout(overhead, {n: 3 for n in range(1, 4)}, top)
    with pytest.raises(ScenarioError):
        BoxLayout(1, {1: 3, 2: 0}, 2)
    BoxLayout(2, {2: 1, 3: 1}, 3)  # the held levels start at the overhead
    layout = small_layout(overhead=2)
    assert [layout.lengths_capacity(n) for n in (2, 3)] == [5, 6]
    assert [layout.trace_capacity(n) for n in (2, 3)] == [2, 3]


def test_cube_box_rejects_oversized_coordinate_values():
    layout = small_layout()
    with pytest.raises(ScenarioError):
        layout.cube_box(2, {1: (1, 2, 3)})
    with pytest.raises(ScenarioError):
        layout.cube_box(2, {1: (3,)})  # index above the level


# ---- the functional ---------------------------------------------------------------


def materialized_antichain_holds(functional):
    tested = materialize(functional)
    for i, a in enumerate(tested):  # no two tested strings are comparable
        assert not any(comparable(a, b) for b in tested[i + 1 :])
    return tested


def test_event_membership_matches_materialization():
    rng = random.Random(0)
    for trial in range(30):
        functional = Functional()
        base = ""
        for depth in sorted(rng.sample(range(1, 8), rng.randint(1, 3))):
            base = "".join(rng.choice("01") for _ in range(rng.randint(0, depth)))
            functional.add_event(base, depth, depth)
        tested = materialized_antichain_holds(functional)
        for length in range(8):
            for tail in range(2**length):
                word = bin(tail)[2:].zfill(length) if length else ""
                assert functional.member(word) == (word in tested)


def test_tested_set_covers_the_tested_string():
    functional = Functional()
    functional.add_event("01", 4, 4)
    for tail in range(4):
        assert covers(functional, "01" + bin(tail)[2:].zfill(2))
    functional.add_event("0", 5, 5)
    tested = materialized_antichain_holds(functional)
    # Everything below "01" at depth 5 is reachable through one tested string.
    for tail in range(16):
        assert covers(functional, "0" + bin(tail)[2:].zfill(4))


def test_single_valuedness_via_antichain_on_random_event_histories():
    rng = random.Random(4)
    for trial in range(40):
        functional = Functional()
        for depth in sorted(rng.sample(range(1, 9), rng.randint(1, 4))):
            base = "".join(rng.choice("01") for _ in range(rng.randint(0, depth)))
            functional.add_event(base, depth, depth)
        materialized_antichain_holds(functional)


def words_up_to(length):
    return ["".join(bits) for n in range(length + 1) for bits in product("01", repeat=n)]


def honest_reference(functional, truth):
    """(stage, value) of the event after which a prefix of `truth` is first
    tested, by the recursive definition; None when none ever is."""
    for k, ev in enumerate(functional.events, start=1):
        hits = [
            cut for cut in range(len(truth) + 1)
            if recursive_member(functional, truth[:cut], k)
        ]
        if hits:
            return ev.stage, truth[: hits[0]]
    return None


# Events in any depth order: a later, shallower event can test a prefix of an
# earlier member, so tested sets here need not be antichains.
event_histories = st.lists(
    st.integers(0, 5).flatmap(
        lambda depth: st.tuples(st.text("01", max_size=depth), st.just(depth))
    ),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(event_histories, st.text("01", max_size=6))
def test_first_hit_rule_matches_the_recursive_definition(history, truth):
    layout = small_layout()
    env = Environment(layout, ground_truth=truth)
    box = layout.cube_box(2, {1: (1,)})
    functional = box.functional
    for stage, (base, depth) in enumerate(history, start=1):
        functional.add_event(base, depth, stage)
    tested = set(materialize(functional))
    for word in words_up_to(6):
        member = word in tested
        assert functional.member(word) == member
        assert recursive_member(functional, word) == member
        prefixes = [word[:cut] for cut in range(len(word) + 1)]
        assert covers(functional, word) == any(p in tested for p in prefixes)
    assert env.honest_value(box) == honest_reference(functional, truth)


def test_a_shallow_event_after_a_deep_one_tests_a_prefix_of_a_member():
    layout = small_layout()
    env = Environment(layout, ground_truth="0010")
    box = layout.cube_box(2, {1: (1,)})
    functional = box.functional
    functional.add_event("00", 2, 3)
    functional.add_event("", 1, 5)
    assert materialize(functional) == ["0", "00", "1"]
    for word in words_up_to(3):
        assert functional.member(word) == (word in ("0", "00", "1"))
        assert functional.member(word) == recursive_member(functional, word)
    assert not covers(functional, "")
    assert covers(functional, "01") and covers(functional, "000")
    assert env.honest_value(box) == (3, "00")  # the first event reaches the truth
    env.ground_truth = "0110"
    assert env.honest_value(box) == (5, "0")


# ---- environment and capacity -------------------------------------------------------


def test_enumerate_value_respects_capacity():
    layout = small_layout()
    env = Environment(layout)
    box = env.add_initial_test(2, 1, 2, 1)
    assert env.enumerate_value(box, "00", 1) is not None
    assert env.enumerate_value(box, "01", 1) is not None
    with pytest.raises(InvariantViolation):
        env.enumerate_value(box, "10", 1)
    assert env.enumerate_value(box, "10", 1, clamp=True) is None
    assert box.content == [("00", 1, True), ("01", 1, True)]


def test_enumerate_value_deduplicates():
    layout = small_layout()
    env = Environment(layout)
    box = env.add_initial_test(2, 1, 2, 1)
    assert env.enumerate_value(box, "00", 1) is not None
    assert env.enumerate_value(box, "00", 2) is None
    assert box.content == [("00", 1, True)]


def test_activation_spawns_every_containing_class_and_inherits_content():
    layout = small_layout()
    env = Environment(layout)
    env.ensure_level(2)
    spawned = env.activate_pair(2, 1, 1, "00", 3)
    assert [cls.pattern for cls in spawned] == [((1, (1,)),)]
    env.enumerate_value(spawned[0], "000", 4)
    second = env.activate_pair(2, 1, 2, "01", 5)
    patterns = sorted(cls.pattern for cls in second)
    assert patterns == [((1, (1, 2)),), ((1, (2,)),)]
    merged = next(cls for cls in second if cls.pattern == ((1, (1, 2)),))
    assert merged.content == [("000", 4, True)]  # inherited from the parent


def test_a_spawned_class_never_inherits_more_than_the_capacity():
    layout = small_layout()  # trace capacity 2 at level 2
    env = Environment(layout)
    env.ensure_level(2)
    root = env.classes[2][()]
    root.content.extend([("0", 1, False), ("1", 1, False)])
    (child,) = env.activate_pair(2, 1, 1, "00", 3)
    assert child.content == root.content and child.content is not root.content
    root.content.append(("00", 2, False))  # forced past capacity behind the writers' back
    message = r"^trace capacity 2 exceeded on box M2\.1:2 at stage 4: 3 values inherited from M2\.root$"
    with pytest.raises(InvariantViolation, match=message):
        env.activate_pair(2, 1, 2, "01", 4)


def test_a_spawned_class_decides_inherited_membership_against_its_own_events():
    layout = small_layout()
    env = Environment(layout)
    env.ensure_level(2)
    root = env.classes[2][()]
    record = env.enumerate_value(root, "001", 2)
    assert not record.member and root.content == [("001", 2, False)]
    (child,) = env.activate_pair(2, 1, 1, "00", 3)  # tests 001 on the child
    assert child.content == [("001", 2, True)]
    assert root.content == [("001", 2, False)]
    assert child.witnesses("00") and child.witnesses("0010")
    assert not child.witnesses("01") and not root.witnesses("00")


def test_values_that_reach_an_initial_box_early_become_members_at_its_test():
    layout = small_layout()
    env = Environment(layout)
    box = env.initial_box(2, 1)
    records = [env.enumerate_value(box, value, 1) for value in ("00", "0")]
    assert [r.member for r in records] == [False, False]
    assert not box.witnesses("00")
    assert env.add_initial_test(2, 1, 2, 2) is box
    assert box.content == [("00", 1, True), ("0", 1, False)]
    assert box.witnesses("0") and not box.witnesses("1")


def test_one_object_per_box():
    layout = small_layout()
    env = Environment(layout)
    tested = env.add_initial_test(2, 1, 2, 1)
    assert resolve_box(env, ("I", 2, 1)) is env.initial_box(2, 1) is tested
    assert env.initial_boxes[(2, 1)] is tested
    untested = resolve_box(env, ("I", 3, 2))
    assert env.initial_box(3, 2) is untested and not untested.functional.events
    env.activate_pair(3, 1, 1, "0", 2)
    env.activate_pair(3, 1, 2, "1", 2)
    assert resolve_box(env, ("M", 3, ())) is env.classes[3][()]
    pair = resolve_box(env, ("M", 3, ((1, (1, 2)),)))
    assert pair is env.classes[3][((1, (1, 2)),)]
    assert {box.name for box in env.classes[3].values()} == {"M3.root", "M3.1:1", "M3.1:2", "M3.1:1+2"}


def test_activation_rejects_duplicate_pairs():
    layout = small_layout()
    env = Environment(layout)
    env.ensure_level(2)
    env.activate_pair(2, 1, 1, "00", 3)
    with pytest.raises(InvariantViolation, match=r"^pair \(2, 1, 1\) activated twice$"):
        env.activate_pair(2, 1, 1, "00", 4)


def test_an_initial_box_tested_twice_is_an_invariant_violation():
    env = Environment(small_layout())
    env.add_initial_test(2, 1, 2, 1)
    with pytest.raises(InvariantViolation, match=r"^initial box I2\.1 tested twice$"):
        env.add_initial_test(2, 1, 3, 2)


def test_a_class_spawned_twice_is_an_invariant_violation():
    # The child the first pair spawns from the root is already in the family.
    env = Environment(small_layout())
    env.ensure_level(2)
    pattern = ((1, (1,)),)
    env.classes[2][pattern] = env.layout.cube_box(2, pattern)
    with pytest.raises(InvariantViolation, match=r"^class \(\(1, \(1,\)\),\) spawned twice$"):
        env.activate_pair(2, 1, 1, "00", 3)


def test_a_class_family_past_its_cap_exhausts_the_horizon():
    # The root and M2.1:1 fill a cap of 2, so the second pair spawns none.
    env = Environment(small_layout(), family_cap=2)
    env.ensure_level(2)
    env.activate_pair(2, 1, 1, "00", 3)
    with pytest.raises(HorizonExhausted, match=r"^class family at level 2 exceeded the cap 2$"):
        env.activate_pair(2, 1, 2, "01", 4)
    assert len(env.classes[2]) == 2


def test_a_witness_enumerated_into_a_class_empties_its_pairs_ledger_entries():
    env = Environment(small_layout())  # trace capacity 2 at level 2
    env.ensure_level(2)
    (first,) = env.activate_pair(2, 1, 1, "0", 2)
    second, both = env.activate_pair(2, 2, 1, "01", 3)
    assert both.pattern == ((1, (1,)), (2, (1,)))
    assert list(env.lacking[2, 1, 1]) == [first, both]
    assert list(env.lacking[2, 2, 1]) == [second, both]
    assert env.enumerate_value(first, "00", 4).emptied == []
    assert env.enumerate_value(second, "010", 4).emptied == []
    assert list(env.lacking[2, 1, 1]) == list(env.lacking[2, 2, 1]) == [both]
    record = env.enumerate_value(both, "011", 5)  # tested at 01 by the event at 0: no member
    assert not record.member and record.emptied == []
    record = env.enumerate_value(both, "01", 5)  # a member comparable to both words
    assert record.member and record.emptied == [(2, 1, 1), (2, 2, 1)]
    assert env.lacking == {(2, 1, 1): {}, (2, 2, 1): {}}


# ---- oracle policies -----------------------------------------------------------------


def test_honest_policy_traces_the_ground_truth_immediately_at_delay_zero():
    layout = small_layout()
    env = Environment(layout, ground_truth="0110110")
    env.add_initial_test(2, 1, 3, 2)
    records = oracle_step(env, HonestPolicy(delay=0), 2)
    assert [(str(r.box), r.value) for r in records] == [("I2.1", "011")]
    assert records[0].member


def test_honest_policy_waits_for_its_delay():
    layout = small_layout()
    env = Environment(layout, ground_truth="0110110")
    env.add_initial_test(2, 1, 3, 2)
    assert oracle_step(env, HonestPolicy(delay=2), 3) == []
    records = oracle_step(env, HonestPolicy(delay=2), 4)
    assert [r.value for r in records] == ["011"]


def test_honest_policy_feeds_cube_classes_from_their_event_stage():
    layout = small_layout()
    env = Environment(layout, ground_truth="0110110")
    env.add_initial_test(2, 1, 2, 1)
    env.activate_pair(2, 1, 1, "01", 3)
    records = oracle_step(env, HonestPolicy(delay=1), 4)
    by_box = {str(r.box): r.value for r in records}
    assert by_box["I2.1"] == "01"
    assert by_box["M2.1:1"] == "011"  # truth restricted to the event depth (stage 3)


def honest_steps(env, policy, stages, spawns) -> dict:
    """Step `policy` at each of `stages`, activating the pairs `spawns[stage]`
    after that stage's step; (box name, value) written per stage."""
    written = {}
    for stage in stages:
        written[stage] = [(r.box.name, r.value) for r in oracle_step(env, policy, stage)]
        for level, slot, index, sigma in spawns.get(stage, ()):
            env.activate_pair(level, slot, index, sigma, stage)
    return written


def test_a_class_spawned_after_its_inherited_events_due_stage_is_fed_at_the_next_oracle_step():
    # M2.1:1 tests the extensions of 01 at stage 3, and M2.1:1+2, spawned
    # from it at stage 4, inherits that event.  At delay 2 both are fed at 5.
    env = Environment(small_layout(), ground_truth="0110110")
    env.add_initial_test(2, 1, 2, 1)
    spawns = {3: [(2, 1, 1, "01")], 4: [(2, 1, 2, "00")]}
    written = honest_steps(env, HonestPolicy(delay=2), range(1, 6), spawns)
    assert written == {1: [], 2: [], 3: [("I2.1", "01")], 4: [], 5: [("M2.1:1", "011"), ("M2.1:1+2", "011")]}
    # Classes that fell due at a stage the oracle skipped (here 5 and 6) are
    # fed at its next step, whether it filed them before or sees them first.
    for stages in ([3, 4, 7], [3, 7]):
        env = Environment(small_layout(), ground_truth="0110110")
        spawns = {3: [(2, 1, 1, "01"), (2, 1, 2, "00")]}
        written = honest_steps(env, HonestPolicy(delay=2), stages, spawns)
        assert written[7] == [("M2.1:1", "011"), ("M2.1:1+2", "011")]


def test_a_child_that_inherited_its_due_value_is_never_moved():
    # M2.1:1 is fed 011 at stage 4; the classes spawned from it at stage 5
    # inherit both its event at stage 3 and its content, so no step feeds them.
    env = Environment(small_layout(), ground_truth="0110110")
    spawns = {3: [(2, 1, 1, "01")], 5: [(2, 1, 2, "00"), (2, 2, 1, "011")]}
    written = honest_steps(env, HonestPolicy(delay=1), range(3, 10), spawns)
    inheriting = {"M2.1:1+2", "M2.1:1.2:1", "M2.1:1+2.2:1"}
    assert inheriting <= {box.name for box in env.boxes()}
    for box in env.boxes():
        if box.name in inheriting:
            assert env.honest_value(box) == (3, "011") and box.content == [("011", 4, True)]
    assert written[4] == [("M2.1:1", "011")]
    assert not inheriting & {name for moves in written.values() for name, _ in moves}
    assert ("M2.2:1", "01101") in written[6]  # a class due at its own spawn is fed


def test_scripted_policy_validates_capacity_at_load():
    layout = small_layout()
    entries = [(1, "I2.1", "00"), (2, "I2.1", "01"), (3, "I2.1", "10")]
    with pytest.raises(ScenarioError):
        ScriptedPolicy(entries, layout)
    entries[2] = (3, "I2.01", "10")  # another spelling of the same box
    with pytest.raises(ScenarioError, match="script enumerates 3 values into I2.1, capacity is 2"):
        ScriptedPolicy(entries, layout)


def test_scripted_policy_replays_entries():
    layout = small_layout()
    env = Environment(layout)
    env.add_initial_test(2, 1, 2, 1)
    policy = ScriptedPolicy([(3, "I2.1", "00")], layout)
    assert oracle_step(env, policy, 2) == []
    records = oracle_step(env, policy, 3)
    assert [r.value for r in records] == ["00"]


def test_scripted_policy_rejects_inactive_class_targets():
    layout = small_layout()
    env = Environment(layout)
    policy = ScriptedPolicy([(2, "M2.1:1", "000")], layout)
    with pytest.raises(ScenarioError):
        oracle_step(env, policy, 2)


def test_box_spec_parsing():
    layout = small_layout()
    assert parse_box_spec("I2.1", layout) == ("I", 2, 1)
    assert parse_box_spec("M3.1:1+2.2:1", layout) == ("M", 3, ((1, (1, 2)), (2, (1,))))
    # Every spelling of a box reads to its one key, whose name is canonical.
    for spec in ("I2.1", "I02.1", "I2.01"):
        assert box_name(parse_box_spec(spec, layout)) == "I2.1"
    for spec in ("M3", "M3.root", "M03.root"):
        assert parse_box_spec(spec, layout) == ("M", 3, ())
    for spec in ("M3.1:2+1", "M3.01:1+02", "M3.1:1+2+1"):
        assert box_name(parse_box_spec(spec, layout)) == "M3.1:1+2"
    for spec, message in (
        ("Q1.1", "bad box spec 'Q1.1'"),
        ("I2", "bad initial-box spec 'I2'"),
        ("I2.9", "slot 9 outside the initial interval of level 2"),
        ("M2.1:x2", "bad cube-box spec 'M2.1:x2'"),
        ("M2.2:1.2:2", "bad cube-box spec 'M2.2:1.2:2'"),
        ("M2..1:1", "bad cube-box spec 'M2..1:1'"),
        ("M2.9:1", "coordinate 9 outside the cube directions of level 2"),
    ):
        with pytest.raises(ScenarioError) as caught:
            parse_box_spec(spec, layout)
        assert str(caught.value) == message
    env = Environment(layout)
    env.ensure_level(3)
    env.activate_pair(3, 1, 1, "0", 2)
    env.activate_pair(3, 1, 2, "1", 2)
    box = resolve_box(env, parse_box_spec("M3.1:1+2", layout))
    assert box.pattern == ((1, (1, 2)),)


def test_random_policy_respects_capacity_by_clamping():
    layout = small_layout()
    env = Environment(layout, ground_truth="01101100")
    env.add_initial_test(2, 1, 2, 1)
    policy = RandomPolicy(seed=9, activate_rate=1.0, feed_rate=1.0, junk_rate=1.0)
    for stage in range(2, 30):
        oracle_step(env, policy, stage)
    for box, size, cap in capacity_sweep(env):
        assert size <= cap


def test_random_policy_is_deterministic_per_seed():
    def run(seed):
        layout = small_layout()
        env = Environment(layout, ground_truth="01101100")
        env.add_initial_test(2, 1, 2, 1)
        policy = RandomPolicy(seed=seed)
        out = []
        for stage in range(2, 12):
            out.extend((str(r.box), r.value, stage) for r in oracle_step(env, policy, stage))
        return out

    assert run(5) == run(5)
    assert run(5) != run(6) or run(5) == []  # different seeds usually diverge


def test_first_test_on_a_fresh_box_is_the_string_itself():
    functional = Functional()
    functional.add_event("01", 2, 2)
    assert materialize(functional) == ["01"]


def test_testing_around_a_blocked_branch_adds_the_free_extensions():
    functional = Functional()
    functional.add_event("00", 2, 2)
    functional.add_event("0", 2, 2)
    assert materialize(functional) == ["00", "01"]


def test_retesting_a_covered_string_changes_nothing():
    functional = Functional()
    functional.add_event("00", 2, 2)
    functional.add_event("00", 3, 3)
    assert materialize(functional) == ["00"]
    assert covers(functional, "00")
