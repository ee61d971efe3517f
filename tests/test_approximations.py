import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import changeset_word, scan_readable_depth
from tracelab.acceptance import random_monotone_table, speedup_instance
from tracelab.approximations import (
    ChangeSet,
    WordApproximation,
    change_set,
    changeset_obedience,
    compose_rows,
    decode,
    obedience_speedup,
    pair_code,
    parse_word_approx,
    readable_depth,
    unpair,
)
from tracelab.costs import change_costs, dyadic_decay_row, obedience_sum, static_table
from tracelab.errors import HorizonExhausted, ScenarioError
from tracelab.words import flip, random_word

F = Fraction


def decay(horizon=8, width=8):
    return static_table(dyadic_decay_row(width), horizon, normalized=True)


# ---- pairing -------------------------------------------------------------------


def test_pairing_dominates_position_and_round_trips():
    for x in range(20):
        for n in range(20):
            code = pair_code(x, n)
            assert code >= x
            assert unpair(code) == (x, n)


# ---- readability ----------------------------------------------------------------


def test_readable_depth_instant():
    block = WordApproximation(tuple("01010" for _ in range(6)))
    assert readable_depth(block, 5) == 4


def test_readable_depth_with_delay():
    block = WordApproximation(tuple("01010" for _ in range(6)), schedule={(2, 0): 10})
    assert readable_depth(block, 5) == 1
    assert readable_depth(block, 11) == 4


def test_readable_depth_never_convergent_origin():
    block = WordApproximation(tuple("01010" for _ in range(6)), schedule={(0, 0): None})
    assert readable_depth(block, 5) == 0


@st.composite
def scheduled_blocks(draw):
    """Constant approximations with a random schedule: walls may be never
    (None) or lie past the horizon, and the width may differ from it."""
    horizon = draw(st.integers(1, 9))
    width = draw(st.integers(0, 9))
    cells = st.tuples(st.integers(0, horizon - 1), st.integers(0, max(width - 1, 0)))
    delays = st.one_of(st.none(), st.integers(0, 3), st.integers(0, 15))
    schedule = {}
    if width:
        for (s, x), delay in draw(st.lists(st.tuples(cells, delays), max_size=8)):
            schedule[(s, x)] = None if delay is None else s + delay
    return WordApproximation(tuple("0" * width for _ in range(horizon)), schedule)


@settings(max_examples=300, deadline=None)
@given(scheduled_blocks())
def test_readable_depth_matches_the_square_scan(block):
    for stage in range(1, block.horizon + 20):
        assert readable_depth(block, stage) == scan_readable_depth(block, stage)


# ---- change sets ----------------------------------------------------------------


def test_change_set_of_constant_approximation_is_empty():
    cs = change_set(("010", "010", "010"))
    assert cs.pairs == {}


def test_change_set_counts_flips():
    cs = change_set(("000", "100", "000", "100"))
    assert cs.pairs == {(0, 1): 1, (0, 2): 2, (0, 3): 3}


def test_speedup_erases_transients():
    block = WordApproximation(("000", "100", "000", "100"))
    cs = change_set(compose_rows(block, [0, 2]))
    assert cs.pairs == {}


def test_speedup_clips_beyond_horizon():
    block = WordApproximation(("000", "100", "000", "100"))
    cs = change_set(compose_rows(block, [0, 2, 9]))
    assert cs.pairs == {}


def test_speedup_must_increase():
    block = WordApproximation(("000", "100"))
    with pytest.raises(ScenarioError):
        change_set(compose_rows(block, [1, 1]))


def test_speedup_rejects_a_negative_stage():
    # Python would read a negative stage from the end of the rows.
    block = WordApproximation(("000", "100", "000", "100"))
    with pytest.raises(ScenarioError, match="negative stage -1"):
        change_set(compose_rows(block, [-1, 0]))


def test_decode_cases():
    assert decode(ChangeSet({}), "010") == "010"
    assert decode(ChangeSet({(0, 1): 1, (0, 2): 2, (0, 3): 3}), "000") == "100"
    assert decode(ChangeSet({(1, 1): 1, (1, 2): 2}), "000") == "000"


def naive_changeset_rows(cs: ChangeSet, stages: int, width: int) -> list[str]:
    """Independent materialization of the change-set enumeration as words."""
    return [changeset_word(cs, s, width) for s in range(stages)]


def all_tables(stages, width):
    for bits in product("01", repeat=stages * width):
        yield tuple(
            "".join(bits[i * width : (i + 1) * width]) for i in range(stages)
        )


def test_dominance_and_decode_exhaustive_tiny():
    table = decay(6, 40)
    for stages in (2, 3):
        for width in (1, 2):
            for rows in all_tables(stages, width):
                cs = change_set(rows)
                code_width = max(
                    (pair_code(x, n) + 1 for (x, n) in cs.pairs), default=1
                )
                materialized = naive_changeset_rows(cs, stages, code_width)
                assert changeset_obedience(table, cs) == obedience_sum(table, materialized)
                assert changeset_obedience(table, cs) <= obedience_sum(table, rows)
                assert decode(cs, rows[0]) == rows[-1]


def test_dominance_randomized():
    rng = random.Random(3)
    table = decay(12, 60)
    for _ in range(120):
        stages, width = rng.randint(2, 8), rng.randint(1, 6)
        rows = tuple(
            "".join(rng.choice("01") for _ in range(width)) for _ in range(stages)
        )
        cs = change_set(rows)
        assert changeset_obedience(table, cs) <= obedience_sum(table, rows)
        assert decode(cs, rows[0]) == rows[-1]


# ---- the obedience speed-up -------------------------------------------------------


def stabilizing_block(rng, horizon, width, flips):
    word = "".join(rng.choice("01") for _ in range(width))
    rows = [word]
    for s in range(1, horizon):
        for stage, position in flips:
            if stage == s:
                word = flip(word, position)
        rows.append(word)
    return WordApproximation(tuple(rows))


def test_speedup_trivial_constant_target():
    rng = random.Random(0)
    block = stabilizing_block(rng, 14, 10, [])
    table = decay(14, 10)
    result = obedience_speedup(table, table, block, block, steps=5)
    assert result.full_sum == 0
    assert result.tail_sum == 0
    assert len(result.speedup) == 4
    assert all(a < b for a, b in zip(result.speedup, result.speedup[1:]))


def delayed_decay(horizon, width, start):
    zero = tuple(F(0) for _ in range(width))
    live = dyadic_decay_row(width)
    rows = [zero] * start + [live] * (horizon - start)
    from tracelab.costs import CostTable

    return CostTable(tuple(rows), normalized=True)


def test_speedup_ledger_satisfies_all_three_conditions():
    rng = random.Random(1)
    for _ in range(10):
        flips = [(rng.randint(1, 4), rng.randint(2, 7)) for _ in range(2)]
        target = stabilizing_block(rng, 16, 9, flips)
        wobble = [(rng.randint(1, 3), rng.randint(3, 7))]
        witness_rows = list(stabilizing_block(rng, 16, 9, wobble).rows)
        witness_rows[8:] = [target.rows[-1]] * 8  # shared limit, different path
        witness = WordApproximation(tuple(witness_rows))
        cost = decay(16, 9)
        witness_cost = delayed_decay(16, 9, start=3)
        result = obedience_speedup(cost, witness_cost, target, witness)
        prev_stage, prev_pos = 1, 1
        for step in result.steps:
            assert step.stage > prev_stage and step.position > prev_pos
            assert cost.value(step.stage, step.position) < step.target
            assert (
                target.rows[step.stage][: step.position]
                == witness.rows[step.stage][: step.position]
            )
            for y in range(prev_pos):
                assert 2 * witness_cost.value(step.stage, y) >= cost.value(step.stage, y)
            prev_stage, prev_pos = step.stage, step.position
        witness_changes = obedience_sum(witness_cost, witness.rows)
        assert result.full_sum <= 1 + 2 * witness_changes


def test_speedup_reports_horizon_failure():
    rng = random.Random(2)
    # The witness cost is identically 0 while the target keeps a positive
    # cost on settled positions, so the domination condition never holds.
    zero = static_table([F(0)] * 8, 10)
    table = decay(10, 8)
    block = stabilizing_block(rng, 10, 8, [(2, 1)])
    with pytest.raises(HorizonExhausted):
        obedience_speedup(table, zero, block, block, steps=4)


def test_speedup_omits_initial_stages_to_fit_budget():
    rng = random.Random(5)
    flips = [(2, 2), (3, 3), (4, 4)]
    block = stabilizing_block(rng, 18, 10, flips)
    table = decay(18, 10)
    result = obedience_speedup(table, table, block, block, budget=F(1, 64))
    assert result.tail_sum <= F(1, 64)
    assert result.omitted + len(result.stage_costs) >= result.omitted


def test_change_costs_match_the_stage_scan():
    rng = random.Random(11)
    for _ in range(200):
        horizon, width = rng.randint(1, 8), rng.randint(1, 6)
        table = random_monotone_table(rng, horizon, width)
        words = [random_word(rng, rng.randint(1, 8)) for _ in range(rng.randint(1, 10))]
        stages = oracles.scan_obedience(table, words)
        assert change_costs(table, words) == stages
        assert obedience_sum(table, words) == sum(stages, F(0))
    rng = random.Random(9)  # criterion 6's instances
    for _ in range(100):
        cost, witness_cost, target, witness = speedup_instance(rng)
        for steps in (4, None):
            result = obedience_speedup(cost, witness_cost, target, witness, steps=steps)
            sped = [target.rows[h] for h in result.speedup]
            assert list(result.stage_costs) == oracles.scan_obedience(cost, sped)


# ---- formats ---------------------------------------------------------------------


def test_word_approx_round_trip_with_schedule():
    block = WordApproximation(
        ("0101", "0111", "0111"), schedule={(1, 2): 4, (2, 0): None}
    )
    again = parse_word_approx("3 4\n0101\n0111\n0111\n(1,2,4)\n(2,0,∞)\n")
    assert again.rows == block.rows
    assert again.schedule == block.schedule


def test_a_repeated_row_is_its_predecessor():
    # Rows equal to the row before them, blank lines between or not, share
    # that row's object; a changed row gets its own.
    block = parse_word_approx("4 3\n010\n010\n\n010\n011\n")
    assert block.rows == ("010", "010", "010", "011")
    assert block.rows[1] is block.rows[0] and block.rows[2] is block.rows[0]
    assert block.rows[3] is not block.rows[2]
    # A row after a shared one still gets the width check.
    with pytest.raises(ScenarioError, match="^row 2 has width 3, expected 2$"):
        WordApproximation(("00", "00", "000"))


def test_word_approx_parse_errors_carry_line_numbers():
    with pytest.raises(ScenarioError, match="line 1"):
        parse_word_approx("")
    with pytest.raises(ScenarioError, match="line 2"):
        parse_word_approx("1 3\n01\n")
    with pytest.raises(ScenarioError, match="line 3"):
        parse_word_approx("1 2\n01\n(0,0)\n")
    # Blank lines count: errors name the text line.
    with pytest.raises(ScenarioError, match="^line 3: expected header"):
        parse_word_approx("\n  \nS X\n")
    with pytest.raises(ScenarioError, match="^line 4: expected 2 bits, got '0a'$"):
        parse_word_approx("2 2\n01\n\n0a\n")
    with pytest.raises(ScenarioError, match=r"^line 5: expected three fields in '\(0,0\)'$"):
        parse_word_approx("1 2\n\n01\n\n(0,0)\n")
    # Schedule triples fail with their line, not a bare int() error.
    with pytest.raises(ScenarioError, match=r"^line 3: expected integer fields in '\(a,1,2\)'$"):
        parse_word_approx("1 2\n01\n(a,1,2)\n")
    with pytest.raises(ScenarioError, match=r"^line 4: expected integer fields in '\(0,0,x\)'$"):
        parse_word_approx("1 2\n01\n\n(0,0,x)\n")
    # A field is a decimal token after an optional '-', as elsewhere in the
    # text formats; `int` would read these two.
    for triple in ("(0,0,1_0)", "(+0,0,2)"):
        with pytest.raises(ScenarioError, match=f"^line 3: expected integer fields in '{re.escape(triple)}'$"):
            parse_word_approx(f"1 2\n01\n{triple}\n")
    with pytest.raises(ScenarioError, match=r"^line 3: schedule entry \(0,2\) outside the table$"):
        parse_word_approx("1 2\n01\n(0,2,5)\n")
    with pytest.raises(ScenarioError, match=r"^line 3: schedule entry \(-1,0\) outside the table$"):
        parse_word_approx("1 2\n01\n(-1,0,5)\n")
    with pytest.raises(ScenarioError, match=r"^line 4: schedule entry \(1,0\) readable before"):
        parse_word_approx("2 2\n01\n01\n(1,0,0)\n")
    with pytest.raises(ScenarioError, match=r"^line 6: schedule entry \(0,1\) listed twice$"):
        parse_word_approx("2 2\n00\n00\n(0,1,3)\n\n(0,1,inf)\n")


def test_compose_rows_identity():
    block = WordApproximation(("00", "01", "11"))
    assert compose_rows(block, None) == ["00", "01", "11"]
    assert compose_rows(block, [0, 2]) == ["00", "11"]
