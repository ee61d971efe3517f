import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import to_listed_form, whole_line_table
from tracelab.acceptance import certified_prefix, random_monotone_table
from tracelab.costs import (
    CostTable,
    PartialCostTable,
    dyadic_decay_row,
    first_difference,
    format_cost_table,
    halving_exponent,
    marker_sequence,
    obedience_sum,
    parse_cost_table,
    static_table,
    sum_benign,
    totalize,
)
from tracelab.errors import ScenarioError
from tracelab.scenarios import run_costfn_check

F = Fraction


def decay_table(horizon=8, width=8):
    return static_table(dyadic_decay_row(width), horizon, normalized=True)


def zero_table(horizon=8, width=8):
    return CostTable(tuple(tuple(F(0) for _ in range(width)) for _ in range(horizon)))


# ---- marker scans ------------------------------------------------------------


def test_markers_on_dyadic_decay():
    seq = marker_sequence(decay_table(), F(1, 4))
    assert seq.markers == (0, 1, 2, 3)
    assert seq.count == 4


def test_markers_on_zero_table():
    seq = marker_sequence(zero_table(), F(1, 2))
    assert seq.markers == (0,)
    assert seq.count == 1


def test_markers_above_the_cap_are_final():
    seq = marker_sequence(decay_table(), F(2))
    assert seq.count == 1
    assert not seq.truncated  # normalized cap 1 cannot ever reach 2


def test_markers_within_cap_stay_truncated():
    assert marker_sequence(decay_table(), F(1, 4)).truncated


def test_markers_reject_nonpositive_threshold():
    with pytest.raises(ScenarioError):
        marker_sequence(decay_table(), F(0))


def test_marker_scan_matches_independent_rescan():
    import random

    rng = random.Random(0)
    for _ in range(25):
        table = random_monotone_table(rng, 6, 6)
        eps = F(rng.randint(1, 8), 8)
        seq = marker_sequence(table, eps)
        assert seq.markers[0] == 0
        for prev, nxt in zip(seq.markers, seq.markers[1:]):
            assert prev < nxt
            assert table.value(nxt, prev) >= eps
            for s in range(prev + 1, nxt):
                assert table.value(s, prev) < eps
        last = seq.markers[-1]
        for s in range(last + 1, table.horizon):
            assert table.value(s, last) < eps


# ---- obedience sums ----------------------------------------------------------


def test_obedience_sum_constant_rows():
    assert obedience_sum(decay_table(), ["0101"] * 5) == 0


def test_obedience_sum_single_change():
    rows = ["000", "000", "100", "100", "100"]
    assert obedience_sum(decay_table(), rows) == 1


def test_obedience_sum_two_changes():
    rows = ["000", "010", "010", "110"]
    assert obedience_sum(decay_table(), rows) == F(1, 2) + 1


@given(st.lists(st.sampled_from(["000", "001", "010", "100"]), min_size=1, max_size=6))
def test_obedience_sum_ignores_appended_stable_stages(rows):
    table = decay_table()
    assert obedience_sum(table, rows) == obedience_sum(table, rows + [rows[-1]] * 3)


# ---- weighted sums -----------------------------------------------------------


def test_sum_benign_two_identical_parts():
    part = decay_table()
    combined, _ = sum_benign([(part, {F(1, 8): 1}), (part, {F(1, 8): 1})])
    for s in range(2, combined.horizon):
        for x in range(combined.width):
            assert combined.value(s, x) == F(3, 2) * F(1, 2**x)
    assert combined.value(1, 0) == 1  # only the first part has entered
    assert combined.value(0, 0) == 0


def test_sum_benign_certified_bound_example():
    parts = [(decay_table(), {F(1, 8): 4}) for _ in range(3)]
    _, bound = sum_benign(parts)
    assert bound(F(1, 2)) == 12


def test_sum_benign_rejects_unnormalized_part():
    bad = static_table([F(2), F(1)], 4)
    with pytest.raises(ScenarioError):
        sum_benign([(bad, {F(1, 8): 1})])


def test_sum_benign_output_is_monotone_for_random_parts():
    import random

    rng = random.Random(1)
    for _ in range(10):
        parts = [
            (random_monotone_table(rng, 5, 5), {F(1, 8): 5})
            for _ in range(rng.randint(1, 4))
        ]
        combined, _ = sum_benign(parts)  # CostTable validates both directions
        assert combined.horizon == 5


def test_halving_exponent():
    assert halving_exponent(F(1, 2)) == 1
    assert halving_exponent(F(1, 3)) == 2
    assert halving_exponent(F(5)) == 0
    for eps in [F(p, q) for p in range(1, 40) for q in range(1, 40)] + [F(1, 2**300), F(3, 2**300)]:
        j = halving_exponent(eps)
        assert F(1, 2**j) <= eps and (j == 0 or F(1, 2 ** (j - 1)) > eps)


# ---- benignity verdicts -------------------------------------------------------


def check_benign(table, bound, eps_list):
    """The costfn-check scenario's report: each marker count against its bound."""
    return run_costfn_check(
        {"cost_table": format_cost_table(table), "eps": eps_list, "bound": bound}
    )


def test_check_benign_verdicts():
    good = check_benign(decay_table(), {"1/4": 4}, ["1/4"])
    assert good["ok"] and good["thresholds"]["1/4"]["count"] == 4
    bad = check_benign(decay_table(), {"1/4": 3}, ["1/4"])
    assert not bad["ok"] and bad["thresholds"]["1/4"]["ok"] is False


def test_check_benign_zero_table():
    report = check_benign(zero_table(), {"1/2": 1, "1/7": 1}, ["1/2", "1/7"])
    assert report["ok"]


# ---- totalization -------------------------------------------------------------


def test_totalize_instant_total_input():
    partial = PartialCostTable(
        tuple(tuple((F(1, 2**(x + 1)), 0) for x in range(5)) for _ in range(5))
    )
    out = totalize(partial, horizon=6, width=6)
    for s in range(6):
        frontier = min(s, 4)
        for x in range(6):
            expected = F(1, 2**(x + 1)) if x <= frontier else F(0)
            assert out.value(s, x) == expected


def test_totalize_divergent_origin_gives_zero_table():
    cells = [[None, (F(1), 0)], [(F(1), 0), (F(1), 0)]]
    out = totalize(PartialCostTable(tuple(tuple(r) for r in cells)), horizon=4, width=3)
    assert all(v == 0 for row in out.rows for v in row)


def test_totalize_freezes_before_bound_violation():
    cells = [
        [(F(1, 2), 0), (F(1, 4), 0)],
        [(F(1, 2), 0), (F(2), 0)],  # value above 1 poisons every square past 0
    ]
    out = totalize(PartialCostTable(tuple(tuple(r) for r in cells)), horizon=4, width=3)
    for s in range(4):  # square 0 certifies instantly; nothing ever grows past it
        assert tuple(out.rows[s]) == (F(1, 2), F(0), F(0))


def test_totalize_respects_cell_delays():
    cells = [[(F(1, 2), 3)]]
    out = totalize(PartialCostTable(tuple(tuple(r) for r in cells)), horizon=5, width=2)
    assert out.value(2, 0) == 0
    assert out.value(3, 0) == F(1, 2)


@st.composite
def partial_tables(draw):
    """Partial tables: monotone or arbitrary values (some negative, some
    above the unit cap), never-convergent cells and per-cell delays."""
    stages, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = st.sampled_from([F(-1, 8), F(0), F(1, 8), F(1, 4), F(1, 2), F(1), F(9, 8)])
    rows = st.lists(st.lists(values, min_size=width, max_size=width), min_size=stages, max_size=stages)
    grid = draw(rows)
    if draw(st.booleans()):
        # Sort each column up, then take running minima along each row.
        columns = [sorted(column) for column in zip(*grid)]
        grid = [[min(columns[y][u] for y in range(x + 1)) for x in range(width)] for u in range(stages)]
    cell = lambda v: None if draw(st.integers(0, 9)) == 0 else (v, draw(st.integers(0, 8)))
    return PartialCostTable(tuple(tuple(map(cell, row)) for row in grid))


@settings(max_examples=300, deadline=None)
@given(partial_tables(), st.integers(1, 9), st.integers(1, 8))
def test_totalize_matches_the_certified_prefix(partial, horizon, width):
    expected = []
    for s in range(horizon):
        frontier = certified_prefix(partial, s)
        row = [partial.cell(frontier, x)[0] if 0 <= x <= frontier else F(0) for x in range(width)]
        expected.append(tuple(row))
    try:
        reference = CostTable(expected, normalized=True)
    except ScenarioError as exc:  # a certified negative value in the first row
        with pytest.raises(ScenarioError) as caught:
            totalize(partial, horizon=horizon, width=width)
        assert str(caught.value) == str(exc)
        return
    assert totalize(partial, horizon=horizon, width=width).rows == reference.rows


# ---- text format ---------------------------------------------------------------


def test_cost_table_round_trip():
    table = decay_table(4, 3)
    again = parse_cost_table(format_cost_table(table), normalized=True)
    assert again.rows == table.rows


def test_a_cost_table_entry_too_long_to_write_is_a_scenario_error():
    table = CostTable([[F(1, 2**15000)]])
    with pytest.raises(ScenarioError, match="^a rational in the report has too many digits to write$"):
        format_cost_table(table)


def test_parse_cost_table_reports_line_numbers():
    with pytest.raises(ScenarioError, match="line 1"):
        parse_cost_table("nonsense\n")
    with pytest.raises(ScenarioError, match="line 3"):
        parse_cost_table("2 2\n1/2 1/4\n1/2\n")
    with pytest.raises(ScenarioError, match="line 2"):
        parse_cost_table("1 2\n1/2 x\n")
    # Table checks name the line of the stage that fails them.
    with pytest.raises(ScenarioError, match=r"^line 2: negative cost at \(0,1\)$"):
        parse_cost_table("1 2\n1/2 -1/4\n")
    with pytest.raises(ScenarioError, match=r"^line 3: row 1 increases at position 1$"):
        parse_cost_table("2 2\n1/2 1/4\n1/4 1/2\n")
    with pytest.raises(ScenarioError, match=r"^line 3: column 0 decreases at stage 1$"):
        parse_cost_table("2 2\n1/2 1/4\n1/4 1/4\n")
    with pytest.raises(ScenarioError, match=r"^line 3: value above 1 at \(1,0\) in normalized table$"):
        parse_cost_table("2 1\n1\n3/2\n", normalized=True)
    with pytest.raises(ScenarioError, match=r"^line 3: nonzero tail value in listed-form row 1$"):
        parse_cost_table("2 2\n0 0\n1/2 1/4\n", listed_form=True)
    # Blank lines count: errors name the text line.
    with pytest.raises(ScenarioError, match="^line 3: expected header"):
        parse_cost_table("\n \nnonsense\n")
    with pytest.raises(ScenarioError, match=r"^line 2: header promises 2 rows, found 1$"):
        parse_cost_table("\n2 2\n1/2 1/4\n")
    with pytest.raises(ScenarioError, match="^line 4: bad rational 'x'$"):
        parse_cost_table("1 2\n\n\n1/2 x\n")
    with pytest.raises(ScenarioError, match="^line 4: expected 2 values, found 1$"):
        parse_cost_table("2 2\n1/2 1/4\n\n1/2\n")
    # A line one repeated token short of the line before it.
    with pytest.raises(ScenarioError, match="^line 3: expected 3 values, found 2$"):
        parse_cost_table("2 3\n1/2 0 0\n1/2 0\n")
    with pytest.raises(ScenarioError, match=r"^line 5: column 0 decreases at stage 1$"):
        parse_cost_table("2 2\n\n1/2 1/4\n\n1/4 1/4\n")
    with pytest.raises(ScenarioError, match=r"^line 6: nonzero tail value in listed-form row 1$"):
        parse_cost_table("2 2\n\n0 0\n\n\n1/2 1/4\n", listed_form=True)


def wandering_window_text(rng, horizon, width):
    """A valid normalized listed-form table of n/48 entries, whose texts
    share prefixes (1/48, 12/48).  Stage s raises a random span [a, b),
    b <= s, of the row before to the entry left of the span, so windows jump
    left and right by many tokens, and an empty span repeats the row.  One
    line in ten has a run of two spaces, so that it and the line after it
    are split whole, and one in ten is followed by a blank line."""
    row, lines = [0] * width, [f"{horizon} {width}"]
    for s in range(horizon):
        a = rng.randint(0, min(s, width))
        b = rng.randint(a, min(s, width))
        top = row[a - 1] if a else min(48, row[0] + rng.randint(1, 9))
        row[a:b] = [top] * (b - a)
        line = " ".join(f"{v}/48" for v in row)
        if rng.random() < 0.1:
            line = line.replace(" ", "  ", 1)
        lines.append(line)
        if rng.random() < 0.1:
            lines.append("")
    return "\n".join(lines) + "\n"


def test_parse_cost_table_matches_the_whole_line_reference():
    rng = random.Random(5)
    for _ in range(40):
        text = wandering_window_text(rng, rng.randint(9, 30), rng.randint(1, 30))
        assert parse_cost_table(text, True, True).rows == whole_line_table(text).rows


def test_first_difference():
    assert first_difference("0101", "0101") is None
    assert first_difference("0101", "0111") == 2
    assert first_difference("01", "011") == 2
    assert first_difference("", "") is None


def test_to_listed_form_zeroes_the_diagonal_tail():
    listed = to_listed_form(decay_table(4, 4))
    assert listed.listed_form
    for s in range(4):
        for x in range(s, 4):
            assert listed.value(s, x) == 0


def test_cost_table_validation_catches_bad_monotonicity():
    with pytest.raises(ScenarioError):
        CostTable(((F(0), F(1)),))  # row increases
    with pytest.raises(ScenarioError):
        CostTable(((F(1), F(1)), (F(0), F(0))))  # column decreases
    with pytest.raises(ScenarioError, match=r"^row 1 has width 2, expected 1$"):
        CostTable(((F(1),), (F(1), F(0))))


def test_sum_benign_single_part_reproduces_it_from_stage_one():
    part = decay_table()
    combined, _ = sum_benign([(part, {F(1, 8): 4})])
    assert all(v == 0 for v in combined.rows[0])
    for s in range(1, combined.horizon):
        assert combined.rows[s] == part.rows[s]


# ---- the window checks against the dense reference -----------------------------


def reference_fault(rows, normalized=False, listed_form=False):
    """Dense `Fraction` validation, entry by entry and stage by stage: the
    (stage, message) of the first failed check, or None for a valid table."""
    if not rows:
        return 0, "cost table needs at least one stage row"
    width = len(rows[0])
    for s, row in enumerate(rows):
        if len(row) != width:
            return s, f"row {s} has width {len(row)}, expected {width}"
        for x, value in enumerate(row):
            if value < 0:
                return s, f"negative cost at ({s},{x})"
            if x > 0 and row[x - 1] < value:
                return s, f"row {s} increases at position {x}"
            if normalized and value > 1:
                return s, f"value above 1 at ({s},{x}) in normalized table"
        if listed_form and s < width and any(v != 0 for v in row[s:]):
            return s, f"nonzero tail value in listed-form row {s}"
        if s > 0:
            for x in range(width):
                if rows[s - 1][x] > row[x]:
                    return s, f"column {x} decreases at stage {s}"
    return None


def reference_markers(rows, eps):
    """Stage-by-stage marker scan over a valid dense grid."""
    marks = [0]
    while True:
        prev = marks[-1]
        found = next(
            (s for s in range(prev + 1, len(rows)) if prev < len(rows[0]) and rows[s][prev] >= eps),
            None,
        )
        if found is None:
            return tuple(marks)
        marks.append(found)


# Mixed, non-dyadic denominators, zeros, a negative, values above 1, and
# values whose texts share a prefix (1/4, 1/40).
ENTRIES = st.sampled_from(
    [F(0), F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(-1, 5), F(5, 7), F(1, 6), F(7, 12),
     F(1, 4), F(1, 40)]
)


@st.composite
def grids(draw):
    """Small grids built from a few distinct rows, repeated at will, or wider
    ones where each stage replaces one window of its predecessor's row, so
    that adjacent lines share prefixes and suffixes; most are sorted into
    valid shape and some get listed-form zero tails."""
    if draw(st.booleans()):
        width = draw(st.integers(1, 5))
        pool = draw(st.lists(st.lists(ENTRIES, min_size=width, max_size=width), min_size=1, max_size=4))
        index = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
        if draw(st.booleans()):
            index.sort()
    else:
        width = draw(st.integers(1, 40))
        pool = [draw(st.lists(ENTRIES, min_size=width, max_size=width))]
        for _ in range(draw(st.integers(0, 7))):
            k = draw(st.integers(0, width))
            end = draw(st.integers(k, width))
            window = draw(st.lists(ENTRIES, min_size=end - k, max_size=end - k))
            pool.append(pool[-1][:k] + window + pool[-1][end:])
        index = list(range(len(pool)))
    if draw(st.booleans()):
        # Sort each column up, then take running minima along each row.
        columns = [sorted(column) for column in zip(*pool)]
        pool = [[min(columns[y][r] for y in range(x + 1)) for x in range(width)] for r in range(len(pool))]
    rows = [tuple(pool[i]) for i in index]
    if draw(st.booleans()):
        rows = [row[:s] + (F(0),) * max(0, width - s) for s, row in enumerate(rows)]
    return rows


@st.composite
def spelled_texts(draw, rows):
    """The text of `rows` with each position's values spelled one of several
    ways (1/2, 2/4, 3/6), respelled over a window now and then, and with
    some lines' whitespace irregular: runs of spaces, tabs, a space at
    either end, U+00A0."""
    width = len(rows[0])
    scale = draw(st.lists(st.integers(1, 3), min_size=width, max_size=width))
    odd = st.sampled_from(["  ", "\t", " \t", "\u00a0", " \u00a0 "])
    lines = [f"{len(rows)} {width}"]
    for row in rows:
        if draw(st.integers(0, 3)) == 0:
            k = draw(st.integers(0, width))
            end = draw(st.integers(k, width))
            scale[k:end] = draw(st.lists(st.integers(1, 3), min_size=end - k, max_size=end - k))
        tokens = [f"{v.numerator * c}/{v.denominator * c}" for v, c in zip(row, scale)]
        # One gap in six, counting both ends, is irregular.
        gaps = [""] + [" "] * (width - 1) + [""]
        if draw(st.integers(0, 5)) == 0:
            gaps[draw(st.integers(0, width))] = draw(odd)
        lines.append("".join(map(str.__add__, gaps, tokens + [""])))
    return "\n".join(lines) + "\n"


def grid_text(rows):
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines += [" ".join(f"{v.numerator}/{v.denominator}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=500)
@given(
    grids(), st.booleans(), st.booleans(), st.sampled_from([F(1, 6), F(1, 3), F(1, 2), F(1)]), st.data()
)
def test_coded_checks_match_the_dense_reference(rows, normalized, listed_form, eps, data):
    fault = reference_fault(rows, normalized, listed_form)
    spelled = data.draw(spelled_texts(rows))
    builds = [
        (lambda: CostTable(rows, normalized, listed_form), "{}"),
        (lambda: parse_cost_table(grid_text(rows), normalized, listed_form), "line {line}: {}"),
        (lambda: parse_cost_table(spelled, normalized, listed_form), "line {line}: {}"),
    ]
    for build, form in builds:
        if fault is not None:
            stage, message = fault
            with pytest.raises(ScenarioError) as caught:
                build()
            assert str(caught.value) == form.format(message, line=stage + 2)
            continue
        table = build()
        assert table.rows == tuple(rows)
        assert (table.horizon, table.width) == (len(rows), len(rows[0]))
        for s, row in enumerate(rows):
            for x in range(table.width + 2):
                assert table.value(s, x) == (row[x] if x < len(row) else 0)
        assert format_cost_table(table) == grid_text(rows)
        assert marker_sequence(table, eps).markers == reference_markers(rows, eps)
