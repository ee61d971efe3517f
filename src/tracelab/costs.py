"""Cost tables with exact rational entries, marker scans, weighted sums,
per-stage change costs and their obedience sums, and totalization of
partial tables.

A cost table holds q(s, x) for stages 0 <= s < horizon and positions
0 <= x < width.  Rows are non-increasing in x, columns non-decreasing in s.
Positions at or beyond the width read as 0; facts that depend on stages beyond
the horizon are reported with an explicit `truncated` flag rather than
silently treated as final.

A table is stored as one tuple of exact `Fraction`s per stage, and a run of
equal stages shares one row object.  Each stage's row is built as its
predecessor's with one window of positions [k, X-m) replaced; stage 0's
window is the whole row, and a stage equal to its predecessor has no window.
Only a window's entries are checked, against their neighbours and the row
before, so a table costs the sum of its windows' sizes to check.

The text parser finds each line's window against the line before it with
string compares alone, at a cost that follows what changed between the two
lines rather than their length.  The two lines' common prefix and suffix are
each found by a gallop from a hint (the prefix from the end of the previous
line's window, the suffix from the first space after the first difference)
and snapped to the spaces between tokens.  The tokens before and after the
window are counted from the previous line's window edges, so only the text
between an old edge and its new place is scanned.
Only the window's text is split, and each distinct token is parsed once.  A
line whose whitespace is irregular (not ASCII, a tab, a unit separator, a
run of spaces, or a space at either end) is split whole, and so is the line
after it.  `CostTable(rows)` gives a stage its whole row as its window, or
none where its row equals its predecessor's.

Readiness frontier: shell t of a square table is the cells (u, x) with
max(u, x) == t; `ready_prefix` takes each shell's ready time, builds their
prefix max once, and `ready_depth` bisects it for the largest square ready
by a given time.  Readable depth, the synthesis stage loop and `totalize`
all ask this one question.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, takewhile
from operator import gt, itemgetter, lt
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import ScenarioError, check_writable, decimal, fraction_str, rational

ZERO = Fraction(0)
ONE = Fraction(1)


def _exact(value) -> Fraction:
    """`value` itself if it is a `Fraction`, else `Fraction(value)`."""
    return value if type(value) is Fraction else Fraction(value)


class CostTable:
    """Exact cost table; stage s reads `rows[s]`, a tuple of `Fraction`s.

    `CostTable(rows)` takes one row per stage, of anything `Fraction`
    accepts; a `Fraction` entry is kept as it is.  A row that is its
    predecessor, or equal to it, is neither converted nor copied, and its
    stage shares the predecessor's row object.
    """

    __slots__ = ("rows", "horizon", "width", "normalized", "listed_form")

    def __init__(self, rows: Sequence[Sequence], normalized=False, listed_form=False):
        windows = (
            None
            if s and (row is rows[s - 1] or row == rows[s - 1])
            else (0, tuple(map(_exact, row)), 0)
            for s, row in enumerate(rows)
        )
        self._build(windows, normalized, listed_form)

    def _build(self, windows, normalized, listed_form, lines=None) -> None:
        """Check and store.

        `windows` gives each stage's row as its predecessor's with one window
        replaced: (k, entries, m) puts the `Fraction`s `entries` in place of
        every position but the first k and the last m, and None repeats the
        predecessor's row.  Only the checks a window can fail are run (see
        `_window_fault`).  `lines[s]`, when given, is the text line of stage
        s, and a failed check names it.
        """
        rows: list[tuple[Fraction, ...]] = []
        before = width = None  # the previous stage's row
        for s, window in enumerate(windows):
            if window is None:
                rows.append(before)
                continue
            k, entries, m = window
            row = entries if before is None else before[:k] + entries + before[len(before) - m :]
            if width is None:
                width = len(row)
            end = k + len(entries)
            message = _window_fault(before, row, k, end, s, width, normalized, listed_form)
            if message is not None:
                raise ScenarioError(message if lines is None else f"line {lines[s]}: {message}")
            rows.append(row)
            before = row
        if not rows:
            raise ScenarioError("cost table needs at least one stage row")
        self.rows = tuple(rows)
        self.horizon = len(rows)
        self.width = width
        self.normalized = normalized
        self.listed_form = listed_form

    def value(self, stage: int, position: int) -> Fraction:
        """Table entry; positions beyond the width read as 0."""
        if position >= self.width:
            return ZERO
        return self.rows[stage][position]


def _window_fault(before, row, k, end, s, width, normalized, listed_form) -> Optional[str]:
    """Message of the first check stage s fails, or None.

    `row` is `before` (stage s-1's row, already accepted; None at stage 0)
    with positions [k, end) replaced.  The checks run in a fixed order:
    width, then entry by entry negative cost, row increase and value above
    1, then the listed-form tail, then the column check against stage s-1.
    Outside the window `row` equals `before`, which passed all of them, so
    each check looks only where the window can break it: the entry checks at
    the window and one neighbour on each side, the tail check at entry s (a
    row that passed the entry checks is non-negative and non-increasing, so
    its tail at positions >= s is nonzero exactly when entry s is), the
    column check at the window.  A failure's message comes from a scan of
    the whole row, which finds the same first fault.
    """
    if len(row) != width:
        return f"row {s} has width {len(row)}, expected {width}"
    near = row[max(k - 1, 0) : end + 1]
    # Once `near` is non-increasing, its least entry is its last and its
    # greatest its first.
    if near and (any(map(lt, near, near[1:])) or near[-1] < 0 or normalized and near[0] > 1):
        return _row_fault(row, s, normalized)
    if listed_form and s < width and row[s]:
        return f"nonzero tail value in listed-form row {s}"
    if before is not None and any(map(gt, before[k:end], row[k:end])):
        x = next(x for x in range(width) if before[x] > row[x])
        return f"column {x} decreases at stage {s}"
    return None


def _row_fault(row, s, normalized) -> str:
    for x, v in enumerate(row):
        if v < 0:
            return f"negative cost at ({s},{x})"
        if x > 0 and row[x - 1] < v:
            return f"row {s} increases at position {x}"
        if normalized and v > 1:
            return f"value above 1 at ({s},{x}) in normalized table"
    raise AssertionError("row passed every entry check")


def ready_prefix(shell_ready: Iterable[Optional[int]]) -> tuple[int, ...]:
    """Prefix max of per-shell ready times: entry b is the time by which
    shells 0..b are all ready.  A shell that is never ready (None) ends the
    tuple, since no square containing it is ever ready."""
    return tuple(accumulate(takewhile(lambda t: t is not None, shell_ready), max))


def ready_depth(prefix: Sequence[int], time: int, top: int) -> int:
    """Largest b <= top whose square is ready by `time`, or -1 if none."""
    return min(bisect_right(prefix, time), top + 1) - 1


@dataclass(frozen=True)
class MarkerSequence:
    """Stages where the approximation's value at the previous marker first
    reaches the threshold.  `truncated` means a longer horizon could extend
    the sequence, so `count` is only a lower bound on the true count."""

    markers: tuple[int, ...]
    truncated: bool

    @property
    def count(self) -> int:
        return len(self.markers)


def marker_sequence(table: CostTable, epsilon) -> MarkerSequence:
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ScenarioError("threshold must be positive")
    marks = [0]
    # Positions beyond the width read 0, below any threshold.
    while marks[-1] < table.width:
        prev = marks[-1]
        # Columns never decrease, so the stages reaching eps at `prev` form a
        # suffix of the table: bisect for its first stage.
        found = bisect_left(table.rows, eps, prev + 1, key=itemgetter(prev))
        if found == table.horizon:
            break
        marks.append(found)
    # The scan ends because no in-horizon stage reaches eps at the last
    # marker.  Columns are non-decreasing, so a later stage still could,
    # unless the table's cap already rules it out.
    truncated = not (table.normalized and eps > ONE)
    return MarkerSequence(tuple(marks), truncated)


def first_difference(a: str, b: str) -> Optional[int]:
    if a == b:
        return None
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))  # the words differ, so one is a proper prefix of the other


def change_costs(table: CostTable, rows: Sequence[str]) -> list[Fraction]:
    """The change cost of each stage 1 <= s < min(len(rows), horizon) of the
    bit words `rows`: q(s, x_s) when rows[s] != rows[s-1], where x_s is the
    least position of disagreement, and 0 at a change-free stage."""
    return [
        ZERO if rows[s] == rows[s - 1] else table.value(s, first_difference(rows[s], rows[s - 1]))
        for s in range(1, min(len(rows), table.horizon))
    ]


def obedience_sum(table: CostTable, rows: Sequence[str]) -> Fraction:
    """Total change cost of the approximation given by the bit words `rows`
    (see `change_costs`)."""
    return sum(change_costs(table, rows), ZERO)


def halving_exponent(epsilon) -> int:
    """Least j >= 0 with 2**-j <= epsilon."""
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ScenarioError("threshold must be positive")
    p, q = eps.numerator, eps.denominator
    j = max(0, q.bit_length() - p.bit_length())  # no smaller j has p * 2**j >= q
    return j if p << j >= q else j + 1  # 2**-j <= p/q exactly when p * 2**j >= q


def sum_benign(parts: Sequence[tuple[CostTable, Mapping]]) -> tuple[CostTable, Callable]:
    """Weighted sum of the given normalized tables, part k scaled by 2**-k and
    entering only from stage k+1 on, over the shortest horizon and the
    narrowest width among them.  Each part comes with its bound g_k, a
    mapping from threshold to marker count that holds g_k(eps/4), keyed by
    the `Fraction` eps/4, at every eps the certified bound is asked for.

    Returns the combined table and the certified bound
    eps -> sum over k <= ceil(-log2 eps) + 1 of g_k(eps/4).
    """
    if not parts:
        raise ScenarioError("need at least one part")
    tables = [p[0] for p in parts]
    bounds = [p[1] for p in parts]
    for idx, t in enumerate(tables):
        # Rows never increase and columns never decrease, so the last stage's
        # first entry is the table's largest.
        if t.width and t.rows[-1][0] > 1:
            raise ScenarioError(f"part {idx} is not bounded by 1")
    S = min(t.horizon for t in tables)
    X = min(t.width for t in tables)
    rows = []
    for s in range(S):
        row = []
        for x in range(X):
            acc = ZERO
            for k in range(min(s, len(tables))):
                acc += Fraction(1, 2**k) * tables[k].value(s, x)
            row.append(acc)
        rows.append(tuple(row))
    combined = CostTable(tuple(rows))

    def certified(eps: Fraction) -> int:
        cutoff = halving_exponent(eps) + 1
        quarter = eps / 4
        return sum(bounds[k][quarter] for k in range(min(cutoff + 1, len(bounds))))

    return combined, certified


# A cell of a partial table is None (never converges) or (value, delay):
# the value becomes readable once the per-cell step budget reaches `delay`.
PartialCell = Optional[tuple[Fraction, int]]


@dataclass(frozen=True)
class PartialCostTable:
    cells: tuple[tuple[PartialCell, ...], ...]

    @property
    def stages(self) -> int:
        return len(self.cells)

    @property
    def width(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    def cell(self, u: int, x: int) -> PartialCell:
        if u >= self.stages or x >= self.width:
            return None
        return self.cells[u][x]


def _certified_at(cells, u: int, x: int) -> Optional[int]:
    """Budget from which cell (u, x) is certified: its delay, if its value is
    at most 1 and monotone against its left and upper neighbours; else None
    (never)."""
    cell = cells[u][x]
    if cell is None or cell[0] > 1:
        return None
    left = cells[u][x - 1] if x else None
    upper = cells[u - 1][x] if u else None
    if x and (left is None or left[0] < cell[0]):
        return None
    if u and (upper is None or upper[0] > cell[0]):
        return None
    return cell[1]


def totalize(
    partial: PartialCostTable, horizon: Optional[int] = None, width: Optional[int] = None
) -> CostTable:
    """Total, always-valid cost table from an arbitrary partial one.

    Row s copies the largest square prefix whose cells are all certified
    with a per-cell step budget of s (see `_certified_at`), and is 0
    elsewhere.  Where the input is a genuine monotone approximation bounded
    by 1, the output agrees with it on the certified prefix.
    """
    S = horizon if horizon is not None else max(partial.stages, 1)
    X = width if width is not None else max(partial.width, 1)
    cells = partial.cells

    def shell(t: int) -> Optional[int]:
        times = [_certified_at(cells, u, t) for u in range(t + 1)]
        times += [_certified_at(cells, t, x) for x in range(t)]
        return None if None in times else max(times)

    prefix = ready_prefix(map(shell, range(min(partial.stages, partial.width))))
    frontiers = [ready_depth(prefix, s, s) for s in range(S)]
    rows = {f: tuple(cells[f][x][0] if x <= f else ZERO for x in range(X)) for f in set(frontiers)}
    return CostTable([rows[f] for f in frontiers], normalized=True)


# --- plain-text matrix format: first line "S X", then S rows of X rationals ---


def format_cost_table(table: CostTable) -> str:
    """The text format, each run of equal stages (one row object) formatted
    once; a row too long to write is refused before any entry is converted."""
    lines = [f"{table.horizon} {table.width}"]
    before = None
    for row in table.rows:
        if row is not before:
            check_writable(row)
            line = " ".join(map(fraction_str, row))
            before = row
        lines.append(line)
    return "\n".join(lines) + "\n"


def _nonblank_lines(text: str) -> tuple[list[int], list[str]]:
    """The text's non-blank lines, and their 1-based line numbers."""
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    return [i for i, _ in numbered], [ln for _, ln in numbered]


def _regular(text: str) -> bool:
    """True when `text` is tokens joined by single spaces (ASCII, no tab or
    unit separator), so that `text.split()` is `text.split(" ")`."""
    return (
        text.isascii()
        and text[:1] not in ("", " ")
        and text[-1] != " "
        and "  " not in text
        and "\t" not in text
        and "\x1f" not in text
    )


def _match_length(same: Callable[[int, int], bool], limit: int, hint: int) -> int:
    """Largest p <= limit such that positions [0, p) match.  When [0, hint)
    matches, the search gallops up from `hint` in doubling steps and then
    bisects the last step (Bentley and Yao's unbounded search), so p at d
    positions past the hint costs about 2 log2 d compares; otherwise it
    bisects [0, hint).  The hint changes only the cost, never the answer.
    `same(lo, hi)` compares positions [lo, hi) and is only asked once
    [0, lo) is known to match."""
    hint = min(hint, limit)
    if same(0, hint):
        lo, step = hint, 1
        while lo + step <= limit and same(lo, lo + step):
            lo, step = lo + step, 2 * step
        hi = min(lo + step, limit + 1)
    else:
        lo, hi = 0, hint
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if same(lo, mid):
            lo = mid
        else:
            hi = mid
    return lo


# The edges of a line split whole: no tokens before offset 0, none in an
# empty tail.
WHOLE = (0, 0, 0, 0)


def _line_window(
    before: str, line: str, edges: tuple[int, int, int, int]
) -> tuple[tuple[int, int, int, int], str]:
    """(edges, window text) for two different lines, `before` regular.
    `edges` is (start, k, tail, m): the window text is
    `line[start:len(line) - tail]`, with k tokens before it and m after it.
    When the window text is regular, `line` is `before` with every token but
    the first k and the last m replaced by the window's tokens.

    The window is the text between the two lines' common prefix and (not
    overlapping it) common suffix, snapped out to the spaces around them.
    The prefix search is hinted at the end of `before`'s own window, the
    suffix search at the first space after the prefix (see `_match_length`).
    The given `edges` are `before`'s, and `line` equals `before` on the
    shared prefix and suffix, so k and m are counted only between `before`'s
    window edges and the new ones."""
    n, b = len(line), len(before)
    start0, k0, tail0, m0 = edges
    p = _match_length(lambda lo, hi: line.startswith(before[lo:hi], lo), min(n, b), b - tail0)
    after = line.find(" ", p)
    q = _match_length(
        lambda lo, hi: line.endswith(before[b - hi : b - lo], 0, n - lo),
        min(n, b) - p,
        0 if after < 0 else n - after,
    )
    start = line.rfind(" ", 0, p) + 1
    stop = line.find(" ", n - q)
    if stop < 0:
        stop = n
    tail = n - stop
    # One of each pair of counts is over an empty range.
    k = k0 + before.count(" ", start0, start) - before.count(" ", start, start0)
    m = m0 + before.count(" ", b - tail, b - tail0) - before.count(" ", b - tail0, b - tail)
    return (start, k, tail, m), line[start:stop]


def parse_cost_table(text: str, normalized: bool = False, listed_form: bool = False) -> CostTable:
    """Parse the text format; errors name the text line.  Blank lines are
    skipped.  Each line is read as a window against the line before it (see
    `_line_window`), so only tokens in a window are split and parsed."""
    numbers, lines = _nonblank_lines(text)
    if not lines:
        raise ScenarioError("line 1: empty cost table")
    head = numbers[0]
    header = [decimal(tok) for tok in lines[0].split()]
    if len(header) != 2 or None in header:
        raise ScenarioError(f"line {head}: expected header 'S X', got {lines[0]!r}")
    S, X = header
    if len(lines) - 1 != S:
        raise ScenarioError(f"line {head}: header promises {S} rows, found {len(lines) - 1}")
    if S == 0:
        raise ScenarioError(f"line {head}: cost table needs at least one stage row")
    windows: list[Optional[tuple[int, list[str], int]]] = []
    before, regular_before, wrong_width, edges = None, False, None, WHOLE
    for i, line in zip(numbers[1:], lines[1:]):
        if line == before:
            windows.append(None)
            continue
        # Outside its window a line repeats a regular `before`, so it is
        # regular when its window is.
        if regular_before:
            edges, middle = _line_window(before, line, edges)
        if regular_before and _regular(middle):
            _, k, _, m = edges
            tokens, regular = middle.split(" "), True
        else:
            k, tokens, m, edges = 0, line.split(), 0, WHOLE
            regular = _regular(line)
        if k + len(tokens) + m != X:  # raised after any bad token on an earlier line
            wrong_width = i, k + len(tokens) + m
            break
        windows.append((k, tokens, m))
        before, regular_before = line, regular
    distinct = dict.fromkeys(chain.from_iterable(w[1] for w in windows if w is not None))
    exact = {tok: rational(tok) for tok in distinct}  # in reading order
    bad = next((tok for tok, value in exact.items() if value is None), None)
    if bad is not None:
        i = next(i for i, w in zip(numbers[1:], windows) if w is not None and bad in w[1])
        raise ScenarioError(f"line {i}: bad rational {bad!r}")
    if wrong_width is not None:
        raise ScenarioError(f"line {wrong_width[0]}: expected {X} values, found {wrong_width[1]}")
    table = CostTable.__new__(CostTable)
    table._build(
        [None if w is None else (w[0], tuple(map(exact.__getitem__, w[1])), w[2]) for w in windows],
        normalized,
        listed_form,
        numbers[1:],
    )
    return table


def static_table(base_row: Sequence, horizon: int, normalized: bool = False) -> CostTable:
    return CostTable([base_row] * horizon, normalized=normalized)


def dyadic_decay_row(width: int, shift: int = 0, scale=ONE) -> tuple[Fraction, ...]:
    p, q = Fraction(scale).as_integer_ratio()
    return tuple(Fraction(p, q << (x + shift)) for x in range(width))
