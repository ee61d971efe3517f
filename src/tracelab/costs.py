"""Cost tables with exact rational entries, marker scans, benignity checks,
weighted sums, obedience sums, and totalization of partial tables.

A cost table holds q(s, x) for stages 0 <= s < horizon and positions
0 <= x < width.  Rows are non-increasing in x, columns non-decreasing in s.
Positions at or beyond the width read as 0; facts that depend on stages beyond
the horizon are reported with an explicit `truncated` flag rather than
silently treated as final.

A table is stored as one row per run of equal stages plus a per-stage run
index.  Each stage's row is its predecessor's with one window of positions
[k, X-m) replaced; stage 0's window is the whole row, and a stage equal to
its predecessor has no window and shares its predecessor's row objects.
Only a window's entries are recoded and checked, and a row is built by
splicing the window into its predecessor's row.  The checks compare integer
codes, not rationals: an entry's code is its rank among the table's distinct
values after one exact sort, shifted so that the value 0 has code 0.  Ranks,
unlike numerators over a common denominator, stay small however the
denominators mix.  Reads (`rows`, `value`) return exact `Fraction`s, one
object per distinct value, shared across the table.

The text parser finds each line's window against the line before it with
string compares alone: the two lines' common prefix and suffix, snapped to
the spaces between tokens, and the shared tokens counted by their spaces.
Only the window's text is split and its tokens parsed.  A line whose
whitespace is irregular (not ASCII, a tab, a unit separator, a run of
spaces, or a space at either end) is split whole, and so is the line after
it.  Table constructors give a stage its whole row as its window, or none
where its row number (for `CostTable(rows)`, its row) repeats its
predecessor's.

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
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ScenarioError

ZERO = Fraction(0)
ONE = Fraction(1)


class CostTable:
    """Exact cost table; stage s reads `rows[s]`.

    `CostTable(rows)` takes one row per stage.  `from_rows` takes the
    distinct rows and each stage's row number, `from_codes` rows of indices
    into a list of values; all three run the same checks.
    """

    __slots__ = (
        "rows", "horizon", "width", "normalized", "listed_form", "_values", "_codes", "_index"
    )

    def __init__(self, rows, normalized: bool = False, listed_form: bool = False):
        rows = [tuple(row) for row in rows]
        # Stage s reads the row of the first stage of its run of equal rows.
        index = list(accumulate(range(len(rows)), lambda i, s: i if rows[s] == rows[i] else s))
        self._build(_exact(rows), _whole_rows(rows, index), normalized, listed_form)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence],
        index: Sequence[int],
        normalized: bool = False,
        listed_form: bool = False,
    ) -> "CostTable":
        """Table whose stage s reads rows[index[s]]."""
        table = cls.__new__(cls)
        table._build(_exact(rows), _whole_rows(rows, index), normalized, listed_form)
        return table

    @classmethod
    def from_codes(
        cls,
        values: Sequence,
        codes: Sequence[Sequence[int]],
        index: Sequence[int],
        normalized: bool = False,
        listed_form: bool = False,
    ) -> "CostTable":
        """Table whose stage s reads values[c] for each c in codes[index[s]]."""
        table = cls.__new__(cls)
        exact = {k: Fraction(v) for k, v in enumerate(values)}
        table._build(exact, _whole_rows(codes, index), normalized, listed_form)
        return table

    def _build(self, exact, windows, normalized, listed_form, lines=None) -> None:
        """Recode to ranks, check, and store.

        `exact` maps each key the windows use to its value.  `windows` gives
        each stage's row as its predecessor's with one window replaced:
        (k, keys, m) puts `keys` in place of every position but the first k
        and the last m, and None repeats the predecessor's row.  Only the
        checks a window can fail are run (see `_window_fault`).  `lines[s]`,
        when given, is the text line of stage s, and a failed check names it.
        """
        # One exact sort ranks the distinct values, 0 and 1 among them.  Equal
        # values are found as sorted neighbours, not by hashing: the hashes
        # of 1/2, 1/4, 1/8, ... repeat with period 61.
        ordered: list[Fraction] = []
        rank = {}
        for key, v in sorted([(None, ZERO), (None, ONE), *exact.items()], key=itemgetter(1)):
            if not ordered or ordered[-1] != v:
                ordered.append(v)
            rank[key] = len(ordered) - 1
        del rank[None]
        zero = bisect_left(ordered, ZERO)
        one = bisect_left(ordered, ONE) - zero
        code = {key: r - zero for key, r in rank.items()}
        values = tuple(ordered[zero:])  # code c >= 0 reads values[c]
        codes: list[tuple[int, ...]] = []  # one row per run of equal stages
        entries: list[tuple[Fraction, ...]] = []
        index: list[int] = []
        before = width = None  # the codes of the previous stage's row
        for s, window in enumerate(windows):
            if window is None:
                index.append(len(codes) - 1)
                continue
            k, keys, m = window
            fresh = tuple(map(code.__getitem__, keys))
            row = _splice(before, k, fresh, m)
            if width is None:
                width = len(row)
            end = k + len(fresh)
            message = _window_fault(before, row, k, end, s, width, one, normalized, listed_form)
            if message is not None:
                raise ScenarioError(message if lines is None else f"line {lines[s]}: {message}")
            index.append(len(codes))
            codes.append(row)
            fresh = tuple(map(values.__getitem__, fresh))
            entries.append(_splice(entries[-1] if entries else None, k, fresh, m))
            before = row
        if not index:
            raise ScenarioError("cost table needs at least one stage row")
        self.rows = tuple(map(entries.__getitem__, index))
        self.horizon = len(index)
        self.width = width
        self.normalized = normalized
        self.listed_form = listed_form
        self._values, self._codes, self._index = values, codes, index

    def value(self, stage: int, position: int) -> Fraction:
        """Table entry; positions beyond the width read as 0."""
        if position >= self.width:
            return ZERO
        return self.rows[stage][position]


def _exact(rows) -> dict:
    """Each distinct entry of `rows`, mapped to its exact value."""
    return {v: Fraction(v) for v in set().union(*rows)}


def _whole_rows(rows, index) -> Iterator[Optional[tuple[int, Sequence, int]]]:
    """Windows (see `CostTable._build`) for stages reading rows[index[s]]:
    the whole row, or None where a stage's row number repeats its
    predecessor's.  Columns never decrease, so a valid table never returns
    to an earlier distinct row."""
    previous = None
    for i in index:
        yield None if i == previous else (0, rows[i], 0)
        previous = i


def _splice(row, k: int, window: tuple, m: int) -> tuple:
    """`row` with every position but its first k and last m replaced by
    `window`; all of it when `row` is None."""
    return window if row is None else row[:k] + window + row[len(row) - m :]


def _window_fault(before, row, k, end, s, width, one, normalized, listed_form) -> Optional[str]:
    """Message of the first check stage s fails, or None.

    `row` is `before` (stage s-1's row, already accepted; None at stage 0)
    with positions [k, end) replaced, and holds codes (0 is the value 0,
    `one` the value 1).  The checks run in a fixed order: width, then entry
    by entry negative cost, row increase and value above 1, then the
    listed-form tail, then the column check against stage s-1.  Outside the
    window `row` equals `before`, which passed all of them, so each check
    looks only where the window can break it: the entry checks at the window
    and one neighbour on each side, the tail at window positions >= s, the
    column check at the window.  A failure's message comes from a scan of
    the whole row, which finds the same first fault.
    """
    if len(row) != width:
        return f"row {s} has width {len(row)}, expected {width}"
    near = row[max(k - 1, 0) : end + 1]
    if near and (min(near) < 0 or any(map(lt, near, near[1:])) or normalized and max(near) > one):
        return _row_fault(row, s, one, normalized)
    if listed_form and any(row[max(s, k) : end]):
        return f"nonzero tail value in listed-form row {s}"
    if before is not None and any(map(gt, before[k:end], row[k:end])):
        x = next(x for x in range(width) if before[x] > row[x])
        return f"column {x} decreases at stage {s}"
    return None


def _row_fault(row, s, one, normalized) -> str:
    for x, c in enumerate(row):
        if c < 0:
            return f"negative cost at ({s},{x})"
        if x > 0 and row[x - 1] < c:
            return f"row {s} increases at position {x}"
        if normalized and c > one:
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

    epsilon: Fraction
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
    return MarkerSequence(eps, tuple(marks), truncated)


def first_difference(a: str, b: str) -> Optional[int]:
    if a == b:
        return None
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def obedience_sum(table: CostTable, rows, first_stage: int = 1) -> Fraction:
    """Total change cost of the approximation given by `rows` (a sequence of
    bit words, or any object carrying one as `.rows`).

    Stage s >= first_stage contributes q(s, x_s) when rows[s] != rows[s-1],
    where x_s is the least position of disagreement; change-free stages
    contribute nothing.
    """
    rows = getattr(rows, "rows", rows)
    total = ZERO
    last = min(len(rows), table.horizon)
    for s in range(max(1, first_stage), last):
        if rows[s] != rows[s - 1]:
            x = first_difference(rows[s], rows[s - 1])
            total += table.value(s, x)
    return total


BoundFn = Callable[[Fraction], int]


def _as_bound_fn(bound) -> BoundFn:
    if callable(bound):
        return lambda eps: int(bound(Fraction(eps)))
    if isinstance(bound, Mapping):
        table = {Fraction(k): int(v) for k, v in bound.items()}

        def lookup(eps: Fraction) -> int:
            eps = Fraction(eps)
            if eps not in table:
                raise ScenarioError(f"no bound recorded for threshold {eps}")
            return table[eps]

        return lookup
    raise ScenarioError("bound must be callable or a mapping")


def halving_exponent(epsilon) -> int:
    """Least j >= 0 with 2**-j <= epsilon."""
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ScenarioError("threshold must be positive")
    j = 0
    while Fraction(1, 2**j) > eps:
        j += 1
    return j


def sum_benign(
    parts: Sequence[tuple[CostTable, object]],
    horizon: Optional[int] = None,
    width: Optional[int] = None,
) -> tuple[CostTable, BoundFn]:
    """Weighted sum of the given normalized tables, part k scaled by 2**-k and
    entering only from stage k+1 on.

    Returns the combined table and the certified bound
    eps -> sum over k <= ceil(-log2 eps) + 1 of g_k(eps/4).
    """
    if not parts:
        raise ScenarioError("need at least one part")
    tables = [p[0] for p in parts]
    bounds = [_as_bound_fn(p[1]) for p in parts]
    for idx, t in enumerate(tables):
        # Rows never increase and columns never decrease, so the last stage's
        # first entry is the table's largest.
        if t.width and t.rows[-1][0] > 1:
            raise ScenarioError(f"part {idx} is not bounded by 1")
    S = horizon if horizon is not None else min(t.horizon for t in tables)
    X = width if width is not None else min(t.width for t in tables)
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
        eps = Fraction(eps)
        cutoff = halving_exponent(eps) + 1
        quarter = eps / 4
        return sum(bounds[k](quarter) for k in range(min(cutoff + 1, len(bounds))))

    return combined, certified


@dataclass(frozen=True)
class BenignityEntry:
    epsilon: Fraction
    count: int
    bound: int
    truncated: bool

    @property
    def verdict(self) -> bool:
        return self.count <= self.bound


@dataclass(frozen=True)
class BenignityCertificate:
    entries: tuple[BenignityEntry, ...]

    @property
    def verdict(self) -> bool:
        return all(e.verdict for e in self.entries)


def check_benign(table: CostTable, bound, eps_list: Iterable) -> BenignityCertificate:
    bound_fn = _as_bound_fn(bound)
    entries = []
    for eps in eps_list:
        seq = marker_sequence(table, eps)
        entries.append(
            BenignityEntry(Fraction(eps), seq.count, bound_fn(Fraction(eps)), seq.truncated)
        )
    return BenignityCertificate(tuple(entries))


# A cell of a partial table is None (never converges) or (value, delay):
# the value becomes readable once the per-cell step budget reaches `delay`.
PartialCell = Optional[tuple[Fraction, int]]


@dataclass(frozen=True)
class PartialCostTable:
    cells: tuple[tuple[PartialCell, ...], ...]

    @classmethod
    def from_values(cls, rows: Sequence[Sequence]) -> "PartialCostTable":
        return cls(tuple(tuple((Fraction(v), 0) for v in row) for row in rows))

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
    row_of = {f: k for k, f in enumerate(dict.fromkeys(frontiers))}
    rows = [tuple(cells[f][x][0] if x <= f else ZERO for x in range(X)) for f in row_of]
    return CostTable.from_rows(rows, [row_of[f] for f in frontiers], normalized=True)


# --- plain-text matrix format: first line "S X", then S rows of X rationals ---


def format_cost_table(table: CostTable) -> str:
    texts = [f"{v.numerator}/{v.denominator}" for v in table._values]
    lines = [" ".join(map(texts.__getitem__, row)) for row in table._codes]
    header = f"{table.horizon} {table.width}"
    return "\n".join([header, *map(lines.__getitem__, table._index)]) + "\n"


def _nonblank_lines(text: str) -> tuple[list[int], list[str]]:
    """The text's non-blank lines, and their 1-based line numbers."""
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    return [i for i, _ in numbered], [ln for _, ln in numbered]


def _parse_fraction(token: str, lineno: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"line {lineno}: bad rational {token!r}") from exc


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


def _match_length(same: Callable[[int, int], bool], hint: int, limit: int) -> int:
    """Largest p <= limit such that positions [0, p) match, searching outward
    from `hint`.  `same(lo, hi)` compares positions [lo, hi) and is only
    asked once [0, lo) is known to match."""
    lo, hi = 0, limit + 1
    hint = min(hint, limit)
    if same(0, hint):
        lo, step = hint, 1
        while lo + step <= limit and same(lo, lo + step):
            lo += step
            step *= 2
        hi = min(lo + step, limit + 1)
    else:
        hi = hint
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if same(lo, mid):
            lo = mid
        else:
            hi = mid
    return lo


def _line_window(before: str, line: str, hints: tuple[int, int]) -> tuple[int, str, int, tuple]:
    """(k, window text, m, (p, q)) for two different lines, `before`
    regular.  When the window text is regular, `line` is `before` with every
    token but the first k and the last m replaced by the window's tokens.
    p and q are the lengths in characters of the two lines' common prefix
    and (not overlapping it) common suffix, found by searching outward from
    `hints`, the previous line's (p, q); the window is snapped out to the
    spaces around them."""
    n, b = len(line), len(before)
    p = _match_length(lambda lo, hi: line.startswith(before[lo:hi], lo), hints[0], min(n, b))
    q = _match_length(
        lambda lo, hi: line.endswith(before[b - hi : b - lo], 0, n - lo), hints[1], min(n, b) - p
    )
    start = line.rfind(" ", 0, p) + 1
    stop = line.find(" ", n - q)
    if stop < 0:
        return line.count(" ", 0, start), line[start:], 0, (p, q)
    return line.count(" ", 0, start), line[start:stop], line.count(" ", stop), (p, q)


def parse_cost_table(text: str, normalized: bool = False, listed_form: bool = False) -> CostTable:
    """Parse the text format; errors name the text line.  Blank lines are
    skipped.  Each line is read as a window against the line before it (see
    `_line_window`), so only tokens in a window are split and parsed."""
    numbers, lines = _nonblank_lines(text)
    if not lines:
        raise ScenarioError("line 1: empty cost table")
    head = numbers[0]
    header = lines[0].split()
    if len(header) != 2 or not all(tok.isdigit() for tok in header):
        raise ScenarioError(f"line {head}: expected header 'S X', got {lines[0]!r}")
    S, X = int(header[0]), int(header[1])
    if len(lines) - 1 != S:
        raise ScenarioError(f"line {head}: header promises {S} rows, found {len(lines) - 1}")
    if S == 0:
        raise ScenarioError(f"line {head}: cost table needs at least one stage row")
    windows: list[Optional[tuple[int, list[str], int]]] = []
    before, regular_before, hints, wrong_width = None, False, (0, 0), None
    for i, line in zip(numbers[1:], lines[1:]):
        if line == before:
            windows.append(None)
            continue
        # Outside its window a line repeats a regular `before`, so it is
        # regular when its window is.
        window = _line_window(before, line, hints) if regular_before else None
        if window is not None and _regular(window[1]):
            k, middle, m, hints = window
            tokens, regular = middle.split(" "), True
        else:
            k, tokens, m = 0, line.split(), 0
            regular = _regular(line)
        if k + len(tokens) + m != X:  # raised after any bad token on an earlier line
            wrong_width = i, k + len(tokens) + m
            break
        windows.append((k, tokens, m))
        before, regular_before = line, regular
    distinct = dict.fromkeys(chain.from_iterable(w[1] for w in windows if w is not None))
    try:
        exact = {tok: Fraction(tok) for tok in distinct}
    except (ValueError, ZeroDivisionError):
        for i, window in zip(numbers[1:], windows):  # name the first bad token's line
            if window is not None:
                for tok in window[1]:
                    _parse_fraction(tok, i)
        raise
    if wrong_width is not None:
        raise ScenarioError(f"line {wrong_width[0]}: expected {X} values, found {wrong_width[1]}")
    table = CostTable.__new__(CostTable)
    table._build(exact, windows, normalized, listed_form, numbers[1:])
    return table


def parse_partial_table(text: str) -> PartialCostTable:
    """Rows of cells: 'p/q' (instant), 'p/q@d' (readable at budget d), '?' (never)."""
    numbers, lines = _nonblank_lines(text)
    if not lines:
        raise ScenarioError("line 1: empty partial table")
    rows = []
    for i, line in zip(numbers, lines):
        row: list[PartialCell] = []
        for token in line.split():
            if token == "?":
                row.append(None)
            elif "@" in token:
                value, _, delay = token.partition("@")
                if not delay.isdigit():
                    raise ScenarioError(f"line {i}: bad delay in {token!r}")
                row.append((_parse_fraction(value, i), int(delay)))
            else:
                row.append((_parse_fraction(token, i), 0))
        rows.append(tuple(row))
    for i, row in zip(numbers, rows):
        if len(row) != len(rows[0]):
            raise ScenarioError(f"line {i}: ragged partial table")
    return PartialCostTable(tuple(rows))


def to_listed_form(table: CostTable) -> CostTable:
    """Zero out positions x >= s; preserves both monotonicity directions."""
    rows = tuple(
        tuple(v if x < s else ZERO for x, v in enumerate(row))
        for s, row in enumerate(table.rows)
    )
    return CostTable(rows, normalized=table.normalized, listed_form=True)


def static_table(base_row: Sequence, horizon: int, normalized: bool = False) -> CostTable:
    return CostTable.from_rows([base_row], [0] * horizon, normalized=normalized)


def dyadic_decay_row(width: int, shift: int = 0, scale=ONE) -> tuple[Fraction, ...]:
    return tuple(Fraction(scale) * Fraction(1, 2 ** (x + shift)) for x in range(width))
