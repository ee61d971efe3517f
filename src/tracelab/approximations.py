"""Stagewise 0/1 word approximations with explicit convergence schedules,
change sets, change-set decoding, and the obedience speed-up construction.

Readable depth is a readiness frontier: shell t (cells with max(u, x) == t)
is ready at max(t, its scheduled walls), the prefix max of those times is
built once per approximation, and each depth query bisects it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .costs import CostTable, ZERO, change_costs, first_difference, ready_depth, ready_prefix
from .errors import HorizonExhausted, ScenarioError, decimal, signed
from .words import check_word


def pair_code(x: int, n: int) -> int:
    """Diagonal pairing; satisfies x <= pair_code(x, n)."""
    return (x + n) * (x + n + 1) // 2 + n


def unpair(code: int) -> tuple[int, int]:
    diag = 0
    while (diag + 1) * (diag + 2) // 2 <= code:
        diag += 1
    n = code - diag * (diag + 1) // 2
    return diag - n, n


@dataclass(frozen=True)
class WordApproximation:
    """Rows A_s over positions 0..width-1 plus a readability schedule.

    `schedule` maps (stage, position) to the wall stage at which the cell
    becomes readable (None = never); cells not listed are readable from their
    own stage on.
    """

    rows: tuple[str, ...]
    schedule: dict[tuple[int, int], Optional[int]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.rows:
            raise ScenarioError("approximation needs at least one row")
        width = len(self.rows[0])
        for s, row in enumerate(self.rows):
            check_word(row)
            if len(row) != width:
                raise ScenarioError(f"row {s} has width {len(row)}, expected {width}")
        for (s, x), wall in self.schedule.items():
            if not (0 <= s < len(self.rows) and 0 <= x < width):
                raise ScenarioError(f"schedule entry ({s},{x}) outside the table")
            if wall is not None and wall < s:
                raise ScenarioError(f"schedule entry ({s},{x}) readable before its stage")

    @property
    def horizon(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @cached_property
    def square_ready(self) -> tuple[int, ...]:
        """Entry b: the wall from which the square u, x <= b is readable
        (see `costs.ready_prefix`)."""
        shells: list[Optional[int]] = list(range(min(self.horizon, self.width)))
        for (s, x), wall in self.schedule.items():
            t = max(s, x)
            if t < len(shells) and shells[t] is not None:
                shells[t] = None if wall is None else max(shells[t], wall)
        return ready_prefix(shells)


def readable_depth(appr: WordApproximation, stage: int) -> int:
    """Greatest b < stage with every cell (u, x), u, x <= b readable at wall
    `stage`; 0 when no such b exists."""
    if stage < 1:
        raise ScenarioError("readable_depth needs a stage >= 1")
    top = min(stage - 1, appr.horizon - 1, appr.width - 1)
    return max(0, ready_depth(appr.square_ready, stage, top))


@dataclass(frozen=True)
class ChangeSet:
    """Pairs (position, n) recording that the position changed at least n
    times, with the stage index at which each pair was enumerated."""

    pairs: dict[tuple[int, int], int]

    def __post_init__(self):
        for (x, n), stage in self.pairs.items():
            if n < 1:
                raise ScenarioError(f"change count below 1 in pair ({x},{n})")
            if n > 1 and (x, n - 1) not in self.pairs:
                raise ScenarioError(f"pair ({x},{n}) present without ({x},{n - 1})")

    def max_changes(self, position: int) -> int:
        n = 0
        while (position, n + 1) in self.pairs:
            n += 1
        return n

    def codes_by_stage(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for (x, n), stage in self.pairs.items():
            out.setdefault(stage, []).append(pair_code(x, n))
        for codes in out.values():
            codes.sort()
        return out


def compose_rows(appr: WordApproximation, speedup: Optional[Sequence[int]]) -> list[str]:
    if speedup is None:
        return list(appr.rows)
    rows = []
    previous = None
    for value in speedup:
        if previous is not None and value <= previous:
            raise ScenarioError("speed-up map must be strictly increasing")
        previous = value
        if value < 0:
            raise ScenarioError(f"speed-up map has a negative stage {value}")
        if value >= appr.horizon:
            break  # beyond-horizon stages are clipped
        rows.append(appr.rows[value])
    if not rows:
        raise ScenarioError(f"speed-up map has no stage below horizon {appr.horizon}")
    return rows


def change_set(rows: Sequence[str]) -> ChangeSet:
    """Change set of one or more composed rows of equal width (see
    `compose_rows` for a sped-up approximation's).

    A pair (x, n) is enumerated at the first stage by which position x has
    changed n times; stage indices refer to the row sequence.
    """
    pairs: dict[tuple[int, int], int] = {}
    width = len(rows[0])
    counts = [0] * width
    for s in range(1, len(rows)):
        if rows[s] == rows[s - 1]:
            continue
        for x in range(width):
            if rows[s][x] != rows[s - 1][x]:
                counts[x] += 1
                pairs[(x, counts[x])] = s
    return ChangeSet(pairs)


def decode(cs: ChangeSet, base_row: str) -> str:
    """Limit word from a complete change set: flip each position whose total
    change count is odd."""
    bits = list(check_word(base_row))
    for x in range(len(bits)):
        if cs.max_changes(x) % 2 == 1:
            bits[x] = "1" if bits[x] == "0" else "0"
    return "".join(bits)


def changeset_obedience(table: CostTable, cs: ChangeSet) -> Fraction:
    """Total change cost of the change-set enumeration itself, with pairs
    living at their diagonal pair codes."""
    total = ZERO
    for stage, codes in sorted(cs.codes_by_stage().items()):
        total += table.value(stage, min(codes))
    return total


@dataclass(frozen=True)
class SpeedupStep:
    index: int
    stage: int
    position: int
    target: Fraction
    value_found: Fraction


@dataclass(frozen=True)
class SpeedupResult:
    steps: tuple[SpeedupStep, ...]
    speedup: tuple[int, ...]  # the map h, h(s) = stage of step s+1
    stage_costs: tuple[Fraction, ...]  # cost charged at each h-index >= 1
    omitted: int  # initial h-indices excluded from the tail
    tail_sum: Fraction
    full_sum: Fraction


def obedience_speedup(
    cost: CostTable,
    witness_cost: CostTable,
    target: WordApproximation,
    witness: WordApproximation,
    budget=Fraction(1),
    steps: Optional[int] = None,
) -> SpeedupResult:
    """Speed-up of `target` along which its change cost under `cost` has a
    tail bounded by `budget`.

    Searches for stage/position pairs where the cost has dropped below a
    halving target, `target` and `witness` agree on a growing prefix, and
    twice the witness cost dominates the cost on the settled prefix; the
    witness approximation is expected to change cheaply under `witness_cost`.
    Raises HorizonExhausted when `steps` search steps were demanded but the
    tables end first, and ScenarioError on a negative `steps` or `budget`.
    """
    budget = Fraction(budget)
    if steps is not None and steps < 0:
        raise ScenarioError(f"speed-up needs a step count of at least 0, got {steps}")
    if budget < 0:
        raise ScenarioError(f"speed-up needs a budget of at least 0, got {budget}")
    horizon = min(target.horizon, witness.horizon, cost.horizon, witness_cost.horizon)
    found: list[SpeedupStep] = []
    prev_stage, prev_pos = 1, 1
    index = 0
    while steps is None or len(found) < steps:
        threshold = Fraction(1, 2 ** (index + 1))
        hit = None
        for t in range(prev_stage + 1, horizon):
            if any(
                2 * witness_cost.value(t, y) < cost.value(t, y) for y in range(prev_pos)
            ):
                continue
            agree = first_difference(target.rows[t], witness.rows[t])
            agree_len = target.width if agree is None else agree
            for x in range(prev_pos + 1, min(agree_len, target.width) + 1):
                if cost.value(t, x) < threshold:
                    hit = SpeedupStep(index, t, x, threshold, cost.value(t, x))
                    break
            if hit:
                break
        if hit is None:
            if steps is not None:
                raise HorizonExhausted(
                    f"search step {index} found no admissible stage/position pair "
                    f"within horizon {horizon}"
                )
            break
        found.append(hit)
        prev_stage, prev_pos = hit.stage, hit.position
        index += 1

    speedup = tuple(found[i + 1].stage for i in range(len(found) - 1))
    costs = change_costs(cost, [target.rows[h] for h in speedup])
    full = sum(costs, ZERO)
    omitted = 0
    tail = full
    while tail > budget and omitted < len(costs):
        tail -= costs[omitted]
        omitted += 1
    if tail > budget:
        raise HorizonExhausted(
            f"tail cost {tail} still above budget {budget} after omitting every stage"
        )
    return SpeedupResult(tuple(found), speedup, tuple(costs), omitted, tail, full)


# --- text format: "S X" header, S bit rows, optional "(s,x,wall)" schedule ---


def parse_word_approx(text: str) -> WordApproximation:
    numbered = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not numbered:
        raise ScenarioError("line 1: empty approximation")
    head, header_line = numbered[0]
    header = [decimal(tok) for tok in header_line.split()]
    if len(header) != 2 or None in header:
        raise ScenarioError(f"line {head}: expected header 'S X', got {header_line!r}")
    S, X = header
    if len(numbered) < 1 + S:
        raise ScenarioError(f"line {head}: header promises {S} rows, found {len(numbered) - 1}")
    rows = []
    for i, line in numbered[1 : 1 + S]:
        if len(line) != X or line.strip("01"):
            raise ScenarioError(f"line {i}: expected {X} bits, got {line!r}")
        rows.append(line)
    schedule: dict[tuple[int, int], Optional[int]] = {}
    for i, line in numbered[1 + S :]:
        if not (line.startswith("(") and line.endswith(")")):
            raise ScenarioError(f"line {i}: expected schedule triple, got {line!r}")
        parts = [p.strip() for p in line[1:-1].split(",")]
        if len(parts) != 3:
            raise ScenarioError(f"line {i}: expected three fields in {line!r}")
        s, x, wall = (signed(p) for p in parts)
        if None in (s, x) or (wall is None and parts[2] not in ("∞", "inf")):
            raise ScenarioError(f"line {i}: expected integer fields in {line!r}")
        if not (0 <= s < S and 0 <= x < X):
            raise ScenarioError(f"line {i}: schedule entry ({s},{x}) outside the table")
        if wall is not None and wall < s:
            raise ScenarioError(f"line {i}: schedule entry ({s},{x}) readable before its stage")
        if (s, x) in schedule:
            raise ScenarioError(f"line {i}: schedule entry ({s},{x}) listed twice")
        schedule[(s, x)] = wall
    return WordApproximation(tuple(rows), schedule)
