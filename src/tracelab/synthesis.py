"""Cost-function synthesis: given a (possibly partial) word approximation and
a halting budget, grow a benign cost table, a speed-up map into the readable
part of the approximation, and per-requirement checkpoint maps; the change
set of the sped-up approximation is the produced enumerable cover.

All outputs stay total whatever the input does; a divergent approximation
just freezes the speed-up and leaves the cost table at its initial shape.

Each stage reads the square readable so far from the approximation's
readiness frontier (shell ready times, their prefix max, one bisect per
stage), and books each stage's change charge once, when the bar first
covers both the stage and its first changed position.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .approximations import (
    ChangeSet,
    WordApproximation,
    change_set,
    compose_rows,
    pair_code,
    readable_depth,
    unpair,
)
from .costs import CostTable, ZERO, first_difference
from .errors import InvariantViolation, ScenarioError


@dataclass(frozen=True)
class StageMapEntry:
    arg: int
    value: int
    visible_at: int  # stage from which the entry can be observed


class PartialStageMap:
    """Strictly increasing partial map on an initial segment, observed with
    per-entry delays (entries become visible in argument order)."""

    def __init__(self, entries):
        parsed = [StageMapEntry(int(a), int(v), int(d)) for a, v, d in entries]
        parsed.sort(key=lambda e: e.arg)
        for i, entry in enumerate(parsed):
            if entry.arg != i:
                raise ScenarioError("stage map domain must be 0,1,2,... without gaps")
            if entry.value < 0 or entry.visible_at < 0:
                raise ScenarioError("stage map entries must be nonnegative")
            if i > 0:
                if entry.value <= parsed[i - 1].value:
                    raise ScenarioError("stage map must be strictly increasing")
                if entry.visible_at < parsed[i - 1].visible_at:
                    raise ScenarioError("stage map entries must become visible in order")
        self.entries = parsed
        self._visible_at = [e.visible_at for e in parsed]
        self._values = [e.value for e in parsed]

    def observed(self, arg: int, stage: int) -> Optional[int]:
        if arg < len(self.entries) and self.entries[arg].visible_at <= stage:
            return self.entries[arg].value
        return None

    def least_observed_above(self, bound: int, stage: int) -> Optional[int]:
        """Least value above `bound` observed by `stage`, or None.  The
        observed entries are a prefix, and values increase along it."""
        visible = bisect_right(self._visible_at, stage)
        k = bisect_right(self._values, bound, 0, visible)
        return self._values[k] if k < visible else None


@dataclass
class Requirement:
    cost: CostTable
    stage_map: PartialStageMap

    def __post_init__(self):
        if not self.cost.listed_form:
            raise ScenarioError("requirement cost tables must be in listed form")
        if not self.cost.normalized:
            raise ScenarioError("requirement cost tables must be normalized (bounded by 1)")


@dataclass
class RequirementState:
    checkpoints: list[int] = field(default_factory=list)
    extended_at: list[int] = field(default_factory=list)
    first_seen: Optional[int] = None
    activity: Fraction = ZERO
    next_term: int = 1


def closed_form_bound(budget_exp: int) -> Callable[[Fraction], int]:
    """Computable marker-count bound emitted alongside the synthesized table."""

    def bound(eps) -> int:
        eps = Fraction(eps)
        if eps <= 0:
            raise ScenarioError("threshold must be positive")
        sharp = 0
        while Fraction(1, 2**sharp) >= eps / 2:
            sharp += 1
        wide = 2 ** (budget_exp + sharp)
        return 2 + wide + sharp * sharp * (1 + 2**sharp + wide)

    return bound


@dataclass
class SynthOutputs:
    approximation: WordApproximation
    budget_exp: int
    requirements: list[Requirement]
    cost_table: CostTable
    bound: Callable[[Fraction], int]
    speedup: tuple[int, ...]
    checkpoints: list[tuple[int, ...]]
    checkpoint_stages: list[tuple[int, ...]]
    first_seen: list[Optional[int]]
    activity: list[Fraction]
    halted_at: Optional[int]
    measured: Fraction
    doubling_stages: list[tuple[int, int]]  # (stage, doubled position)
    extension_stages: list[int]
    worried_log: list[tuple[int, int, int]]  # (stage, requirement, position)
    cover: ChangeSet

    @property
    def frontier(self) -> int:
        return len(self.speedup) - 1


class SynthesisRun:
    def __init__(
        self,
        approximation: WordApproximation,
        budget_exp: int,
        requirements: list[Requirement],
        horizon: int,
        width: Optional[int] = None,
    ):
        if budget_exp < 0:
            raise ScenarioError("budget exponent must be nonnegative")
        if horizon < 2:
            raise ScenarioError("horizon must be at least 2")
        if width is not None and width < 1:
            raise ScenarioError(f"width must be at least 1, got {width}")
        self.appr = approximation
        self.budget_exp = budget_exp
        self.requirements = requirements
        self.horizon = horizon
        self.width = width if width is not None else horizon
        # Per stage, the cost row it reads; a stage that changes nothing
        # shares its predecessor's row object.  No stage defines the index-1
        # row; it is identified with the initial one.
        base = tuple(Fraction(1, 2**z) for z in range(self.width))
        self.rows: list[tuple[Fraction, ...]] = [base, base]
        self.speedup: list[int] = [0]
        self.last_change = 0  # index of the last row that differs from its predecessor
        self.halted_at: Optional[int] = None
        self.states = [RequirementState() for _ in requirements]
        self.doubling_stages: list[tuple[int, int]] = []
        self.extension_stages: list[int] = []
        self.worried_log: list[tuple[int, int, int]] = []
        # Stage u's change charge falls due once the bar covers both u and
        # its first changed position p: due[max(u, p)] lists those (u, p).
        # Positions at or past the cost width charge nothing.
        self._due: dict[int, list[tuple[int, int]]] = {}
        rows = approximation.rows
        for u in range(1, approximation.horizon):
            p = first_difference(rows[u], rows[u - 1])
            if p is not None and p < self.width:
                self._due.setdefault(max(u, p), []).append((u, p))
        self._booked = 0  # every charge due at a bar up to this one is booked
        self.measured = ZERO

    # ---- measurement ----------------------------------------------------------

    def _measure(self, bar: int) -> Fraction:
        """Total charge readable at `bar`; stage u pays the cost in force at
        u (rows[u] is fixed once u < the current stage)."""
        while self._booked < bar:
            self._booked += 1
            for u, p in self._due.get(self._booked, ()):
                self.measured += self.rows[u][p]
        return self.measured

    def _activity(self, e: int, stage: int) -> Fraction:
        state = self.states[e]
        req = self.requirements[e]
        frontier = len(self.speedup) - 1
        while True:
            t = state.next_term
            value = req.stage_map.observed(t, stage)
            if value is None or value > frontier:
                break
            prev = req.stage_map.observed(t - 1, stage)
            if prev is None:
                break
            row_now = self.appr.rows[self.speedup[value]]
            row_before = self.appr.rows[self.speedup[prev]]
            y = first_difference(row_now, row_before)
            term = req.cost.value(t, y) if y is not None else ZERO
            state.activity += term
            state.next_term += 1
        return state.activity

    # ---- the stage loop -------------------------------------------------------

    def run(self) -> SynthOutputs:
        for stage in range(1, self.horizon):
            if self.halted_at is not None:
                break
            self._stage(stage)
        self.rows += self.rows[-1:] * (self.horizon + 1 - len(self.rows))
        table = CostTable(self.rows, normalized=True)
        cover = change_set(self.appr, self.speedup) if len(self.speedup) > 1 else ChangeSet({})
        return SynthOutputs(
            approximation=self.appr,
            budget_exp=self.budget_exp,
            requirements=self.requirements,
            cost_table=table,
            bound=closed_form_bound(self.budget_exp),
            speedup=tuple(self.speedup),
            checkpoints=[tuple(s.checkpoints) for s in self.states],
            checkpoint_stages=[tuple(s.extended_at) for s in self.states],
            first_seen=[s.first_seen for s in self.states],
            activity=[s.activity for s in self.states],
            halted_at=self.halted_at,
            measured=self.measured,
            doubling_stages=self.doubling_stages,
            extension_stages=self.extension_stages,
            worried_log=self.worried_log,
            cover=cover,
        )

    def _readable_depth(self, stage: int) -> int:
        return readable_depth(self.appr, stage)

    def _stage(self, stage: int) -> None:
        bar = self._readable_depth(stage)
        measured = self._measure(bar)
        if measured > 2**self.budget_exp:
            self.halted_at = stage
            return
        frontier = len(self.speedup) - 1
        for e, state in enumerate(self.states):
            if state.first_seen is None:
                start = self.requirements[e].stage_map.observed(0, stage)
                if start is not None and start <= frontier:
                    state.checkpoints.append(start)
                    state.extended_at.append(stage)
                    state.first_seen = stage
            self._activity(e, stage)
        if bar <= self.last_change:
            self.rows.append(self.rows[-1])
            return
        worried = self._worried_pairs(stage, bar)
        if worried:
            target = min(z for _, z in worried)
            for e, z in worried:
                self.worried_log.append((stage, e, z))
            current = self.rows[-1]
            raised = 2 * current[target]
            if raised > 1:
                raise InvariantViolation(
                    f"cost doubling escaped the unit bound at stage {stage}"
                )
            new_row = tuple(
                max(v, raised) if y < frontier else v for y, v in enumerate(current)
            )
            self.rows.append(new_row)
            self.last_change = stage + 1
            self.doubling_stages.append((stage, target))
            return
        if bar > self.speedup[-1]:
            self.speedup.append(bar)
            self.rows.append(self.rows[-1])
            self.extension_stages.append(stage)
            self._extend_checkpoints(stage)
            if self.speedup[-1] <= self.speedup[-2]:
                raise InvariantViolation("speed-up map stopped increasing")
            return
        self.rows.append(self.rows[-1])

    def _worried_pairs(self, stage: int, bar: int) -> list[tuple[int, int]]:
        frontier = len(self.speedup) - 1
        out = []
        row = self.rows[-1]
        for e in range(min(len(self.requirements), frontier)):
            state = self.states[e]
            if not state.checkpoints or state.activity > 1:
                continue
            if state.first_seen is not None and state.first_seen >= stage:
                continue  # a requirement worries only strictly after its start stage
            t_e = len(state.checkpoints) - 1
            anchor_row = self.appr.rows[self.speedup[state.checkpoints[-1]]]
            bar_row = self.appr.rows[bar]
            share = Fraction(1, 2 ** (e + 1))
            for z in range(min(frontier, self.width, self.appr.width)):
                if bar_row[z] == anchor_row[z]:
                    continue
                if row[z] < share * self.requirements[e].cost.value(t_e, z):
                    out.append((e, z))
        return out

    def _extend_checkpoints(self, stage: int) -> None:
        frontier = len(self.speedup) - 1
        for e in range(min(len(self.requirements), stage)):
            state = self.states[e]
            if not state.checkpoints:
                continue
            last = state.checkpoints[-1]
            if last >= frontier:
                continue
            prefix = len(state.checkpoints)  # t^e + 1
            # Largest window [n, frontier] on which the sped-up rows agree on
            # the prefix; then the least observed stage-map value inside it.
            floor = frontier
            top_row = self.appr.rows[self.speedup[frontier]][:prefix]
            while floor - 1 > last and self.appr.rows[self.speedup[floor - 1]][:prefix] == top_row:
                floor -= 1
            chosen = self.requirements[e].stage_map.least_observed_above(
                max(last, floor - 1), stage
            )
            if chosen is not None and chosen <= frontier:
                if chosen <= last or chosen > len(self.speedup) - 1:
                    raise InvariantViolation(
                        "checkpoint left the observed-range/speed-up-domain corridor"
                    )
                state.checkpoints.append(chosen)
                state.extended_at.append(stage)


# ---- final accounting -----------------------------------------------------


@dataclass
class ChargeRecord:
    index: int
    code: int
    position: int
    amount: Fraction
    case: int


@dataclass
class RequirementAudit:
    requirement: int
    charges: list[ChargeRecord]
    persistent_total: Fraction
    transient_total: Fraction

    @property
    def total(self) -> Fraction:
        return self.persistent_total + self.transient_total


def audit_requirement(outputs: SynthOutputs, e: int) -> RequirementAudit:
    """Replay the cover's charges along the requirement's checkpoints and
    classify each one: persistent changes are funded by the requirement's own
    activity (total at most 1), transients by the synthesized cost sum (total
    at most 2^budget / share)."""
    req = outputs.requirements[e]
    state_checkpoints = outputs.checkpoints[e]
    if outputs.activity[e] > 1:
        raise ScenarioError("audit precondition failed: activity sum above 1")
    share = Fraction(1, 2 ** (e + 1))
    rows = compose_rows(outputs.approximation, outputs.speedup)
    enum_by_pair = outputs.cover.pairs
    charges: list[ChargeRecord] = []
    persistent = ZERO
    transient = ZERO
    for t in range(1, len(state_checkpoints)):
        lo, hi = state_checkpoints[t - 1], state_checkpoints[t]
        fresh = [
            pair_code(x, n)
            for (x, n), at in enum_by_pair.items()
            if lo < at <= hi
        ]
        if not fresh:
            continue
        code = min(fresh)
        amount = req.cost.value(t, code)
        if amount == 0:
            continue
        position = unpair(code)[0]
        flip = next(
            (n for n in range(lo + 1, hi + 1) if rows[n][position] != rows[n - 1][position]),
            None,
        )
        if flip is None:
            raise InvariantViolation(f"charge {t} for requirement {e} has no recorded change")
        if rows[flip][position] == rows[hi][position]:
            _verify_persistent(outputs, req, e, t, lo, hi, position)
            persistent += amount
            charges.append(ChargeRecord(t, code, position, amount, 1))
        else:
            _verify_transient(outputs, req, e, t, flip, hi, position, share, amount)
            transient += amount
            charges.append(ChargeRecord(t, code, position, amount, 2))
    if persistent > 1:
        raise InvariantViolation(
            f"persistent charges for requirement {e} total {persistent}, above 1"
        )
    if transient > Fraction(2**outputs.budget_exp) / share:
        raise InvariantViolation(
            f"transient charges for requirement {e} total {transient}, "
            f"above {Fraction(2 ** outputs.budget_exp) / share}"
        )
    return RequirementAudit(e, charges, persistent, transient)


def _verify_persistent(outputs, req, e, t, lo, hi, position) -> None:
    horizon = outputs.cost_table.horizon - 1
    hits = []
    for x in range(1, len(req.stage_map.entries)):
        value = req.stage_map.observed(x, horizon)
        prev = req.stage_map.observed(x - 1, horizon)
        if value is None or prev is None or not (lo < value <= hi):
            continue
        if value > len(outputs.speedup) - 1 or prev > len(outputs.speedup) - 1:
            continue
        row_now = outputs.approximation.rows[outputs.speedup[value]]
        row_before = outputs.approximation.rows[outputs.speedup[prev]]
        if row_now[position] != row_before[position]:
            hits.append(x)
    if not hits or min(hits) < t:
        raise InvariantViolation(
            f"persistent charge {t} for requirement {e} is not covered by its activity"
        )


def _verify_transient(outputs, req, e, t, flip, hi, position, share, amount) -> None:
    start = outputs.speedup[flip]
    end = outputs.speedup[hi]
    for u in range(start + 1, end + 1):
        if outputs.approximation.rows[u][position] != outputs.approximation.rows[u - 1][position]:
            if outputs.cost_table.value(u, position) >= share * amount:
                return
    raise InvariantViolation(
        f"transient charge {t} for requirement {e} found no funded reversal"
    )
