"""Cost-function synthesis: given a (possibly partial) word approximation and
a halting budget, grow a benign cost table, a speed-up map into the readable
part of the approximation, and per-requirement checkpoint maps; the change
set of the sped-up approximation is the produced enumerable cover.

`SynthesisRun.run()` returns the run itself, which carries its outputs:
the cost table, the closed-form bound, the speed-up map, the cover and one
ledger per requirement (`RequirementState`), holding the requirement with its
checkpoints, the stages they were added (the first is its start stage) and
its activity.
All outputs stay total whatever the input does; a divergent approximation
just freezes the speed-up and leaves the cost table at its initial shape.

Each stage reads the square readable so far from the approximation's
readiness frontier (shell ready times, their prefix max, one bisect per
stage), and books each stage's change charge once, when the bar first
covers both the stage and its first changed position.  `sped` holds the
row at each speed-up value and grows with the map; activity, worry,
checkpoints, the cover and the audit all read it.
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
    pair_code,
    readable_depth,
    unpair,
)
from .costs import CostTable, ZERO, dyadic_decay_row, first_difference, halving_exponent
from .errors import InvariantViolation, ScenarioError


class PartialStageMap:
    """Strictly increasing partial map on an initial segment, observed with
    per-entry delays (entries become visible in argument order): argument x
    maps to `values[x]`, observable from stage `visible_at[x]`."""

    def __init__(self, entries):
        parsed = sorted(((int(a), int(v), int(d)) for a, v, d in entries), key=lambda e: e[0])
        for i, (arg, value, visible_at) in enumerate(parsed):
            if arg != i:
                raise ScenarioError("stage map domain must be 0,1,2,... without gaps")
            if value < 0 or visible_at < 0:
                raise ScenarioError("stage map entries must be nonnegative")
            if i > 0:
                if value <= parsed[i - 1][1]:
                    raise ScenarioError("stage map must be strictly increasing")
                if visible_at < parsed[i - 1][2]:
                    raise ScenarioError("stage map entries must become visible in order")
        self.values = tuple(v for _, v, _ in parsed)
        self.visible_at = tuple(d for _, _, d in parsed)

    def observed(self, arg: int, stage: int) -> Optional[int]:
        if arg < len(self.values) and self.visible_at[arg] <= stage:
            return self.values[arg]
        return None

    def least_observed_above(self, bound: int, stage: int) -> Optional[int]:
        """Least value above `bound` observed by `stage`, or None.  The
        observed entries are a prefix, and values increase along it."""
        visible = bisect_right(self.visible_at, stage)
        k = bisect_right(self.values, bound, 0, visible)
        return self.values[k] if k < visible else None


@dataclass
class Requirement:
    cost: CostTable
    stage_map: PartialStageMap

    def __post_init__(self):
        if not self.cost.listed_form:
            raise ScenarioError("requirement cost tables must be in listed form")
        if not self.cost.normalized:
            raise ScenarioError("requirement cost tables must be normalized (bounded by 1)")
        # Activity terms and checkpoint indices run up to the stage map's last entry.
        if self.cost.horizon < len(self.stage_map.values):
            raise ScenarioError(
                f"requirement cost table has {self.cost.horizon} stages, fewer than its "
                f"stage map's {len(self.stage_map.values)} entries"
            )


@dataclass
class RequirementState:
    """One requirement's ledger in a run.  The run state stays here, off the
    `Requirement`, so one requirement can serve several runs."""

    requirement: Requirement
    checkpoints: list[int] = field(default_factory=list)
    added_at: list[int] = field(default_factory=list)  # stage each checkpoint was added
    activity: Fraction = ZERO
    next_term: int = 1


def closed_form_bound(budget_exp: int) -> Callable[[Fraction], int]:
    """Computable marker-count bound emitted alongside the synthesized table."""

    def bound(eps) -> int:
        eps = Fraction(eps)
        # The least j with 2^-j < eps/2: the least j with 2^-j <= eps/2,
        # one more when 2^-j equals eps/2.
        sharp = halving_exponent(eps / 2)
        if Fraction(1, 2**sharp) == eps / 2:
            sharp += 1
        wide = 2 ** (budget_exp + sharp)
        return 2 + wide + sharp * sharp * (1 + 2**sharp + wide)

    return bound


class SynthesisRun:
    """One synthesis run; `run()` completes it and returns it, outputs and
    per-requirement ledgers (`states`) included."""

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
        self.bound = closed_form_bound(budget_exp)
        self.horizon = horizon
        self.width = width if width is not None else horizon
        # Per stage, the cost row it reads; a stage that changes nothing
        # shares its predecessor's row object.  No stage defines the index-1
        # row; it is identified with the initial one.
        base = dyadic_decay_row(self.width)
        self.rows: list[tuple[Fraction, ...]] = [base, base]
        self.speedup: list[int] = [0]
        self.sped: list[str] = [approximation.rows[0]]  # appr.rows[speedup[v]] at v
        self.last_change = 0  # index of the last row that differs from its predecessor
        self.halted_at: Optional[int] = None
        self.states = [RequirementState(r) for r in requirements]
        self.doubling_stages: list[tuple[int, int]] = []  # (stage, doubled position)
        self.worried_log: list[tuple[int, int, int]] = []  # (stage, requirement, position)
        # Set when run() ends.
        self.cost_table: Optional[CostTable] = None
        self.cover: Optional[ChangeSet] = None
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

    @property
    def frontier(self) -> int:
        """Greatest argument of the speed-up map so far."""
        return len(self.speedup) - 1

    # ---- measurement ----------------------------------------------------------

    def _measure(self, bar: int) -> Fraction:
        """Total charge readable at `bar`; stage u pays the cost in force at
        u (rows[u] is fixed once u < the current stage)."""
        while self._booked < bar:
            self._booked += 1
            for u, p in self._due.get(self._booked, ()):
                self.measured += self.rows[u][p]
        return self.measured

    def _activity(self, state: RequirementState, stage: int) -> Fraction:
        req = state.requirement
        frontier = self.frontier
        while True:
            t = state.next_term
            value = req.stage_map.observed(t, stage)
            if value is None or value > frontier:
                break
            # Entries become visible in order, so entry t - 1 is visible too.
            y = first_difference(self.sped[value], self.sped[req.stage_map.values[t - 1]])
            if y is not None:
                state.activity += req.cost.value(t, y)
            state.next_term += 1
        return state.activity

    # ---- the stage loop -------------------------------------------------------

    def run(self) -> "SynthesisRun":
        for stage in range(1, self.horizon):
            if self.halted_at is not None:
                break
            self._stage(stage)
        self.rows += self.rows[-1:] * (self.horizon + 1 - len(self.rows))
        self.cost_table = CostTable(self.rows, normalized=True)
        self.cover = change_set(self.sped)
        return self

    def _stage(self, stage: int) -> None:
        bar = readable_depth(self.appr, stage)
        measured = self._measure(bar)
        # measured > 2^budget_exp, without building the power
        if measured and self.budget_exp < halving_exponent(1 / measured):
            self.halted_at = stage
            return
        frontier = self.frontier
        for state in self.states:
            if not state.checkpoints:
                start = state.requirement.stage_map.observed(0, stage)
                if start is not None and start <= frontier:
                    state.checkpoints.append(start)
                    state.added_at.append(stage)
            self._activity(state, stage)
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
            self.sped.append(self.appr.rows[bar])
            self.rows.append(self.rows[-1])
            self._extend_checkpoints(stage)
            if self.speedup[-1] <= self.speedup[-2]:
                raise InvariantViolation("speed-up map stopped increasing")
            return
        self.rows.append(self.rows[-1])

    def _worried_pairs(self, stage: int, bar: int) -> list[tuple[int, int]]:
        frontier = self.frontier
        out = []
        row = self.rows[-1]
        bar_row = self.appr.rows[bar]
        for e, state in enumerate(self.states[:frontier]):
            if not state.checkpoints or state.activity > 1:
                continue
            if state.added_at[0] >= stage:
                continue  # a requirement worries only strictly after its start stage
            t_e = len(state.checkpoints) - 1
            anchor_row = self.sped[state.checkpoints[-1]]
            if bar_row == anchor_row:
                continue  # rows that agree everywhere worry at no position
            share = Fraction(1, 2 ** (e + 1))
            for z in range(min(frontier, self.width, self.appr.width)):
                if bar_row[z] == anchor_row[z]:
                    continue
                if row[z] < share * state.requirement.cost.value(t_e, z):
                    out.append((e, z))
        return out

    def _extend_checkpoints(self, stage: int) -> None:
        frontier = self.frontier
        for state in self.states[:stage]:
            if not state.checkpoints:
                continue
            last = state.checkpoints[-1]  # below the frontier, which just grew
            prefix = len(state.checkpoints)  # t^e + 1
            # Largest window [n, frontier] on which the sped-up rows agree on
            # the prefix; then the least observed stage-map value inside it.
            floor = frontier
            top_row = self.sped[frontier][:prefix]
            while floor - 1 > last and self.sped[floor - 1][:prefix] == top_row:
                floor -= 1
            chosen = state.requirement.stage_map.least_observed_above(
                max(last, floor - 1), stage
            )
            if chosen is not None and chosen <= frontier:
                if chosen <= last:
                    raise InvariantViolation(
                        "checkpoint left the observed-range/speed-up-domain corridor"
                    )
                state.checkpoints.append(chosen)
                state.added_at.append(stage)


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


def audit_requirement(run: SynthesisRun, e: int) -> RequirementAudit:
    """Replay the cover's charges along requirement `e`'s checkpoints in the
    finished `run` and classify each one: persistent changes are funded by
    the requirement's own activity (total at most 1), transients by the
    synthesized cost sum (total at most 2^budget / share)."""
    state = run.states[e]
    if state.activity > 1:
        raise ScenarioError("audit precondition failed: activity sum above 1")
    share = Fraction(1, 2 ** (e + 1))
    charges: list[ChargeRecord] = []
    persistent = ZERO
    transient = ZERO
    for t in range(1, len(state.checkpoints)):
        lo, hi = state.checkpoints[t - 1], state.checkpoints[t]
        fresh = [
            pair_code(x, n)
            for (x, n), at in run.cover.pairs.items()
            if lo < at <= hi
        ]
        if not fresh:
            continue
        code = min(fresh)
        amount = state.requirement.cost.value(t, code)
        if amount == 0:
            continue
        position = unpair(code)[0]
        flip = next(
            (n for n in range(lo + 1, hi + 1) if run.sped[n][position] != run.sped[n - 1][position]),
            None,
        )
        if flip is None:
            raise InvariantViolation(f"charge {t} for requirement {e} has no recorded change")
        if run.sped[flip][position] == run.sped[hi][position]:
            _verify_persistent(run, e, t, position)
            persistent += amount
            charges.append(ChargeRecord(t, code, position, amount, 1))
        else:
            _verify_transient(run, e, t, flip, position, share * amount)
            transient += amount
            charges.append(ChargeRecord(t, code, position, amount, 2))
    if persistent > 1:
        raise InvariantViolation(
            f"persistent charges for requirement {e} total {persistent}, above 1"
        )
    ceiling = run.budget_exp + e + 1  # 2^budget_exp / share = 2^ceiling
    if transient and ceiling < halving_exponent(1 / transient):
        raise InvariantViolation(
            f"transient charges for requirement {e} total {transient}, above {2**ceiling}"
        )
    return RequirementAudit(e, charges, persistent, transient)


def _verify_persistent(run: SynthesisRun, e: int, t: int, position: int) -> None:
    """Charge `t` of requirement `e` changed `position` for good: activity
    terms inside the charge's checkpoint window see that position change,
    and the first of them has index `t` or later."""
    state = run.states[e]
    stage_map = state.requirement.stage_map
    lo, hi = state.checkpoints[t - 1], state.checkpoints[t]
    hits = []
    for x in range(1, len(stage_map.values)):
        value = stage_map.observed(x, run.horizon)
        if value is None or not (lo < value <= hi):
            continue
        # Entry x - 1 is visible too, and hi is a checkpoint, so both values
        # lie in the speed-up map's domain.
        if run.sped[value][position] != run.sped[stage_map.values[x - 1]][position]:
            hits.append(x)
    if not hits or min(hits) < t:
        raise InvariantViolation(
            f"persistent charge {t} for requirement {e} is not covered by its activity"
        )


def _verify_transient(run: SynthesisRun, e: int, t: int, flip: int, position: int, due) -> None:
    """Charge `t` of requirement `e` was undone: some change of `position`
    between the sped-up stages of `flip` and the window's end costs at least
    `due`, the requirement's share of the charge."""
    start = run.speedup[flip]
    end = run.speedup[run.states[e].checkpoints[t]]
    for u in range(start + 1, end + 1):
        if run.appr.rows[u][position] != run.appr.rows[u - 1][position]:
            if run.cost_table.value(u, position) >= due:
                return
    raise InvariantViolation(
        f"transient charge {t} for requirement {e} found no funded reversal"
    )
