"""Level-indexed promotion engine: candidate lengths, initial and hypercube
testing, conflicts, promotions, the certified conflict-bound audit, and the
extracted approximation with its exact cost ledger.

Each level keeps a list of `Slot`s, one per candidate length, in the order
the lengths were added.  A slot holds its length, the stage it was added and
its `Candidate`s, the certified strings of that length in listing order.  A
candidate's `since` is its first successful stage, set when the environment's
success ledger (`Environment.lacking`) empties its pair's entry: at spawn,
or when an enumeration record lists the pair.  A slot's `conflict` is the
stage it latched and the two successful candidates that agree below the
previous length.

An honest run's extraction decides credibility once: its anchor stage is the
first at which the base level's chain check holds for the truth's prefix,
`uniqueness_sweep` tabulates the credible word at every level and every
stage from there on (raising where two are credible), and each step reads
that table.  Both run after the last stage, when the slots and candidates
are final, and evaluate only at the stages where a level's answer can
change: a slot's `added`, or a candidate's `appeared` or `since`
(`LevelState.change_stages`).  Every other entry repeats the one before.
`Extraction.expensive` counts, per threshold exponent n, the steps that cost
at least 2^-n.

A stage does work in proportion to what changed.  A level's witness chain
(its stumps, deficits, canonical pattern and witness box) depends only on the
level's slot count and its latched conflicts, and both only grow, so the
chain is kept on `LevelState` and rebuilt only when a slot was added or a
conflict latched; every audit still re-runs the content checks over the
witness box's whole content.  `_succeed` is the one writer of `since` and
files the candidate's slot under that stage on its level: a slot's
conflict scan can only find a new pair at a stage where one of its
candidates becomes successful, so `_settle_conflicts` scans just the slots
filed for the stage.  `CoherentLengths` is built once per run and owns the
cost table's marker sequences at thresholds 2^-r, the layout's slack derived
from them, and, per level, the sorted union of the sequences at r <= level,
so a coherent length is one bisection.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .costs import (
    CostTable,
    MarkerSequence,
    ZERO,
    first_difference,
    halving_exponent,
    marker_sequence,
)
from .errors import InvariantViolation, ScenarioError
from .tracer import Box, BoxLayout, Environment, box_name, oracle_step
from .words import comparable, is_prefix, restrict


class CoherentLengths:
    """A cost table's marker structure for one promotion run: `markers[r]`,
    the marker sequence at threshold 2^-r, r <= top_level; `slack[n]`,
    n >= 1, 1 plus the marker counts at r <= n, a bound on the distinct
    coherent lengths; and per level, `union`, the sorted union of the
    sequences at r <= level, and `threshold`, 2^-level."""

    def __init__(self, cost: CostTable, top_level: int):
        self.cost = cost
        self.markers: dict[int, MarkerSequence] = {}
        self.slack: dict[int, int] = {}
        self.union: dict[int, list[int]] = {}
        self.threshold: dict[int, Fraction] = {}
        running, seen = 1, set()
        for level in range(top_level + 1):
            threshold = self.threshold[level] = Fraction(1, 2**level)
            sequence = self.markers[level] = marker_sequence(cost, threshold)
            running += sequence.count
            if level:
                self.slack[level] = running
            seen.update(sequence.markers)
            self.union[level] = sorted(seen)

    def length(self, level: int, stage: int) -> int:
        """Largest marker at thresholds 2^-r, r <= level, seen by `stage` (at
        least `level`); the cost at the result is certified below 2^-level.

        The certificate has one provable exception: when `stage` is itself
        the newest 2^-level marker, the cost there may still sit at the
        threshold.  Any other failure means the marker table does not belong
        to the cost table.
        """
        # Every marker sequence starts at 0, so each bisection finds a marker.
        union = self.union[level]
        best = max(level, union[bisect_right(union, stage) - 1])
        if not (level <= best <= max(level, stage)):
            raise InvariantViolation(f"coherent length {best} escaped its bracket at ({level},{stage})")
        if self.cost.value(stage, best) >= self.threshold[level]:
            own = self.markers[level].markers
            if stage != own[bisect_right(own, stage) - 1]:
                raise InvariantViolation(
                    f"marker table inconsistent with the cost table at level {level}, stage {stage}"
                )
        return best


@dataclass(eq=False)
class Candidate:
    """The `index`-th certified string listed at `slot` (both from 1)."""

    word: str
    appeared: int
    slot: int
    index: int
    since: Optional[int] = None  # first successful stage

    def successful_at(self, stage: int) -> bool:
        return self.since is not None and self.since <= stage


@dataclass(eq=False)
class Slot:
    length: int
    added: int  # stage the length was added
    candidates: list[Candidate] = field(default_factory=list)
    conflict: Optional[tuple[int, tuple[Candidate, Candidate]]] = None  # (first stage, pair)


@dataclass
class WitnessChain:
    """A level's witness chain, a function of its slot count and its latched
    conflicts alone."""

    slots: int
    conflicted: list[int]
    members: list[Candidate]  # the antichain at slot 1
    sizes: list[int]
    deficits: list[int]
    box: Box


@dataclass
class LevelState:
    level: int
    slots: list[Slot] = field(default_factory=list)
    dropped_promotions: list[tuple[int, int]] = field(default_factory=list)  # (length, stage)
    chain: Optional[WitnessChain] = None  # as of the last witness audit
    # stage -> slots with a candidate successful from that stage
    succeeding: dict[int, set[int]] = field(default_factory=dict)

    def top_length(self) -> Optional[int]:
        return self.slots[-1].length if self.slots else None

    def slots_by(self, stage: int) -> int:
        return sum(1 for slot in self.slots if slot.added <= stage)

    def change_stages(self) -> set[int]:
        """Stages where a slot was added, or a candidate listed or first
        successful: the only stages where `slots_by`, a candidate's
        `appeared <= stage` or its `successful_at` can change."""
        stages = set()
        for slot in self.slots:
            stages.add(slot.added)
            for candidate in slot.candidates:
                stages.add(candidate.appeared)
                if candidate.since is not None:
                    stages.add(candidate.since)
        return stages


@dataclass
class WitnessAudit:
    level: int
    stage: int
    conflicted: list[int]
    box: str
    chain_sizes: list[int]
    deficits: list[int]
    trace_members: int
    trace_size: int


@dataclass
class ExtractionStep:
    index: int
    stage: int
    word: str
    change_at: Optional[int]
    cost: Fraction


@dataclass
class Extraction:
    anchor: str
    anchor_stage: int
    steps: list[ExtractionStep]
    expensive: dict[int, int]  # threshold exponent n -> steps costing at least 2^-n
    truncated_at: Optional[int]
    total_cost: Fraction
    layered_bound: Fraction


class PromotionEngine:
    """Runs the construction against one oracle and audits its lemmas."""

    def __init__(
        self,
        *,
        coherent: CoherentLengths,
        layout: BoxLayout,
        horizon: int,
        policy,
        ground_truth: Optional[str] = None,
        family_cap: int = 20000,
    ):
        """`coherent` is built for the layout's top level; the layout's slack
        is usually its `slack`."""
        PromotionEngine.check_horizon(layout.overhead, horizon)
        if coherent.cost.horizon < horizon:
            raise ScenarioError("cost table must cover the run horizon")
        if ground_truth is not None and len(ground_truth) < horizon:
            raise ScenarioError("ground truth must be at least horizon bits long")
        self.horizon = horizon
        self.coherent = coherent
        self.layout = layout
        self.env = Environment(self.layout, ground_truth, family_cap=family_cap)
        self.policy = policy
        self.overhead = layout.overhead
        self.top_level = layout.top_level
        self.levels = {
            n: LevelState(n) for n in range(self.overhead, self.top_level + 1)
        }
        self.witness_audits: list[WitnessAudit] = []
        self.stage_log: list[dict] = []
        self.extraction: Optional[Extraction] = None  # set by `run` for honest oracles

    @staticmethod
    def check_horizon(overhead: int, horizon: int) -> None:
        """Reject a horizon at or below the overhead: the stages run from the
        overhead to horizon - 1, so such a run has no stage."""
        if overhead >= horizon:
            raise ScenarioError(
                f"boxpromo scenario needs a horizon above its overhead, "
                f"got overhead {overhead} at horizon {horizon}"
            )

    def conflict_count(self) -> int:
        """Latched conflicts over every level."""
        return sum(slot.conflict is not None for s in self.levels.values() for slot in s.slots)

    # ---- per-stage actions -------------------------------------------------

    def run(self) -> "PromotionEngine":
        """Every stage, then, for an honest oracle, the extraction."""
        for stage in range(self.overhead, self.horizon):
            self._stage(stage)
        if self.policy.kind == "honest":
            self.extraction = self.extract_approximation()
        return self

    def _stage(self, stage: int) -> None:
        records = oracle_step(self.env, self.policy, stage)
        events: dict = {
            "stage": stage,
            "enumerations": [
                {"box": r.box.name, "value": r.value, "member": r.member} for r in records
            ],
            "new_lengths": [],
            "new_candidates": [],
            "new_successes": [],
            "new_conflicts": [],
            "promotions": [],
            "dropped": [],
        }
        promoted_down: dict[int, list[int]] = {}
        for level in range(min(stage, self.top_level), self.overhead - 1, -1):
            state = self.levels[level]
            self._extend_lengths(state, promoted_down.get(level, []), stage, events)
            self._absorb_enumerations(state, records, stage, events)
            self._settle_conflicts(state, stage, events, promoted_down)
        self._check_chain(stage)
        self.stage_log.append(events)

    def _extend_lengths(self, state, promoted: list[int], stage: int, events) -> None:
        level = state.level
        incoming = sorted(promoted)
        coherent = self.coherent.length(level, stage)
        for source, length in [("promoted", ln) for ln in incoming] + [("coherent", coherent)]:
            if length <= (state.top_length() or 0):
                if source == "promoted":
                    state.dropped_promotions.append((length, stage))
                    events["dropped"].append({"level": level, "length": length})
                continue
            if len(state.slots) >= self.layout.lengths_capacity(level):
                raise InvariantViolation(
                    f"level {level} exceeded its length capacity "
                    f"{self.layout.lengths_capacity(level)} at stage {stage}"
                )
            state.slots.append(Slot(length, stage))
            box = self.env.add_initial_test(level, len(state.slots), length, stage)
            events["new_lengths"].append({"level": level, "slot": box.slot, "length": length})
            # Trace values that arrived before the box was tested become
            # certified candidates the moment the test makes them members.
            for value, _, member in box.content:
                if member:
                    self._list_candidate(state, box.slot, value, stage, events)

    def _absorb_enumerations(self, state, records, stage: int, events) -> None:
        level = state.level
        for record in records:
            box = record.box
            if box.level != level or not record.member:
                continue  # a non-member counts toward capacity only
            if box.kind == "I":
                self._list_candidate(state, box.slot, record.value, stage, events)
            for _, k, i in record.emptied:
                candidate = state.slots[k - 1].candidates[i - 1]
                self._succeed(state, candidate, max(stage, candidate.appeared + 1), events)

    def _list_candidate(self, state, slot: int, value: str, stage: int, events) -> None:
        candidates = state.slots[slot - 1].candidates
        candidate = Candidate(value, stage, slot, len(candidates) + 1)
        candidates.append(candidate)
        events["new_candidates"].append(
            {"level": state.level, "slot": slot, "index": candidate.index, "word": value}
        )
        self._activate(state, candidate, stage, events)

    def _activate(self, state, candidate: Candidate, stage: int, events) -> None:
        level, lacking = state.level, self.env.lacking
        spawned = self.env.activate_pair(
            level, candidate.slot, candidate.index, candidate.word, stage
        )
        for child in spawned:
            for pair in child.pairs:
                other = state.slots[pair[1] - 1].candidates[pair[2] - 1]
                if other is not candidate and other.since is not None and child in lacking[pair]:
                    raise InvariantViolation(f"successful pair {pair} lost its witness on spawn")
        if not lacking[level, candidate.slot, candidate.index]:
            self._succeed(state, candidate, stage + 1, events)

    def _succeed(self, state, candidate: Candidate, since: int, events) -> None:
        """The one writer of `since`, which is never rewritten: it also files
        the candidate's slot under that stage for `_settle_conflicts`."""
        candidate.since = since
        state.succeeding.setdefault(since, set()).add(candidate.slot)
        events["new_successes"].append(
            {"level": state.level, "slot": candidate.slot, "index": candidate.index}
        )

    def _settle_conflicts(self, state, stage: int, events, promoted_down) -> None:
        level = state.level
        fresh = []
        # A slot's scan finds a new pair only at a stage where one of its
        # candidates becomes successful, and every success is filed by then.
        for slot in sorted(state.succeeding.pop(stage, ())):
            entry = state.slots[slot - 1]
            if entry.conflict is not None:
                continue
            floor = state.slots[slot - 2].length if slot >= 2 else 0
            entry.conflict = next(
                (
                    (stage, (a, b))
                    for a, b in combinations(entry.candidates, 2)
                    if a.successful_at(stage)
                    and b.successful_at(stage)
                    and restrict(a.word, floor) == restrict(b.word, floor)
                ),
                None,
            )
            if entry.conflict is not None:
                fresh.append(entry)
                events["new_conflicts"].append({"level": level, "slot": slot})
        latched = [entry.conflict[1] for entry in state.slots if entry.conflict is not None]
        for pair in latched:
            if not all(c.successful_at(stage) for c in pair):
                raise InvariantViolation(
                    f"latched conflict at level {level} slot {pair[0].slot} lost its pair"
                )
        count = len(latched)
        if count > level - 1:
            raise InvariantViolation(
                f"{count} conflicted lengths at level {level}, stage {stage}; "
                f"the promotion budget allows {level - 1}"
            )
        if count >= 1:
            self.witness_audits.append(self._audit_witness(state, stage))
        # A conflicted length is offered downward once; the level below only
        # ever grows, so a length it cannot absorb now stays unabsorbable.
        if level > self.overhead and fresh:
            outgoing = [entry.length for entry in fresh]
            below = promoted_down.setdefault(level - 1, [])
            below.extend(outgoing)
            events["promotions"].append({"from": level, "lengths": sorted(outgoing)})

    # ---- audits ------------------------------------------------------------

    def _audit_witness(self, state, stage: int) -> WitnessAudit:
        """The level's witness audit at `stage`.  The chain is rebuilt only
        when a slot was added or a conflict latched since the last audit; the
        content checks run over the witness box's whole content every time."""
        chain = state.chain
        conflicts = sum(entry.conflict is not None for entry in state.slots)
        if chain is None or chain.slots != len(state.slots) or len(chain.conflicted) != conflicts:
            chain = state.chain = self._build_chain(state)
        box, members, conflicted = chain.box, chain.members, chain.conflicted
        member_values = [v for v, _, member in box.content if member]
        for value in member_values:
            owners = [c for c in members if is_prefix(c.word, value)]
            if len(owners) != 1:
                raise InvariantViolation(
                    f"trace value {value} on witness {box} extends {len(owners)} chain members"
                )
        if members:
            if chain.sizes[0] != chain.deficits[0] + 1:
                raise InvariantViolation("nonempty witness antichain is not a near-tree")
            if len(member_values) < chain.sizes[0]:
                raise InvariantViolation(
                    f"witness {box} carries {len(member_values)} certified values, "
                    f"needs {chain.sizes[0]}"
                )
        if len(member_values) < len(conflicted) + 1 and conflicted:
            raise InvariantViolation(
                f"witness {box} carries {len(member_values)} values for "
                f"{len(conflicted)} conflicts"
            )
        return WitnessAudit(
            state.level, stage, conflicted, box.name, chain.sizes, chain.deficits,
            len(member_values), len(box.content),
        )

    def _build_chain(self, state) -> WitnessChain:
        level = state.level
        slots = len(state.slots)
        conflicted = [k for k, e in enumerate(state.slots, start=1) if e.conflict]
        chain: dict[int, list[Candidate]] = {slots + 1: []}
        for slot in range(slots, 0, -1):
            current = list(chain[slot + 1])
            if slot in conflicted:
                for candidate in state.slots[slot - 1].conflict[1]:
                    if all(not comparable(candidate.word, other.word) for other in current):
                        current.append(candidate)
            chain[slot] = current
        sizes = []
        deficits = []
        for slot in range(1, slots + 2):
            members = chain[slot]
            floor = state.slots[slot - 2].length if slot >= 2 else 0
            stumps = {restrict(c.word, floor) for c in members}
            sizes.append(len(members))
            deficits.append(len(members) - len(stumps))
        for slot in range(1, slots + 1):
            if deficits[slot - 1] < deficits[slot]:
                raise InvariantViolation(
                    f"deficit chain increased at level {level} slot {slot}"
                )
            if slot in conflicted and deficits[slot - 1] <= deficits[slot]:
                raise InvariantViolation(
                    f"deficit chain flat across conflicted slot {slot} at level {level}"
                )
        antichain_members = chain[1]
        pattern = {}
        for c in antichain_members:
            pattern.setdefault(c.slot, []).append(c.index)
        canon = self.layout.canonical_pattern(level, {k: tuple(v) for k, v in pattern.items()})
        box = self.env.classes.get(level, {}).get(canon)
        if box is None:
            raise InvariantViolation(
                f"witness class {box_name(('M', level, canon))} was never spawned"
            )
        return WitnessChain(slots, conflicted, antichain_members, sizes, deficits, box)

    def _check_chain(self, stage: int) -> None:
        tops = []
        for level in range(self.overhead, min(stage, self.top_level) + 1):
            top = self.levels[level].top_length()
            if top < level:
                raise InvariantViolation(f"level {level} top length below the level at stage {stage}")
            tops.append(top)
        for a, b in zip(tops, tops[1:]):
            if a > b:
                raise InvariantViolation(f"length chain out of order at stage {stage}")

    # ---- believability and extraction ---------------------------------------

    def believable(self, level: int, stage: int, anchor: str) -> Optional[str]:
        state = self.levels[level]
        slots = state.slots_by(stage)
        if slots == 0:
            return None
        matches = []
        for candidate in state.slots[slots - 1].candidates:
            if candidate.appeared > stage or not is_prefix(anchor, candidate.word):
                continue
            if self._believable_chain_ok(candidate.word, level, stage):
                matches.append(candidate.word)
        if len(matches) > 1:
            raise InvariantViolation(
                f"two credible words at level {level}, stage {stage}: {matches}"
            )
        return matches[0] if matches else None

    def _believable_chain_ok(self, word: str, level: int, stage: int) -> bool:
        for m in range(self.overhead, level + 1):
            mstate = self.levels[m]
            for slot in mstate.slots[: mstate.slots_by(stage)]:
                stump = restrict(word, slot.length)
                match = next(
                    (c for c in slot.candidates if c.word == stump and c.appeared <= stage),
                    None,
                )
                if match is None or not match.successful_at(stage):
                    return False
        return True

    def extract_approximation(self) -> Extraction:
        if self.env.ground_truth is None:
            raise ScenarioError("extraction needs a ground-truth word")
        # Stage `overhead` runs and lists a base-level length.  From the stage
        # the last base slot was added on, the chain check covers every base
        # slot, and its answer changes only at the base level's change stages.
        base = self.levels[self.overhead]
        anchor = self.env.ground_truth[: base.top_length()]
        first = max(self.overhead + 1, base.slots[-1].added)
        stages = sorted(s for s in base.change_stages() | {first} if first <= s < self.horizon)
        for anchor_stage in stages:
            if self._believable_chain_ok(anchor, self.overhead, anchor_stage):
                break
        else:
            return Extraction(anchor, self.horizon, [], {}, self.overhead, ZERO, ZERO)
        credible = self.uniqueness_sweep(anchor, anchor_stage)
        steps: list[ExtractionStep] = []
        previous_word, previous_stage = anchor.ljust(self.horizon, "0"), anchor_stage
        truncated_at = None
        for index in range(self.overhead + 1, self.top_level + 1):
            for stage in range(previous_stage + 1, self.horizon):
                word = credible[index, stage]
                if word is not None:
                    break
            else:
                truncated_at = index
                break
            padded = word.ljust(self.horizon, "0")
            change = first_difference(padded, previous_word)
            cost = self.coherent.cost.value(index, change) if change is not None else ZERO
            steps.append(ExtractionStep(index, stage, word, change, cost))
            previous_word, previous_stage = padded, stage
        # A step is expensive at 2^-n exactly when its cost is positive and
        # its halving exponent is at most n.
        exponents = sorted(halving_exponent(s.cost) for s in steps if s.cost > 0)
        top = max([self.top_level, *exponents])
        expensive = {n: bisect_right(exponents, n) for n in range(top + 1)}
        for n, count in expensive.items():
            if count > n + n * (n - 1) // 2:
                raise InvariantViolation(
                    f"{count} expensive extraction steps at threshold 2^-{n}, "
                    f"allowed {n + n * (n - 1) // 2}"
                )
        total = sum((s.cost for s in steps), ZERO)
        layered = sum(
            (count * Fraction(2) ** (1 - n) for n, count in expensive.items() if count), ZERO
        )
        if total > layered:
            raise InvariantViolation("layered cost bound failed on the extraction")
        return Extraction(anchor, anchor_stage, steps, expensive, truncated_at, total, layered)

    def uniqueness_sweep(self, anchor: str, from_stage: int) -> dict[tuple[int, int], str | None]:
        """The credible word, or None, at every level and every stage from
        `from_stage` on; `believable` raises where two words are credible.

        `believable(level, stage, anchor)` reads, at the levels up to
        `level`, only `slots_by(stage)`, whether each candidate's `appeared`
        is at most `stage`, and `successful_at(stage)`.  Each of these, and so
        its answer and whether it raises, changes only at a change stage of
        those levels: a slot's `added`, a candidate's `appeared` or its
        `since`.  So it is evaluated at `from_stage` and at each later change
        stage, and its answer carried across the stages between; the first
        (level, stage) where two words are credible is one of those, and
        raises as the every-stage table would.
        """
        credible: dict[tuple[int, int], str | None] = {}
        changes: set[int] = set()
        for level, state in self.levels.items():
            changes |= state.change_stages()
            word = None
            for stage in range(from_stage, self.horizon):
                if stage == from_stage or stage in changes:
                    word = self.believable(level, stage, anchor)
                credible[level, stage] = word
        return credible
