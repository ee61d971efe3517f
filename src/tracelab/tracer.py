"""Box layouts with per-level capacities, the tested-string functional, and
pluggable trace oracles.

Hypercube boxes are handled as equivalence classes over the pairs of
candidate strings actually enumerated: a class stands for every concrete box
whose coordinate choices agree on those pairs.  Test events carry their
original stage, classes spawned by a new pair inherit the content of their
parent class, and tested sets are never materialized beyond the event lists;
this keeps the per-box combinatorics exact while the nominal cube size
explodes.

The first-hit rule answers every question about a tested set.  The first
event on a box whose base prefixes `w` and whose depth is at most `len(w)`
tests `w[:depth]` (every earlier event missed every prefix of `w`, so nothing
blocked it), and that tested prefix blocks every longer prefix of `w`.  So
`w` is tested exactly when that event's depth is `len(w)`, and some prefix of
`w` is tested exactly when such an event exists.

A `Box` holds its name, its tested-string functional and its trace content.
The environment makes each box once, so a box is its own dict key (by
identity).  Trace capacity is checked where content is written: when a value
is enumerated into a box, and when a spawned class copies its parent's.
Each content entry also carries whether its value is in the box's tested
set.  A class gets all its events at spawn and an initial box its one at its
test, so the flag is decided when a value is enumerated, when a spawned class
inherits it, and when an initial box is tested, and never changes after.

The success ledger `lacking` maps each pair (level, slot, index) to the
classes containing it with no member value comparable to its word, in spawn
(family) order: `activate_pair` files each child under the pairs it does not
witness, and `enumerate_value` files a class off and lists, in pattern
order, the pairs whose entry emptied.  An entry empties when the oracle's
values are written, before the engine absorbs them; in between only new
candidates spawn classes, and a child, whose events start with its parent's,
witnesses every pair its parent does, so no emptied entry refills.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import HorizonExhausted, InvariantViolation, ScenarioError, decimal
from .words import check_word, comparable, flip, random_word

Pattern = tuple[tuple[int, tuple[int, ...]], ...]
BoxKey = tuple[str, int, "int | Pattern"]  # ("I", level, slot) or ("M", level, pattern)


class Box:
    """One box: an initial-testing box `I<level>.<slot>` or a hypercube class
    `M<level>.<pattern>`, with its tested set and its trace component, whose
    entries carry their membership flags (decided as the module says)."""

    __slots__ = ("kind", "level", "slot", "pattern", "pairs", "name", "functional", "content")

    def __init__(self, kind: str, level: int, slot: int = 0, pattern: Pattern = ()):
        self.kind = kind  # "I" (initial testing) or "M" (hypercube class)
        self.level = level
        self.slot = slot  # length index, for I-boxes
        self.pattern = pattern  # pairs (k, (i, ...)), for M-boxes
        self.pairs = tuple((level, k, i) for k, indices in pattern for i in indices)  # pattern order
        self.name = box_name((kind, level, slot if kind == "I" else pattern))
        self.functional = Functional()
        self.content: list[tuple[str, int, bool]] = []  # (value, stage, member), in order

    def __str__(self) -> str:
        return self.name

    def witnesses(self, word: str) -> bool:
        """Does the box hold a member value comparable to `word`?"""
        return any(member and comparable(v, word) for v, _, member in self.content)


class BoxLayout:
    """Per-level capacities of a layout of levels `overhead..top_level`: how
    many lengths a level lists, one initial-testing box each, and how many
    values a box's trace component holds.  The layout makes the hypercube
    boxes and puts their coordinates in canonical form."""

    def __init__(self, overhead: int, slack: dict[int, int], top_level: int):
        BoxLayout.check_levels(overhead, top_level)
        for n in range(overhead, top_level + 1):
            if slack.get(n, 0) < 1:
                raise ScenarioError(f"slack table must be >= 1 at level {n}")
        self.overhead = overhead
        self.slack = {n: slack[n] for n in range(overhead, top_level + 1)}
        self.top_level = top_level

    @staticmethod
    def check_levels(overhead: int, top_level: int) -> None:
        """Reject an overhead below 1 or a top level below the overhead."""
        if overhead < 1:
            raise ScenarioError("overhead constant must be at least 1")
        if top_level < overhead:
            raise ScenarioError("top level below the overhead constant")

    def lengths_capacity(self, level: int) -> int:
        """Most lengths the level lists, one initial-testing box each."""
        return level + self.slack[level]

    def trace_capacity(self, level: int) -> int:
        return level

    def cube_box(self, level: int, pattern) -> Box:
        return Box("M", level, pattern=self.canonical_pattern(level, pattern))

    def canonical_pattern(self, level: int, pattern) -> Pattern:
        if isinstance(pattern, dict):
            items = pattern.items()
        else:
            items = pattern
        cleaned = []
        for k, idx in items:
            idx = tuple(sorted(set(idx)))
            if not idx:
                continue
            if not (1 <= k <= self.lengths_capacity(level)):
                raise ScenarioError(f"coordinate {k} outside the cube directions of level {level}")
            if len(idx) > 2 or any(not (1 <= i <= level) for i in idx):
                raise ScenarioError(f"coordinate value {idx} not an index set of size <= 2 at level {level}")
            cleaned.append((k, idx))
        cleaned.sort()
        return tuple(cleaned)


@dataclass(frozen=True)
class TestEvent:
    base: str
    depth: int
    stage: int


class Functional:
    """One box's tested set, kept as an event list.

    An event (base, depth, stage) tests every length-`depth` extension of
    `base` that does not extend a string tested by an earlier event on the
    box.  When depths never decrease along the events, as `Environment` adds
    them, the tested set is an antichain; a later, shallower event can test a
    prefix of an earlier member.
    """

    def __init__(self):
        self.events: list[TestEvent] = []

    def add_event(self, base: str, depth: int, stage: int) -> TestEvent:
        if depth < len(base):
            raise ScenarioError(f"test depth {depth} below base length {len(base)}")
        event = TestEvent(base, depth, stage)
        self.events.append(event)
        return event

    def first_hit(self, word: str) -> Optional[TestEvent]:
        """The first event that reaches `word`; it tests `word[:depth]`."""
        for ev in self.events:
            if ev.depth <= len(word) and word.startswith(ev.base):
                return ev
        return None

    def member(self, word: str) -> bool:
        hit = self.first_hit(word)
        return hit is not None and hit.depth == len(word)


@dataclass
class EnumRecord:
    box: Box
    value: str
    member: bool
    emptied: list[tuple[int, int, int]]  # pairs whose ledger entry this value emptied


class Environment:
    """One level-indexed world of boxes, each with its tested set and trace
    content."""

    def __init__(
        self,
        layout: BoxLayout,
        ground_truth: Optional[str] = None,
        family_cap: int = 20000,
    ):
        self.layout = layout
        self.ground_truth = check_word(ground_truth) if ground_truth is not None else None
        self.family_cap = family_cap
        self.classes: dict[int, dict[Pattern, Box]] = {}
        self.initial_boxes: dict[tuple[int, int], Box] = {}  # (n, slot) -> box, tested or not
        self.pair_sigma: dict[tuple[int, int, int], str] = {}  # (n, k, i) -> candidate string
        self.lacking: dict[tuple[int, int, int], dict[Box, None]] = {}  # the success ledger
        self.tested: list[Box] = []  # boxes in the order their events were set

    # ---- structure -------------------------------------------------------

    def boxes(self) -> list[Box]:
        """Every box made so far: the initial boxes, then the classes level
        by level."""
        boxes = list(self.initial_boxes.values())
        for family in self.classes.values():
            boxes.extend(family.values())
        return boxes

    @property
    def max_trace(self) -> int:
        """The largest trace component written so far: content only grows."""
        return max((len(box.content) for box in self.boxes()), default=0)

    def initial_box(self, level: int, slot: int) -> Box:
        box = self.initial_boxes.get((level, slot))
        if box is None:
            box = self.initial_boxes[(level, slot)] = Box("I", level, slot=slot)
        return box

    def ensure_level(self, level: int) -> None:
        if level not in self.classes:
            self.classes[level] = {(): self.layout.cube_box(level, ())}

    def add_initial_test(self, level: int, slot: int, length: int, stage: int) -> Box:
        box = self.initial_box(level, slot)
        if box.functional.events:
            raise InvariantViolation(f"initial box {box} tested twice")
        box.functional.add_event("", length, stage)
        box.content = [(v, s, box.functional.member(v)) for v, s, _ in box.content]
        self.tested.append(box)
        return box

    def activate_pair(self, level: int, slot: int, index: int, sigma: str, stage: int) -> list[Box]:
        """Record candidate `sigma` for (slot, index) and spawn every class
        containing the new pair, inheriting parent content; file each child
        under every pair of its pattern it holds no witness for."""
        self.ensure_level(level)
        key = (level, slot, index)
        if key in self.pair_sigma:
            raise InvariantViolation(f"pair {key} activated twice")
        self.pair_sigma[key] = sigma
        self.lacking[key] = {}
        family = self.classes[level]
        capacity = self.layout.trace_capacity(level)
        spawned: list[Box] = []
        for parent in list(family.values()):
            coords = dict(parent.pattern)
            existing = coords.get(slot, ())
            if len(existing) >= 2 or index in existing:
                continue
            child_pattern = self.layout.canonical_pattern(level, coords | {slot: existing + (index,)})
            if child_pattern in family:
                raise InvariantViolation(f"class {child_pattern} spawned twice")
            if len(family) + len(spawned) >= self.family_cap:
                raise HorizonExhausted(
                    f"class family at level {level} exceeded the cap {self.family_cap}"
                )
            child = Box("M", level, pattern=child_pattern)
            if len(parent.content) > capacity:
                raise InvariantViolation(
                    f"trace capacity {capacity} exceeded on box {child} at stage {stage}: "
                    f"{len(parent.content)} values inherited from {parent}"
                )
            child.functional.events = list(parent.functional.events)
            child.functional.add_event(sigma, stage, stage)
            child.content = [(v, s, child.functional.member(v)) for v, s, _ in parent.content]
            spawned.append(child)
        self.tested.extend(spawned)
        for child in spawned:
            family[child.pattern] = child
            for pair in child.pairs:
                if not child.witnesses(self.pair_sigma[pair]):
                    self.lacking[pair][child] = None
        return spawned

    # ---- trace content ---------------------------------------------------

    def enumerate_value(
        self, box: Box, value: str, stage: int, clamp: bool = False
    ) -> Optional[EnumRecord]:
        check_word(value)
        bucket = box.content
        if any(v == value for v, _, _ in bucket):
            return None  # trace components are sets; re-enumeration is a no-op
        capacity = self.layout.trace_capacity(box.level)
        if len(bucket) >= capacity:
            if clamp:
                return None
            raise InvariantViolation(
                f"trace capacity {capacity} exceeded on box {box} at stage {stage}"
            )
        member = box.functional.member(value)
        bucket.append((value, stage, member))
        emptied = []
        for pair in box.pairs if member else ():
            lacking = self.lacking[pair]
            if box in lacking and comparable(value, self.pair_sigma[pair]):
                del lacking[box]
                if not lacking:
                    emptied.append(pair)
        return EnumRecord(box, value, member, emptied)

    # ---- honest bookkeeping ----------------------------------------------

    def honest_value(self, box: Box) -> Optional[tuple[int, str]]:
        """(due event stage, traced value) when the ground truth lands in the
        box's tested cylinder; None otherwise."""
        if self.ground_truth is None:
            return None
        hit = box.functional.first_hit(self.ground_truth)
        if hit is None:
            return None
        return hit.stage, self.ground_truth[: hit.depth]


class HonestPolicy:
    """Enumerates the functional's value on the ground truth into every box
    whose tested cylinder captures it, a fixed delay after the capturing test.

    A box's due (stage, value) reads only its events and the ground truth,
    and its events are set once, when it is tested or spawned.  So each step
    files the boxes of `env.tested` it has not seen under their due stage
    plus the delay, then feeds the boxes filed at or before this stage whose
    content lacks the value.  A box may be overdue when first seen, as a
    child inherits its parent's earlier events; it is fed at that step.
    Content only grows, so a box skipped then is never fed.  A policy serves
    one environment, as the random one does."""

    kind = "honest"

    def __init__(self, delay: int = 1):
        if delay < 0:
            raise ScenarioError("delay must be nonnegative")
        self.delay = delay
        self.seen = 0  # boxes of `env.tested` filed so far
        self.due: dict[int, list[tuple[Box, str]]] = {}  # feeding stage -> (box, value)

    def step(self, env: Environment, stage: int) -> list[tuple[Box, str]]:
        if env.ground_truth is None:
            raise ScenarioError("honest policy needs a ground truth")
        for box in env.tested[self.seen :]:
            due = env.honest_value(box)
            if due is not None:
                self.due.setdefault(due[0] + self.delay, []).append((box, due[1]))
        self.seen = len(env.tested)
        moves = []  # `oracle_step` sorts them
        for at in [at for at in self.due if at <= stage]:
            for box, value in self.due.pop(at):
                if all(v != value for v, _, _ in box.content):
                    moves.append((box, value))
        return moves


class ScriptedPolicy:
    """Replays an explicit list of (stage, box spec, value) enumerations.
    Each spec is read once, into the key of the box it names, so every
    spelling of a box counts toward its capacity; a value listed twice for
    one box counts once, as re-enumerating it is a no-op."""

    kind = "scripted"

    def __init__(self, entries: list[tuple[int, str, str]], layout: BoxLayout):
        self.by_stage: dict[int, list[tuple[BoxKey, str]]] = {}
        per_box: dict[BoxKey, set[str]] = {}
        for stage, spec, value in entries:
            try:
                check_word(value)
            except ValueError as exc:
                raise ScenarioError(f"script value for {spec!r}: {exc}") from None
            key = parse_box_spec(spec, layout)
            values = per_box.setdefault(key, set())
            values.add(value)
            capacity = layout.trace_capacity(key[1])
            if len(values) > capacity:
                raise ScenarioError(
                    f"script enumerates {len(values)} values into {box_name(key)}, "
                    f"capacity is {capacity}"
                )
            self.by_stage.setdefault(stage, []).append((key, value))

    def step(self, env: Environment, stage: int) -> list[tuple[Box, str]]:
        return [(resolve_box(env, key), value) for key, value in self.by_stage.get(stage, ())]


class RandomPolicy:
    """Seeded adversary: activates candidate pairs, feeds the classes their
    success checks look at (sometimes engineering genuine conflicts), and
    sprinkles junk, always within trace capacity."""

    kind = "random"

    def __init__(
        self,
        seed: int,
        activate_rate: float = 0.5,
        feed_rate: float = 0.8,
        junk_rate: float = 0.2,
    ):
        self.rng = random.Random(seed)
        self.activate_rate = activate_rate
        self.feed_rate = feed_rate
        self.junk_rate = junk_rate

    def _candidate_value(self, env: Environment, tested, level: int, slot: int) -> Optional[str]:
        length = tested[(level, slot)]
        members = [v for v, _, member in env.initial_boxes[(level, slot)].content if member]
        # Slots are tested in order with growing lengths, all at least 1.
        floor = tested[(level, slot - 1)] if slot > 1 else 0
        # Agree with an existing candidate below the previous tested length:
        # raw material for a conflict.
        stem = members[0][:floor] if members else ""
        value = stem + random_word(self.rng, length - len(stem))
        if value in members:
            value = flip(value, len(value) - 1)
        return value if value not in members else None

    def _feed_pair(self, env: Environment, level: int, slot: int, index: int, moves) -> None:
        sigma = env.pair_sigma[(level, slot, index)]
        for box in env.lacking[level, slot, index]:
            # The class, or the ancestor it inherited its events from, was
            # spawned with an event based at sigma.
            event = next(ev for ev in box.functional.events if ev.base == sigma)
            for _ in range(8):
                candidate = sigma + random_word(self.rng, event.depth - len(sigma))
                if box.functional.member(candidate):  # new, as no member extends sigma
                    moves.append((box, candidate))
                    break

    def step(self, env: Environment, stage: int) -> list[tuple[Box, str]]:
        moves: list[tuple[Box, str]] = []
        tested = {  # (n, slot) -> tested length
            key: box.functional.events[0].depth
            for key, box in env.initial_boxes.items()
            if box.functional.events
        }
        slots = sorted(tested)
        if slots and self.rng.random() < self.activate_rate:
            level, slot = self.rng.choice(slots)
            value = self._candidate_value(env, tested, level, slot)
            if value is not None:
                moves.append((env.initial_box(level, slot), value))
        listed = sorted(env.pair_sigma)
        if listed and self.rng.random() < self.feed_rate:
            level, slot, index = self.rng.choice(listed)
            self._feed_pair(env, level, slot, index, moves)
            sibling = (level, slot, index - 1) if index > 1 else (level, slot, index + 1)
            if sibling in env.pair_sigma:
                self._feed_pair(env, level, slot, sibling[2], moves)
        if slots and self.rng.random() < self.junk_rate:
            level, slot = self.rng.choice(slots)
            length = self.rng.randrange(1, max(2, stage + 1))
            moves.append((env.initial_box(level, slot), random_word(self.rng, length)))
        return moves


def oracle_step(env: Environment, policy, stage: int) -> list[EnumRecord]:
    """Apply one stage of the oracle: collect the policy's moves, enforce
    capacity (clamping only for the random adversary), record enumerations."""
    moves = policy.step(env, stage)
    clamp = policy.kind == "random"
    records = []
    for box, value in sorted(moves, key=lambda m: (m[0].name, m[1])):
        record = env.enumerate_value(box, value, stage, clamp=clamp)
        if record is not None:
            records.append(record)
    return records


# ---- box spec grammar: "I<n>.<k>", "M<n>.root" and "M<n>.<k>:<i>[+<i>][.<k>:<i>...]" ----


def box_name(key: BoxKey) -> str:
    kind, level, where = key
    if kind == "I":
        return f"I{level}.{where}"
    if not where:
        return f"M{level}.root"
    return f"M{level}." + ".".join(f"{k}:{'+'.join(map(str, idx))}" for k, idx in where)


def parse_box_spec(spec: str, layout: BoxLayout) -> BoxKey:
    """The key of the box `spec` names.  A malformed spec, or a level, slot
    or coordinate outside `layout`, is a `ScenarioError`."""
    kind, (head, dot, rest) = spec[:1], spec[1:].partition(".")
    level = decimal(head)
    if kind not in ("I", "M") or level is None:
        raise ScenarioError(f"bad box spec {spec!r}")
    if not layout.overhead <= level <= layout.top_level:
        raise ScenarioError(
            f"script box {spec!r} is at level {level}, "
            f"outside {layout.overhead}..{layout.top_level}"
        )
    if kind == "I":
        slot = decimal(rest)
        if slot is None:
            raise ScenarioError(f"bad initial-box spec {spec!r}")
        if not 1 <= slot <= layout.lengths_capacity(level):
            raise ScenarioError(f"slot {slot} outside the initial interval of level {level}")
        return ("I", level, slot)
    if dot + rest in ("", ".root"):
        return ("M", level, ())
    coords = {}
    for part in rest.split("."):
        slot_text, _, idx_text = part.partition(":")
        slot, idx = decimal(slot_text), tuple(decimal(tok) for tok in idx_text.split("+"))
        if slot is None or None in idx or slot in coords:  # each coordinate is named once
            raise ScenarioError(f"bad cube-box spec {spec!r}")
        coords[slot] = idx
    return ("M", level, layout.canonical_pattern(level, coords))


def resolve_box(env: Environment, key: BoxKey) -> Box:
    kind, level, where = key
    if kind == "I":
        return env.initial_box(level, where)
    env.ensure_level(level)
    box = env.classes[level].get(where)
    if box is None:
        raise ScenarioError(f"box {box_name(key)!r} names a class that is not active yet")
    return box
