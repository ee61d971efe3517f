"""Brute-force reference definitions that the fast paths are tested against."""
import json
from fractions import Fraction
from itertools import combinations, product

from tracelab.approximations import ChangeSet, WordApproximation, pair_code
from tracelab.costs import CostTable, first_difference, marker_sequence
from tracelab.promotion import WitnessAudit
from tracelab.scenarios import boxpromo_report, build_promotion_engine, machine_format
from tracelab.words import comparable, is_prefix, restrict


def scan_readable_depth(appr: WordApproximation, stage: int) -> int:
    """Greatest b < stage with every cell of the square u, x <= b readable at
    wall `stage`, found by checking every cell of every candidate square;
    0 when no such b exists."""
    top = min(stage - 1, appr.horizon - 1, appr.width - 1)
    for b in range(top, -1, -1):
        if all(readable(appr, u, x, stage) for u in range(b + 1) for x in range(b + 1)):
            return b
    return 0


def readable(appr: WordApproximation, stage: int, position: int, wall: int) -> bool:
    """Is cell (stage, position) of `appr` readable at `wall`?"""
    if stage >= appr.horizon or position >= appr.width:
        return False
    ready = appr.schedule.get((stage, position), stage)
    return ready is not None and ready <= wall


def observed_values(stage_map, stage: int) -> list[int]:
    """Values of the stage map's entries visible by `stage`, in argument
    order, by a scan of every entry."""
    return [v for v, at in zip(stage_map.values, stage_map.visible_at) if at <= stage]


def covers(functional, word: str) -> bool:
    """Is every deep extension of `word` tested (some tested prefix)?"""
    return functional.first_hit(word) is not None


def recursive_member(functional, word: str, upto=None) -> bool:
    """Is `word` tested after the first `upto` events of `functional` (all of
    them by default)?  By definition: some event of depth `len(word)` whose
    base prefixes `word` comes when no prefix of `word`, `word` itself
    included, is tested yet."""
    events = functional.events
    memo: dict[tuple[str, int], bool] = {}

    def added_before(w: str, k: int) -> bool:
        if (w, k) not in memo:
            memo[(w, k)] = any(
                ev.depth == len(w)
                and w.startswith(ev.base)
                and not any(added_before(w[:cut], j) for cut in range(len(w) + 1))
                for j, ev in enumerate(events[:k])
            )
        return memo[(w, k)]

    return added_before(word, len(events) if upto is None else upto)


def extensions_avoiding(word: str, length: int, blocked) -> list[str]:
    """All length-`length` extensions of `word` with no prefix in `blocked`,
    sorted.  When no member of `blocked` strictly extends `word` beyond
    `length`, no two words of `blocked` and the result are comparable."""
    if length < len(word):
        raise ValueError(f"target length {length} below word length {len(word)}")
    blocked = list(blocked)
    extensions = (word + "".join(bits) for bits in product("01", repeat=length - len(word)))
    return [w for w in extensions if not any(w.startswith(b) for b in blocked)]


def lacking_classes(env, pair) -> list:
    """The classes at the pair's level whose pattern names the pair (level,
    slot, index) and whose content holds no member value comparable to its
    word, by a scan of every class in family order."""
    level, slot, index = pair
    word = env.pair_sigma[pair]
    return [
        box
        for box in env.classes.get(level, {}).values()
        if index in dict(box.pattern).get(slot, ())
        and not any(box.functional.member(v) and comparable(v, word) for v, _, _ in box.content)
    ]


def changeset_word(cs: ChangeSet, stage: int, width: int) -> str:
    """The change-set enumeration by `stage` as a word: bit c is 1 when the
    pair with diagonal code c < width was enumerated by then."""
    bits = ["0"] * width
    for (x, n), enum_stage in cs.pairs.items():
        code = pair_code(x, n)
        if enum_stage <= stage and code < width:
            bits[code] = "1"
    return "".join(bits)


def materialize(functional) -> list[str]:
    """Explicit tested set of `functional`, sorted; exponential in event
    depths, for small-depth reference checks only."""
    tested: list[str] = []
    for ev in functional.events:
        tested.extend(extensions_avoiding(ev.base, ev.depth, tested))
    return sorted(tested)



def expensive_counts(steps, top_level: int) -> dict[int, int]:
    """Per threshold exponent n, how many extraction steps cost at least
    2^-n, by comparing every step with every threshold from 2^0 down to
    2^-top_level, and further down until every positive cost clears one."""
    top = top_level
    while any(0 < s.cost < Fraction(1, 2**top) for s in steps):
        top += 1
    return {n: sum(s.cost >= Fraction(1, 2**n) for s in steps) for n in range(top + 1)}


def random_word(rng, length: int) -> str:
    """A word of `length` bits, one `rng.choice("01")` draw per bit."""
    return "".join(rng.choice("01") for _ in range(length))


def marker_table(cost, top_level: int) -> dict:
    """The marker sequence at every threshold 2^-r, r <= top_level, by one
    scan per threshold."""
    return {r: marker_sequence(cost, Fraction(1, 2**r)) for r in range(top_level + 1)}


def to_listed_form(table) -> CostTable:
    """`table` with every entry at a position x >= its stage s set to 0, as
    a listed-form table; both monotonicity directions survive."""
    rows = tuple(
        tuple(v if x < s else Fraction(0) for x, v in enumerate(row))
        for s, row in enumerate(table.rows)
    )
    return CostTable(rows, normalized=table.normalized, listed_form=True)


def scan_obedience(table, rows) -> list:
    """The change cost of each stage 1 <= s < min(len(rows), horizon) of the
    bit words `rows`, by a loop over the stages that compares each row with
    the one before and prices the least position where they differ."""
    costs = []
    for s in range(1, min(len(rows), table.horizon)):
        a, b = rows[s], rows[s - 1]
        if a == b:
            costs.append(Fraction(0))
        else:
            costs.append(table.value(s, first_difference(a, b)))
    return costs


def scan_coherent_length(level: int, stage: int, markers: dict) -> int:
    """Largest marker at thresholds 2^-r, r <= level, seen by `stage`, and at
    least `level`, by a loop over every marker of every threshold."""
    best = level
    for r in range(level + 1):
        for m in markers[r].markers:
            if m <= stage and m > best:
                best = m
    return best


def scan_conflicts(state, stage: int) -> dict:
    """Per slot of `state`, the first pair (in `combinations` order) of its
    candidates successful at `stage` that agree below the previous length,
    by a scan of every slot, latched or not."""
    found = {}
    for slot, entry in enumerate(state.slots, start=1):
        floor = state.slots[slot - 2].length if slot >= 2 else 0
        pair = next(
            (
                (a, b)
                for a, b in combinations(entry.candidates, 2)
                if a.successful_at(stage)
                and b.successful_at(stage)
                and restrict(a.word, floor) == restrict(b.word, floor)
            ),
            None,
        )
        if pair is not None:
            found[slot] = pair
    return found


def rebuild_witness_audit(engine, level: int, stage: int) -> WitnessAudit:
    """The level's witness audit at `stage`, with its chain, stumps,
    deficits and witness box built from the level's slots and latched
    conflicts; asserts every check the engine's audit raises on."""
    state = engine.levels[level]
    slots = len(state.slots)
    conflicted = [k for k, e in enumerate(state.slots, start=1) if e.conflict]
    chain = {slots + 1: []}
    for slot in range(slots, 0, -1):
        current = list(chain[slot + 1])
        if slot in conflicted:
            for candidate in state.slots[slot - 1].conflict[1]:
                if all(not comparable(candidate.word, other.word) for other in current):
                    current.append(candidate)
        chain[slot] = current
    sizes, deficits = [], []
    for slot in range(1, slots + 2):
        members = chain[slot]
        floor = state.slots[slot - 2].length if slot >= 2 else 0
        sizes.append(len(members))
        deficits.append(len(members) - len({restrict(c.word, floor) for c in members}))
    for slot in range(1, slots + 1):
        assert deficits[slot - 1] >= deficits[slot]
        assert slot not in conflicted or deficits[slot - 1] > deficits[slot]
    pattern = {}
    for c in chain[1]:
        pattern.setdefault(c.slot, []).append(c.index)
    canon = engine.layout.canonical_pattern(level, {k: tuple(v) for k, v in pattern.items()})
    box = engine.env.classes[level][canon]
    member_values = [v for v, _, member in box.content if member]
    for value in member_values:
        assert sum(is_prefix(c.word, value) for c in chain[1]) == 1
    if chain[1]:
        assert sizes[0] == deficits[0] + 1 and len(member_values) >= sizes[0]
    assert not conflicted or len(member_values) >= len(conflicted) + 1
    return WitnessAudit(
        level, stage, conflicted, box.name, sizes, deficits, len(member_values), len(box.content)
    )


def check_ledger(engine, stage: int) -> None:
    """The success ledger has one entry per activated pair, in activation
    order, listing its lacking classes as the family scan does, as a set and
    in family order; the pair's candidate is successful exactly when that
    entry is empty."""
    env = engine.env
    listed = []
    for level, state in engine.levels.items():
        for k, slot in enumerate(state.slots, start=1):
            for i, candidate in enumerate(slot.candidates, start=1):
                pair = (level, k, i)
                assert (candidate.slot, candidate.index) == (k, i), (stage, pair)
                assert len(candidate.word) == slot.length, (stage, pair)
                assert env.pair_sigma[pair] == candidate.word, (stage, pair)
                lacking, scan = env.lacking[pair], lacking_classes(env, pair)
                assert set(lacking) == set(scan) and list(lacking) == scan, (stage, pair)
                assert (candidate.since is not None) == (not lacking), (stage, pair)
                assert candidate.since is None or candidate.since > candidate.appeared, (stage, pair)
                listed.append(pair)
    assert sorted(listed) == sorted(env.pair_sigma), stage
    assert list(env.lacking) == list(env.pair_sigma), stage  # in activation order


def check_slot_candidates(engine, stage: int) -> None:
    """Each slot lists its initial box's members as its candidates, so no
    value is listed twice at a slot."""
    for level, state in engine.levels.items():
        for k, slot in enumerate(state.slots, start=1):
            initial = engine.env.initial_boxes[(level, k)]
            assert [c.word for c in slot.candidates] == [
                v for v, _, member in initial.content if member
            ], (stage, level, k)


def check_membership(engine, stage: int, members: dict) -> None:
    """Each membership flag is `recursive_member`'s answer.  `members`
    memoizes it per (box, event count, value), which is exact because a
    box's events only append."""
    for box in engine.env.boxes():
        events = box.functional.events
        for value, _, member in box.content:
            key = (box, len(events), value)
            if key not in members:
                members[key] = recursive_member(box.functional, value)
            assert member == members[key], (stage, box.name, value)


def check_class_events(engine, stage: int) -> None:
    """Each class holding a pair has one event at the pair's word, the event
    the random oracle feeds the class from."""
    env = engine.env
    for (level, k, i), sigma in env.pair_sigma.items():
        for box in env.classes[level].values():
            if i in dict(box.pattern).get(k, ()):
                based = sum(ev.base == sigma for ev in box.functional.events)
                assert based == 1, (stage, box.name, sigma)


def check_scans(engine, stage: int, audits_before: int, latched: dict) -> None:
    """Each coherent length, latched conflict, conflict event and audit
    written this stage is what its scan gives.  `latched` carries the
    conflict scan's first (stage, pair) per (level, slot) across stages."""
    expected_audits, expected_events = [], []
    for level in range(min(stage, engine.top_level), engine.overhead - 1, -1):
        state = engine.levels[level]
        coherent = scan_coherent_length(level, stage, engine.coherent.markers)
        assert engine.coherent.length(level, stage) == coherent, (stage, level)
        for k, pair in scan_conflicts(state, stage).items():
            if latched.setdefault((level, k), (stage, pair))[0] == stage:
                expected_events.append({"level": level, "slot": k})
        for k, slot in enumerate(state.slots, start=1):
            assert slot.conflict == latched.get((level, k)), (stage, level, k)
        if any(slot.conflict for slot in state.slots):
            expected_audits.append(vars(rebuild_witness_audit(engine, level, stage)))
    assert engine.stage_log[-1]["new_conflicts"] == expected_events, stage
    assert [vars(a) for a in engine.witness_audits[audits_before:]] == expected_audits, stage


def scan_honest_moves(env, delay: int, stage: int) -> list:
    """The honest oracle's moves at `stage`, (box, value) in box order, by a
    scan of every box: each box whose due value is at least `delay` stages
    old and not yet in its content."""
    moves = []
    for box in env.boxes():
        due = env.honest_value(box)
        if due is None:
            continue
        due_stage, value = due
        if due_stage + delay <= stage and all(v != value for v, _, _ in box.content):
            moves.append((box, value))
    return moves


def check_honest_moves(engine, stage: int, moves) -> None:
    """The stage's enumerations are `moves`, the full-box scan taken before
    the stage, in `oracle_step`'s order, each written as a new value."""
    written = [(e["box"], e["value"]) for e in engine.stage_log[-1]["enumerations"]]
    assert written == sorted((box.name, value) for box, value in moves), stage


def scan_uniqueness(engine, anchor: str, from_stage: int) -> dict:
    """The credible word, or None, at every level and every stage from
    `from_stage` on, by one `believable` call per (level, stage)."""
    return {
        (level, stage): engine.believable(level, stage, anchor)
        for level in engine.levels
        for stage in range(from_stage, engine.horizon)
    }


def check_extraction(engine) -> None:
    """An extraction's anchor stage is the first stage, from the one its
    search starts at, where the base chain check holds, by a check of every
    stage; when it anchors, `uniqueness_sweep` equals `scan_uniqueness`, in
    key order too."""
    extraction, base = engine.extraction, engine.levels[engine.overhead]
    first = max(engine.overhead + 1, base.slots[-1].added)
    stages = range(first, engine.horizon)
    ok = (s for s in stages if engine._believable_chain_ok(extraction.anchor, engine.overhead, s))
    assert extraction.anchor_stage == next(ok, engine.horizon)
    if extraction.anchor_stage < engine.horizon:
        sweep = engine.uniqueness_sweep(extraction.anchor, extraction.anchor_stage)
        scan = scan_uniqueness(engine, extraction.anchor, extraction.anchor_stage)
        assert list(sweep.items()) == list(scan.items())


def check_stage(
    engine, stage: int, audits_before: int, latched: dict, members: dict, moves=None
) -> None:
    """After `engine._stage(stage)`, every fact the stage leaves behind equals
    its reference: the ledger, slot candidates, membership flags, class
    events and scans, each as its check above states, and, for an honest
    oracle, the enumerations `moves`, scanned before the stage."""
    check_ledger(engine, stage)
    check_slot_candidates(engine, stage)
    check_membership(engine, stage, members)
    check_class_events(engine, stage)
    check_scans(engine, stage, audits_before, latched)
    if moves is not None:
        check_honest_moves(engine, stage, moves)


def honest_scan(engine, stage: int):
    """`scan_honest_moves` at `stage` for an honest engine, else None."""
    if engine.policy.kind != "honest":
        return None
    return scan_honest_moves(engine.env, engine.policy.delay, stage)


def promotion_stages(payload: dict):
    """Build the promotion scenario `payload` and yield (engine, stage,
    audits before the stage, `honest_scan` before the stage) after each of
    its stages."""
    engine = build_promotion_engine(payload)
    for stage in range(engine.overhead, engine.horizon):
        before, moves = len(engine.witness_audits), honest_scan(engine, stage)
        engine._stage(stage)
        yield engine, stage, before, moves


def check_promotion_run(payload: dict) -> None:
    """Run the promotion scenario `payload` once, through `run()`, with
    `check_stage` after each of its stages and `check_extraction` after an
    honest run, then check that `machine_format` writes its report as
    `json.dumps(report, sort_keys=True, indent=2)` does."""
    engine = build_promotion_engine(payload)
    run_stage, latched, members = engine._stage, {}, {}

    def checked_stage(stage: int) -> None:
        before, moves = len(engine.witness_audits), honest_scan(engine, stage)
        run_stage(stage)
        check_stage(engine, stage, before, latched, members, moves)

    engine._stage = checked_stage
    report = boxpromo_report(engine.run())
    if engine.extraction is not None:
        check_extraction(engine)
    assert machine_format(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"
