"""Acceptance battery: the ten criteria that stand in for the paper's lemmas.

Each criterion is a function whose keyword arguments are its seed and sizes,
defaulting to the stated ones; criteria 1-4 read the engines of one shared
batch, `fuzz.boxpromo_engines`.  A criterion returns its work counts and raises
`InvariantViolation`, prefixed `criterion N (<name>, seed S): `, at its first
failed check.  An engine's own error keeps its type and gains that prefix and
`run I: ` in criteria 7 and 8, and `boxpromo fuzz case I (batch seed S): ` in
the batch.  The test suite runs every criterion at its stated sizes and asserts
coverage floors on the counts; `verify` runs `CRITERIA` at their quick sizes.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple

from .approximations import (
    WordApproximation,
    change_set,
    changeset_obedience,
    decode,
    obedience_speedup,
    pair_code,
)
from .costs import (
    CostTable,
    PartialCostTable,
    dyadic_decay_row,
    marker_sequence,
    obedience_sum,
    static_table,
    sum_benign,
    totalize,
)
from .errors import HorizonExhausted, InvariantViolation, prefixed
from .fuzz import boxpromo_engines, synth_payload
from .scenarios import build_synthesis_run
from .synthesis import audit_requirement, closed_form_bound
from .words import flip, is_prefix, random_word

F = Fraction


def _criterion(number: int, seed: int) -> str:
    return f"criterion {number} ({CRITERIA[number - 1].name}, seed {seed}): "


def _require(ok: bool, number: int, seed: int, detail: str) -> None:
    if not ok:
        raise InvariantViolation(_criterion(number, seed) + detail)


def random_monotone_table(rng: random.Random, horizon: int, width: int) -> CostTable:
    """Normalized table of eighths, nondecreasing down each column and
    nonincreasing along each row."""
    grid = [[rng.randint(0, 8) for _ in range(width)] for _ in range(horizon)]  # in eighths
    for x in range(width):
        column = sorted(grid[s][x] for s in range(horizon))
        for s in range(horizon):
            grid[s][x] = column[s]
    for s in range(horizon):
        for x in range(1, width):
            grid[s][x] = min(grid[s][x], grid[s][x - 1])
    eighths = [F(k, 8) for k in range(9)]
    return CostTable(tuple(tuple(eighths[k] for k in row) for row in grid), normalized=True)


def speedup_instance(rng: random.Random, horizon: int = 20, width: int = 12):
    """(cost, witness cost, target, witness) over one dyadic-decay table: two
    approximations that flip positions >= 3 before settling on one word."""
    final = random_word(rng, width)
    settle = rng.randint(3, 6)

    def path(extra_flips):
        flips = [
            (rng.randint(1, settle - 1), rng.randint(3, width - 1)) for _ in range(extra_flips)
        ]
        # Walk backwards so the sequence provably settles on `final`.
        rows = [final] * horizon
        for stage, pos in flips:
            rows[:stage] = [flip(row, pos) for row in rows[:stage]]
        return WordApproximation(tuple(rows))

    witness = path(rng.randint(0, 2))
    target = path(rng.randint(0, 3))
    cost = static_table(dyadic_decay_row(width), horizon, normalized=True)
    return cost, cost, target, witness


def capacity_sweep(env) -> list[tuple[str, int, int]]:
    """(name, trace size, trace capacity) of every box the environment has
    made: its initial boxes, then its classes level by level."""
    capacity = env.layout.trace_capacity
    return [(box.name, len(box.content), capacity(box.level)) for box in env.boxes()]


def certified_prefix(partial: PartialCostTable, budget: int) -> int:
    """Largest t <= budget whose square u, x <= t holds only cells readable
    within `budget`, bounded by 1 and monotone in both directions; -1 when
    there is none.  A reference by direct scan, for `totalize`."""
    best = -1
    value = lambda u, x: partial.cell(u, x)[0]
    for t in range(min(budget + 1, partial.stages, partial.width)):
        square = [partial.cell(u, x) for u in range(t + 1) for x in range(t + 1)]
        if any(c is None or c[1] > budget or c[0] > 1 for c in square):
            break
        if any(value(u, x - 1) < value(u, x) for u in range(t + 1) for x in range(1, t + 1)):
            break
        if any(value(u - 1, x) > value(u, x) for u in range(1, t + 1) for x in range(t + 1)):
            break
        best = t
    return best


class PromotionBatch(NamedTuple):
    seed: int
    runs: list  # finished `PromotionEngine`s, in generation order


def promotion_batch(*, seed: int = 20240811, runs: int = 200) -> PromotionBatch:
    """The engines `boxpromo_batch(runs, seed)` tallies, with every bound
    audit armed, so a single falsified lemma aborts the batch.  Each honest
    run's `run()` extracts and, where the anchor settles inside the horizon,
    sweeps for believability uniqueness stage by stage."""
    return PromotionBatch(seed, list(boxpromo_engines(seed, runs)))


def conflict_bound(batch: PromotionBatch) -> dict:
    oracles = set()
    for index, engine in enumerate(batch.runs):
        oracles.add(engine.policy.kind)
        ok = engine.overhead in (1, 2) and engine.top_level <= 4 and engine.horizon <= 100
        _require(ok, 1, batch.seed, f"run {index} lies outside the generated ranges")
        for level, state in engine.levels.items():
            # Conflicts latch monotonically, so the final tally is the
            # per-stage maximum.
            ok = sum(slot.conflict is not None for slot in state.slots) < level
            _require(ok, 1, batch.seed, f"run {index} level {level} has too many conflicts")
    return {"runs": len(batch.runs), "oracles": sorted(oracles)}


def witness_certification(batch: PromotionBatch) -> dict:
    audited = 0
    for index, engine in enumerate(batch.runs):
        for audit in engine.witness_audits:
            audited += 1
            where = f"run {index} audit at stage {audit.stage} level {audit.level}"
            hits, deficits, members = len(audit.conflicted), audit.deficits, audit.trace_members
            _require(1 <= hits < members, 2, batch.seed, f"{where}: {members} trace members")
            falling = all(a >= b for a, b in zip(deficits, deficits[1:]))
            _require(falling, 2, batch.seed, f"{where}: deficits rise, {deficits}")
            dropped = all(deficits[slot - 1] > deficits[slot] for slot in audit.conflicted)
            _require(dropped, 2, batch.seed, f"{where}: a conflicted slot keeps its deficit")
        ok = engine.witness_audits or not engine.conflict_count()
        _require(ok, 2, batch.seed, f"run {index} has conflicts but no witness audit")
    return {"audits": audited}


def capacity(batch: PromotionBatch) -> dict:
    boxes = 0
    for index, engine in enumerate(batch.runs):
        for level, state in engine.levels.items():
            ok = len(state.slots) <= engine.layout.lengths_capacity(level)
            _require(ok, 3, batch.seed, f"run {index} level {level} lists too many lengths")
        for name, size, cap in capacity_sweep(engine.env):
            boxes += 1
            _require(size <= cap, 3, batch.seed, f"run {index} box {name} holds {size} > {cap}")
    return {"boxes": boxes}


def believability(batch: PromotionBatch) -> dict:
    extracted = 0
    for index, engine in enumerate(batch.runs):
        extraction = engine.extraction
        if extraction is None:
            continue
        ok = engine.policy.delay <= 2
        _require(ok, 4, batch.seed, f"run {index} has an oracle delay above 2")
        if extraction.anchor_stage >= engine.horizon:
            continue
        extracted += 1
        words = [extraction.anchor] + [step.word for step in extraction.steps]
        on_truth = all(is_prefix(word, engine.env.ground_truth) for word in words)
        _require(on_truth, 4, batch.seed, f"run {index} extracts a word off the ground truth")
        few = all(count <= n + n * (n - 1) // 2 for n, count in extraction.expensive.items())
        _require(few, 4, batch.seed, f"run {index} has too many expensive steps")
        ok = extraction.total_cost <= extraction.layered_bound
        _require(ok, 4, batch.seed, f"run {index} extraction exceeds its layered bound")
    return {"extractions": extracted}


def change_set_dominance(
    *, seed: int = 5, exhaustive: int = 4, random_instances: int = 500
) -> dict:
    """Every approximation with at most `exhaustive` stages and columns, then
    `random_instances` random ones against random monotone tables."""

    def check(table, rows):
        cs = change_set(rows)
        ok = changeset_obedience(table, cs) <= obedience_sum(table, rows)
        _require(ok, 5, seed, f"change set of {rows} costs more than its rows")
        ok = decode(cs, rows[0]) == rows[-1]
        _require(ok, 5, seed, f"change set of {rows} decodes away from its last row")

    table = static_table(dyadic_decay_row(80), 12, normalized=True)
    checked = 0
    for stages in range(1, exhaustive + 1):
        for width in range(1, exhaustive + 1):
            for bits in product("01", repeat=stages * width):
                rows = tuple("".join(bits[i * width : (i + 1) * width]) for i in range(stages))
                check(table, rows)
                checked += 1
    rng = random.Random(seed)
    for _ in range(random_instances):
        stages, width = rng.randint(5, 9), rng.randint(5, 9)
        rows = tuple(random_word(rng, width) for _ in range(stages))
        check(random_monotone_table(rng, stages, max(pair_code(width, stages) + 1, width)), rows)
        checked += 1
    return {"instances": checked}


def speedup_budget(*, seed: int = 9, speedups: int = 100) -> dict:
    rng = random.Random(seed)
    checked = 0
    for index in range(speedups):
        cost, witness_cost, target, witness = speedup_instance(rng)
        cheap = obedience_sum(witness_cost, witness.rows) <= F(1, 4)
        _require(cheap, 6, seed, f"instance {index} has a witness costing above 1/4")
        result = obedience_speedup(cost, witness_cost, target, witness, steps=4)
        ok = result.tail_sum <= 1 and all(a < b for a, b in zip(result.speedup, result.speedup[1:]))
        _require(ok, 6, seed, f"instance {index} speed-up is over budget or not increasing")
        checked += 1
    # Horizon failures surface as a dedicated error, never silently.
    zero = static_table([F(0)] * 12, 20)
    cost, _, target, witness = speedup_instance(rng)
    flipped = list(target.rows)
    flipped[5] = flip(flipped[5], 1)
    flipped[6:] = [flipped[5]] * (len(flipped) - 6)
    noisy = WordApproximation(tuple(flipped))
    try:
        obedience_speedup(cost, zero, noisy, noisy, steps=4)
    except HorizonExhausted:
        return {"speedups": checked}
    _require(False, 6, seed, "a speed-up against an all-zero witness cost did not exhaust")


def stepping_bound(budget_exp: int, eps: Fraction) -> int:
    """The closed-form marker bound at threshold `eps`, its exponent found by
    stepping j = 0, 1, 2, ... up to the least j with 2^-j < eps/2."""
    sharp = 0
    while F(1, 2**sharp) >= eps / 2:
        sharp += 1
    wide = 2 ** (budget_exp + sharp)
    return 2 + wide + sharp * sharp * (1 + 2**sharp + wide)


def synth_benignity(*, seed: int = 77, runs: int = 50) -> dict:
    _require(closed_form_bound(0)(F(1, 2)) == 163, 7, seed, "g(1/2) at budget 0 is not 163")
    rng = random.Random(seed)
    budgets, checked = set(), 0
    for index in range(runs):
        payload = synth_payload(
            rng,
            index,
            horizon=120,
            slow_maps=index % 2 == 1,
            min_flip_position=2 if index % 3 else 4,
            max_flips=3,
        )
        with prefixed(f"{_criterion(7, seed)}run {index}: "):
            out = build_synthesis_run(payload).run()
        budgets.add(out.budget_exp)
        capped = all(v <= 1 for row in out.cost_table.rows for v in row)
        _require(capped, 7, seed, f"run {index} synthesizes an entry above 1")
        for eps in (F(1, 2), F(1, 4), F(1, 8)):
            bound = stepping_bound(out.budget_exp, eps)
            ok = marker_sequence(out.cost_table, eps).count <= bound == out.bound(eps)
            _require(ok, 7, seed, f"run {index} breaks the closed-form bound at eps {eps}")
        checked += 1
    return {"runs": checked, "budgets": sorted(budgets)}


def final_accounting(*, seed: int = 31, qualifying: int = 20) -> dict:
    """Audit every requirement of the first `qualifying` horizon-500 runs
    that complete within their budget with no activity above 1."""
    rng = random.Random(seed)
    found = index = audits = 0
    while found < qualifying:
        index += 1
        payload = synth_payload(
            rng,
            index,
            horizon=500,
            max_flips=2,
            min_flip_position=4,
            slow_maps=index % 4 == 0,
            requirement_flavor="dyadic",
        )
        with prefixed(f"{_criterion(8, seed)}run {index}: "):
            out = build_synthesis_run(payload).run()
        if out.halted_at is not None or out.measured > 2**out.budget_exp:
            continue
        if any(state.activity > 1 for state in out.states):
            continue
        found += 1
        for e, state in enumerate(out.states):
            where = f"run {index} requirement {e}"
            _require(len(state.checkpoints) > 5, 8, seed, f"{where} has fewer than 5 checkpoints")
            with prefixed(f"{_criterion(8, seed)}run {index}: "):
                audit = audit_requirement(out, e)
            audits += 1
            ok = audit.total <= 1 + F(2 ** (out.budget_exp + e + 1))
            _require(ok, 8, seed, f"{where} is charged {audit.total}, above its bound")
            funded = all(charge.case in (1, 2) for charge in audit.charges)
            _require(funded, 8, seed, f"{where} has a charge outside the two funded cases")
            _require(audit.persistent_total <= 1, 8, seed, f"{where}: persistent charges above 1")
    return {"qualifying": found, "tried": index, "audits": audits}


def sum_of_benign(*, seed: int = 13, trials: int = 30) -> dict:
    rng = random.Random(seed)
    eps_list = [F(1, 2), F(1, 4), F(1, 3)]
    checked = 0
    for trial in range(trials):
        parts = []
        for _ in range(rng.randint(1, 5)):
            table = random_monotone_table(rng, 8, 8)
            bounds = {eps / 4: marker_sequence(table, eps / 4).count for eps in eps_list}
            parts.append((table, bounds))
        combined, certified = sum_benign(parts)
        for eps in eps_list:
            ok = marker_sequence(combined, eps).count <= certified(eps)
            _require(ok, 9, seed, f"trial {trial} exceeds the certified count at eps {eps}")
        checked += 1
    return {"trials": checked}


def totalization(*, seed: int = 17, inputs: int = 100) -> dict:
    rng = random.Random(seed)
    checked = 0
    for index in range(inputs):
        stages, width = rng.randint(1, 6), rng.randint(1, 6)
        cells = []
        for u in range(stages):
            row = []
            for x in range(width):
                roll = rng.random()
                if roll < 0.15:
                    row.append(None)
                elif roll < 0.25:
                    row.append((F(rng.randint(9, 16), 8), 0))
                else:
                    row.append((F(rng.randint(0, 8), 8 + x), rng.randint(0, 4)))
            cells.append(tuple(row))
        partial = PartialCostTable(tuple(cells))
        out = totalize(partial, horizon=8, width=8)  # constructor checks invariants
        _require(out.normalized, 10, seed, f"input {index} totalizes to a table not normalized")
        # Wherever the input is a genuine monotone approximation bounded by 1,
        # the output must copy it on the certified prefix.
        for s in range(8):
            frontier = certified_prefix(partial, s)
            for x in range(8):
                expected = partial.cell(frontier, x)[0] if 0 <= x <= frontier else F(0)
                ok = out.value(s, x) == expected
                _require(ok, 10, seed, f"input {index} differs at stage {s} column {x}")
        checked += 1
    return {"inputs": checked}


class Criterion(NamedTuple):
    name: str
    check: Callable[..., dict]
    quick: dict  # sizes for `verify`; those of criteria 1-4 size the shared promotion batch
    summary: str  # PASS-line text, formatted with the returned counts


CRITERIA = (
    Criterion("conflict bound", conflict_bound, {"runs": 20},
              "conflict bound <= n-1 over {runs} mixed-oracle runs"),
    Criterion("witness certification", witness_certification, {"runs": 20},
              "{audits} witness audits certified |T| >= N+1"),
    Criterion("capacity", capacity, {"runs": 20},
              "length lists and trace components within capacity"),
    Criterion("believability and convergence", believability, {"runs": 20},
              "unique credible words and ground-truth convergence on {extractions} honest runs"),
    Criterion("change-set dominance", change_set_dominance,
              {"exhaustive": 3, "random_instances": 20},
              "change-set dominance and decoding on {instances} instances"),
    Criterion("speed-up budget", speedup_budget, {"speedups": 20},
              "{speedups} speed-ups within budget 1; failures raise loudly"),
    Criterion("synth benignity", synth_benignity, {"runs": 6},
              "{runs} synth runs within the closed-form marker bound; g(1/2)=163 at budget 0"),
    Criterion("final accounting", final_accounting, {"qualifying": 2},
              "final accounting bounded on {qualifying} qualifying runs"),
    Criterion("sum of benign", sum_of_benign, {"trials": 10},
              "combined marker counts within the certified part sums"),
    Criterion("totalization", totalization, {"inputs": 30},
              "totalization valid and faithful on {inputs} partial inputs"),
)


def pass_line(number: int, counts: dict) -> str:
    return f"PASS criterion {number}: {CRITERIA[number - 1].summary.format(**counts)}"


def verify(seed: int) -> dict:
    """Every criterion at its quick sizes with `seed`: the report of
    `tracelab verify all`.  The first failed check raises."""
    batch, results = None, []
    for number, c in enumerate(CRITERIA, 1):
        if number <= 4:  # criteria 1-4 read one shared promotion batch
            batch = batch or promotion_batch(seed=seed, **c.quick)
            counts = c.check(batch)
        else:
            counts = c.check(seed=seed, **c.quick)
        line = pass_line(number, counts)
        results.append({"criterion": number, "name": c.name, "counts": counts, "line": line})
    return {"kind": "verify", "seed": seed, "criteria": results, "ok": True}
