"""Randomized scenario generators and batch drivers.

Every generated scenario is a plain payload dict, so a failing case can be
dumped and replayed through the CLI unchanged.  A batch fails loudly: a
case's error propagates out of the batch runner with its type unchanged and
its message prefixed with the kind, the case index and the batch seed;
`boxpromo_batch(index + 1, seed, horizon)` or `synth_batch(index + 1, seed,
horizon)`, at the batch's own horizon, generates that case's payload last.
"""
from __future__ import annotations

import random
from fractions import Fraction

from . import costs
from .errors import ScenarioError, fraction_str, prefixed
from .scenarios import build_promotion_engine, run_synth
from .words import flip, random_word


def fuzz_cost_table(rng: random.Random, horizon: int) -> costs.CostTable:
    """Small family of genuinely decaying monotone tables."""
    width = horizon
    flavor = rng.randrange(4)
    if flavor < 2:
        scale = 1 if flavor == 0 else rng.choice([Fraction(1, 2), Fraction(3, 4)])
        row = costs.dyadic_decay_row(width, scale=scale)
        return costs.static_table(row, horizon, normalized=True)
    # A lower row for the first `start` stages, then the dyadic decay.
    start = min(rng.randrange(2, 7), horizon)
    if flavor == 2:
        low = (Fraction(0),) * width
    else:
        low = costs.dyadic_decay_row(width, scale=Fraction(1, 2))
    rows = [low] * start + [costs.dyadic_decay_row(width)] * (horizon - start)
    return costs.CostTable(rows, normalized=True)


CANNED_SCRIPT = [
    "4 I2.2 000",
    "4 I2.2 001",
    "5 M2.2:1 0000",
    "5 M2.2:2 0010",
    "5 M2.2:1+2 0000",
    "5 M2.2:1+2 0010",
]


def canned_scripted_payload(horizon: int = 14) -> dict:
    """Deterministic conflict scenario: two same-length candidates agreeing
    below the previous tested length, fed on every class their success check
    inspects."""
    table = costs.static_table(costs.dyadic_decay_row(horizon), horizon, normalized=True)
    return {
        "kind": "boxpromo",
        "horizon": horizon,
        "overhead": 1,
        "top_level": 2,
        "cost_table": costs.format_cost_table(table),
        "oracle": {"policy": "scripted", "script": list(CANNED_SCRIPT)},
    }


def boxpromo_payload(rng: random.Random, index: int, horizon: int | None = None) -> dict:
    if index % 5 == 4:
        return canned_scripted_payload(horizon=14 if horizon is None else horizon)
    overhead = rng.choice([1, 2])
    top_level = rng.randint(max(2, overhead), 4)
    horizon = horizon if horizon is not None else rng.randint(18, 34)
    table = fuzz_cost_table(rng, horizon)
    payload = {
        "kind": "boxpromo",
        "horizon": horizon,
        "overhead": overhead,
        "top_level": top_level,
        "cost_table": costs.format_cost_table(table),
        "ground_truth": random_word(rng, horizon),
    }
    if index % 5 in (0, 1):
        payload["oracle"] = {"policy": "honest", "delay": rng.randint(0, 2)}
    else:
        payload["oracle"] = {
            "policy": "random",
            "seed": rng.randrange(2**30),
            "activate_rate": rng.choice([0.4, 0.6, 0.8]),
            "feed_rate": rng.choice([0.7, 0.9]),
            "junk_rate": rng.choice([0.1, 0.3]),
        }
    return payload


def synth_approximation(rng: random.Random, horizon: int, flips: list[tuple[int, int]]) -> str:
    """Text block for an approximation that starts random and applies the
    given (stage, position) flips."""
    width = horizon
    word = random_word(rng, width)
    rows = [word]
    flip_map: dict[int, list[int]] = {}
    for stage, position in flips:
        flip_map.setdefault(stage, []).append(position)
    for stage in range(1, horizon):
        for position in flip_map.get(stage, ()):
            word = flip(word, position)
        rows.append(word)
    return "\n".join([f"{horizon} {width}"] + rows)


def listed_cost_block(rng: random.Random, horizon: int, flavor: str | None = None) -> str:
    """Listed-form requirement tables; flat and slowly-decaying rows dominate
    the synthesized initial costs, which is what makes a requirement worry."""
    flavor = flavor or rng.choice(["flat", "flat", "slow", "dyadic"])
    if flavor == "flat":
        scale = rng.choice([Fraction(1), Fraction(1, 2)])
        base = tuple(scale for _ in range(horizon))
    elif flavor == "slow":
        base = tuple(Fraction(1, 2 ** (x // 4)) for x in range(horizon))
    else:
        base = costs.dyadic_decay_row(horizon, shift=rng.randint(1, 3))
    # Stage s keeps the first s entries of `base` and zeroes the rest; the
    # text is written directly, in `costs.format_cost_table`'s format.
    texts = [fraction_str(v) for v in base]
    zeros = ["0/1"] * horizon
    lines = [f"{horizon} {horizon}", *(" ".join(texts[:s] + zeros[s:]) for s in range(horizon))]
    return "\n".join(lines) + "\n"


def synth_payload(
    rng: random.Random,
    index: int,
    horizon: int = 120,
    min_flip_position: int = 4,
    max_flips: int = 2,
    slow_maps: bool = False,
    requirement_flavor: str | None = None,
) -> dict:
    requirements = []
    delays = []
    for r in range(rng.randint(1, 2)):
        delay = rng.randint(8, 20) if slow_maps else rng.randint(0, 2)
        delays.append(delay)
        stage_map = [[i, i, i + delay] for i in range(horizon)]
        requirements.append(
            {
                "cost_table": listed_cost_block(rng, horizon, flavor=requirement_flavor),
                "stage_map": stage_map,
            }
        )
    settle = max(4, horizon // 3)
    flips = []
    for _ in range(rng.randint(0, max_flips)):
        if slow_maps:
            # A change only worries a requirement when it lands after the
            # checkpoint frontier has crawled past its position; put flips
            # in that window.
            lo = max(delays) + min_flip_position + 6
            stage = rng.randint(min(lo, horizon - 10), max(min(lo, horizon - 10) + 1, horizon - 8))
        else:
            stage = rng.randint(2, max(3, settle - 1))
        position = rng.randint(min_flip_position, max(min_flip_position + 1, min(horizon // 2, 10)))
        position = min(position, horizon - 1)  # inside the word on narrow horizons
        flips.append((stage, position))
        if slow_maps and rng.random() < 0.5 and stage + 4 < horizon - 4:
            # Undo the change shortly afterwards: a transient the cover
            # records but the limit forgets.
            flips.append((stage + rng.randint(2, 4), position))
    return {
        "kind": "synth",
        "horizon": horizon,
        "budget_exp": rng.choice([0, 1, 2]),
        "approximation": synth_approximation(rng, horizon, flips),
        "requirements": requirements,
        "eps": ["1/2", "1/4", "1/8"],
    }


def fuzz_case(kind: str, index: int, seed: int):
    """Context of one batch case: its errors keep their type and name what
    regenerates its payload."""
    return prefixed(f"{kind} fuzz case {index} (batch seed {seed}): ")


def boxpromo_engines(seed: int, count: int, horizon: int | None = None):
    """The finished engine of each `boxpromo_payload(rng, index, horizon)`,
    run under `fuzz_case`: `boxpromo fuzz` tallies them, and acceptance
    criteria 1-4 read them."""
    if horizon is not None and horizon < 3:
        # Checked here: every generated overhead (1 or 2) and the canned
        # script's level-2 boxes need a horizon of at least 3.
        raise ScenarioError(f"boxpromo fuzz needs a horizon of at least 3, got {horizon}")
    rng = random.Random(seed)
    for index in range(count):
        payload = boxpromo_payload(rng, index, horizon=horizon)
        with fuzz_case("boxpromo", index, seed):
            engine = build_promotion_engine(payload).run()
        yield engine


def boxpromo_batch(count: int, seed: int, horizon: int | None = None) -> dict:
    if count < 1:
        raise ScenarioError("fuzz batch needs a positive count")
    conflicts = witness_stages = largest_trace = extractions = 0
    oracles: dict[str, int] = {}
    for engine in boxpromo_engines(seed, count, horizon):
        oracles[engine.policy.kind] = oracles.get(engine.policy.kind, 0) + 1
        conflicts += engine.conflict_count()
        witness_stages += len(engine.witness_audits)
        largest_trace = max(largest_trace, engine.env.max_trace)
        extractions += engine.extraction is not None
    return {
        "kind": "boxpromo-fuzz",
        "runs": count,
        "ok": True,
        "tallies": {
            "conflicts": conflicts,
            "witness_audited_stages": witness_stages,
            "max_trace": largest_trace,
            "extractions": extractions,
            "oracles": oracles,
        },
    }


def synth_batch(count: int, seed: int, horizon: int = 120) -> dict:
    if count < 1:
        raise ScenarioError("fuzz batch needs a positive count")
    if horizon < 2:
        raise ScenarioError(f"synth fuzz needs a horizon of at least 2, got {horizon}")
    rng = random.Random(seed)
    halted = 0
    doubled = 0
    benign_checked = 0
    for index in range(count):
        payload = synth_payload(
            rng,
            index,
            horizon=horizon,
            slow_maps=rng.random() < 0.3,
            min_flip_position=2 if rng.random() < 0.5 else 4,
            max_flips=3,
        )
        with fuzz_case("synth", index, seed):
            report = run_synth(payload)
        if report["halted_at"] is not None:
            halted += 1
        doubled += len(report["doubling_stages"])
        benign_checked += len(report["benign"])
    return {
        "kind": "synth-fuzz",
        "runs": count,
        "ok": True,
        "tallies": {
            "halted": halted,
            "doubling_stages": doubled,
            "benign_checks": benign_checked,
        },
    }
