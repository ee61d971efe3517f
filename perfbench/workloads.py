"""The benchmark's workloads: seeded batches of scenario payloads.

Each workload turns a seed into a fixed-size batch of scenario payloads with
the `tracelab.fuzz` generators and serialises each payload to the JSON text a
user would hand to `tracelab ... run SCENARIO.json`.  The same seed gives the
same batch, and a shorter batch is a prefix of a longer one.
"""
from __future__ import annotations

import json
import random

from tracelab import fuzz

DEFAULT_SEED = 1


def synth_h500(rng: random.Random, index: int) -> dict:
    """Criterion-8-shaped synthesis: horizon 500, two dyadic listed-form
    requirement tables, budget exponents 0-2, slow maps on every fourth."""
    # A scenario parses one dense 500x500 table per requirement, which sets
    # most of its time: with one or two requirements the times fall into two
    # clusters and their median jumps between them from seed to seed.  So
    # every scenario has two.  `synth_payload` draws the count first: skip
    # draws until the next one gives two.
    while True:
        state = rng.getstate()
        if rng.randint(1, 2) == 2:
            rng.setstate(state)
            break
    return fuzz.synth_payload(
        rng,
        index,
        horizon=500,
        max_flips=2,
        min_flip_position=4,
        slow_maps=index % 4 == 0,
        requirement_flavor="dyadic",
    )


def promo_deep(rng: random.Random, index: int) -> dict:
    """The promotion scale point: horizon 100, top level 5, random oracle."""
    payload = fuzz.boxpromo_payload(rng, 2, horizon=100)  # index 2: random oracle
    payload["top_level"] = 5
    return payload


def promo_mixed(rng: random.Random, index: int) -> dict:
    """The criterion-1 mix: 2/5 honest, 2/5 random, 1/5 the canned script."""
    return fuzz.boxpromo_payload(rng, index)


# name -> (payload generator, batch size).  A run cycles through its batch.
# synth-h500 keeps its batch small because each payload takes about 1.4 s to
# build and a run builds the batch three times; promo-deep's covers a whole
# 25 s run on a 2-core x86 VM, because its scenarios vary so much in cost
# that every distinct one steadies the median.
WORKLOADS = {
    "synth-h500": (synth_h500, 4),
    "promo-deep": (promo_deep, 256),
    "promo-mixed": (promo_mixed, 1000),
}


def texts(name: str, seed: int, count: int | None = None, wrap=None):
    """Yield the workload's batch as JSON texts, one scenario at a time.
    `wrap`, when given, wraps the payload generator (the traced run passes a
    span recorder)."""
    make, size = WORKLOADS[name]
    if wrap is not None:
        make = wrap(make)
    rng = random.Random(seed)
    for index in range(size if count is None else count):
        yield json.dumps(make(rng, index))


def build(name: str, seed: int, count: int | None = None, wrap=None) -> list[str]:
    return list(texts(name, seed, count, wrap))
