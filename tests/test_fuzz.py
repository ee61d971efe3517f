import hashlib
import json
import random
from fractions import Fraction

import pytest

from oracles import to_listed_form
from tracelab import fuzz as fuzz_mod
from tracelab.cli import main
from tracelab.costs import (
    dyadic_decay_row,
    format_cost_table,
    parse_cost_table,
    static_table,
)
from tracelab.errors import InvariantViolation
from tracelab.fuzz import (
    boxpromo_batch,
    boxpromo_payload,
    canned_scripted_payload,
    fuzz_cost_table,
    listed_cost_block,
    synth_batch,
    synth_payload,
)
from tracelab.scenarios import machine_format, run_scenario


def test_payload_generation_is_deterministic():
    a = [boxpromo_payload(random.Random(4), i) for i in range(8)]
    b = [boxpromo_payload(random.Random(4), i) for i in range(8)]
    assert a == b
    c = [synth_payload(random.Random(4), i, horizon=40) for i in range(4)]
    d = [synth_payload(random.Random(4), i, horizon=40) for i in range(4)]
    assert c == d


def test_generated_payloads_replay_through_the_scenario_runner():
    rng = random.Random(10)
    for index in range(6):
        payload = boxpromo_payload(rng, index)
        first = machine_format(run_scenario(payload))
        second = machine_format(run_scenario(payload))
        assert first == second


def test_fuzz_cost_tables_are_valid_and_varied():
    rng = random.Random(0)
    shapes = set()
    for _ in range(20):
        table = fuzz_cost_table(rng, 12)
        shapes.add(table.rows[0])
        assert table.horizon == 12
    assert len(shapes) >= 2


def test_boxpromo_batch_mixes_oracles_and_finds_conflicts():
    report = boxpromo_batch(25, seed=1)
    assert report["ok"]
    tallies = report["tallies"]
    assert set(tallies["oracles"]) == {"honest", "random", "scripted"}
    assert tallies["conflicts"] >= 1
    assert tallies["witness_audited_stages"] >= 1


def test_synth_batch_reports_activity():
    report = synth_batch(6, seed=2, horizon=60)
    assert report["ok"]
    assert report["tallies"]["benign_checks"] == 18


def test_canned_scenario_is_stable():
    assert canned_scripted_payload() == canned_scripted_payload()


def test_boxpromo_fuzz_accepts_a_fixed_horizon():
    import random as _random

    rng = _random.Random(6)
    for index in (0, 2):
        payload = boxpromo_payload(rng, index, horizon=40)
        assert payload["horizon"] == 40
    # Every case carries a fixed horizon, the canned scripted one included.
    payloads = [boxpromo_payload(rng, index, horizon=5) for index in range(5)]
    assert [payload["horizon"] for payload in payloads] == [5] * 5
    assert payloads[4]["oracle"]["policy"] == "scripted"
    report = boxpromo_batch(5, seed=4, horizon=24)
    assert report["ok"]


def _sha256(payloads) -> str:
    return hashlib.sha256(json.dumps(payloads).encode()).hexdigest()


def test_payloads_are_pinned_byte_for_byte():
    """Generated payloads are the benchmark's inputs: any change to table
    building or formatting that alters one byte shows here."""
    rng = random.Random(1)
    synth_h500 = [
        synth_payload(
            rng,
            i,
            horizon=500,
            max_flips=2,
            min_flip_position=4,
            slow_maps=i % 4 == 0,
            requirement_flavor="dyadic",
        )
        for i in range(2)
    ]
    assert _sha256(synth_h500) == "4e2b7fb38de1a02e865fba2308120bcc5bca6dc28fac9bd05bf47f91e09079d1"
    rng = random.Random(5)
    synth_mixed = [synth_payload(rng, i, horizon=60) for i in range(8)]
    assert _sha256(synth_mixed) == "d627207ec361647518a096ca6227cbc01167314c416f8831a07431263739195a"
    rng = random.Random(3)
    boxpromo = [boxpromo_payload(rng, i) for i in range(10)]
    assert _sha256(boxpromo) == "1bbcdf86819131dedcd83750043d6e80b96f3906ac7a301ca53080457e9c45b6"
    rng = random.Random(3)
    boxpromo_h100 = [boxpromo_payload(rng, 2, horizon=100) for _ in range(4)]
    assert _sha256(boxpromo_h100) == "a2825028a796c30bcc880a28c2e8a082c5d4b349e3f3e71e187a932deb9a798f"


def listed_base(rng, horizon, flavor):
    """The base row `listed_cost_block` draws for `flavor`."""
    if flavor == "flat":
        return (rng.choice([Fraction(1), Fraction(1, 2)]),) * horizon
    if flavor == "slow":
        return tuple(Fraction(1, 2 ** (x // 4)) for x in range(horizon))
    return dyadic_decay_row(horizon, shift=rng.randint(1, 3))


@pytest.mark.parametrize("flavor", ["flat", "slow", "dyadic"])
@pytest.mark.parametrize("horizon", [1, 2, 9, 40])
def test_listed_cost_block_is_a_valid_listed_table(flavor, horizon):
    """The block is written as text, unchecked: parsed with every table
    check armed, it must be the listed form of its base row."""
    for seed in range(3):
        text = listed_cost_block(random.Random(seed), horizon, flavor=flavor)
        table = parse_cost_table(text, normalized=True, listed_form=True)
        base = listed_base(random.Random(seed), horizon, flavor)
        expected = to_listed_form(static_table(base, horizon, normalized=True))
        assert table.rows == expected.rows
        assert (table.horizon, table.width) == (expected.horizon, expected.width)
        assert format_cost_table(table) == text


def test_fuzz_failure_names_its_case_and_seed(monkeypatch, capsys):
    seen = []
    real = fuzz_mod.build_promotion_engine

    def failing(payload):
        seen.append(payload)
        if len(seen) == 4:
            raise InvariantViolation("conflict bound exceeded")
        return real(payload)

    monkeypatch.setattr(fuzz_mod, "build_promotion_engine", failing)
    assert main(["boxpromo", "fuzz", "--count", "6", "--seed", "17"]) == 2
    err = capsys.readouterr().err
    assert err == "invariant violation: boxpromo fuzz case 3 (batch seed 17): conflict bound exceeded\n"
    # boxpromo_batch(index + 1, seed, horizon) regenerates the failing payload last.
    failed = seen[3]
    seen.clear()
    monkeypatch.setattr(
        fuzz_mod, "build_promotion_engine", lambda payload: seen.append(payload) or real(payload)
    )
    boxpromo_batch(3 + 1, 17)
    assert seen[-1] == failed


def test_synth_fuzz_counts_a_halted_case(monkeypatch):
    # The first bit flips at every stage, so the run measures two changes
    # at stage 3, above its budget 2^0, and halts; no generated case at
    # horizon 40 halts.
    rows = ["0" * 10 if s % 2 == 0 else "1" + "0" * 9 for s in range(10)]
    halting = {
        "kind": "synth",
        "horizon": 10,
        "budget_exp": 0,
        "approximation": "\n".join(["10 10"] + rows),
        "requirements": [],
        "eps": ["1/2"],
    }
    real = fuzz_mod.synth_payload
    monkeypatch.setattr(
        fuzz_mod, "synth_payload", lambda rng, index, **params: halting if index == 1 else real(rng, index, **params)
    )
    report = synth_batch(3, 0, horizon=40)
    assert report["runs"] == 3 and report["tallies"]["halted"] == 1


def tallied_from_reports(count, seed, horizon=None):
    """The boxpromo batch report tallied from each payload's machine report."""
    rng = random.Random(seed)
    conflicts = witness_stages = max_trace = extractions = 0
    oracles = {}
    for index in range(count):
        payload = boxpromo_payload(rng, index, horizon=horizon)
        report = run_scenario(payload)
        policy = payload["oracle"]["policy"]
        oracles[policy] = oracles.get(policy, 0) + 1
        conflicts += report["tallies"]["conflicts"]
        witness_stages += len(report["witness_audits"])
        max_trace = max(max_trace, report["tallies"]["max_trace"])
        extractions += "steps" in report["extraction"]
    tallies = {
        "conflicts": conflicts,
        "witness_audited_stages": witness_stages,
        "max_trace": max_trace,
        "extractions": extractions,
        "oracles": oracles,
    }
    return {"kind": "boxpromo-fuzz", "runs": count, "ok": True, "tallies": tallies}


@pytest.mark.parametrize("horizon", [None, 40])
@pytest.mark.parametrize("seed", [0, 7, 17])
def test_boxpromo_fuzz_tallies_match_the_per_payload_reports(seed, horizon):
    batch = boxpromo_batch(30, seed, horizon=horizon)
    assert machine_format(batch) == machine_format(tallied_from_reports(30, seed, horizon))
