import copy
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tracelab
from tracelab import acceptance, synthesis
from tracelab.cli import main
from tracelab.costs import dyadic_decay_row, format_cost_table, static_table
from tracelab.errors import ScenarioError
from tracelab.fuzz import boxpromo_batch, boxpromo_payload, canned_scripted_payload, synth_payload
from tracelab.scenarios import (
    build_synthesis_run,
    load_scenario,
    machine_format,
    parse_script,
    run_scenario,
)

from bad_inputs import CASES, LISTED_20, PREFIXES, check, decay_text, synth_payload_small
from oracles import to_listed_form


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---- scenario plumbing ---------------------------------------------------------


def test_load_scenario_rejects_unknown_kind(tmp_path):
    path = write_json(tmp_path, "s.json", {"kind": "mystery"})
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_load_scenario_reports_json_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(ScenarioError, match="line 2"):
        load_scenario(str(path))


def test_run_scenario_boxpromo_and_determinism(tmp_path):
    path = write_json(tmp_path, "canned.json", canned_scripted_payload())
    first = machine_format(run_scenario(path))
    second = machine_format(run_scenario(path))
    assert first == second
    report = json.loads(first)
    assert report["tallies"]["conflicts"] == 1


def test_run_scenario_costfn_check():
    for key in ("1/4", "0.25"):  # a bound key matches its threshold as a rational
        report = run_scenario(
            {
                "kind": "costfn-check",
                "cost_table": decay_text(8),
                "eps": ["1/4"],
                "bound": {key: 4},
            }
        )
        assert report["ok"]
        assert report["thresholds"]["1/4"]["count"] == 4
        assert report["thresholds"]["1/4"]["bound"] == 4


def test_parse_script_skips_blank_lines_and_comments():
    text = "# conflict setup\n\n4 I2.2 000  # first\n   \n5 M2.2:1 0000\n"
    assert parse_script(text) == [(4, "I2.2", "000"), (5, "M2.2:1", "0000")]
    with pytest.raises(ScenarioError, match="^line 4: "):  # skipped lines keep their numbers
        parse_script("# header\n\n4 I2.2 000\nbad\n")


def test_parse_script_rejects_malformed_lines():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_script("3 I2.1 00\nnot a line\n")


def test_fuzz_rejects_empty_batches():
    with pytest.raises(ScenarioError):
        boxpromo_batch(0, seed=1)


def test_synth_scenario_with_halt_flag():
    horizon = 10
    rows = []
    word = "0" * horizon
    for s in range(horizon):
        rows.append(word if s % 2 == 0 else "1" + word[1:])
    payload = {
        "kind": "synth",
        "horizon": horizon,
        "budget_exp": 0,
        "approximation": "\n".join([f"{horizon} {horizon}"] + rows),
        "requirements": [],
        "eps": ["1/2"],
    }
    report = run_scenario(payload)
    assert report["halted_at"] == 3
    assert report["measured"] == "2/1"


# ---- exit codes ------------------------------------------------------------------


def test_cli_run_success(tmp_path, capsys):
    path = write_json(tmp_path, "canned.json", canned_scripted_payload())
    assert main(["boxpromo", "run", path]) == 0
    out = capsys.readouterr().out
    assert "conflicts: 1" in out


def test_cli_machine_format_is_deterministic(tmp_path, capsys):
    path = write_json(tmp_path, "canned.json", canned_scripted_payload())
    assert main(["boxpromo", "run", path, "--format", "machine"]) == 0
    first = capsys.readouterr().out
    assert main(["boxpromo", "run", path, "--format", "machine"]) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # well-formed machine report


class _Int(int):
    def __repr__(self):
        return "not json"


class _Str(str):
    pass


def _json_trees():
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers().map(_Int),
        st.floats(),  # nan and the infinities included
        st.text(),
        st.sampled_from(["", "\\", '"', "\n\t\x00\x1f\x7f", "é", "\u2028", "\U0001f600"]),
        st.text().map(_Str),
    )
    numbers = st.one_of(st.integers(), st.booleans(), st.floats())
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=3), inner, max_size=4),
            st.dictionaries(numbers, inner, max_size=4),  # keys json writes as text
            st.dictionaries(st.none(), inner, max_size=1),
        ),
        max_leaves=30,
    )


@given(_json_trees())
def test_machine_format_is_json_dumps_indent_2(tree):
    assert machine_format(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def test_machine_format_rejects_what_json_rejects():
    for bad in (Fraction(1, 2), {1, 2}, {"a": [1, Fraction(1, 3)]}, [{"b": {0}}], {(0,): 1}):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            machine_format(bad)


def _random_oracle_report(seed, top_level, horizon):
    payload = boxpromo_payload(random.Random(seed), 2, horizon=horizon)  # index 2: random oracle
    return run_scenario(dict(payload, top_level=top_level))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 5), st.integers(16, 40))
def test_machine_format_writes_promotion_reports_as_json_dumps(seed, top_level, horizon):
    # A level's audits share its chain's objects until the chain changes, and
    # the levels' audits interleave within a stage.
    report = _random_oracle_report(seed, top_level, horizon)
    assert machine_format(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"


def _audits_sharing_a_chain():
    """A random-oracle report whose audits interleave levels 2, 3 and 4, and
    the index of an audit that follows one at another level and whose chain
    fields are the previous same-level audit's."""
    report = _random_oracle_report(5, 4, 30)
    audits = report["witness_audits"]
    assert {audit["level"] for audit in audits} == {2, 3, 4}
    for later, audit in enumerate(audits[1:], start=1):
        earlier = [a for a in audits[:later] if a["level"] == audit["level"]]
        if (
            audits[later - 1]["level"] != audit["level"]
            and earlier
            and all(earlier[-1][name] is audit[name] for name in ("box", "chain_sizes", "conflicted", "deficits"))
        ):
            return report, later
    raise AssertionError("no audit shares its level's chain")


class StrKey(str):
    """A key json writes as the string it holds."""


@pytest.mark.parametrize("edit", [
    {"deficits": lambda old: old[:-1] + [old[-1] + 1]},
    {"conflicted": lambda old: old + [99]},
    {"box": lambda old: old + "x"},
    {"deficits": lambda old: [bool(d) if d in (0, 1) else d for d in old]},  # equal to old, written apart
    {"level": lambda old: old + 1},
    {"stage": lambda old: float(old)},
    {"extra": lambda old: 1},
    {"box": None},  # a missing key
    {StrKey("extra"): lambda old: 1},
])
def test_machine_format_writes_hand_edited_audits_as_json_dumps(edit):
    report, index = _audits_sharing_a_chain()
    (name, change), = edit.items()
    audit = report["witness_audits"][index] = dict(report["witness_audits"][index])
    if change is None:
        del audit[name]
    else:
        audit[name] = change(audit.get(name))
    assert machine_format(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_machine_format_writes_each_levels_audits_with_their_level():
    # Audits at two levels may carry the very same chain objects; each level
    # keeps its own text.
    chain = {"box": "M2.root", "chain_sizes": [2, 1], "conflicted": [1], "deficits": [1, 0]}
    audits = [dict(chain, level=level, stage=5, trace_members=2, trace_size=3) for level in (2, 3, 2, 3)]
    report = {"kind": "boxpromo", "witness_audits": audits}
    assert machine_format(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_machine_format_writes_keys_that_are_not_strings_as_json_dumps():
    # A dict whose keys are not strings goes to `json.dumps` whole, its
    # layout indented to its depth.
    report = {"kind": "x", "outer": {"mixed": {2: [1, "a\nb"], 0.5: {}, -1: True}, "none": {None: {"k": 1.5}}}}
    assert machine_format(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_cli_version_matches_pyproject(capsys):
    # pyproject.toml is read as text: Python 3.10 has no `tomllib`.
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    version = next(
        line.split('"')[1] for line in pyproject.read_text().splitlines() if line.startswith("version = ")
    )
    with pytest.raises(SystemExit) as exit_:
        main(["--version"])
    assert exit_.value.code == 0
    assert capsys.readouterr() == (f"tracelab {version}\n", "")


def test_cli_usage_error_is_exit_one(capsys):
    for argv, missing in ((["boxpromo"], "action"), (["boxpromo", "run"], "scenario")):
        assert main(argv) == 1
        usage, last = capsys.readouterr().err.rstrip("\n").rsplit("\n", 1)
        assert usage.startswith(f"usage: tracelab {' '.join(argv)} [-h]"), usage
        assert "error" not in usage and "Traceback" not in usage
        assert last == f"error: the following arguments are required: {missing}"


def test_cli_missing_file_is_exit_one(capsys):
    assert main(["boxpromo", "run", "/nonexistent/scenario.json"]) == 1


# A `p/q` threshold whose denominator has as many digits as `int` converts,
# the most the reader takes.
TINY_THRESHOLD = "1/" + "9" * 4300


def test_cli_parse_error_is_exit_one(tmp_path, capsys):
    """Every case of the bad-input corpus, run in-process."""
    def run(argv):
        status = main(argv)
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    for case in CASES:
        check(case, run, tmp_path / case.name)
    # Just inside the digit limits: a bound that still writes runs, and
    # `costfn sum` keys its thresholds by their text, so a tiny one writes.
    assert main(["synth", "run", write_json(tmp_path, "wide.json", dict(synth_payload_small(), budget_exp=14000))]) == 0
    table = tmp_path / "c.table"
    table.write_text(decay_text(8))
    assert main(["costfn", "sum", str(table), "--eps", TINY_THRESHOLD]) == 0


def test_a_tiny_synth_threshold_is_refused_quickly(tmp_path, capsys):
    """The closed-form bound finds its exponent in closed form, so a
    threshold near 1e-4300 (about 14300 halvings) is refused at once."""
    path = write_json(tmp_path, "s.json", dict(synth_payload_small(), eps=[TINY_THRESHOLD]))
    start = time.perf_counter()
    status = main(["synth", "run", path])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (
        1, "", f"error: synth scenario 'budget_exp': the bound at eps {TINY_THRESHOLD} has too many digits to write\n"
    )
    assert elapsed < 0.5


def test_a_generated_table_too_long_to_write_is_refused_quickly(capsys):
    """A horizon-15000 fuzz table repeats one dyadic row object, checked once,
    whose denominators reach 2^14999: past the digit limit by bit length
    alone, so the table is refused before any entry is converted."""
    start = time.perf_counter()
    status = main(["boxpromo", "fuzz", "--count", "1", "--horizon", "15000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (
        1, "", "error: a rational in the report has too many digits to write\n"
    )
    assert elapsed < 0.5


# Mutated inputs: a scenario with a field dropped or a value of another type
# swapped in, and scenario, table, approximation and script texts truncated,
# with a token or one of the bytes 0x00, 0x80 and 0xff inserted, or cut inside
# a multi-byte character.  The CLI exits 0-3, nothing escapes, an error is one line.
TOKENS = ["x", "-1", "0", "\u00b2", "1/0", "\u221e", "nan", "(0,1,2)", "I9.9", "M2.1:3"]
TOKENS += ["{", "]", ",", '"', "\n", "#"]
OTHER_TYPES = [None, True, -1, 2.5, "x", "1/0", [], {}, [1, "x"], {"a": None}]


REQUIREMENT_20 = {"cost_table": LISTED_20, "stage_map": [[i, i, i + 1] for i in range(20)]}
MUTATION_BASES = [
    canned_scripted_payload(),
    dict(
        canned_scripted_payload(),
        ground_truth="01101001100101",
        oracle={"policy": "honest", "delay": 1},
        family_cap=4,  # the run's largest family, so the cap is tight
    ),
    dict(canned_scripted_payload(), oracle={"policy": "random", "seed": 3, "feed_rate": 0.9}),
    dict(synth_payload_small(), requirements=[REQUIREMENT_20]),
    {"kind": "costfn-check", "cost_table": decay_text(6), "eps": ["1/4"], "bound": {"1/4": 4}},
]


def test_every_mutation_base_runs_unmutated(tmp_path, capsys):
    for payload in MUTATION_BASES:
        path = write_json(tmp_path, "base.json", payload)
        command = "synth" if payload["kind"] == "synth" else "boxpromo"
        assert main([command, "run", path]) == 0, payload
        assert capsys.readouterr().err == ""


@st.composite
def mutated_inputs(draw):
    """(file bytes, argv with FILE and COST standing for paths)."""
    kind = draw(st.sampled_from(["scenario", "table", "approximation"]))
    how = draw(st.sampled_from(["drop", "swap", "truncate", "insert", "byte", "split"]))
    if kind == "scenario":
        payload = copy.deepcopy(draw(st.sampled_from(MUTATION_BASES)))
        argv = [draw(st.sampled_from(["boxpromo", "synth"])), "run", "FILE"]
        dicts = [payload, *(v for v in payload.values() if isinstance(v, dict))]
        container = draw(st.sampled_from([d for d in dicts + payload.get("requirements", []) if d]))
        key = draw(st.sampled_from(sorted(container)))
        if how == "drop":
            del container[key]
        elif how == "swap":
            container[key] = draw(st.sampled_from(OTHER_TYPES))
        text = json.dumps(payload, indent=1)
        # Tokens go between JSON tokens (inside embedded texts too), so no
        # number grows into a huge size.
        cuts, pad = [i for i, ch in enumerate(text) if ch in " \n"], " "
    else:
        text, argv = draw(st.sampled_from([
            (decay_text(4), ["costfn", "markers", "FILE", "--eps", "1/4"]),
            (decay_text(4), ["costfn", "check-benign", "FILE", "--eps", "1/4", "--bound", "1/4=4"]),
            (decay_text(4), ["costfn", "sum", "FILE", "FILE", "--eps", "1/2"]),
            ("4 3\n000\n100\n000\n100\n(1,2,3)\n", ["approx", "change-set", "FILE", "--speedup", "0", "2"]),
            ("4 3\n000\n100\n000\n100\n", ["approx", "speedup", "COST", "COST", "FILE", "FILE", "--steps", "2"]),
        ]))
        cuts, pad = range(len(text) + 1), ""
    at = draw(st.sampled_from(cuts))
    head, tail = text[:at].encode(), text[at:].encode()
    if how == "truncate":
        tail = b""
    elif how == "byte":
        head += draw(st.sampled_from([b"\x00", b"\x80", b"\xff"]))
    elif how == "split":
        char = draw(st.sampled_from(["\u00b2", "\u221e"])).encode()
        head, tail = head + char[: draw(st.integers(1, len(char) - 1))], b""
    elif how == "insert" or kind != "scenario":
        head += f"{pad}{draw(st.sampled_from(TOKENS))}{pad}".encode()
    return head + tail, argv


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(mutated_inputs())
def test_cli_mutated_inputs_keep_the_exit_code_contract(tmp_path, capsys, case):
    data, argv = case
    (tmp_path / "input").write_bytes(data)
    (tmp_path / "cost.table").write_text(decay_text(4))
    paths = {"FILE": str(tmp_path / "input"), "COST": str(tmp_path / "cost.table")}
    code = main([paths.get(a, a) for a in argv])
    err = capsys.readouterr().err
    if err:
        assert code in PREFIXES and err.startswith(PREFIXES[code]) and err.count("\n") == 1, err
    else:
        assert code in (0, 2)  # a report whose checked bound fails exits 2 by itself


def test_integer_fields_accept_integral_numbers_and_digit_strings():
    reports = [
        machine_format(run_scenario(dict(canned_scripted_payload(), horizon=horizon)))
        for horizon in (14, "14", 14.0)
    ]
    assert reports[0] == reports[1] == reports[2]


def test_cli_report_to_a_closed_pipe_ends_quietly(tmp_path):
    path = write_json(tmp_path, "canned.json", canned_scripted_payload())
    src = str(Path(tracelab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
        [sys.executable, "-m", "tracelab.cli", "boxpromo", "run", path, "--format", "machine"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        proc.stdout.close()  # the reader is gone before the report is written
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0
    assert "Traceback" not in err
    assert err == ""


def test_cli_runs_a_layout_three_thousand_levels_tall(tmp_path, capsys):
    # No level at or above the horizon lists a length, so the engine caps
    # the top level at horizon - 1: a taller layout reports the capped one.
    reports = {}
    for top_level in (13, 14, 3000, 10000, 10**6):
        payload = dict(canned_scripted_payload(), top_level=top_level, ground_truth="0" * 14)
        payload["oracle"] = {"policy": "honest"}
        path = write_json(tmp_path, "tall.json", payload)
        assert main(["boxpromo", "run", path, "--format", "machine"]) == 0
        reports[top_level], err = capsys.readouterr()
        assert err == ""
    assert json.loads(reports[13])["parameters"]["top_level"] == 13
    assert all(report == reports[13] for report in reports.values())


def test_cli_script_value_listed_twice_counts_once(tmp_path, capsys):
    reports = []
    for script in (["4 I2.2 000", "4 I2.2 000", "4 I2.2 001"], ["4 I2.2 000", "4 I2.2 001"]):
        payload = dict(canned_scripted_payload(), oracle={"policy": "scripted", "script": script})
        path = write_json(tmp_path, "script.json", payload)
        assert main(["boxpromo", "run", path, "--format", "machine"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_cli_failed_benignity_bound_is_exit_two(tmp_path, capsys):
    table = tmp_path / "c.table"
    table.write_text(decay_text(8))
    for bound in ("1/4=3", "0.25=3"):  # a bound matches its threshold as a rational
        code = main(["costfn", "check-benign", str(table), "--eps", "1/4", "--bound", bound])
        assert code == 2


def test_cli_failed_synthesis_benignity_bound_is_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(synthesis, "closed_form_bound", lambda budget_exp: lambda eps: 0)
    path = write_json(tmp_path, "synth.json", synth_payload(random.Random(1), 0, horizon=30))
    assert main(["synth", "run", path]) == 2
    failed = "benignity bound failed at eps 1/2: 3 markers, bound 0"
    assert capsys.readouterr().err == f"invariant violation: {failed}\n"
    assert main(["synth", "fuzz", "--count", "1", "--horizon", "30"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: synth fuzz case 0 (batch seed 0): benignity bound")


def test_cli_horizon_exhaustion_is_exit_three(tmp_path, capsys):
    cost = tmp_path / "d.table"
    cost.write_text(decay_text(10, 8))
    zero = tmp_path / "e.table"
    zero.write_text(format_cost_table(static_table([0] * 8, 10)))
    target = tmp_path / "b.approx"
    rows = ["00000000", "01000000"] + ["01000000"] * 8
    target.write_text("\n".join(["10 8"] + rows))
    code = main(
        [
            "approx",
            "speedup",
            str(cost),
            str(zero),
            str(target),
            str(target),
            "--steps",
            "4",
        ]
    )
    assert code == 3
    assert "horizon exhausted" in capsys.readouterr().err


def test_cli_costfn_markers(tmp_path, capsys):
    table = tmp_path / "c.table"
    table.write_text(decay_text(8))
    assert main(["costfn", "markers", str(table), "--eps", "1/4", "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["thresholds"]["1/4"]["markers"] == [0, 1, 2, 3]


def test_cli_costfn_markers_is_the_costfn_check_report_without_bounds(tmp_path, capsys):
    text = format_cost_table(to_listed_form(static_table(dyadic_decay_row(8), 8)))
    table = tmp_path / "c.table"
    table.write_text(text)
    argv = ["costfn", "markers", str(table), "--eps", "0.25", "1/2", "1/3", "--format", "machine"]
    assert main(argv) == 0
    expected = run_scenario({"kind": "costfn-check", "cost_table": text, "eps": ["1/4", "1/2", "1/3"]})
    assert capsys.readouterr().out == machine_format(expected)
    assert "limit_tail" in expected and "1/4" in expected["thresholds"]
    # check-benign with a bound is the costfn-check report with that bound:
    # 4 markers at eps 1/4, so a bound of 4 passes and a bound of 3 fails.
    for count, status in ((4, 0), (3, 2)):
        argv = ["costfn", "check-benign", str(table), "--eps", "0.25", "1/2", "--bound", f"0.25={count}"]
        assert main(argv + ["--format", "machine"]) == status
        payload = {"kind": "costfn-check", "cost_table": text, "eps": ["1/4", "1/2"], "bound": {"1/4": count}}
        expected = run_scenario(payload)
        assert capsys.readouterr().out == machine_format(expected)
        assert expected["thresholds"]["1/4"]["ok"] is (status == 0)


def test_cli_costfn_sum(tmp_path, capsys):
    a = tmp_path / "a.table"
    a.write_text(decay_text(6))
    b = tmp_path / "b.table"
    b.write_text(decay_text(6))
    assert main(["costfn", "sum", str(a), str(b), "--eps", "1/2", "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]


def test_cli_approx_change_set(tmp_path, capsys):
    block = tmp_path / "b.approx"
    block.write_text("4 3\n000\n100\n000\n100\n")
    assert main(["approx", "change-set", str(block), "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pairs"] == [[0, 1, 1], [0, 2, 2], [0, 3, 3]]
    assert report["matches_final_row"]
    # A sped-up sequence decodes from its own first row, not the block's.
    block.write_text("3 2\n00\n01\n11\n")
    argv = ["approx", "change-set", str(block), "--speedup", "1", "2", "--format", "machine"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pairs"] == [[0, 1, 1]]
    assert report["decoded"] == "11"
    assert report["matches_final_row"] is True


def test_cli_fuzz_batches(tmp_path, capsys):
    assert main(["boxpromo", "fuzz", "--count", "6", "--seed", "3"]) == 0
    assert main(["synth", "fuzz", "--count", "2", "--seed", "3", "--horizon", "40"]) == 0
    # Flip positions stay inside words narrower than the drawn position.
    for horizon in ("3", "5"):
        for seed in ("0", "1", "2", "3"):
            argv = ["synth", "fuzz", "--count", "4", "--seed", seed, "--horizon", horizon]
            assert main(argv) == 0


def test_cli_default_output_carries_the_result(tmp_path, capsys):
    files = {
        "d6.table": decay_text(6),
        "d8.table": decay_text(8),
        "b.approx": "3 2\n00\n01\n11\n",
        "t.approx": "6 6\n" + "000000\n100000\n" * 3,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    d6, d8, b, t = (str(tmp_path / name) for name in files)
    synth = write_json(tmp_path, "synth.json", synth_payload_small())
    cases = [
        (
            ["synth", "run", synth],
            [
                "kind: synth",
                "halted_at: None  measured: 0/1",
                "speedup frontier: 18",
                "benign @1/2: count 3 <= bound 163: True",
            ],
        ),
        (
            ["synth", "fuzz", "--count", "2", "--seed", "3", "--horizon", "40"],
            ["kind: synth-fuzz", "runs: 2  ok: True", "benign_checks: 6", "doubling_stages: 5", "halted: 0"],
        ),
        (
            ["boxpromo", "fuzz", "--count", "6", "--seed", "3"],
            [
                "kind: boxpromo-fuzz",
                "runs: 6  ok: True",
                "conflicts: 3",
                "extractions: 3",
                "max_trace: 3",
                "oracles: {'honest': 3, 'random': 2, 'scripted': 1}",
                "witness_audited_stages: 34",
            ],
        ),
        (
            ["costfn", "markers", d8, "--eps", "1/4"],
            ["kind: costfn-check", "@1/4: count 4 truncated=True ok=n/a"],
        ),
        (
            ["costfn", "check-benign", d8, "--eps", "1/4", "--bound", "1/4=4"],
            ["kind: costfn-check", "@1/4: count 4 truncated=True ok=True"],
        ),
        (
            ["costfn", "sum", d6, d6, "--eps", "1/2", "1/4"],
            [
                "kind: costfn-sum",
                "benign @1/2: count 3 <= bound 10: True",
                "benign @1/4: count 4 <= bound 12: True",
            ],
        ),
        (
            ["approx", "change-set", b, "--speedup", "1", "2"],
            ["kind: change-set", "pairs: 1  decoded: 11  matches final row: True"],
        ),
        (
            ["approx", "speedup", d6, d6, t, t],
            ["kind: speedup", "map: [3, 4, 5]  omitted: 1", "tail sum: 1/1  full sum: 2/1  ok: True"],
        ),
    ]
    for argv, expected in cases:
        assert main(argv) == 0
        *lines, elapsed = capsys.readouterr().out.splitlines()
        assert lines == expected, argv
        assert elapsed.startswith("elapsed: ")


def test_cli_verify_all(tmp_path, capsys):
    out_file = tmp_path / "verify.json"
    assert main(["verify", "all", "--seed", "1", "--out", str(out_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    passed = [line.partition(":")[0] for line in lines if line.startswith("PASS")]
    assert passed == [f"PASS criterion {n}" for n in range(1, 11)]
    report = json.loads(out_file.read_text())
    assert report["ok"] and report["seed"] == 1
    assert [entry["criterion"] for entry in report["criteria"]] == list(range(1, 11))


def test_cli_verify_all_names_a_failed_criterion(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "obedience_sum", lambda table, rows: 0)
    assert main(["verify", "all"]) == 2
    assert capsys.readouterr().err == (
        "invariant violation: criterion 5 (change-set dominance, seed 0): "
        "change set of ('0', '1') costs more than its rows\n"
    )


def test_cli_out_writes_machine_report(tmp_path, capsys):
    path = write_json(tmp_path, "canned.json", canned_scripted_payload())
    out_file = tmp_path / "report.json"
    assert main(["boxpromo", "run", path, "--out", str(out_file)]) == 0
    stored = json.loads(out_file.read_text())
    assert stored["kind"] == "boxpromo"


def test_cli_synth_emits_table_artifacts(tmp_path, capsys):
    from tracelab.costs import parse_cost_table

    path = write_json(tmp_path, "synth.json", synth_payload_small())
    artifacts = tmp_path / "artifacts"
    assert main(["synth", "run", path, "--emit-tables", str(artifacts)]) == 0
    emitted = parse_cost_table((artifacts / "c.table").read_text(), normalized=True)
    assert emitted.horizon == 21 and emitted.width == 20
    lines = (artifacts / "speedup.map").read_text().splitlines()
    assert lines[0] == "0 0" and len(lines) == 19  # one value per active stage
    assert (artifacts / "cover.pairs").read_text() == ""
    # A requirement's checkpoints go to its own map, one per line.
    payload = dict(synth_payload_small(), requirements=[REQUIREMENT_20])
    path = write_json(tmp_path, "req.json", payload)
    assert main(["synth", "run", path, "--emit-tables", str(artifacts)]) == 0
    run = build_synthesis_run(payload).run()
    expected = "".join(f"{i} {v}\n" for i, v in enumerate(run.states[0].checkpoints))
    assert (artifacts / "checkpoints-0.map").read_text() == expected


def test_costfn_check_reports_the_tail_without_enforcing_it():
    flat = "2 2\n1/1 1/1\n1/1 1/1\n"
    report = run_scenario(
        {"kind": "costfn-check", "cost_table": flat, "eps": ["1/2"], "bound": {"1/2": 99}}
    )
    assert report["ok"]  # a fat tail is reported, never an error
    assert report["limit_tail"]["below"] is False
    decaying = run_scenario(
        {"kind": "costfn-check", "cost_table": decay_text(8), "eps": ["1/2"]}
    )
    assert decaying["limit_tail"]["below"] is True
