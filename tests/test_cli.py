import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tracelab
from tracelab import acceptance, synthesis
from tracelab.cli import main
from tracelab.costs import dyadic_decay_row, format_cost_table, static_table, to_listed_form
from tracelab.errors import ScenarioError
from tracelab.fuzz import CANNED_SCRIPT, canned_scripted_payload, fuzz, synth_payload
from tracelab.scenarios import (
    build_synthesis_run,
    load_scenario,
    machine_format,
    parse_script,
    run_scenario,
)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def decay_text(horizon, width=None):
    return format_cost_table(
        static_table(dyadic_decay_row(width or horizon), horizon, normalized=True)
    )


def synth_payload_small():
    horizon = 20
    rows = ["0" * horizon] * horizon
    return {
        "kind": "synth",
        "horizon": horizon,
        "budget_exp": 0,
        "approximation": "\n".join([f"{horizon} {horizon}"] + rows),
        "requirements": [],
        "eps": ["1/2"],
    }


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
        fuzz("boxpromo", 0, seed=1)


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


def test_cli_usage_error_is_exit_one(capsys):
    assert main(["boxpromo"]) == 1 or main(["boxpromo", "run"]) == 1


def test_cli_missing_file_is_exit_one(capsys):
    assert main(["boxpromo", "run", "/nonexistent/scenario.json"]) == 1


def test_cli_parse_error_is_exit_one(tmp_path, capsys):
    payload = canned_scripted_payload()
    payload["cost_table"] = "garbage header\n"
    path = write_json(tmp_path, "bad.json", payload)
    assert main(["boxpromo", "run", path]) == 1
    assert "line 1" in capsys.readouterr().err
    # Missing fields and bad words are one-line errors that name them.
    no_table = canned_scripted_payload()
    del no_table["cost_table"]
    bad_truth = dict(canned_scripted_payload(), ground_truth="0120")
    no_approximation = synth_payload_small()
    del no_approximation["approximation"]
    no_requirement_table = dict(synth_payload_small(), requirements=[{"stage_map": []}])
    cases = [
        ("boxpromo", no_table, "boxpromo scenario is missing the 'cost_table' field"),
        ("boxpromo", bad_truth, "ground_truth: not a 0/1 word: '0120'"),
        ("synth", no_approximation, "synth scenario is missing the 'approximation' field"),
        ("synth", no_requirement_table, "synth requirement 0 is missing the 'cost_table' field"),
    ]
    # Numbers and rationals that do not parse, and malformed stage-map
    # entries, name the field or the entry and its value.
    bad_horizon = dict(canned_scripted_payload(), horizon="abc")
    bad_budget = dict(synth_payload_small(), budget_exp="two")
    listed = format_cost_table(
        to_listed_form(static_table(dyadic_decay_row(20), 20, normalized=True))
    )
    short_entry = dict(
        synth_payload_small(),
        requirements=[{"cost_table": listed, "stage_map": [[0, 0, 0], [0, 1]]}],
    )
    bad_entry = dict(
        synth_payload_small(),
        requirements=[{"cost_table": listed, "stage_map": [[0, "x", 0]]}],
    )
    bad_synth_eps = dict(synth_payload_small(), eps=["1/2", "half"])
    # `boxpromo run` dispatches on the scenario's kind.
    check = {"kind": "costfn-check", "cost_table": decay_text(8)}
    cases += [
        ("boxpromo", bad_horizon, "boxpromo scenario 'horizon': expected an integer, got 'abc'"),
        ("synth", bad_budget, "synth scenario 'budget_exp': expected an integer, got 'two'"),
        (
            "synth",
            short_entry,
            "synth requirement 0 stage_map entry 1: expected [arg, value, visible_at], got [0, 1]",
        ),
        ("synth", bad_entry, "synth requirement 0 stage_map entry 0: expected an integer, got 'x'"),
        ("synth", bad_synth_eps, "synth scenario 'eps': bad rational 'half'"),
        ("boxpromo", dict(check, eps=["x"]), "costfn-check scenario 'eps': bad rational 'x'"),
        ("boxpromo", dict(check, bound={"1/0": 2}), "costfn-check scenario 'bound' key: bad rational '1/0'"),
        (
            "boxpromo",
            dict(check, bound={"1/2": "many"}),
            "costfn-check scenario 'bound' entry '1/2': expected an integer, got 'many'",
        ),
        (
            "boxpromo",
            dict(check, limit_threshold="tiny"),
            "costfn-check scenario 'limit_threshold': bad rational 'tiny'",
        ),
    ]
    # Oracle, slack and width fields of the wrong type or range.
    random_oracle = {"policy": "random", "seed": 3}
    for rate in ("activate_rate", "feed_rate", "junk_rate"):
        bad_rate = dict(canned_scripted_payload(), oracle=dict(random_oracle, **{rate: "x"}))
        cases.append(("boxpromo", bad_rate, f"oracle {rate!r}: expected a number, got 'x'"))
    cases += [
        (
            "boxpromo",
            dict(canned_scripted_payload(), oracle="honest"),
            "boxpromo scenario 'oracle': expected an object, got 'honest'",
        ),
        (
            "boxpromo",
            dict(canned_scripted_payload(), slack=[1, 2]),
            "boxpromo scenario 'slack': expected an object, got [1, 2]",
        ),
        (
            "boxpromo",
            dict(canned_scripted_payload(), slack={"a": 2}),
            "boxpromo scenario 'slack' key: expected an integer, got 'a'",
        ),
        (
            "boxpromo",
            dict(canned_scripted_payload(), slack={"1": "wide"}),
            "boxpromo scenario 'slack' entry '1': expected an integer, got 'wide'",
        ),
        ("synth", dict(synth_payload_small(), width="x"), "synth scenario 'width': expected an integer, got 'x'"),
        ("synth", dict(synth_payload_small(), width=[1]), "synth scenario 'width': expected an integer, got [1]"),
        ("synth", dict(synth_payload_small(), width=-3), "width must be at least 1, got -3"),
        ("synth", dict(synth_payload_small(), width=0), "width must be at least 1, got 0"),
        # `synth run` runs synth scenarios only.
        ("synth", check, "synth run needs a synth scenario, got kind 'costfn-check'"),
        ("synth", canned_scripted_payload(), "synth run needs a synth scenario, got kind 'boxpromo'"),
    ]
    # Non-integral numbers and booleans in integer fields, a non-finite
    # rational, and rates that are not numbers in [0, 1].
    canned = canned_scripted_payload()
    half_entry = [{"cost_table": listed, "stage_map": [[0, 0.5, 0]]}]
    integer = "expected an integer, got"
    cases += [
        ("boxpromo", dict(canned, horizon=14.9), f"boxpromo scenario 'horizon': {integer} 14.9"),
        ("boxpromo", dict(canned, horizon=True), f"boxpromo scenario 'horizon': {integer} True"),
        ("boxpromo", dict(canned, top_level=2.5), f"boxpromo scenario 'top_level': {integer} 2.5"),
        (
            "boxpromo",
            dict(canned, slack={"1": 2.5}),
            f"boxpromo scenario 'slack' entry '1': {integer} 2.5",
        ),
        (
            "boxpromo",
            dict(canned, oracle={"policy": "random", "seed": 1.5}),
            f"oracle 'seed': {integer} 1.5",
        ),
        (
            "boxpromo",
            dict(canned, ground_truth="0" * 14, oracle={"policy": "honest", "delay": False}),
            f"oracle 'delay': {integer} False",
        ),
        (
            "boxpromo",
            dict(check, bound={"1/2": 2.5}),
            f"costfn-check scenario 'bound' entry '1/2': {integer} 2.5",
        ),
        ("synth", dict(synth_payload_small(), width=True), f"synth scenario 'width': {integer} True"),
        (
            "boxpromo",
            dict(check, limit_threshold=float("inf")),
            "costfn-check scenario 'limit_threshold': bad rational inf",
        ),
        (
            "synth",
            dict(synth_payload_small(), requirements=half_entry),
            f"synth requirement 0 stage_map entry 0: {integer} 0.5",
        ),
    ]
    for rate, value in (
        ("activate_rate", "nan"),
        ("activate_rate", float("nan")),
        ("feed_rate", 1.5),
        ("junk_rate", -0.1),
        ("junk_rate", "inf"),
    ):
        bad_rate = dict(canned, oracle=dict(random_oracle, **{rate: value}))
        message = f"oracle {rate!r}: expected a number in [0, 1], got {value!r}"
        cases.append(("boxpromo", bad_rate, message))
    # Found by mutating inputs: fields of the wrong container type, a digit
    # that `str.isdigit` accepts and `int` rejects, a bad cube-box index.
    small, script = synth_payload_small(), lambda line: {"policy": "scripted", "script": [line]}
    cases += [
        ("synth", dict(small, eps=None), "synth scenario 'eps': expected a list, got None"),
        ("synth", dict(small, requirements=None), "synth scenario 'requirements': expected a list, got None"),
        ("synth", dict(small, requirements=[None]), "synth requirement 0: expected an object, got None"),
        (
            "synth",
            dict(small, requirements=[{"cost_table": listed, "stage_map": 3}]),
            "synth requirement 0 'stage_map': expected a list, got 3",
        ),
        ("boxpromo", dict(check, eps=0.5), "costfn-check scenario 'eps': expected a list, got 0.5"),
        ("boxpromo", dict(check, bound=[1]), "costfn-check scenario 'bound': expected an object, got [1]"),
        (
            "boxpromo",
            dict(check, bound={"1/4": -1}),
            "costfn-check scenario 'bound' entry '1/4': expected a count of at least 0, got -1",
        ),
        ("boxpromo", dict(canned, cost_table="1\u00b2 14\n"), "line 1: expected header 'S X', got '1\u00b2 14'"),
        (
            "boxpromo",
            dict(canned, oracle=script("\u00b2 I2.2 000")),
            "line 1: expected 'stage box value', got '\u00b2 I2.2 000'",
        ),
        ("boxpromo", dict(canned, oracle=script("1 M2.1:x2 0")), "bad cube-box spec 'M2.1:x2'"),
        ("boxpromo", dict(canned, top_level=-1), "top level below the overhead constant"),
    ]
    # A threshold at or below 0 names its field and value.
    positive = "expected a positive rational, got"
    cases += [
        ("synth", dict(small, eps=["0"]), f"synth scenario 'eps': {positive} '0'"),
        ("boxpromo", dict(check, eps=["-1/4"]), f"costfn-check scenario 'eps': {positive} '-1/4'"),
        ("boxpromo", dict(check, bound={"0": 3}), f"costfn-check scenario 'bound' key: {positive} '0'"),
    ]
    # A class family always holds its root class, so a cap below 1 is a
    # parse problem, not horizon exhaustion.
    for cap in (0, -5):
        message = f"boxpromo scenario 'family_cap': expected at least 1, got {cap}"
        cases.append(("boxpromo", dict(canned, family_cap=cap), message))
    # A script's box capacity counts every spelling of the box.
    for box, lines in (
        ("I2.2", ["4 I2.2 000", "4 I2.2 001", "4 I2.2 010"]),
        ("I2.2", ["4 I2.2 000", "4 I2.2 001", "4 I2.02 010"]),
        ("M2.2:1", CANNED_SCRIPT + ["5 M2.2:1 0001", "5 M2.2:01 0011"]),
    ):
        over_full = dict(canned, oracle={"policy": "scripted", "script": lines})
        cases.append(("boxpromo", over_full, f"script enumerates 3 values into {box}, capacity is 2"))
    # A bound on a threshold the scan does not list, a `normalized` that is
    # not a JSON boolean and a text block that is not text name their field.
    block = "expected a text block (string or list of lines), got"
    cases += [
        (
            "boxpromo",
            dict(check, bound={"1/4": 0}),
            "costfn-check scenario 'bound' key '1/4': threshold not listed in 'eps'",
        ),
        (
            "boxpromo",
            dict(canned, normalized="false"),
            "boxpromo scenario 'normalized': expected true or false, got 'false'",
        ),
        (
            "boxpromo",
            dict(check, normalized=0),
            "costfn-check scenario 'normalized': expected true or false, got 0",
        ),
        ("boxpromo", dict(canned, oracle={"policy": "scripted", "script": 5}), f"oracle 'script': {block} 5"),
        ("boxpromo", dict(canned, cost_table=5), f"boxpromo scenario 'cost_table': {block} 5"),
        ("boxpromo", dict(canned, approximation=None), f"boxpromo scenario 'approximation': {block} None"),
        ("boxpromo", dict(check, cost_table={}), f"costfn-check scenario 'cost_table': {block} {{}}"),
        ("synth", dict(small, approximation=5), f"synth scenario 'approximation': {block} 5"),
        (
            "synth",
            dict(small, requirements=[{"cost_table": 5, "stage_map": []}]),
            f"synth requirement 0 'cost_table': {block} 5",
        ),
    ]
    # A requirement table with fewer stages than its stage map has entries
    # (the run would read past its last row), a threshold bounded twice,
    # however spelt, and a boolean where a rational belongs.
    short_requirement = {
        "cost_table": "2 10\n" + " ".join("0" * 10) + "\n1" + " 0" * 9,
        "stage_map": [[i, i, i] for i in range(30)],
    }
    short_run = {
        "kind": "synth",
        "horizon": 30,
        "approximation": "\n".join(["30 10"] + ["0000000000"] * 5 + ["0100000000"] * 25),
        "requirements": [short_requirement],
    }
    flat = {"kind": "costfn-check", "cost_table": "3 2\n1/2 1/4\n1/2 1/4\n1 1/2", "eps": ["1/4"]}
    twice = "costfn-check scenario 'bound' key '0.25': threshold bounded twice"
    cases += [
        ("synth", short_run, "requirement cost table has 2 stages, fewer than its stage map's 30 entries"),
        ("boxpromo", dict(flat, bound={"1/4": 0, "0.25": 9}), twice),
        ("boxpromo", dict(flat, eps=[True]), "costfn-check scenario 'eps': bad rational True"),
        ("synth", dict(small, eps=[False]), "synth scenario 'eps': bad rational False"),
        (
            "boxpromo",
            dict(check, limit_threshold=True),
            "costfn-check scenario 'limit_threshold': bad rational True",
        ),
    ]
    # Digit strings longer than `int` converts, and report numbers longer
    # than `str` writes, name their line, field or spec.
    long = "1" * 5000
    cases += [
        ("boxpromo", dict(canned, cost_table=f"{long} 14\n"), f"line 1: expected header 'S X', got '{long} 14'"),
        ("synth", dict(small, approximation=f"{long} 3\n000"), f"line 1: expected header 'S X', got '{long} 3'"),
        (
            "boxpromo",
            dict(canned, oracle=script(f"{long} I2.2 000")),
            f"line 1: expected 'stage box value', got '{long} I2.2 000'",
        ),
        ("boxpromo", dict(canned, oracle=script(f"5 I{long}.2 000")), f"bad box spec 'I{long}.2'"),
        ("boxpromo", dict(canned, oracle=script(f"5 I2.{long} 000")), f"bad initial-box spec 'I2.{long}'"),
        ("boxpromo", dict(canned, oracle=script(f"5 M2.{long}:1 0")), f"bad cube-box spec 'M2.{long}:1'"),
        ("boxpromo", dict(canned, oracle=script(f"5 M2.2:{long} 0")), f"bad cube-box spec 'M2.2:{long}'"),
        ("synth", dict(small, eps=["1e-4400"]), "a rational in the report has too many digits to write"),
        (
            "synth",
            dict(small, budget_exp=14300),
            "synth scenario 'budget_exp': the bound at eps 1/2 has too many digits to write",
        ),
    ]
    for command, payload, message in cases:
        path = write_json(tmp_path, "bad.json", payload)
        assert main([command, "run", path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    # A bound that still writes runs; an integer literal too long to read is
    # a parse problem of the scenario file.
    assert main(["synth", "run", write_json(tmp_path, "wide.json", dict(small, budget_exp=14000))]) == 0
    capsys.readouterr()
    literal = tmp_path / "literal.json"
    literal.write_text('{"kind": "boxpromo", "horizon": %s}' % long)
    assert main(["boxpromo", "run", str(literal)]) == 1
    assert capsys.readouterr().err == f"error: {literal}: an integer literal has too many digits to read\n"
    # Thresholds and bounds given on the command line.
    table = tmp_path / "c.table"
    table.write_text(decay_text(8))
    superscript = tmp_path / "b.approx"
    superscript.write_text("\u00b24 3\n000\n")
    argvs = [
        (["costfn", "markers", str(table), "--eps", "abc"], "--eps: bad rational 'abc'"),
        (
            ["costfn", "check-benign", str(table), "--eps", "1/4", "--bound", "x=3"],
            "--bound: bad rational 'x'",
        ),
        (
            ["costfn", "check-benign", str(table), "--eps", "1/4", "a/b", "--bound", "1/4=3"],
            "--eps: bad rational 'a/b'",
        ),
        (["costfn", "sum", str(table), "--eps", "1/0"], "--eps: bad rational '1/0'"),
        (
            ["costfn", "check-benign", str(table), "--eps", "1/4", "--bound", "1/4=\u00b2"],
            "bad bound entry '1/4=\u00b2', expected eps=count",
        ),
        (["approx", "change-set", str(superscript)], "line 1: expected header 'S X', got '\u00b24 3'"),
        (["costfn", "markers", str(table), "--eps", "0"], "--eps: expected a positive rational, got '0'"),
        (["costfn", "sum", str(table), "--eps", "-1"], "--eps: expected a positive rational, got '-1'"),
        (
            ["costfn", "check-benign", str(table), "--eps", "1/4", "--bound", "0=3"],
            "--bound: expected a positive rational, got '0'",
        ),
        (
            ["costfn", "check-benign", str(table), "--eps", "1/2", "--bound", "1/4=0"],
            "--bound: threshold 1/4 is not among --eps",
        ),
    ]
    flat = tmp_path / "flat.table"
    flat.write_text("3 2\n1/2 1/4\n1/2 1/4\n1 1/2\n")
    for second in ("0.25", "1/4"):
        argv = ["costfn", "check-benign", str(flat), "--eps", "1/4", "--bound", "1/4=0", f"{second}=9"]
        argvs.append((argv, f"--bound: threshold {second} is bounded twice"))
    long_header = tmp_path / "long.approx"
    long_header.write_text(f"{long} 3\n000\n")
    argvs += [
        (
            ["costfn", "check-benign", str(table), "--eps", "1/2", "--bound", f"1/2={long}"],
            f"bad bound entry '1/2={long}', expected eps=count",
        ),
        (["approx", "change-set", str(long_header)], f"line 1: expected header 'S X', got '{long} 3'"),
        (
            ["costfn", "markers", str(table), "--eps", "1e-4305"],
            "a rational in the report has too many digits to write",
        ),
    ]
    for argv, message in argvs:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    # `costfn sum` keys its thresholds by their text, so a tiny one writes.
    assert main(["costfn", "sum", str(table), "--eps", "1e-4305"]) == 0


def test_cli_unwritable_out_is_exit_one(tmp_path, capsys):
    table = tmp_path / "c.table"
    table.write_text(decay_text(8))
    for out in (tmp_path, tmp_path / "missing" / "report.json"):
        assert main(["costfn", "markers", str(table), "--eps", "1/2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# Mutated inputs: a scenario with a field dropped or a value of another type
# swapped in, and scenario, table, approximation and script texts truncated or
# with a token inserted.  The CLI exits 0-3, nothing escapes, an error is one line.
TOKENS = ["x", "-1", "0", "\u00b2", "1/0", "\u221e", "nan", "(0,1,2)", "I9.9", "M2.1:3"]
TOKENS += ["{", "]", ",", '"', "\n", "#"]
OTHER_TYPES = [None, True, -1, 2.5, "x", "1/0", [], {}, [1, "x"], {"a": None}]


LISTED_20 = format_cost_table(to_listed_form(static_table(dyadic_decay_row(20), 20, normalized=True)))
REQUIREMENT_20 = {"cost_table": LISTED_20, "stage_map": [[i, i, i + 1] for i in range(20)]}
MUTATION_BASES = [
    canned_scripted_payload(),
    dict(
        canned_scripted_payload(),
        ground_truth="01101001100101",
        oracle={"policy": "honest", "delay": 1},
        family_cap=4,  # the run's largest family, so the cap is tight
    ),
    dict(
        canned_scripted_payload(),
        slack={"1": 2, "2": 3},
        oracle={"policy": "random", "seed": 3, "feed_rate": 0.9},
    ),
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
    """(file text, argv with FILE and COST standing for paths)."""
    kind = draw(st.sampled_from(["scenario", "table", "approximation"]))
    how = draw(st.sampled_from(["drop", "swap", "truncate", "insert"]))
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
    if how == "truncate":
        text = text[: draw(st.sampled_from(cuts))]
    elif how == "insert" or kind != "scenario":
        at = draw(st.sampled_from(cuts))
        text = f"{text[:at]}{pad}{draw(st.sampled_from(TOKENS))}{pad}{text[at:]}"
    return text, argv


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(mutated_inputs())
def test_cli_mutated_inputs_keep_the_exit_code_contract(tmp_path, capsys, case):
    text, argv = case
    (tmp_path / "input").write_text(text)
    (tmp_path / "cost.table").write_text(decay_text(4))
    paths = {"FILE": str(tmp_path / "input"), "COST": str(tmp_path / "cost.table")}
    code = main([paths.get(a, a) for a in argv])
    err = capsys.readouterr().err
    prefix = {1: "error: ", 2: "invariant violation: ", 3: "horizon exhausted: "}
    if err:
        assert code in prefix and err.startswith(prefix[code]) and err.count("\n") == 1, err
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
    # The layout holds per-level capacities only, and thresholds below the
    # table's least positive entry share one marker scan, so a tall layout
    # stays cheap.
    for top_level in (3000, 10000):
        payload = dict(canned_scripted_payload(), top_level=top_level, ground_truth="0" * 14)
        payload["oracle"] = {"policy": "honest"}
        path = write_json(tmp_path, "tall.json", payload)
        assert main(["boxpromo", "run", path]) == 0
        assert capsys.readouterr().err == ""


def test_cli_script_value_listed_twice_counts_once(tmp_path, capsys):
    reports = []
    for script in (["4 I2.2 000", "4 I2.2 000", "4 I2.2 001"], ["4 I2.2 000", "4 I2.2 001"]):
        payload = dict(canned_scripted_payload(), oracle={"policy": "scripted", "script": script})
        path = write_json(tmp_path, "script.json", payload)
        assert main(["boxpromo", "run", path, "--format", "machine"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_cli_script_box_outside_the_layout_is_exit_one(tmp_path, capsys):
    payload = canned_scripted_payload()  # top level 2
    for spec, level in (("I9.1", 9), ("M3.1:1", 3), ("I0.1", 0)):
        payload["oracle"]["script"] = [f"1 {spec} 0"]
        path = write_json(tmp_path, "bad.json", payload)
        assert main(["boxpromo", "run", path]) == 1
        assert capsys.readouterr().err == (
            f"error: script box {spec!r} is at level {level}, outside 1..2\n"
        )
    payload["oracle"]["script"] = ["1 I2.1 0x"]
    path = write_json(tmp_path, "bad.json", payload)
    assert main(["boxpromo", "run", path]) == 1
    assert capsys.readouterr().err == "error: script value for 'I2.1': not a 0/1 word: '0x'\n"


def test_cli_table_check_error_names_the_line(tmp_path, capsys):
    table = tmp_path / "bad.table"
    table.write_text("2 2\n1/2 1/4\n1/4 1/4\n")
    assert main(["costfn", "markers", str(table), "--eps", "1/2"]) == 1
    assert capsys.readouterr().err.strip() == "error: line 3: column 0 decreases at stage 1"
    # Blank lines count: the row is on text line 5.
    table.write_text("2 2\n\n1/2 1/4\n\n1/4 1/4\n")
    assert main(["costfn", "markers", str(table), "--eps", "1/2"]) == 1
    assert capsys.readouterr().err.strip() == "error: line 5: column 0 decreases at stage 1"


def test_cli_bad_schedule_triple_is_a_one_line_error(tmp_path, capsys):
    block = tmp_path / "a.approx"
    block.write_text("2 2\n00\n01\n\n(a,1,2)\n")
    assert main(["approx", "change-set", str(block)]) == 1
    assert capsys.readouterr().err == "error: line 5: expected integer fields in '(a,1,2)'\n"
    block.write_text("2 2\n00\n01\n(1,2,3)\n")
    assert main(["approx", "change-set", str(block)]) == 1
    assert capsys.readouterr().err == "error: line 4: schedule entry (1,2) outside the table\n"
    block.write_text("2 2\n00\n00\n(0,1,3)\n(0,1,inf)\n")
    assert main(["approx", "change-set", str(block)]) == 1
    assert capsys.readouterr().err == "error: line 5: schedule entry (0,1) listed twice\n"


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


def test_cli_bad_fuzz_horizon_and_speedup_are_exit_one(tmp_path, capsys):
    assert main(["boxpromo", "fuzz", "--count", "1", "--horizon", "0"]) == 1
    assert capsys.readouterr().err == "error: boxpromo fuzz needs a horizon of at least 2, got 0\n"
    for horizon in ("0", "-1", "1"):
        assert main(["synth", "fuzz", "--count", "1", "--horizon", horizon]) == 1
        message = f"error: synth fuzz needs a horizon of at least 2, got {horizon}\n"
        assert capsys.readouterr().err == message
    block = tmp_path / "b.approx"
    block.write_text("4 3\n000\n100\n000\n100\n")
    assert main(["approx", "change-set", str(block), "--speedup", "-1", "0"]) == 1
    assert capsys.readouterr().err == "error: speed-up map has a negative stage -1\n"
    block.write_text("3 2\n00\n01\n11\n")
    assert main(["approx", "change-set", str(block), "--speedup", "9"]) == 1
    assert capsys.readouterr().err == "error: speed-up map has no stage below horizon 3\n"
    # A negative step count or budget is a usage problem, not an empty or
    # exhausted search.
    cost = tmp_path / "c.table"
    cost.write_text(decay_text(4))
    block.write_text("4 3\n000\n100\n000\n100\n")
    speedup = ["approx", "speedup", str(cost), str(cost), str(block), str(block)]
    assert main(speedup + ["--steps", "-1"]) == 1
    assert capsys.readouterr().err == "error: speed-up needs a step count of at least 0, got -1\n"
    assert main(speedup + ["--budget", "-1"]) == 1
    assert capsys.readouterr().err == "error: speed-up needs a budget of at least 0, got -1\n"


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
