"""The bad-input corpus: every input the CLI refuses with exit status 1, no
stdout and one exact `error:` line on stderr.

A case names the files to write into a fresh directory (text, raw bytes, or a
JSON payload), an argv, and the stderr message.  `{NAME}` in the argv or the
message stands for the path of the file NAME, and `{DIR}` for the directory.
`tests/test_cli.py` runs every case in-process through `tracelab.cli.main`;
run as a script, this module runs every case through a command prefix:

    python tests/bad_inputs.py tracelab
    PYTHONPATH=src python tests/bad_inputs.py python -m tracelab.cli

To add a case, append a `Case` (or a `scenario` case) to `CASES`.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from tracelab.costs import dyadic_decay_row, format_cost_table, static_table
from tracelab.fuzz import CANNED_SCRIPT, canned_scripted_payload

from oracles import to_listed_form

PREFIXES = {1: "error: ", 2: "invariant violation: ", 3: "horizon exhausted: "}


class Case(NamedTuple):
    name: str
    argv: list
    message: str
    files: dict = {}
    status: int = 1


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


def scenario(name, command, payload, message):
    """`tracelab COMMAND run` on a scenario file holding `payload`."""
    return Case(name, [command, "run", "{s.json}"], message, {"s.json": payload})


def check(case, run, directory: Path) -> None:
    """Write `case`'s files into the new `directory`, run its argv through
    `run(argv) -> (status, stdout, stderr)`, and assert its status, an empty
    stdout and its one stderr line."""
    directory.mkdir()
    paths = {"DIR": str(directory)}
    for name, content in case.files.items():
        if isinstance(content, dict):
            content = json.dumps(content)
        if isinstance(content, str):
            content = content.encode()
        (directory / name).write_bytes(content)
        paths[name] = str(directory / name)

    def fill(text):
        for name, path in paths.items():
            text = text.replace("{%s}" % name, path)
        return text

    got = run([fill(arg) for arg in case.argv])
    want = (case.status, "", f"{PREFIXES[case.status]}{fill(case.message)}\n")
    assert got == want, f"{case.name}: got {got!r}, want {want!r}"


CANNED = canned_scripted_payload()
SMALL = synth_payload_small()
CHECK = {"kind": "costfn-check", "cost_table": decay_text(8)}
FLAT_TABLE = "3 2\n1/2 1/4\n1/2 1/4\n1 1/2"
FLAT = {"kind": "costfn-check", "cost_table": FLAT_TABLE, "eps": ["1/4"]}
LISTED_20 = format_cost_table(to_listed_form(static_table(dyadic_decay_row(20), 20, normalized=True)))
LONG = "1" * 5000  # more digits than `int` converts
TABLE = {"c.table": decay_text(8)}
TABBED = "3 2\n1/2\t1/4\n1/2\t1/4\n1\t1/2\n"  # tab-separated columns
BLOCK = "3 2\n00\n01\n11\n"
INTEGER = "expected an integer, got"
POSITIVE = "expected a positive rational, got"
TEXT_BLOCK = "expected a text block (string or list of lines), got"


def script(*lines):
    return dict(CANNED, oracle={"policy": "scripted", "script": list(lines)})


def requirement(stage_map):
    return dict(SMALL, requirements=[{"cost_table": LISTED_20, "stage_map": stage_map}])


def random_rate(rate, value):
    return dict(CANNED, oracle={"policy": "random", "seed": 3, rate: value})


# Scenario files: missing fields, values of the wrong type or range, texts
# that do not parse, and checks a scenario's own numbers fail.
CASES = [
    scenario("cost-table-header", "boxpromo", dict(CANNED, cost_table="garbage header\n"),
             "line 1: expected header 'S X', got 'garbage header'"),
    scenario("no-cost-table", "boxpromo", {k: v for k, v in CANNED.items() if k != "cost_table"},
             "boxpromo scenario is missing the 'cost_table' field"),
    scenario("ground-truth-word", "boxpromo", dict(CANNED, ground_truth="0120"),
             "ground_truth: not a 0/1 word: '0120'"),
    scenario("no-approximation", "synth", {k: v for k, v in SMALL.items() if k != "approximation"},
             "synth scenario is missing the 'approximation' field"),
    scenario("no-requirement-table", "synth", dict(SMALL, requirements=[{"stage_map": []}]),
             "synth requirement 0 is missing the 'cost_table' field"),
    scenario("horizon-text", "boxpromo", dict(CANNED, horizon="abc"),
             f"boxpromo scenario 'horizon': {INTEGER} 'abc'"),
    scenario("budget-text", "synth", dict(SMALL, budget_exp="two"),
             f"synth scenario 'budget_exp': {INTEGER} 'two'"),
    scenario("stage-map-short-entry", "synth", requirement([[0, 0, 0], [0, 1]]),
             "synth requirement 0 stage_map entry 1: expected [arg, value, visible_at], got [0, 1]"),
    scenario("stage-map-text", "synth", requirement([[0, "x", 0]]),
             f"synth requirement 0 stage_map entry 0: {INTEGER} 'x'"),
    scenario("stage-map-negative", "synth", requirement([[0, -1, 0]]), "stage map entries must be nonnegative"),
    scenario("synth-eps-text", "synth", dict(SMALL, eps=["1/2", "half"]),
             "synth scenario 'eps': bad rational 'half'"),
    scenario("check-eps-text", "boxpromo", dict(CHECK, eps=["x"]),
             "costfn-check scenario 'eps': bad rational 'x'"),
    scenario("check-bound-key", "boxpromo", dict(CHECK, bound={"1/0": 2}),
             "costfn-check scenario 'bound' key: bad rational '1/0'"),
    scenario("check-bound-text", "boxpromo", dict(CHECK, bound={"1/2": "many"}),
             f"costfn-check scenario 'bound' entry '1/2': {INTEGER} 'many'"),
    scenario("limit-threshold-text", "boxpromo", dict(CHECK, limit_threshold="tiny"),
             "costfn-check scenario 'limit_threshold': bad rational 'tiny'"),
    scenario("oracle-text", "boxpromo", dict(CANNED, oracle="honest"),
             "boxpromo scenario 'oracle': expected an object, got 'honest'"),
    scenario("width-text", "synth", dict(SMALL, width="x"), f"synth scenario 'width': {INTEGER} 'x'"),
    scenario("width-list", "synth", dict(SMALL, width=[1]), f"synth scenario 'width': {INTEGER} [1]"),
    scenario("width-negative", "synth", dict(SMALL, width=-3), "width must be at least 1, got -3"),
    scenario("width-zero", "synth", dict(SMALL, width=0), "width must be at least 1, got 0"),
    # `synth run` runs synth scenarios only; `boxpromo run` dispatches on the kind.
    scenario("synth-runs-check", "synth", CHECK, "synth run needs a synth scenario, got kind 'costfn-check'"),
    scenario("synth-runs-boxpromo", "synth", CANNED, "synth run needs a synth scenario, got kind 'boxpromo'"),
    # Non-integral numbers and booleans in integer fields, a non-finite rational.
    scenario("horizon-fraction", "boxpromo", dict(CANNED, horizon=14.9),
             f"boxpromo scenario 'horizon': {INTEGER} 14.9"),
    scenario("horizon-boolean", "boxpromo", dict(CANNED, horizon=True),
             f"boxpromo scenario 'horizon': {INTEGER} True"),
    scenario("top-level-fraction", "boxpromo", dict(CANNED, top_level=2.5),
             f"boxpromo scenario 'top_level': {INTEGER} 2.5"),
    scenario("seed-fraction", "boxpromo", dict(CANNED, oracle={"policy": "random", "seed": 1.5}),
             f"oracle 'seed': {INTEGER} 1.5"),
    scenario("delay-boolean", "boxpromo",
             dict(CANNED, ground_truth="0" * 14, oracle={"policy": "honest", "delay": False}),
             f"oracle 'delay': {INTEGER} False"),
    scenario("check-bound-fraction", "boxpromo", dict(CHECK, bound={"1/2": 2.5}),
             f"costfn-check scenario 'bound' entry '1/2': {INTEGER} 2.5"),
    scenario("width-boolean", "synth", dict(SMALL, width=True), f"synth scenario 'width': {INTEGER} True"),
    scenario("limit-threshold-infinite", "boxpromo", dict(CHECK, limit_threshold=float("inf")),
             "costfn-check scenario 'limit_threshold': bad rational inf"),
    scenario("stage-map-fraction", "synth", requirement([[0, 0.5, 0]]),
             f"synth requirement 0 stage_map entry 0: {INTEGER} 0.5"),
    # An integer string is a decimal token after an optional '-', as in the
    # text formats: `int` would read each of these as 14.
    scenario("horizon-underscore", "boxpromo", dict(CANNED, horizon="1_4"),
             f"boxpromo scenario 'horizon': {INTEGER} '1_4'"),
    scenario("horizon-plus", "boxpromo", dict(CANNED, horizon="+14"),
             f"boxpromo scenario 'horizon': {INTEGER} '+14'"),
    scenario("horizon-spaces", "boxpromo", dict(CANNED, horizon=" 14 "),
             f"boxpromo scenario 'horizon': {INTEGER} ' 14 '"),
    scenario("stage-map-plus", "synth", requirement([[0, "+0", 0]]),
             f"synth requirement 0 stage_map entry 0: {INTEGER} '+0'"),
    # Fields of the wrong container type, a digit that `str.isdigit` accepts
    # and `int` rejects, a bad cube-box index.
    scenario("synth-eps-none", "synth", dict(SMALL, eps=None), "synth scenario 'eps': expected a list, got None"),
    scenario("requirements-none", "synth", dict(SMALL, requirements=None),
             "synth scenario 'requirements': expected a list, got None"),
    scenario("requirement-none", "synth", dict(SMALL, requirements=[None]),
             "synth requirement 0: expected an object, got None"),
    scenario("stage-map-number", "synth", requirement(3), "synth requirement 0 'stage_map': expected a list, got 3"),
    scenario("check-eps-number", "boxpromo", dict(CHECK, eps=0.5),
             "costfn-check scenario 'eps': expected a list, got 0.5"),
    scenario("check-bound-list", "boxpromo", dict(CHECK, bound=[1]),
             "costfn-check scenario 'bound': expected an object, got [1]"),
    scenario("check-bound-negative", "boxpromo", dict(CHECK, bound={"1/4": -1}),
             "costfn-check scenario 'bound' entry '1/4': expected a count of at least 0, got -1"),
    scenario("flat-bound-negative", "boxpromo", dict(FLAT, bound={"1/4": -1}),
             "costfn-check scenario 'bound' entry '1/4': expected a count of at least 0, got -1"),
    scenario("header-superscript", "boxpromo", dict(CANNED, cost_table="1² 14\n"),
             "line 1: expected header 'S X', got '1² 14'"),
    scenario("script-stage-superscript", "boxpromo", script("² I2.2 000"),
             "line 1: expected 'stage box value', got '² I2.2 000'"),
    # Digits of other scripts are no decimal tokens, though `int` reads them.
    scenario("horizon-arabic-indic", "boxpromo", dict(CANNED, horizon="١٤"),
             f"boxpromo scenario 'horizon': {INTEGER} '١٤'"),
    scenario("header-arabic-indic", "boxpromo", dict(CANNED, cost_table="١٤ ١٤\n"),
             "line 1: expected header 'S X', got '١٤ ١٤'"),
    scenario("script-stage-arabic-indic", "boxpromo", script("٥ I2.2 000"),
             "line 1: expected 'stage box value', got '٥ I2.2 000'"),
    scenario("box-level-arabic-indic", "boxpromo", script("5 I٢.2 000"), "bad box spec 'I٢.2'"),
    # A rational string is a rational token, as in the cost tables: `Fraction`
    # would read each of these as 1/4.
    scenario("check-eps-arabic-indic", "boxpromo", dict(CHECK, eps=["١/٤"]),
             "costfn-check scenario 'eps': bad rational '١/٤'"),
    scenario("check-eps-spaces", "boxpromo", dict(CHECK, eps=[" 1/4 "]),
             "costfn-check scenario 'eps': bad rational ' 1/4 '"),
    scenario("check-eps-underscore", "boxpromo", dict(CHECK, eps=["1_0/40"]),
             "costfn-check scenario 'eps': bad rational '1_0/40'"),
    scenario("check-eps-plus", "boxpromo", dict(CHECK, eps=["+1/4"]),
             "costfn-check scenario 'eps': bad rational '+1/4'"),
    scenario("cube-index-text", "boxpromo", script("1 M2.1:x2 0"), "bad cube-box spec 'M2.1:x2'"),
    scenario("cube-index-twice", "boxpromo", script("5 M2.2:1.2:2 0000"), "bad cube-box spec 'M2.2:1.2:2'"),
    scenario("cube-index-empty", "boxpromo", script("5 M2..1:1 0000"), "bad cube-box spec 'M2..1:1'"),
    scenario("top-level-below-overhead", "boxpromo", dict(CANNED, top_level=-1),
             "top level below the overhead constant"),
    # The stages run from the overhead to horizon - 1, so an overhead at or
    # above the horizon leaves no stage to run.
    scenario("overhead-at-horizon", "boxpromo", dict(CANNED, overhead=14, top_level=14),
             "boxpromo scenario needs a horizon above its overhead, got overhead 14 at horizon 14"),
    scenario("overhead-huge", "boxpromo", dict(CANNED, overhead=10**6, top_level=10**6),
             "boxpromo scenario needs a horizon above its overhead, got overhead 1000000 at horizon 14"),
    # A threshold at or below 0 names its field and value.
    scenario("synth-eps-zero", "synth", dict(SMALL, eps=["0"]), f"synth scenario 'eps': {POSITIVE} '0'"),
    scenario("check-eps-negative", "boxpromo", dict(CHECK, eps=["-1/4"]),
             f"costfn-check scenario 'eps': {POSITIVE} '-1/4'"),
    scenario("check-bound-zero", "boxpromo", dict(CHECK, bound={"0": 3}),
             f"costfn-check scenario 'bound' key: {POSITIVE} '0'"),
    # A bound on a threshold the scan does not list, a `normalized` that is
    # not a JSON boolean and a text block that is not text name their field.
    scenario("check-bound-unscanned", "boxpromo", dict(CHECK, bound={"1/4": 0}),
             "costfn-check scenario 'bound' key '1/4': threshold not listed in 'eps'"),
    scenario("normalized-text", "boxpromo", dict(CANNED, normalized="false"),
             "boxpromo scenario 'normalized': expected true or false, got 'false'"),
    scenario("normalized-number", "boxpromo", dict(CHECK, normalized=0),
             "costfn-check scenario 'normalized': expected true or false, got 0"),
    scenario("script-number", "boxpromo", dict(CANNED, oracle={"policy": "scripted", "script": 5}),
             f"oracle 'script': {TEXT_BLOCK} 5"),
    scenario("cost-table-number", "boxpromo", dict(CANNED, cost_table=5),
             f"boxpromo scenario 'cost_table': {TEXT_BLOCK} 5"),
    scenario("approximation-none", "boxpromo", dict(CANNED, approximation=None),
             f"boxpromo scenario 'approximation': {TEXT_BLOCK} None"),
    scenario("check-cost-table-object", "boxpromo", dict(CHECK, cost_table={}),
             f"costfn-check scenario 'cost_table': {TEXT_BLOCK} {{}}"),
    scenario("synth-approximation-number", "synth", dict(SMALL, approximation=5),
             f"synth scenario 'approximation': {TEXT_BLOCK} 5"),
    scenario("requirement-table-number", "synth", dict(SMALL, requirements=[{"cost_table": 5, "stage_map": []}]),
             f"synth requirement 0 'cost_table': {TEXT_BLOCK} 5"),
    # A text block's lines are strings: a number, a list or a boolean line
    # names its field and line (read as text, the number rows `10` would run).
    scenario("approximation-number-line", "synth", dict(SMALL, approximation=["20 2"] + [10] * 20),
             "synth scenario 'approximation': line 2: expected a string, got 10"),
    scenario("cost-table-list-line", "boxpromo", dict(CANNED, cost_table=["14 14", ["1", "0"]]),
             "boxpromo scenario 'cost_table': line 2: expected a string, got ['1', '0']"),
    scenario("script-boolean-line", "boxpromo", script("4 I2.2 000", True),
             "oracle 'script': line 2: expected a string, got True"),
    # A requirement table with fewer stages than its stage map has entries
    # (the run would read past its last row), a threshold bounded twice,
    # however spelt, and a boolean where a rational belongs.
    scenario("short-requirement", "synth", {
        "kind": "synth",
        "horizon": 30,
        "approximation": "\n".join(["30 10"] + ["0000000000"] * 5 + ["0100000000"] * 25),
        "requirements": [{
            "cost_table": "2 10\n" + " ".join("0" * 10) + "\n1" + " 0" * 9,
            "stage_map": [[i, i, i] for i in range(30)],
        }],
    }, "requirement cost table has 2 stages, fewer than its stage map's 30 entries"),
    scenario("check-bound-twice", "boxpromo", dict(FLAT, bound={"1/4": 0, "0.25": 9}),
             "costfn-check scenario 'bound' key '0.25': threshold bounded twice"),
    scenario("check-eps-boolean", "boxpromo", dict(FLAT, eps=[True]),
             "costfn-check scenario 'eps': bad rational True"),
    scenario("synth-eps-boolean", "synth", dict(SMALL, eps=[False]), "synth scenario 'eps': bad rational False"),
    scenario("limit-threshold-boolean", "boxpromo", dict(CHECK, limit_threshold=True),
             "costfn-check scenario 'limit_threshold': bad rational True"),
    # Digit strings longer than `int` converts, and report numbers longer
    # than `str` writes, name their line, field or spec.
    scenario("cost-table-header-digits", "boxpromo", dict(CANNED, cost_table=f"{LONG} 14\n"),
             f"line 1: expected header 'S X', got '{LONG} 14'"),
    scenario("approximation-header-digits", "synth", dict(SMALL, approximation=f"{LONG} 3\n000"),
             f"line 1: expected header 'S X', got '{LONG} 3'"),
    scenario("script-stage-digits", "boxpromo", script(f"{LONG} I2.2 000"),
             f"line 1: expected 'stage box value', got '{LONG} I2.2 000'"),
    scenario("box-level-digits", "boxpromo", script(f"5 I{LONG}.2 000"), f"bad box spec 'I{LONG}.2'"),
    scenario("initial-box-digits", "boxpromo", script(f"5 I2.{LONG} 000"), f"bad initial-box spec 'I2.{LONG}'"),
    scenario("cube-box-digits", "boxpromo", script(f"5 M2.{LONG}:1 0"), f"bad cube-box spec 'M2.{LONG}:1'"),
    scenario("cube-index-digits", "boxpromo", script(f"5 M2.2:{LONG} 0"), f"bad cube-box spec 'M2.2:{LONG}'"),
    scenario("synth-eps-digits", "synth", dict(SMALL, eps=["1e-4400"]),
             "synth scenario 'eps': bad rational '1e-4400'"),
    scenario("budget-digits", "synth", dict(SMALL, budget_exp=14300),
             "synth scenario 'budget_exp': the bound at eps 1/2 has too many digits to write"),
    # 2^budget_exp alone is too long to write, so the run stops before its
    # stage loop would build it.
    scenario("budget-huge", "synth", dict(SMALL, budget_exp=10**12),
             "synth scenario 'budget_exp': the bound at eps 1/2 has too many digits to write"),
    Case("integer-literal-digits", ["boxpromo", "run", "{s.json}"],
         "{s.json}: an integer literal has too many digits to read",
         {"s.json": '{"kind": "boxpromo", "horizon": %s}' % LONG}),
    # A script box outside the layout (top level 2), and a script value that is not a word.
    scenario("script-box-above", "boxpromo", script("1 I9.1 0"), "script box 'I9.1' is at level 9, outside 1..2"),
    scenario("script-cube-above", "boxpromo", script("1 M3.1:1 0"),
             "script box 'M3.1:1' is at level 3, outside 1..2"),
    scenario("script-box-below", "boxpromo", script("1 I0.1 0"), "script box 'I0.1' is at level 0, outside 1..2"),
    # The layout holds the levels from the overhead up: no stage reads a box below it.
    scenario("script-box-below-overhead", "boxpromo", dict(script("3 I1.1 0", "3 I1.1 1"), overhead=2, top_level=3),
             "script box 'I1.1' is at level 1, outside 2..3"),
    scenario("script-value-word", "boxpromo", script("1 I2.1 0x"), "script value for 'I2.1': not a 0/1 word: '0x'"),
    # A layout taller than the horizon is capped at horizon - 1 (here 13).
    scenario("script-box-above-cap", "boxpromo", dict(script("1 I20.1 0"), top_level=10000),
             "script box 'I20.1' is at level 20, outside 1..13"),
    # A random oracle whose rate is not a number in [0, 1].
    scenario("rate-bare-table", "boxpromo", {
        "kind": "boxpromo",
        "horizon": 3,
        "cost_table": FLAT_TABLE,
        "oracle": {"policy": "random", "activate_rate": "x"},
    }, "oracle 'activate_rate': expected a number, got 'x'"),
    # A scenario that is no object, honest oracles without a usable ground
    # truth or delay (the missing ground truth is refused before the delay is
    # read), an unknown policy, and horizons and budgets out of range.
    Case("scenario-list", ["boxpromo", "run", "{s.json}"], "scenario must be an object with a 'kind' field",
         {"s.json": "[1, 2]"}),
    scenario("honest-no-ground-truth", "boxpromo", dict(CANNED, oracle={"policy": "honest"}),
             "honest oracle needs a ground truth word"),
    scenario("honest-no-ground-truth-delay-text", "boxpromo", dict(CANNED, oracle={"policy": "honest", "delay": "x"}),
             "honest oracle needs a ground truth word"),
    scenario("ground-truth-short", "boxpromo", dict(CANNED, ground_truth="00000", oracle={"policy": "honest"}),
             "ground truth must be at least horizon bits long"),
    scenario("delay-negative", "boxpromo",
             dict(CANNED, ground_truth="0" * 14, oracle={"policy": "honest", "delay": -1}),
             "delay must be nonnegative"),
    scenario("policy-unknown", "boxpromo", dict(CANNED, oracle={"policy": "lazy"}), "unknown oracle policy 'lazy'"),
    scenario("boxpromo-horizon-one", "boxpromo", dict(CANNED, horizon=1),
             "boxpromo scenario needs a horizon of at least 2"),
    scenario("budget-negative", "synth", dict(SMALL, budget_exp=-1), "budget exponent must be nonnegative"),
    scenario("synth-horizon-one", "synth", dict(SMALL, horizon=1), "horizon must be at least 2"),
]
for rate in ("activate_rate", "feed_rate", "junk_rate"):
    CASES.append(scenario(f"{rate}-text", "boxpromo", random_rate(rate, "x"),
                          f"oracle {rate!r}: expected a number, got 'x'"))
for index, (rate, value) in enumerate(
    (("activate_rate", "nan"), ("activate_rate", float("nan")), ("feed_rate", 1.5),
     ("junk_rate", -0.1), ("junk_rate", "inf"))
):
    CASES.append(scenario(f"rate-range-{index}", "boxpromo", random_rate(rate, value),
                          f"oracle {rate!r}: expected a number in [0, 1], got {value!r}"))
# A class family always holds its root class, so a cap below 1 is a parse
# problem, not horizon exhaustion.
for cap in (0, -5):
    CASES.append(scenario(f"family-cap-{cap}", "boxpromo", dict(CANNED, family_cap=cap),
                          f"boxpromo scenario 'family_cap': expected at least 1, got {cap}"))
# A script's box capacity counts every spelling of the box.
for index, (box, lines) in enumerate((
    ("I2.2", ["4 I2.2 000", "4 I2.2 001", "4 I2.2 010"]),
    ("I2.2", ["4 I2.2 000", "4 I2.2 001", "4 I2.02 010"]),
    ("M2.2:1", CANNED_SCRIPT + ["5 M2.2:1 0001", "5 M2.2:01 0011"]),
)):
    CASES.append(scenario(f"capacity-{index}", "boxpromo", script(*lines),
                          f"script enumerates 3 values into {box}, capacity is 2"))

# Thresholds, bounds, maps and counts given on the command line, an --out
# that cannot be written, and tables and approximations that do not parse.
CASES += [
    Case("eps-text", ["costfn", "markers", "{c.table}", "--eps", "abc"], "--eps: bad rational 'abc'", TABLE),
    Case("bound-text", ["costfn", "check-benign", "{c.table}", "--eps", "1/4", "--bound", "x=3"],
         "--bound: bad rational 'x'", TABLE),
    Case("second-eps-text", ["costfn", "check-benign", "{c.table}", "--eps", "1/4", "a/b", "--bound", "1/4=3"],
         "--eps: bad rational 'a/b'", TABLE),
    Case("sum-eps-text", ["costfn", "sum", "{c.table}", "--eps", "1/0"], "--eps: bad rational '1/0'", TABLE),
    Case("bound-count-superscript", ["costfn", "check-benign", "{c.table}", "--eps", "1/4", "--bound", "1/4=²"],
         "bad bound entry '1/4=²', expected eps=count", TABLE),
    Case("eps-zero", ["costfn", "markers", "{c.table}", "--eps", "0"], f"--eps: {POSITIVE} '0'", TABLE),
    Case("sum-eps-negative", ["costfn", "sum", "{c.table}", "--eps", "-1"], f"--eps: {POSITIVE} '-1'", TABLE),
    Case("bound-zero", ["costfn", "check-benign", "{c.table}", "--eps", "1/4", "--bound", "0=3"],
         f"--bound: {POSITIVE} '0'", TABLE),
    Case("bound-unscanned", ["costfn", "check-benign", "{c.table}", "--eps", "1/2", "--bound", "1/4=0"],
         "--bound: threshold 1/4 is not among --eps", TABLE),
    Case("bound-count-digits", ["costfn", "check-benign", "{c.table}", "--eps", "1/2", "--bound", f"1/2={LONG}"],
         f"bad bound entry '1/2={LONG}', expected eps=count", TABLE),
    Case("eps-digits", ["costfn", "markers", "{c.table}", "--eps", "1e-4305"],
         "--eps: bad rational '1e-4305'", TABLE),
    # An exponent is refused before it is expanded.
    Case("eps-exponent-huge", ["costfn", "markers", "{c.table}", "--eps", "1e-999999999"],
         "--eps: bad rational '1e-999999999'", TABLE),
    Case("out-directory", ["costfn", "markers", "{c.table}", "--eps", "1/2", "--out", "{DIR}"],
         "[Errno 21] Is a directory: '{DIR}'", TABLE),
    Case("out-missing-folder", ["costfn", "markers", "{c.table}", "--eps", "1/2", "--out", "{DIR}/no/report.json"],
         "[Errno 2] No such file or directory: '{DIR}/no/report.json'", TABLE),
]
# The same checks on a table whose columns are tab-separated.
CASES += [
    case._replace(name=f"tabbed-{case.name}", files={"c.table": TABBED})
    for case in CASES
    if case.name in ("eps-text", "eps-zero", "bound-zero", "bound-unscanned", "eps-digits", "out-directory")
]
for second in ("0.25", "1/4"):  # a threshold bounded twice, however spelt, would lose one bound
    for table, text in (("flat", FLAT_TABLE + "\n"), ("tabbed", TABBED)):
        argv = ["costfn", "check-benign", "{c.table}", "--eps", "1/4", "--bound", "1/4=0", f"{second}=9"]
        CASES.append(Case(f"{table}-bound-twice-{second.replace('/', '-')}", argv,
                          f"--bound: threshold {second} is bounded twice", {"c.table": text}))
SPEEDUP = ["approx", "speedup", "{c.table}", "{c.table}", "{b.approx}", "{b.approx}"]
FOUR_ROWS = "4 3\n000\n100\n000\n100\n"
CASES += [
    Case("table-header-digits", ["costfn", "markers", "{c.table}", "--eps", "1/2"],
         f"line 1: expected header 'S X', got '{LONG} 2'", {"c.table": f"{LONG} 2\n"}),
    # A table entry is a rational token: `Fraction` would read each of these
    # as 1/2.  The first bad token names its line.
    Case("table-token-underscore", ["costfn", "markers", "{c.table}", "--eps", "1/2"],
         "line 2: bad rational '1_0/20'", {"c.table": "2 2\n1_0/20 1/4\n1/2 1/4\n"}),
    Case("table-token-plus", ["costfn", "markers", "{c.table}", "--eps", "1/2"],
         "line 3: bad rational '+1/2'", {"c.table": "2 2\n1/2 1/4\n+1/2 1/4\n"}),
    Case("table-token-arabic-indic", ["costfn", "markers", "{c.table}", "--eps", "1/2"],
         "line 2: bad rational '١/٢'", {"c.table": "2 2\n١/٢ 1/4\n1/2 1/4\n"}),
    Case("eps-plus", ["costfn", "markers", "{c.table}", "--eps", "+1/2"], "--eps: bad rational '+1/2'", TABLE),
    # A table check names the text line, blank lines counted.
    Case("table-decreases", ["costfn", "markers", "{c.table}", "--eps", "1/2"],
         "line 3: column 0 decreases at stage 1", {"c.table": "2 2\n1/2 1/4\n1/4 1/4\n"}),
    Case("table-decreases-after-blank", ["costfn", "markers", "{c.table}", "--eps", "1/2"],
         "line 5: column 0 decreases at stage 1", {"c.table": "2 2\n\n1/2 1/4\n\n1/4 1/4\n"}),
    # Approximation headers and schedule triples that do not parse.
    Case("approx-header-superscript", ["approx", "change-set", "{b.approx}"],
         "line 1: expected header 'S X', got '²4 3'", {"b.approx": "²4 3\n000\n"}),
    Case("approx-header-digits", ["approx", "change-set", "{b.approx}"],
         f"line 1: expected header 'S X', got '{LONG} 3'", {"b.approx": f"{LONG} 3\n000\n"}),
    # A header with no stage rows.
    Case("approx-no-rows", ["approx", "change-set", "{b.approx}"], "approximation needs at least one row",
         {"b.approx": "0 5\n"}),
    Case("table-no-rows", ["costfn", "markers", "{c.table}", "--eps", "1/2"],
         "line 1: cost table needs at least one stage row", {"c.table": "0 5\n"}),
    Case("schedule-text", ["approx", "change-set", "{b.approx}"], "line 5: expected integer fields in '(a,1,2)'",
         {"b.approx": "2 2\n00\n01\n\n(a,1,2)\n"}),
    # A schedule field is a decimal token after an optional '-', like every
    # other integer in the text formats: `1_0` and `+1` are refused.
    Case("schedule-underscore", ["approx", "change-set", "{b.approx}"],
         "line 4: expected integer fields in '(1,1,1_0)'", {"b.approx": "2 2\n00\n01\n(1,1,1_0)\n"}),
    Case("schedule-plus", ["approx", "change-set", "{b.approx}"],
         "line 4: expected integer fields in '(+1,1,2)'", {"b.approx": "2 2\n00\n01\n(+1,1,2)\n"}),
    Case("schedule-outside", ["approx", "change-set", "{b.approx}"], "line 4: schedule entry (1,2) outside the table",
         {"b.approx": "2 2\n00\n01\n(1,2,3)\n"}),
    Case("schedule-twice", ["approx", "change-set", "{b.approx}"], "line 5: schedule entry (0,1) listed twice",
         {"b.approx": "2 2\n00\n00\n(0,1,3)\n(0,1,inf)\n"}),
    Case("schedule-not-triple", ["approx", "change-set", "{b.approx}"],
         "line 4: expected schedule triple, got 'foo'", {"b.approx": "2 2\n00\n01\nfoo\n"}),
    # A bad row after rows that repeat their predecessor is still refused.
    Case("approx-bad-row-after-repeats", ["approx", "change-set", "{b.approx}"],
         "line 4: expected 2 bits, got '0x'", {"b.approx": "3 2\n00\n00\n0x\n"}),
    # Fuzz batches with no runs or too short a horizon, speed-up maps with a
    # negative stage or none below the horizon, and a negative step count or
    # budget.
    Case("fuzz-count", ["boxpromo", "fuzz", "--count", "0"], "fuzz batch needs a positive count"),
    Case("synth-fuzz-count", ["synth", "fuzz", "--count", "0"], "fuzz batch needs a positive count"),
    Case("boxpromo-fuzz-horizon", ["boxpromo", "fuzz", "--count", "1", "--horizon", "0"],
         "boxpromo fuzz needs a horizon of at least 3, got 0"),
    # The fifth case is the canned script, whose boxes sit at level 2.
    Case("boxpromo-fuzz-horizon2", ["boxpromo", "fuzz", "--count", "5", "--seed", "0", "--horizon", "2"],
         "boxpromo fuzz needs a horizon of at least 3, got 2"),
    Case("speedup-map-negative", ["approx", "change-set", "{b.approx}", "--speedup", "-1", "0"],
         "speed-up map has a negative stage -1", {"b.approx": FOUR_ROWS}),
    Case("speedup-map-past-horizon", ["approx", "change-set", "{b.approx}", "--speedup", "9"],
         "speed-up map has no stage below horizon 3", {"b.approx": BLOCK}),
    Case("speedup-steps", SPEEDUP + ["--steps", "-1"], "speed-up needs a step count of at least 0, got -1",
         {"c.table": decay_text(4), "b.approx": FOUR_ROWS}),
    Case("speedup-budget", SPEEDUP + ["--budget", "-1"], "speed-up needs a budget of at least 0, got -1",
         {"c.table": decay_text(4), "b.approx": FOUR_ROWS}),
    Case("tabbed-speedup-steps", SPEEDUP + ["--steps", "-1"], "speed-up needs a step count of at least 0, got -1",
         {"c.table": TABBED, "b.approx": BLOCK}),
]
for horizon in ("0", "-1", "1"):
    CASES.append(Case(f"synth-fuzz-horizon{horizon}", ["synth", "fuzz", "--count", "1", "--horizon", horizon],
                      f"synth fuzz needs a horizon of at least 2, got {horizon}"))

# Every file a command reads, given as a file that is not UTF-8, a directory
# and an empty file; {F} stands for the file.
READERS = [
    ("boxpromo-run", ["boxpromo", "run", "{F}"], "{F}: line 1: Expecting value"),
    ("synth-run", ["synth", "run", "{F}"], "{F}: line 1: Expecting value"),
    ("markers", ["costfn", "markers", "{F}", "--eps", "1/2"], "line 1: empty cost table"),
    ("check-benign", ["costfn", "check-benign", "{F}", "--eps", "1/2", "--bound", "1/2=1"], "line 1: empty cost table"),
    ("sum", ["costfn", "sum", "{F}"], "line 1: empty cost table"),
    ("change-set", ["approx", "change-set", "{F}"], "line 1: empty approximation"),
]
for index, empty in enumerate(["line 1: empty cost table"] * 2 + ["line 1: empty approximation"] * 2):
    argv = SPEEDUP[:2 + index] + ["{F}"] + SPEEDUP[3 + index:]
    READERS.append((f"speedup-{index}", argv, empty))
OTHER_FILES = {"c.table": TABBED, "b.approx": BLOCK}  # the speed-up's other files
for name, argv, empty in READERS:
    CASES += [
        Case(f"{name}-not-utf8", argv, "{F}: not UTF-8 text (byte 0)", dict(OTHER_FILES, F=b"\xff\xfe")),
        Case(f"{name}-directory", [a.replace("{F}", "{DIR}") for a in argv],
             "[Errno 21] Is a directory: '{DIR}'", OTHER_FILES),
        Case(f"{name}-empty", argv, empty, dict(OTHER_FILES, F="")),
    ]
CASES += [
    Case("cut-character", ["costfn", "markers", "{F}", "--eps", "1/2"], "{F}: not UTF-8 text (byte 4)",
         {"F": "3 2\n²".encode()[:-1]}),
    Case("boxpromo-run-nested", ["boxpromo", "run", "{F}"], "{F}: JSON nested too deeply to read",
         {"F": "[" * 200000}),
    Case("synth-run-nested", ["synth", "run", "{F}"], "{F}: JSON nested too deeply to read",
         {"F": '{"kind": "synth", "horizon": ' + "[" * 200000}),
]


def main(prefix) -> int:
    """Run every case through the command `prefix`; print each mismatch."""
    if not prefix:
        sys.exit("usage: python tests/bad_inputs.py COMMAND [ARG...]")

    def run(argv):
        done = subprocess.run(prefix + argv, capture_output=True, encoding="utf-8")
        return done.returncode, done.stdout, done.stderr

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            try:
                check(case, run, Path(tmp, case.name))
            except AssertionError as exc:
                print(exc)
                failed += 1
    print(f"{len(CASES)} bad inputs, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
