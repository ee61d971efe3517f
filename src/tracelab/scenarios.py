"""Scenario files (JSON wrapping the plain-text table formats), batch
execution, and machine-readable reports.

Machine reports are plain JSON-compatible dicts; serialize with sorted keys
and they are byte-stable for a fixed scenario and seed.  Wall-clock timings
never enter machine reports, only the human-readable table output.
`machine_format` writes the text `json.dumps(report, sort_keys=True,
indent=2)` gives, byte for byte, with its own writer: `json.dumps` runs the
pure-Python encoder whenever it indents, and that encoder took about a
quarter of a small promotion scenario's time.  Writing a promotion report
costs what its witness chains change, not how many audits there are: a
level's chain fields are rendered once, and again only when an audit at that
level carries a chain other than the previous one's.

Witness audits, extraction steps and final-accounting charges are reported
as their engine records' fields (`vars`, each `Fraction` as its `n/d`
string); nothing writes to a report after it is built.
"""
from __future__ import annotations

import json
import operator
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Optional

from . import approximations as appr_mod
from . import costs
from .errors import InvariantViolation, ScenarioError, decimal, fraction_str, rational, signed
from .promotion import CoherentLengths, PromotionEngine
from .synthesis import (
    PartialStageMap,
    Requirement,
    SynthesisRun,
    audit_requirement,
)
from .tracer import BoxLayout, HonestPolicy, RandomPolicy, ScriptedPolicy
from .words import check_word


def parse_rational(value, what: str) -> Fraction:
    """`Fraction(value)`, a string read by `rational` like every rational
    token in the text formats; a value that is not a rational, a boolean
    included, is a `ScenarioError` naming it."""
    if isinstance(value, str):
        number = rational(value)
        if number is not None:
            return number
    elif not isinstance(value, bool):
        try:
            return Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ScenarioError(f"{what}: bad rational {value!r}")


def positive_rational(value, what: str) -> Fraction:
    """`parse_rational(value, what)`; a value at or below 0 is a
    `ScenarioError` naming it."""
    rational = parse_rational(value, what)
    if rational <= 0:
        raise ScenarioError(f"{what}: expected a positive rational, got {value!r}")
    return rational


def _integer(value, what: str) -> int:
    """`int(value)`, a string read by `signed` like every integer token in
    the text formats; a boolean, a non-integral number or a value `int` or
    `signed` rejects is a `ScenarioError` naming it."""
    number = signed(value) if isinstance(value, str) else value
    if isinstance(number, bool) or (isinstance(number, float) and not number.is_integer()):
        raise ScenarioError(f"{what}: expected an integer, got {value!r}")
    try:
        return int(number)
    except (TypeError, ValueError):
        raise ScenarioError(f"{what}: expected an integer, got {value!r}") from None


def _rate(value, what: str) -> float:
    """`float(value)`; a value `float` rejects, or one outside [0, 1] (NaN
    included), is a `ScenarioError` naming it."""
    try:
        rate = float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{what}: expected a number, got {value!r}") from None
    if not 0 <= rate <= 1:
        raise ScenarioError(f"{what}: expected a number in [0, 1], got {value!r}")
    return rate


def _boolean(value, what: str) -> bool:
    """`value` if it is a JSON boolean; anything else is a `ScenarioError`
    naming it."""
    if not isinstance(value, bool):
        raise ScenarioError(f"{what}: expected true or false, got {value!r}")
    return value


def _typed(value, kind: type, what: str):
    """`value` if it is a list or dict as `kind` asks; anything else is a
    `ScenarioError` naming it."""
    if not isinstance(value, kind):
        expected = "a list" if kind is list else "an object"
        raise ScenarioError(f"{what}: expected {expected}, got {value!r}")
    return value


def text_block(value, what: str) -> str:
    """A string, or a list of string lines joined; anything else, or a line
    that is not a string, is a `ScenarioError` naming it."""
    if isinstance(value, list):
        for lineno, line in enumerate(value, start=1):
            if not isinstance(line, str):
                raise ScenarioError(f"{what}: line {lineno}: expected a string, got {line!r}")
        return "\n".join(value)
    if isinstance(value, str):
        return value
    raise ScenarioError(f"{what}: expected a text block (string or list of lines), got {value!r}")


def _required(payload: dict, field: str, where: str):
    """payload[field]; a missing field is a `ScenarioError` naming it."""
    if field not in payload:
        raise ScenarioError(f"{where} is missing the {field!r} field")
    return payload[field]


def parse_script(text: str) -> list[tuple[int, str, str]]:
    """Lines of 'stage box value'; blank lines and #-comments are skipped."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        stage = decimal(parts[0])
        if len(parts) != 3 or stage is None:
            raise ScenarioError(f"line {lineno}: expected 'stage box value', got {line!r}")
        entries.append((stage, parts[1], parts[2]))
    return entries


def read_text(source) -> str:
    """The text of the file at `source`, the one way every input file is read;
    a file that is not UTF-8 is a `ScenarioError` that names it."""
    path = Path(source)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def load_scenario(source) -> dict:
    if isinstance(source, dict):
        payload = source
    else:
        path = Path(source)
        text = read_text(path)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
        except ValueError:  # an integer literal with more digits than `int` converts
            raise ScenarioError(f"{path}: an integer literal has too many digits to read") from None
        except RecursionError:
            raise ScenarioError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ScenarioError("scenario must be an object with a 'kind' field")
    if payload["kind"] not in ("boxpromo", "synth", "costfn-check"):
        raise ScenarioError(f"unknown scenario kind {payload['kind']!r}")
    return payload


# ---- box-promotion scenarios ------------------------------------------------


def _build_policy(spec, layout, ground_truth: Optional[str]):
    name = _typed(spec, dict, "boxpromo scenario 'oracle'").get("policy")
    if name == "honest":
        if ground_truth is None:
            raise ScenarioError("honest oracle needs a ground truth word")
        return HonestPolicy(delay=_integer(spec.get("delay", 1), "oracle 'delay'"))
    if name == "scripted":
        script = text_block(spec.get("script", ""), "oracle 'script'")
        return ScriptedPolicy(parse_script(script), layout)
    if name == "random":
        return RandomPolicy(
            seed=_integer(spec.get("seed", 0), "oracle 'seed'"),
            activate_rate=_rate(spec.get("activate_rate", 0.5), "oracle 'activate_rate'"),
            feed_rate=_rate(spec.get("feed_rate", 0.8), "oracle 'feed_rate'"),
            junk_rate=_rate(spec.get("junk_rate", 0.2), "oracle 'junk_rate'"),
        )
    raise ScenarioError(f"unknown oracle policy {name!r}")


def build_promotion_engine(payload: dict) -> PromotionEngine:
    horizon = _integer(payload.get("horizon", 0), "boxpromo scenario 'horizon'")
    if horizon < 2:
        raise ScenarioError("boxpromo scenario needs a horizon of at least 2")
    overhead = _integer(payload.get("overhead", 1), "boxpromo scenario 'overhead'")
    top_level = _integer(payload.get("top_level", 3), "boxpromo scenario 'top_level'")
    BoxLayout.check_levels(overhead, top_level)
    # Refused before the marker scans, which run to the top level.  Stage s
    # touches only levels up to s: the run holds only the levels its stages
    # reach.
    PromotionEngine.check_horizon(overhead, horizon)
    top_level = min(top_level, horizon - 1)
    what = "boxpromo scenario 'family_cap'"
    family_cap = _integer(payload.get("family_cap", 20000), what)
    if family_cap < 1:  # every class family holds its root class
        raise ScenarioError(f"{what}: expected at least 1, got {family_cap}")
    where = "boxpromo scenario"
    cost = costs.parse_cost_table(
        text_block(_required(payload, "cost_table", where), f"{where} 'cost_table'"),
        normalized=_boolean(payload.get("normalized", True), f"{where} 'normalized'"),
    )
    ground_truth = payload.get("ground_truth")
    if ground_truth is not None:
        try:
            check_word(ground_truth)
        except ValueError as exc:
            raise ScenarioError(f"ground_truth: {exc}") from None
    if ground_truth is None and "approximation" in payload:
        text = text_block(payload["approximation"], f"{where} 'approximation'")
        block = appr_mod.parse_word_approx(text)
        ground_truth = block.rows[-1]
    coherent = CoherentLengths(cost, top_level)
    layout = BoxLayout(overhead, coherent.slack, top_level)
    policy = _build_policy(payload.get("oracle", {"policy": "honest"}), layout, ground_truth)
    return PromotionEngine(
        coherent=coherent,
        layout=layout,
        horizon=horizon,
        policy=policy,
        ground_truth=ground_truth,
        family_cap=family_cap,
    )


def boxpromo_report(engine: PromotionEngine) -> dict:
    report = {
        "kind": "boxpromo",
        "parameters": {
            "overhead": engine.overhead,
            "top_level": engine.top_level,
            "horizon": engine.horizon,
            "oracle": engine.policy.kind,
        },
        "stages": engine.stage_log,
        "levels": {
            str(n): {
                "lengths": [slot.length for slot in state.slots],
                "added": [slot.added for slot in state.slots],
                "lengths_capacity": engine.layout.lengths_capacity(n),
                "trace_capacity": engine.layout.trace_capacity(n),
                "conflicts": {
                    str(k): {"stage": slot.conflict[0], "pair": [c.index for c in slot.conflict[1]]}
                    for k, slot in enumerate(state.slots, start=1)
                    if slot.conflict is not None
                },
                "candidates": {
                    str(k): [c.word for c in slot.candidates]
                    for k, slot in enumerate(state.slots, start=1)
                },
                "dropped_promotions": state.dropped_promotions,
            }
            for n, state in sorted(engine.levels.items())
        },
        "witness_audits": [vars(audit) for audit in engine.witness_audits],
        "tallies": {
            "conflicts": engine.conflict_count(),
            "max_trace": engine.env.max_trace,
            "class_family": {
                str(n): len(engine.env.classes.get(n, {})) for n in sorted(engine.levels)
            },
        },
    }
    extraction = engine.extraction
    if extraction is not None:
        report["extraction"] = {
            "anchor": extraction.anchor,
            "anchor_stage": extraction.anchor_stage,
            "truncated_at": extraction.truncated_at,
            "steps": [dict(vars(s), cost=fraction_str(s.cost)) for s in extraction.steps],
            "expensive_counts": {str(n): c for n, c in sorted(extraction.expensive.items())},
            "total_cost": fraction_str(extraction.total_cost),
            "layered_bound": fraction_str(extraction.layered_bound),
        }
    else:
        report["extraction"] = {"skipped": "extraction needs an honest oracle over a ground truth"}
    return report


# ---- synthesis scenarios -----------------------------------------------------


def build_synthesis_run(payload: dict) -> SynthesisRun:
    horizon = _integer(payload.get("horizon", 0), "synth scenario 'horizon'")
    approximation = appr_mod.parse_word_approx(
        text_block(
            _required(payload, "approximation", "synth scenario"),
            "synth scenario 'approximation'",
        )
    )
    width = payload.get("width")
    if width is not None:
        width = _integer(width, "synth scenario 'width'")
    requirements = []
    blocks = _typed(payload.get("requirements", []), list, "synth scenario 'requirements'")
    for r, block in enumerate(blocks):
        where = f"synth requirement {r}"
        _typed(block, dict, where)
        table = costs.parse_cost_table(
            text_block(_required(block, "cost_table", where), f"{where} 'cost_table'"),
            normalized=True,
            listed_form=True,
        )
        entries = []
        stage_map = _typed(_required(block, "stage_map", where), list, f"{where} 'stage_map'")
        for j, entry in enumerate(stage_map):
            what = f"{where} stage_map entry {j}"
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ScenarioError(f"{what}: expected [arg, value, visible_at], got {entry!r}")
            entries.append(tuple(_integer(v, what) for v in entry))
        requirements.append(Requirement(table, PartialStageMap(entries)))
    return SynthesisRun(
        approximation,
        _integer(payload.get("budget_exp", 0), "synth scenario 'budget_exp'"),
        requirements,
        horizon,
        width=width,
    )


def write_synth_artifacts(run: SynthesisRun, directory) -> list[str]:
    """Emit a finished run's table, stage maps, and cover as files."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    (target / "c.table").write_text(costs.format_cost_table(run.cost_table))
    (target / "speedup.map").write_text(
        "".join(f"{i} {v}\n" for i, v in enumerate(run.speedup))
    )
    written = ["c.table", "speedup.map"]
    for e, state in enumerate(run.states):
        name = f"checkpoints-{e}.map"
        (target / name).write_text(
            "".join(f"{i} {v}\n" for i, v in enumerate(state.checkpoints))
        )
        written.append(name)
    (target / "cover.pairs").write_text(
        "".join(
            f"{x} {n} {at}\n"
            for x, n, at in sorted((x, n, at) for (x, n), at in run.cover.pairs.items())
        )
    )
    written.append("cover.pairs")
    return written


def _unwritable_bound(eps: Fraction) -> ScenarioError:
    return ScenarioError(
        f"synth scenario 'budget_exp': the bound at eps {fraction_str(eps)} "
        "has too many digits to write"
    )


def run_synth(payload: dict, artifacts_dir=None) -> dict:
    run = build_synthesis_run(payload)
    what = "synth scenario 'eps'"
    eps_texts = _typed(payload.get("eps", ["1/2", "1/4", "1/8"]), list, what)
    eps_list = [positive_rational(e, what) for e in eps_texts]
    # Every bound is at least 2^budget_exp; once that alone has more digits
    # than `str` writes, refuse before the benignity check builds a bound.
    # With no threshold no bound is built, and the run compares exponents only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if eps_list and limit and run.budget_exp >= (10**limit).bit_length():
        raise _unwritable_bound(eps_list[0])
    run.run()
    benign = {}
    for eps in eps_list:
        count, bound = costs.marker_sequence(run.cost_table, eps).count, run.bound(eps)
        if count > bound:
            raise InvariantViolation(
                f"benignity bound failed at eps {fraction_str(eps)}: {count} markers, bound {bound}"
            )
        try:
            str(bound)
        except ValueError:
            raise _unwritable_bound(eps) from None
        benign[fraction_str(eps)] = {"count": count, "bound": bound, "ok": True}
    audits = []
    for e, state in enumerate(run.states):
        if state.activity <= 1:
            audit = audit_requirement(run, e)
            audits.append(
                {
                    "requirement": e,
                    "charges": [
                        dict(vars(c), amount=fraction_str(c.amount)) for c in audit.charges
                    ],
                    "persistent_total": fraction_str(audit.persistent_total),
                    "transient_total": fraction_str(audit.transient_total),
                }
            )
        else:
            audits.append({"requirement": e, "skipped": "activity sum above 1"})
    report = {
        "kind": "synth",
        "parameters": {
            "budget_exp": run.budget_exp,
            "horizon": run.horizon,
            "requirements": len(run.states),
        },
        "halted_at": run.halted_at,
        "measured": fraction_str(run.measured),
        "speedup": list(run.speedup),
        "checkpoints": [list(s.checkpoints) for s in run.states],
        "first_seen": [s.added_at[0] if s.added_at else None for s in run.states],
        "activity": [fraction_str(s.activity) for s in run.states],
        "doubling_stages": [list(d) for d in run.doubling_stages],
        "worried": [list(w) for w in run.worried_log],
        "benign": benign,
        "cover": sorted(
            [x, n, at] for (x, n), at in run.cover.pairs.items()
        ),
        "audits": audits,
        "totality": {
            "speedup_frontier": run.frontier,
            "checkpoint_frontiers": [len(s.checkpoints) - 1 for s in run.states],
        },
        "cost_table_shape": [run.cost_table.horizon, run.cost_table.width],
    }
    if artifacts_dir is not None:
        report["artifacts"] = write_synth_artifacts(run, artifacts_dir)
    return report


LIMIT_THRESHOLD = Fraction(1, 8)  # the default vanishing-tail threshold of a costfn check


def run_costfn_check(payload: dict) -> dict:
    where = "costfn-check scenario"
    table = costs.parse_cost_table(
        text_block(_required(payload, "cost_table", where), f"{where} 'cost_table'"),
        normalized=_boolean(payload.get("normalized", False), f"{where} 'normalized'"),
    )
    eps_texts = _typed(payload.get("eps", ["1/2"]), list, f"{where} 'eps'")
    eps_list = [positive_rational(e, f"{where} 'eps'") for e in eps_texts]
    bound = {}
    for k, v in _typed(payload.get("bound", {}), dict, f"{where} 'bound'").items():
        eps = positive_rational(k, f"{where} 'bound' key")
        count = _integer(v, f"{where} 'bound' entry {k!r}")
        if count < 0:
            raise ScenarioError(
                f"{where} 'bound' entry {k!r}: expected a count of at least 0, got {v!r}"
            )
        if eps not in eps_list:  # a bound on a threshold not scanned would go unchecked
            raise ScenarioError(f"{where} 'bound' key {k!r}: threshold not listed in 'eps'")
        if eps in bound:  # a second spelling of a threshold would replace its bound
            raise ScenarioError(f"{where} 'bound' key {k!r}: threshold bounded twice")
        bound[eps] = count
    tail_threshold = parse_rational(
        payload.get("limit_threshold", LIMIT_THRESHOLD), f"{where} 'limit_threshold'"
    )
    return costfn_check_report(table, eps_list, bound, tail_threshold)


def costfn_check_report(table, eps_list: list, bound: dict, tail_threshold: Fraction) -> dict:
    """`table`'s marker scan at each of `eps_list`, checked against `bound`
    where it holds that threshold, and its last entry against `tail_threshold`."""
    entries = {}
    for eps in eps_list:
        seq = costs.marker_sequence(table, eps)
        entry = {"markers": list(seq.markers), "count": seq.count, "truncated": seq.truncated}
        if eps in bound:
            entry.update(bound=bound[eps], ok=seq.count <= bound[eps])
        entries[fraction_str(eps)] = entry
    # The vanishing-tail condition is observed and reported, never enforced:
    # tables with a fat tail are legitimate inputs elsewhere.
    tail = table.value(table.horizon - 1, table.width - 1)
    return {
        "kind": "costfn-check",
        "shape": [table.horizon, table.width],
        "thresholds": entries,
        "limit_tail": {
            "value": fraction_str(tail),
            "threshold": fraction_str(tail_threshold),
            "below": tail <= tail_threshold,
        },
        "ok": all(entry.get("ok", True) for entry in entries.values()),
    }


def run_scenario(source) -> dict:
    payload = load_scenario(source)
    if payload["kind"] == "boxpromo":
        return boxpromo_report(build_promotion_engine(payload).run())
    if payload["kind"] == "synth":
        return run_synth(payload)
    return run_costfn_check(payload)


def machine_format(report: dict) -> str:
    """`json.dumps(report, sort_keys=True, indent=2) + "\n"`, written by
    `_write_json`; a `witness_audits` list goes through `_write_audits`,
    which renders each level's chain fields once per chain."""
    out: list[str] = []
    _write_json(report, 0, out.append)
    out.append("\n")
    return "".join(out)


_PADS = tuple("\n" + "  " * depth for depth in range(16))
_LITERALS = {True: "true", False: "false", None: "null"}


def _pad(depth: int) -> str:
    return _PADS[depth] if depth < len(_PADS) else "\n" + "  " * depth


def _write_json(value, depth: int, out) -> None:
    """Pass the indent-2 JSON text of `value`, nested `depth` deep, to `out`
    in pieces.  Strings, ints, bools and None inside a container are written
    in its loop; a float, an int or str subclass, a dict whose keys are not
    strings or anything `json` rejects goes through `json.dumps`, which gives
    its text or raises.  A dict's text is indented to `depth` at each newline,
    all of them layout, as `json` escapes a newline inside a string."""
    if isinstance(value, dict):
        if not value:
            out("{}")
            return
        items = sorted(value.items())
        if not isinstance(items[0][0], str):
            out(json.dumps(value, sort_keys=True, indent=2).replace("\n", _pad(depth)))
            return
        inner = _pad(depth + 1)
        sep = "{" + inner
        for key, item in items:
            head = sep + _json_str(key) + ": "
            kind = type(item)
            if kind is str:
                out(head + _json_str(item))
            elif kind is int:
                out(head + int.__repr__(item))
            elif kind is bool or item is None:
                out(head + _LITERALS[item])
            else:
                out(head)
                if kind is list and key == "witness_audits":
                    _write_audits(item, depth + 1, out)
                else:
                    _write_json(item, depth + 1, out)
            sep = "," + inner
        out(_pad(depth) + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = _pad(depth + 1)
        sep = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                out(sep + _json_str(item))
            elif kind is int:
                out(sep + int.__repr__(item))
            elif kind is bool or item is None:
                out(sep + _LITERALS[item])
            else:
                out(sep)
                _write_json(item, depth + 1, out)
            sep = "," + inner
        out(_pad(depth) + "]")
    elif isinstance(value, str):
        out(_json_str(value))
    else:
        out(json.dumps(value))


# A witness audit's fields that its level's chain fixes, in the order they
# sort, which is ahead of the audit's own `stage`, `trace_members` and
# `trace_size`.
_CHAIN_FIELDS = ("box", "chain_sizes", "conflicted", "deficits", "level")
_AUDIT_FIELDS = frozenset(_CHAIN_FIELDS + ("stage", "trace_members", "trace_size"))


def _write_audits(audits: list, depth: int, out) -> None:
    """`_write_json(audits, depth, out)` for a list of witness audits.  The
    engine hands every audit of an unchanged chain that chain's own `box`,
    `chain_sizes`, `conflicted` and `deficits` objects, so an audit whose
    chain fields are the very objects the previous audit at its level had
    writes that audit's chain text again, and only its own three ints are
    new.  Sameness is identity, not equality: `[True]` equals `[1]` but is
    written `[true]`.  An entry that is not a dict of exactly the audit
    fields, with int `level`, `stage`, `trace_members` and `trace_size`, is
    written by `_write_json`."""
    if not audits:
        out("[]")
        return
    item, field = _pad(depth + 1), "," + _pad(depth + 2)
    sep = "[" + item
    last: dict[int, tuple] = {}  # level -> (chain fields, their text) at its last audit
    for audit in audits:
        out(sep)
        sep = "," + item
        if not (
            type(audit) is dict
            and audit.keys() == _AUDIT_FIELDS
            and type(audit["level"]) is type(audit["stage"]) is int
            and type(audit["trace_members"]) is type(audit["trace_size"]) is int
        ):
            _write_json(audit, depth + 1, out)
            continue
        level = audit["level"]
        chain = (audit["box"], audit["chain_sizes"], audit["conflicted"], audit["deficits"])
        seen = last.get(level)
        if seen is None or not all(map(operator.is_, chain, seen[0])):
            parts = ["{" + _pad(depth + 2)]
            for name in _CHAIN_FIELDS:
                parts.append(f'"{name}": ')
                _write_json(audit[name], depth + 2, parts.append)
                parts.append(field)
            parts.append('"stage": ')
            seen = last[level] = (chain, "".join(parts))
        out(
            f'{seen[1]}{audit["stage"]}{field}"trace_members": {audit["trace_members"]}'
            f'{field}"trace_size": {audit["trace_size"]}{item}}}'
        )
    out(_pad(depth) + "]")


def table_format(report: dict) -> str:
    """Compact human-readable summary; details stay in the machine format."""
    kind = report.get("kind")
    lines = [f"kind: {kind}"]
    if kind == "boxpromo":
        tallies = report["tallies"]
        lines.append(f"conflicts: {tallies['conflicts']}  max-trace: {tallies['max_trace']}")
        lines.append(f"witness audits: {len(report['witness_audits'])}")
        extraction = report.get("extraction", {})
        if "steps" in extraction:
            lines.append(
                f"extraction: {len(extraction['steps'])} steps, "
                f"total cost {extraction['total_cost']}"
            )
        else:
            lines.append(f"extraction: {extraction.get('skipped', 'n/a')}")
    elif kind in ("synth", "costfn-sum"):
        if kind == "synth":
            lines.append(f"halted_at: {report['halted_at']}  measured: {report['measured']}")
            lines.append(f"speedup frontier: {report['totality']['speedup_frontier']}")
        benign = report["benign"] if kind == "synth" else report["thresholds"]
        for eps, entry in sorted(benign.items()):
            lines.append(
                f"benign @{eps}: count {entry['count']} <= bound {entry['bound']}: {entry['ok']}"
            )
    elif kind == "change-set":
        pairs, decoded, same = len(report["pairs"]), report["decoded"], report["matches_final_row"]
        lines.append(f"pairs: {pairs}  decoded: {decoded}  matches final row: {same}")
    elif kind == "speedup":
        lines.append(f"map: {report['map']}  omitted: {report['omitted']}")
        tail, full = report["tail_sum"], report["full_sum"]
        lines.append(f"tail sum: {tail}  full sum: {full}  ok: {report['ok']}")
    elif kind == "costfn-check":
        for eps, entry in sorted(report["thresholds"].items()):
            verdict = entry.get("ok", "n/a")
            lines.append(f"@{eps}: count {entry['count']} truncated={entry['truncated']} ok={verdict}")
    elif kind == "verify":
        lines.extend(entry["line"] for entry in report["criteria"])
    elif "runs" in report:
        lines.append(f"runs: {report['runs']}  ok: {report.get('ok')}")
        for key, value in sorted(report.get("tallies", {}).items()):
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"
