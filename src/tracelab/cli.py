"""Command-line front end.

Exit codes: 0 success, 1 usage or parse problem, 2 invariant violation (a
verified combinatorial bound failed), 3 horizon exhaustion where completion
was required.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import __version__
from . import approximations as appr_mod
from . import acceptance, costs, fuzz
from .errors import HorizonExhausted, InvariantViolation, ScenarioError, decimal, fraction_str
from .scenarios import (
    LIMIT_THRESHOLD,
    costfn_check_report,
    load_scenario,
    machine_format,
    parse_rational,
    positive_rational,
    read_text,
    run_scenario,
    run_synth,
    table_format,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ScenarioError(message)


def _add_common(parser):
    parser.add_argument("--out", help="write the machine report to this file")
    parser.add_argument(
        "--format", choices=["table", "machine"], default="table", help="stdout format"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="tracelab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tracelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    box = sub.add_parser("boxpromo", help="promotion-engine scenarios")
    box_sub = box.add_subparsers(dest="action", required=True)
    box_run = box_sub.add_parser("run", help="run one scenario file")
    box_run.add_argument("scenario")
    _add_common(box_run)
    box_fuzz = box_sub.add_parser("fuzz", help="run a randomized batch")
    box_fuzz.add_argument("--count", type=int, default=50)
    box_fuzz.add_argument("--seed", type=int, default=0)
    box_fuzz.add_argument("--horizon", type=int, help="fix every generated horizon")
    _add_common(box_fuzz)

    synth = sub.add_parser("synth", help="cost-synthesis scenarios")
    synth_sub = synth.add_subparsers(dest="action", required=True)
    synth_run = synth_sub.add_parser("run", help="run one scenario file")
    synth_run.add_argument("scenario")
    synth_run.add_argument(
        "--emit-tables", help="write the synthesized table, maps, and cover here"
    )
    _add_common(synth_run)
    synth_fuzz = synth_sub.add_parser("fuzz", help="run a randomized batch")
    synth_fuzz.add_argument("--count", type=int, default=20)
    synth_fuzz.add_argument("--seed", type=int, default=0)
    synth_fuzz.add_argument("--horizon", type=int, default=120)
    _add_common(synth_fuzz)

    cost = sub.add_parser("costfn", help="cost-table calculus")
    cost_sub = cost.add_subparsers(dest="action", required=True)
    markers = cost_sub.add_parser("markers", help="marker scan of a cost table")
    markers.add_argument("table")
    markers.add_argument("--eps", nargs="+", required=True)
    _add_common(markers)
    benign = cost_sub.add_parser("check-benign", help="marker counts against a bound")
    benign.add_argument("table")
    benign.add_argument("--eps", nargs="+", required=True)
    benign.add_argument(
        "--bound", nargs="+", required=True, help="entries eps=count, e.g. 1/4=4"
    )
    _add_common(benign)
    combine = cost_sub.add_parser("sum", help="weighted sum of normalized tables")
    combine.add_argument("tables", nargs="+")
    combine.add_argument("--eps", nargs="+", default=["1/2"])
    _add_common(combine)

    appr = sub.add_parser("approx", help="word-approximation operations")
    appr_sub = appr.add_subparsers(dest="action", required=True)
    cs = appr_sub.add_parser("change-set", help="change set of an approximation")
    cs.add_argument("approximation")
    cs.add_argument("--speedup", nargs="*", type=int, help="strictly increasing stages")
    _add_common(cs)
    sp = appr_sub.add_parser("speedup", help="obedience speed-up search")
    sp.add_argument("cost")
    sp.add_argument("witness_cost")
    sp.add_argument("target")
    sp.add_argument("witness")
    sp.add_argument("--budget", default="1")
    sp.add_argument("--steps", type=int)
    _add_common(sp)

    verify = sub.add_parser("verify", help="built-in verification batteries")
    verify_sub = verify.add_subparsers(dest="action", required=True)
    verify_all = verify_sub.add_parser("all", help="every acceptance criterion at its quick sizes")
    verify_all.add_argument("--seed", type=int, default=0)
    _add_common(verify_all)
    return parser


def _emit(report: dict, args, elapsed: float) -> None:
    if args.format == "machine":
        sys.stdout.write(machine_format(report))
    else:
        sys.stdout.write(table_format(report))
        sys.stdout.write(f"elapsed: {elapsed:.2f}s\n")


def _cmd_costfn(args) -> dict:
    if args.action != "sum":
        # Checked here, so the messages name the flags.
        eps_list = [positive_rational(text, "--eps") for text in args.eps]
        bound = {}
        if args.action == "check-benign":
            for token in args.bound:
                eps_text, _, count_text = token.partition("=")
                count = decimal(count_text)
                if count is None:
                    raise ScenarioError(f"bad bound entry {token!r}, expected eps=count")
                eps = positive_rational(eps_text, "--bound")
                if eps not in eps_list:
                    raise ScenarioError(f"--bound: threshold {eps_text} is not among --eps")
                if eps in bound:
                    raise ScenarioError(f"--bound: threshold {eps_text} is bounded twice")
                bound[eps] = count
        table = costs.parse_cost_table(read_text(args.table))
        return costfn_check_report(table, eps_list, bound, LIMIT_THRESHOLD)
    tables = [
        costs.parse_cost_table(read_text(p), normalized=True) for p in args.tables
    ]
    eps_of = {text: positive_rational(text, "--eps") for text in args.eps}
    parts = [
        (t, {e / 4: costs.marker_sequence(t, e / 4).count for e in eps_of.values()})
        for t in tables
    ]
    combined, bound = costs.sum_benign(parts)
    thresholds = {}
    for text, eps in eps_of.items():
        seq = costs.marker_sequence(combined, eps)
        thresholds[text] = {
            "count": seq.count,
            "bound": bound(eps),
            "ok": seq.count <= bound(eps),
            "truncated": seq.truncated,
        }
    return {
        "kind": "costfn-sum",
        "parts": len(parts),
        "shape": [combined.horizon, combined.width],
        "thresholds": thresholds,
        "ok": all(v["ok"] for v in thresholds.values()),
    }


def _cmd_approx(args) -> dict:
    if args.action == "change-set":
        block = appr_mod.parse_word_approx(read_text(args.approximation))
        speedup = args.speedup or None
        rows = appr_mod.compose_rows(block, speedup)
        cs = appr_mod.change_set(rows)
        decoded = appr_mod.decode(cs, rows[0])
        return {
            "kind": "change-set",
            "pairs": sorted([x, n, at] for (x, n), at in cs.pairs.items()),
            "decoded": decoded,
            "matches_final_row": decoded == rows[-1],
        }
    cost = costs.parse_cost_table(read_text(args.cost))
    witness_cost = costs.parse_cost_table(read_text(args.witness_cost))
    target = appr_mod.parse_word_approx(read_text(args.target))
    witness = appr_mod.parse_word_approx(read_text(args.witness))
    budget = parse_rational(args.budget, "--budget")
    result = appr_mod.obedience_speedup(
        cost, witness_cost, target, witness, budget=budget, steps=args.steps
    )
    return {
        "kind": "speedup",
        "pairs": [[s.index, s.stage, s.position] for s in result.steps],
        "map": list(result.speedup),
        "omitted": result.omitted,
        "tail_sum": fraction_str(result.tail_sum),
        "full_sum": fraction_str(result.full_sum),
        "ok": result.tail_sum <= budget,
    }


def main(argv=None) -> int:
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        if args.command == "boxpromo" and args.action == "run":
            report = run_scenario(args.scenario)
        elif args.command == "boxpromo":
            report = fuzz.boxpromo_batch(args.count, args.seed, args.horizon)
        elif args.command == "synth" and args.action == "run":
            payload = load_scenario(args.scenario)
            kind = payload["kind"]
            if kind != "synth":
                raise ScenarioError(f"synth run needs a synth scenario, got kind {kind!r}")
            report = run_synth(payload, artifacts_dir=args.emit_tables)
        elif args.command == "synth":
            report = fuzz.synth_batch(args.count, args.seed, args.horizon)
        elif args.command == "costfn":
            report = _cmd_costfn(args)
        elif args.command == "approx":
            report = _cmd_approx(args)
        else:
            report = acceptance.verify(args.seed)
        if args.out:
            Path(args.out).write_text(machine_format(report))
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except HorizonExhausted as exc:
        print(f"horizon exhausted: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(report, args, time.monotonic() - started)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early; silence the interpreter's exit-time
        # flush and keep the run's own exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if report.get("ok", True) is False:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
