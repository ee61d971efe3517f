"""The benchmark's own checks, at tiny sizes.

    python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tracelab import scenarios  # noqa: E402

HELD_OUT_SEED = workloads.DEFAULT_SEED + 1


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_one_scenario_and_passes_its_check(name, seed):
    texts = workloads.build(name, seed, count=1)
    digests = run.load_digests(name, seed)
    assert (digests is not None) == (seed == workloads.DEFAULT_SEED)
    times, failed = run.closed_loop(scenarios, texts, digests, run.SpeedProbe(), count=1)
    assert len(times) == 1
    assert failed == 0


class Tampering:
    """The scenarios module with a report altered after formatting."""

    run_scenario = staticmethod(scenarios.run_scenario)

    @staticmethod
    def machine_format(report):
        return scenarios.machine_format(report).replace("\n", "\n ", 1)


def test_a_report_altered_by_hand_counts_as_failed():
    texts = workloads.build("promo-mixed", workloads.DEFAULT_SEED, count=2)
    digests = run.load_digests("promo-mixed", workloads.DEFAULT_SEED)
    _, failed = run.closed_loop(Tampering, texts, digests, run.SpeedProbe(), count=2)
    assert failed == 2


def test_a_false_benign_verdict_counts_as_failed():
    report = {"kind": "synth", "benign": {"1/2": {"ok": True}, "1/4": {"ok": False}}}
    assert not run.report_ok(report, "{}", 0, None)
    report["benign"]["1/4"]["ok"] = True
    assert run.report_ok(report, "{}", 0, None)


def test_synth_scenarios_have_two_requirements():
    texts = workloads.build("synth-h500", HELD_OUT_SEED, count=2)
    assert [len(json.loads(t)["requirements"]) for t in texts] == [2, 2]


def test_span_self_times_sum_to_the_root_duration():
    tracer = spans.Tracer()
    texts = workloads.build("promo-mixed", workloads.DEFAULT_SEED, count=3)
    original = scenarios.run_scenario
    with spans.instrumented(tracer):
        run.closed_loop(scenarios, texts, None, run.SpeedProbe(), count=3, tracer=tracer)
    assert scenarios.run_scenario is original
    rows = tracer.spans
    own = spans.self_times(rows)
    root_of = []
    for i, row in enumerate(rows):
        root_of.append(i if row[3] is None else root_of[row[3]])
    roots = [i for i, root in enumerate(root_of) if root == i]
    assert [rows[i][0] for i in roots] == ["scenario"] * 3
    for root in roots:
        tree = sum(t for t, r in zip(own, root_of) if r == root)
        assert tree == rows[root][2] - rows[root][1]
    assert all(t >= 0 for t in own)
    assert {"tracer.oracle_step", "costs.parse_cost_table", "promotion.build_engine"} <= {
        row[0] for row in rows
    }
    assert tracer.member_calls > 0


def bench(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_the_command_prints_every_declared_metric(trace, section):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    done = bench("--workload", "promo-mixed", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared[section]]
    for m in declared[section]:
        assert metrics[m["name"]]["unit"] == m["unit"]


def test_the_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "promo-mixed", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
