"""tracelab's benchmark: closed-loop scenario workloads checked against
report digests, plus a traced run for per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload synth-h500 --seed 1 --seconds 25 --trace 0

One process with one thread runs a closed loop: each scenario goes from its
JSON text through `json.loads`, `scenarios.run_scenario` and
`scenarios.machine_format` (the path `tracelab ... run SCENARIO.json` takes,
with every engine audit armed), and the next starts when it ends.  The loop
cycles through the workload's batch until `--seconds` have passed.  A report
is correct when the run raised nothing, every `benign.ok` it carries is true
and, at the seed `digests.json` was recorded for, its SHA-256 matches.
Times are scaled to a reference host speed (see speed.py).

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the loop
untraced, then runs the same scenarios again with spans around each layer,
prints the per-layer metrics and writes the spans to `perfbench/out/`.
The last line of stdout is the result as JSON; the line before it records
the run and the machine it ran on.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
SIDECARS = BENCH / "out"
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """HEAD of the checkout's own git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of the tracelab sources, which identifies the code where no
    git commit is at hand."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "tracelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment() -> dict:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def load_digests(workload: str, seed: int):
    """The committed report digests for this workload, if recorded at `seed`."""
    corpus = json.loads(DIGESTS.read_text())
    if corpus["seed"] != seed:
        return None
    return corpus["workloads"][workload]


def report_ok(report: dict, out: str, index: int, digests) -> bool:
    """Verdict and digest check of one machine report."""
    if not all(entry.get("ok") is True for entry in report.get("benign", {}).values()):
        return False
    if digests is None:
        return True
    return index < len(digests) and hashlib.sha256(out.encode()).hexdigest() == digests[index]


def closed_loop(scenarios, texts, digests, probe, *, seconds=None, count=None, tracer=None, on_report=None):
    """Run the batch's scenarios in order, cycling, until `seconds` have
    passed or `count` have run, ticking `probe` between them.  Returns the
    per-scenario times and the number of scenarios that raised or failed
    their check."""
    loads = json.loads if tracer is None else tracer.wrap("json.loads", json.loads)

    def one(text):
        report = scenarios.run_scenario(loads(text))
        return report, scenarios.machine_format(report)

    if tracer is not None:
        one = tracer.wrap("scenario", one)
    times, failed = [], 0
    deadline = None if seconds is None else time.perf_counter() + seconds
    i = 0
    while count is None or i < count:
        index = i % len(texts)
        if tracer is not None:
            tracer.scenario = i
        probe.tick()
        start = time.perf_counter()
        try:
            report, out = one(texts[index])
        except Exception:
            report = out = None
            traceback.print_exc()
        end = time.perf_counter()
        times.append(end - start)
        if report is None or not report_ok(report, out, index, digests):
            failed += 1
            print(f"scenario {index} of the batch failed its check", file=sys.stderr)
        elif on_report is not None:
            on_report(report, out)
        i += 1
        if deadline is not None and end >= deadline:
            break
    probe.sample()
    return times, failed


def set_up(workloads, args, probe, wrap=None):
    """Build the batch, ticking `probe` between scenarios; returns the
    texts and the time their generation and serialisation took."""
    batch, seconds = [], 0.0
    pending = workloads.texts(args.workload, args.seed, wrap=wrap)
    while True:
        probe.tick()
        start = time.perf_counter()
        text = next(pending, None)
        seconds += time.perf_counter() - start
        if text is None:
            return batch, seconds
        batch.append(text)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mib() -> float:
    # A per-layer metric, not an end-to-end one: on promo-deep the peak is
    # set by the seed's one most memory-hungry scenario, and ten seeds spread
    # it by 14-23 %.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(args, workloads, scenarios, digests, probe, import_s: float):
    samples, texts = [], None
    for _ in range(SETUP_REPEATS):
        batch, seconds = set_up(workloads, args, probe)
        samples.append(seconds)
        texts = texts or batch
    times, failed = closed_loop(scenarios, texts, digests, probe, seconds=args.seconds)
    scale = probe.factor()
    metrics = {
        "setup_s": metric(scale * (import_s + statistics.median(samples)), "s"),
        "scenarios_per_s": metric((len(times) - failed) / (scale * sum(times)), "1/s"),
        "scenario_s.p50": metric(scale * statistics.median(times), "s"),
    }
    detail = {
        "batch": len(texts),
        "setup_samples_s": [scale * s for s in samples],
        "peak_rss_mib": peak_rss_mib(),
    }
    if len(times) >= 100:
        # The 90th percentile has ten samples beyond it only from 100 on.
        detail["scenario_s.p90"] = scale * statistics.quantiles(times, n=10)[-1]
    return times, failed, metrics, detail


def run_traced(args, workloads, scenarios, digests, probe):
    import counts
    import spans

    tracer = spans.Tracer()

    def traced_generator(make):
        span = tracer.wrap("fuzz.payload", make)

        def generate(rng, index):
            tracer.scenario = index
            return span(rng, index)

        return generate

    texts, _ = set_up(workloads, args, probe, wrap=traced_generator)
    plain_from = len(probe.times)
    plain, plain_failed = closed_loop(scenarios, texts, digests, probe, seconds=args.seconds)
    plain_s = probe.factor(plain_from) * sum(plain)
    traced_from = len(probe.times)
    tally = counts.Counts()

    def on_report(report, out):
        tally.add_report(report, out)
        tally.add_tables(tracer.parsed_tables)
        tracer.parsed_tables.clear()

    with spans.instrumented(tracer):
        traced, traced_failed = closed_loop(
            scenarios, texts, digests, probe, count=len(plain), tracer=tracer, on_report=on_report
        )
    scale = probe.factor(traced_from)
    values = tally.values()
    values["tracer.Functional.member.calls"] = tracer.member_calls
    values["trace.overhead_s"] = scale * sum(traced) - plain_s
    layers = spans.layer_totals(tracer.spans, scale)
    metrics = {}
    for name, totals in layers.items():
        metrics[f"{name}.self_s"] = metric(totals["self_s"], "s")
        metrics[f"{name}.calls"] = metric(totals["calls"], "count")
    for name, unit in counts.UNITS.items():
        metrics[name] = metric(values[name], unit)
    metrics["peak_rss_mib"] = metric(peak_rss_mib(), "MiB")
    sidecar = SIDECARS / f"{args.workload}-seed{args.seed}-trace.json"
    spans.write_sidecar(
        sidecar,
        tracer,
        {
            "workload": args.workload,
            "seed": args.seed,
            "scenarios": len(traced),
            "untraced_s": plain_s,
            "traced_s": scale * sum(traced),
            "counts": values,
            "layers": layers,
            "environment": environment(),
            "speed_factor": scale,
        },
    )
    detail = {"batch": len(texts), "sidecar": str(sidecar.relative_to(ROOT))}
    return plain + traced, plain_failed + traced_failed, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tracelab" / "__init__.py").is_file():
        print(f"error: no tracelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    probe = SpeedProbe()
    start = time.perf_counter()
    import workloads  # imports tracelab: part of the set-up time
    from tracelab import scenarios

    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    digests = load_digests(args.workload, args.seed)
    if args.trace:
        times, failed, metrics, detail = run_traced(args, workloads, scenarios, digests, probe)
    else:
        times, failed, metrics, detail = run_untraced(args, workloads, scenarios, digests, probe, import_s)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "scenarios": len(times),
                "digests_compared": digests is not None,
                **detail,
                "probes": len(probe.times),
                "speed_factor": probe.factor(),
                "environment": environment(),
            }
        )
    )
    print(json.dumps({"correct": failed == 0, "attempted": len(times), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
