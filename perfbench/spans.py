"""In-memory spans around the calls into tracelab's layers.

The traced run replaces, for its duration, the module or class attributes
through which tracelab's layers call each other with wrappers that record a
span: name, start and end (`perf_counter_ns`), the index of the enclosing
span and the scenario it belongs to.  No tracelab source changes, and nothing
recorded here reaches a machine report.

A layer's self time is its spans' durations minus the time their child
spans cover, so the self times of one span tree sum to its root's duration.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (module, attribute its callers look up, span name).  Functions imported by
# name are wrapped where they were imported to: `promotion` calls its own
# `oracle_step` and `marker_sequence`, `scenarios` its own
# `build_promotion_engine` and `audit_requirement`.
TARGETS = [
    ("tracelab.scenarios", "run_scenario", "scenarios.run_scenario"),
    ("tracelab.scenarios", "machine_format", "scenarios.machine_format"),
    ("tracelab.scenarios", "build_promotion_engine", "promotion.build_engine"),
    ("tracelab.scenarios", "audit_requirement", "synthesis.audit_requirement"),
    ("tracelab.costs", "parse_cost_table", "costs.parse_cost_table"),
    ("tracelab.costs", "marker_sequence", "costs.marker_sequence"),
    ("tracelab.promotion", "marker_sequence", "costs.marker_sequence"),
    ("tracelab.approximations", "parse_word_approx", "approximations.parse_word_approx"),
    ("tracelab.synthesis", "change_set", "approximations.change_set"),
    ("tracelab.synthesis", "SynthesisRun.run", "synthesis.SynthesisRun.run"),
    ("tracelab.promotion", "PromotionEngine.run", "promotion.PromotionEngine.run"),
    ("tracelab.promotion", "PromotionEngine.extract_approximation", "promotion.extract_approximation"),
    ("tracelab.promotion", "PromotionEngine.uniqueness_sweep", "promotion.uniqueness_sweep"),
    ("tracelab.promotion", "oracle_step", "tracer.oracle_step"),
    ("tracelab.tracer", "Environment.capacity_report", "tracer.Environment.capacity_report"),
]

# Spans the benchmark records from its own code, then the wrapped layers.
SPAN_NAMES = ["fuzz.payload", "scenario", "json.loads"] + list(
    dict.fromkeys(name for _, _, name in TARGETS)
)

SPAN_FIELDS = ["name", "start_ns", "end_ns", "parent", "scenario"]


class Tracer:
    """Collects spans in memory; `scenario` tags every span opened while it
    is set."""

    def __init__(self):
        self.spans: list[list] = []  # rows in SPAN_FIELDS order
        self.scenario = None
        self.member_calls = 0  # tracer.Functional.member, counted without a span
        self.parsed_tables: list[str] = []  # cost-table texts, for input statistics
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, clock(), None, open_spans[-1] if open_spans else None, self.scenario]
            open_spans.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                open_spans.pop()

        return traced


def _resolve(module: str, attribute: str):
    """(owner, name) for a dotted attribute, or None if it no longer exists."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, name):
        return None
    return owner, name


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every target (and count `Functional.member` calls) while the
    block runs; a target that no longer exists is skipped and reads zero."""
    patched = []
    for module, attribute, name in TARGETS:
        found = _resolve(module, attribute)
        if found is None:
            continue
        owner, attr = found
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original)
        if name == "costs.parse_cost_table":
            wrapped = _noting_text(tracer, wrapped)
        patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)
    found = _resolve("tracelab.tracer", "Functional.member")
    if found is not None:
        owner, attr = found
        original = getattr(owner, attr)
        patched.append((owner, attr, original))
        setattr(owner, attr, _counting(tracer, original))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _noting_text(tracer: Tracer, parse):
    @functools.wraps(parse)
    def noted(text, *args, **kwargs):
        tracer.parsed_tables.append(text)
        return parse(text, *args, **kwargs)

    return noted


def _counting(tracer: Tracer, member):
    @functools.wraps(member)
    def counted(*args, **kwargs):
        tracer.member_calls += 1
        return member(*args, **kwargs)

    return counted


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_totals(spans: list[list], scale: float = 1.0) -> dict[str, dict]:
    """Per span name: the number of calls and the total self time in
    seconds, times `scale`."""
    totals = {name: {"self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
    for row, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(row[0], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own / 1e9 * scale
        entry["calls"] += 1
    return totals


def write_sidecar(path, tracer: Tracer, record: dict) -> None:
    """The caller's `record` and the raw spans as one JSON file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        json.dump(dict(record, span_fields=SPAN_FIELDS, spans=tracer.spans), out)
