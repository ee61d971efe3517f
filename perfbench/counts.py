"""Work counts the traced run reads off machine reports and parsed table
texts; none of them needs a hook inside tracelab."""
from __future__ import annotations

# name -> unit; a share is the ratio of two sums.
UNITS = {
    "costs.parse_cost_table.cells": "count",
    "costs.parse_cost_table.distinct_row_share": "share",
    "synthesis.stages": "count",
    "synthesis.doublings": "count",
    "synthesis.extensions": "count",
    "synthesis.halted": "count",
    "synthesis.audits": "count",
    "promotion.stages": "count",
    "promotion.conflicts": "count",
    "promotion.witness_audits": "count",
    "promotion.dropped_share": "share",
    "tracer.Functional.member.calls": "count",
    "tracer.classes": "count",
    "tracer.candidate_yield": "share",
    "scenarios.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Counts:
    def __init__(self):
        self.sums = dict.fromkeys(
            [
                "cells", "rows", "distinct_rows", "synthesis.stages", "synthesis.doublings",
                "synthesis.extensions", "synthesis.halted", "synthesis.audits",
                "promotion.stages", "promotion.conflicts", "promotion.witness_audits",
                "promoted", "dropped", "tracer.classes", "candidates", "enumerations",
                "scenarios.report_bytes",
            ],
            0,
        )

    def add_tables(self, texts: list[str]) -> None:
        """Cost-table texts as `costs.parse_cost_table` received them."""
        for text in texts:
            lines = [line for line in text.splitlines() if line.strip()]
            stages, width = (int(v) for v in lines[0].split())
            self.sums["cells"] += stages * width
            self.sums["rows"] += len(lines) - 1
            self.sums["distinct_rows"] += len(set(lines[1:]))

    def add_report(self, report: dict, out: str) -> None:
        s = self.sums
        s["scenarios.report_bytes"] += len(out.encode())
        if report["kind"] == "synth":
            halted = report["halted_at"]
            # The stage loop runs stages 1.. and stops after the halting one.
            s["synthesis.stages"] += report["parameters"]["horizon"] - 1 if halted is None else halted
            s["synthesis.doublings"] += len(report["doubling_stages"])
            s["synthesis.extensions"] += len(report["speedup"]) - 1
            s["synthesis.halted"] += halted is not None
            s["synthesis.audits"] += sum("skipped" not in audit for audit in report["audits"])
        elif report["kind"] == "boxpromo":
            stages = report["stages"]
            s["promotion.stages"] += len(stages)
            s["promotion.conflicts"] += report["tallies"]["conflicts"]
            s["promotion.witness_audits"] += len(report["witness_audits"])
            s["promoted"] += sum(len(p["lengths"]) for stage in stages for p in stage["promotions"])
            s["dropped"] += sum(len(stage["dropped"]) for stage in stages)
            s["tracer.classes"] += sum(report["tallies"]["class_family"].values())
            s["candidates"] += sum(len(stage["new_candidates"]) for stage in stages)
            s["enumerations"] += sum(len(stage["enumerations"]) for stage in stages)

    def values(self) -> dict:
        s = self.sums

        def share(part, whole):
            return s[part] / s[whole] if s[whole] else 0.0

        out = {name: value for name, value in s.items() if name in UNITS}
        out["costs.parse_cost_table.cells"] = s["cells"]
        out["costs.parse_cost_table.distinct_row_share"] = share("distinct_rows", "rows")
        out["promotion.dropped_share"] = share("dropped", "promoted")
        out["tracer.candidate_yield"] = share("candidates", "enumerations")
        return out
