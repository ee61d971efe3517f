"""Record the report-digest corpus: the SHA-256 of every scenario's machine
report in each workload's batch at the default seed.

    python3 perfbench/record_digests.py

Re-record only when a change is meant to alter reports, and say so; the
benchmark counts every report that differs from the corpus as failed.
"""
from __future__ import annotations

import hashlib
import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the source path above)
from tracelab import scenarios  # noqa: E402


def main() -> None:
    corpus = {
        "seed": workloads.DEFAULT_SEED,
        "commit": run.git_commit(),
        "source_sha256": run.source_sha256(),
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        digests = []
        for text in workloads.build(name, workloads.DEFAULT_SEED):
            out = scenarios.machine_format(scenarios.run_scenario(json.loads(text)))
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        corpus["workloads"][name] = digests
        print(f"{name}: {len(digests)} reports", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(corpus, indent=1) + "\n")


if __name__ == "__main__":
    main()
