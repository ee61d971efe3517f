"""Scaling measured times to a reference host speed.

The host's speed drifts: on the 2-core VM this benchmark was tuned on, the
same pure-Python loop took anywhere from 0.6 s to 1.05 s within one minute,
and ten runs of one workload spread by 17-25 % (quartile distance over
median) from that alone.  That is more than the changes the benchmark is
meant to show.  So between pieces of measured work a probe, a fixed piece of
interpreter work that uses no tracelab code, is timed at most every
PROBE_EVERY_S, and every time a run reports is scaled by PROBE_REFERENCE_S
over the probe's mean time in that run.  A reported second is a second at
the speed where the probe takes PROBE_REFERENCE_S.

Each probe keeps the fastest of three back-to-back runs, and a run is
scaled by the mean of its probes, not their median: slow spells slow the
measured work too.  On ten runs of synth-h500 that were spread by 17 %,
scaling by the mean cut the spread to 7 %; scaling by the median did not cut
it at all.
"""
from __future__ import annotations

import statistics
import time

PROBE_EVERY_S = 0.05
PROBE_REFERENCE_S = 0.001


def _probe_work() -> int:
    """Fixed str, dict, int and sort work, like tracelab's but not its code,
    so no change to tracelab moves its time."""
    table = {}
    total = 0
    for i in range(1, 1000):
        word = format(i, "b")
        table[word] = (i * 2654435761) % 1000003
        total += len(word.replace("0", ""))
    for _, value in sorted(table.items()):
        total += value % 7
    return total


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self._last = 0.0
        self.sample()

    def sample(self) -> None:
        """Time the probe: the fastest of three back-to-back runs, which
        drops a run an interrupt happened to hit."""
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _probe_work()
            self._last = time.perf_counter()
            best = min(best, self._last - start)
        self.times.append(best)

    def tick(self) -> None:
        """Probe if the last probe is PROBE_EVERY_S old; call it between
        pieces of measured work."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def factor(self, since: int = 0) -> float:
        """Scale for times measured after the first `since` probes."""
        return PROBE_REFERENCE_S / statistics.fmean(self.times[since:])
