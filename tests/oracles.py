"""Brute-force reference definitions that the fast paths are tested against."""
from tracelab.approximations import WordApproximation


def scan_readable_depth(appr: WordApproximation, stage: int) -> int:
    """Greatest b < stage with every cell of the square u, x <= b readable at
    wall `stage`, found by checking every cell of every candidate square;
    0 when no such b exists."""
    top = min(stage - 1, appr.horizon - 1, appr.width - 1)
    for b in range(top, -1, -1):
        if all(appr.readable(u, x, stage) for u in range(b + 1) for x in range(b + 1)):
            return b
    return 0
