"""Machine-speed correction for the end-to-end times.

The speed of a shared machine drifts by tens of percent within seconds, as
other tenants come and go. The benchmark therefore runs a fixed reference
work, which uses nothing from growingtrees, between operations, and scales
each operation's wall time by REFERENCE_S over the reference time measured
around it. The result is the time the operation would take on a machine
where the reference work takes REFERENCE_S; a change to growingtrees moves
it exactly as it moves wall time, while drift common to both cancels.
"""

from __future__ import annotations

import statistics
from math import comb
from time import perf_counter

REFERENCE_S = 0.006
# Reference timings on each side of an operation that set its correction.
NEIGHBOURS = 3


def reference_seconds() -> float:
    """Time one run of the reference work: a bytecode loop, big-integer
    products kept in a dict, and a pass over a list too large for the
    caches. Together they track the workloads' own slowdowns more closely
    than any one of them does alone."""
    start = perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    table: dict[tuple[int, int], int] = {}
    for i in range(400):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + comb(300 + i % 64, 90) * i
    values = list(range(60000))
    values.reverse()
    sum(values[::7])
    return perf_counter() - start


def corrected(seconds: list[float], references: list[float]) -> list[float]:
    """Scale op i's time by the median of the reference timings around it.

    references[i] is measured just before op i and references[i + 1] just
    after it, so there is one more reference than there are ops.
    """
    out = []
    for i, value in enumerate(seconds):
        window = references[max(0, i + 1 - NEIGHBOURS): i + 1 + NEIGHBOURS]
        out.append(value * REFERENCE_S / statistics.median(window))
    return out
