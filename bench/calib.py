"""A fixed reference kernel, timed between passes to follow the host's speed.

It uses only the standard library and none of the package, so a change to
the package cannot move it.  It mixes the kinds of work the package does:
tuple building and hashing, dict lookups, integer arithmetic, sorting.
"""

import time

# The kernel's 10th-percentile time on the host the benchmark was written on
# (an Intel Xeon guest with 2 cores, Python 3.11).  Timings are scaled to it.
REFERENCE_S = 0.0024


def kernel() -> int:
    seen = {}
    acc = 0
    for i in range(3000):
        key = (i % 31, (i * 7) % 37, i & 3)
        seen[key] = seen.get(key, 0) + i
        acc += key[0] * key[1] - key[2]
    order = sorted(seen, key=lambda k: (k[2], -k[0], k[1]))
    return acc + order[0][0] + len(order)


def timings(count: int) -> list[float]:
    clock = time.perf_counter
    out = []
    for _ in range(count):
        start = clock()
        kernel()
        out.append(clock() - start)
    return out


def scale(timings_s: list[float]) -> float:
    """Factor that turns times measured alongside these kernel timings into
    times at the reference speed: REFERENCE_S over their 10th percentile.
    The percentile follows the host's slow spells better than the minimum,
    which a few quiet moments set."""
    ordered = sorted(timings_s)
    return REFERENCE_S / ordered[len(ordered) // 10]
