"""Machine-speed reference for the op and set-up times.

On a host with shared cores the speed of the same code changes by tens of
percent for minutes at a time, and every timing moves with it.  Each run
therefore times passes of this fixed workload next to what it measures, and
run.py scales op and set-up times by ``factor``: to the time they would
take on a machine where one pass takes REFERENCE_S.  A change to the
package does not cancel out, because this workload shares no code with it.
It mimics the package's hot loops: calls, attribute loads on slotted
objects, comparisons and small allocations.

The passes gain more from a fast host phase than the package does.  On a
2-vCPU Xeon VM with Python 3.11, runs that straddled a change of phase saw
a pass speed up 1.65x while fuzz and audit ops sped up 1.45x to 1.55x, so
the factor is the speed ratio raised to EXPONENT = 0.75 (1.65**0.75 = 1.46).
"""

import random
import statistics
import time

REFERENCE_S = 0.02
EXPONENT = 0.75


class _Point:
    __slots__ = ("kind", "value")

    def __init__(self, kind, value):
        self.kind = kind
        self.value = value


def _before(a, b):
    return a.kind < b.kind or (a.kind == b.kind and a.value < b.value)


def one_pass(n=512, window=256):
    rng = random.Random(0)
    points = [_Point(rng.randint(-1, 1), float(rng.randint(-10, 10)))
              for _ in range(n)]
    out = []
    for a in points:
        best = a
        for b in points[:window]:
            if _before(best, b):
                best = b
        out.append(_Point(best.kind, best.value + a.value))
    return out


def factor(pass_times):
    """Multiplier taking times measured next to ``pass_times`` to the
    reference speed; the mean, because an op integrates the speed over its
    whole length."""
    return (REFERENCE_S / statistics.mean(pass_times)) ** EXPONENT


def passes(count):
    """Seconds of each of ``count`` passes."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        one_pass()
        times.append(time.perf_counter() - start)
    return times
