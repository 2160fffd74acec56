#!/usr/bin/env python3
"""Time the kernel, ``extreal.conjugate_product``, per class of kernel row.

    python3 tools/bench_kernel.py

Imports ``gendual`` from the ``src`` directory next to this script, so a
copy of the script placed in another checkout times that checkout.  Writes
``BENCH_kernel.json`` at the root of the checkout and prints one table per
view state.  Standard library only; about 11 s on a 2 vCPU host.

Each call is one product of 8 rows of one class over a square view of n
lines of n entries, n in 4, 16, 17, 64 and 256: both sides of
``extreal._SCAN_WIDTH`` = 16.  The lines hold integers in [-10, 10] with
10% of each infinity, as perfbench's tables do, except where a class says
otherwise.  The row classes:

  - ``plus``: +inf everywhere, an empty domain;
  - ``minus``: -inf everywhere, an unbounded decision;
  - ``reach_all``: integers with 10% +inf, and -inf at indices added until
    those entries reach every line;
  - ``reach_some``: the same with -inf at one index, where half the lines
    are -inf too, so that those lines are left to the scan;
  - ``few``: +inf but for ``_few(n)`` integers;
  - ``few_plus_1``: +inf but for ``_few(n)`` + 1 integers;
  - ``fractional``: uniform doubles in [-10, 10) over a coupling of
    k/10 + U[0, 1) entries, no infinity anywhere;
  - ``dense``: integers with 10% +inf and one -inf, over a coupling with
    30% -inf and 5% +inf, the shape on which the bitsets cost more than
    they save.

Each class is timed on a fresh view, whose lazy devices (``reach``,
``above``, ``pairs``) the call builds, and on a view that has already run
the same call, so that only the rows' own work is timed.  The figure is
CPU time per kernel row in microseconds, the best of 7 samples, each
sample a loop of calls lasting at least about 10 ms.  Each product is
checked, outside the timed region, against the lower Moreau sum taken
entry by entry, and the JSON records which devices each view built."""

import json
import math
import platform
import random
import sys
import time
from operator import sub
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gendual.extreal import _few, conjugate_product, descending  # noqa: E402

INF = math.inf
WIDTHS = (4, 16, 17, 64, 256)
ROWS = 8
REPEAT = 7
MIN_SAMPLE_NS = 10_000_000
SEED = 13


def lines_of(rng, n, minus, plus, finite):
    def entry():
        t = rng.random()
        return -INF if t < minus else INF if t < minus + plus else finite()
    return tuple(tuple(entry() for _ in range(n)) for _ in range(n))


def integer_row(rng, n):
    return [INF if rng.random() < 0.1 else float(rng.randint(-10, 10)) for _ in range(n)]


def minus_at(f, k):
    f[k] = -INF
    return f


def plus_but(rng, n, count):
    f = [INF] * n
    for k in rng.sample(range(n), min(n, count)):
        f[k] = float(rng.randint(-10, 10))
    return f


def reach_all_row(rng, lines):
    f = integer_row(rng, len(lines[0]))
    left = set(range(len(lines)))
    for k in rng.sample(range(len(f)), len(f)):
        if not left:
            break
        f[k] = -INF
        left -= {j for j in left if lines[j][k] > -INF}
    return f


def cases(rng, n):
    """(class, lines, rows) for the square view of n lines."""
    base = lines_of(rng, n, 0.1, 0.1, lambda: float(rng.randint(-10, 10)))
    few = _few(n)
    yield "plus", base, [[INF] * n for _ in range(ROWS)]
    yield "minus", base, [[-INF] * n for _ in range(ROWS)]
    yield "reach_all", base, [reach_all_row(rng, base) for _ in range(ROWS)]
    k0 = rng.randrange(n)
    halved = tuple(line[:k0] + (-INF,) + line[k0 + 1:] if j % 2 else line
                   for j, line in enumerate(base))
    yield "reach_some", halved, [minus_at(integer_row(rng, n), k0) for _ in range(ROWS)]
    yield "few", base, [plus_but(rng, n, few) for _ in range(ROWS)]
    yield "few_plus_1", base, [plus_but(rng, n, few + 1) for _ in range(ROWS)]
    finite = lines_of(rng, n, 0.0, 0.0, lambda: rng.randint(-100, 99) / 10 + rng.random())
    yield "fractional", finite, [[rng.uniform(-10.0, 10.0) for _ in range(n)]
                                 for _ in range(ROWS)]
    dense = lines_of(rng, n, 0.3, 0.05, lambda: float(rng.randint(-10, 10)))
    yield "dense", dense, [minus_at(integer_row(rng, n), rng.randrange(n))
                           for _ in range(ROWS)]


def reference(rows, lines):
    # sup over k of b[k] lower-add -f[k]: the IEEE difference, NaN read as -inf
    return [[max((v if v == v else -INF) for v in map(sub, b, f)) for b in lines]
            for f in rows]


def best_ns_per_call(rows, lines, fresh):
    """Best of REPEAT samples of CPU ns per call, and the devices built."""
    view = descending(lines)
    if conjugate_product(rows, view) != reference(rows, lines):
        raise AssertionError("kernel differs from the entry-by-entry sum")
    built = sorted(k for k in ("reach", "above", "pairs") if k in vars(view))

    def sample(calls):
        views = [descending(lines) if fresh else view for _ in range(calls)]
        t = time.process_time_ns()
        for v in views:
            conjugate_product(rows, v)
        return time.process_time_ns() - t

    calls = 1  # doubled until a sample lasts MIN_SAMPLE_NS
    while calls < 1 << 16 and sample(calls) < MIN_SAMPLE_NS:
        calls *= 2
    return min(sample(calls) for _ in range(REPEAT)) / calls, built


def main() -> None:
    rng = random.Random(SEED)
    results = []
    start = time.perf_counter()
    for n in WIDTHS:
        for name, lines, rows in cases(rng, n):
            for state in ("fresh", "sorted"):
                ns, built = best_ns_per_call(rows, lines, state == "fresh")
                results.append({"class": name, "width": n, "view": state,
                                "us_per_row": round(ns / ROWS / 1000, 3),
                                "built": built})
    out = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "timer": "time.process_time_ns, best of %d samples" % REPEAT,
        "rows_per_call": ROWS,
        "few": {str(n): _few(n) for n in WIDTHS},
        "seconds": round(time.perf_counter() - start, 1),
        "results": results,
    }
    (ROOT / "BENCH_kernel.json").write_text(json.dumps(out, indent=2) + "\n")
    names = list(dict.fromkeys(r["class"] for r in results))
    for state in ("fresh", "sorted"):
        print(f"\nCPU us per kernel row, {state} view, best of {REPEAT}")
        print("| class | " + " | ".join(f"n = {n}" for n in WIDTHS) + " |")
        print("| --- |" + " --- |" * len(WIDTHS))
        for name in names:
            cells = [f"{r['us_per_row']:g}" for r in results
                     if r["class"] == name and r["view"] == state]
            print(f"| {name} | " + " | ".join(cells) + " |")
    print(f"\nwrote {ROOT / 'BENCH_kernel.json'} in {out['seconds']} s")


if __name__ == "__main__":
    main()
