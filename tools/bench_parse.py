#!/usr/bin/env python3
"""Time problem-file parsing and writing, ``problems.parse_problem`` and
``problems.serialize_problem``, per kind of file.

    python3 tools/bench_parse.py
    python3 tools/bench_parse.py --against OTHER_SRC

Imports ``gendual`` from the ``src`` directory next to this script, so a
copy of the script placed in another checkout times that checkout.  With
``--against``, it also loads the ``gendual`` package under OTHER_SRC (a
``src`` directory, such as one of a ``git archive`` of another commit)
under another package name, and times the two trees in one process, their
samples interleaved, so that both see the same state of the host.  Writes
``BENCH_parse.json`` at the root of the checkout and prints one markdown
table per function.  Standard library only; about 15 s, or 30 s with
``--against``, on a 2 vCPU host.

Each file is a transform input: |U| = |X| = |Y| = n, n in 4, 16, 64, 128
and 256, with a coupling and a Rockafellian table, 10% of each table's
entries -inf and 10% +inf.  The kinds of file:

  - ``integer``: integers in [-10, 10] written as doubles ("3.0"), in the
    two-space indent layout of ``json.dumps(..., indent=2)``, as perfbench
    and ``serialize_problem`` write them;
  - ``compact``: the same tables in the layout of ``json.dumps`` with
    separators "," and ":", one line;
  - ``fractional``: k/10 + U[0, 1) for k in [-100, 100], 17 digits a
    double, in the indent layout;
  - ``mixed``: an integer coupling and a fractional Rockafellian, in the
    indent layout.

The figure is CPU ms per call, the best of 21 samples, each sample a loop
of calls lasting at least about 5 ms.  With ``--against``, each cell also
gives the other tree's best, the change, and the other tree's spread.  The
change is the median, over the 21 pairs of samples taken one after the
other, of this tree's time over the other's, less 1; pairing cancels most
of the host's slow phases.  The spread is the distance between the
quartiles of the other tree's samples, as a share of their median.  Each parse is checked, outside the timed region, against
``read_json`` and the per-row ``_row`` path, and against the other tree,
by ``float.hex`` of every entry.  The JSON records which tables the table
reader took (``read``); a checkout without the reader reads every file
through json."""

import importlib
import importlib.util
import json
import math
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gendual import problems  # noqa: E402

INF = math.inf
WIDTHS = (4, 16, 64, 128, 256)
KINDS = ("integer", "compact", "fractional", "mixed")
TABLES = ("coupling", "rockafellian")
REPEAT = 21
MIN_SAMPLE_NS = 5_000_000
SEED = 17


def entry(rng, fractional):
    t = rng.random()
    if t < 0.1:
        return "-inf"
    if t < 0.2:
        return "inf"
    if fractional:
        return rng.randint(-100, 100) / 10 + rng.random()
    return float(rng.randint(-10, 10))


def problem_text(rng, n, kind):
    tables = {key: [[entry(rng, kind == "fractional" or (kind == "mixed" and key != "coupling"))
                     for _ in range(n)] for _ in range(n)]
              for key in TABLES}
    doc = {"comment": f"bench_parse {kind} n = {n}",
           "sets": {key: [f"{key.lower()}{i}" for i in range(n)] for key in "UXY"},
           **tables}
    if kind == "compact":
        return json.dumps(doc, separators=(",", ":"))
    return json.dumps(doc, indent=2) + "\n"


def load_tree(src):
    """The ``problems`` module of the ``gendual`` package under ``src``,
    loaded as the package ``gendual_against``."""
    package = Path(src).resolve() / "gendual"
    spec = importlib.util.spec_from_file_location(
        "gendual_against", package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return importlib.import_module("gendual_against.problems")


def json_path(text):
    """``parse_problem`` with the table reader switched off, if there is
    one."""
    reader = getattr(problems, "_read_tables", None)
    if reader is None:
        return problems.parse_problem(text)
    problems._read_tables = lambda text: None
    try:
        return problems.parse_problem(text)
    finally:
        problems._read_tables = reader


def tables_read(text):
    """The tables the table reader took, as rows of tuples."""
    read = getattr(problems, "_read_tables", lambda text: None)(text)
    if read is None:
        return []
    return [key for key in TABLES if type(read[0][key][0]) is tuple]


def hexes(problem):
    return [[v.hex() for v in row]
            for table in (problem.coupling, problem.rockafellian) for row in table.rows]


def samples_ms(calls):
    """REPEAT CPU ms per call of each function in ``calls``, their samples
    interleaved; the number of calls a sample makes is set on the first."""
    def sample(call, count):
        t = time.process_time_ns()
        for _ in range(count):
            call()
        return time.process_time_ns() - t

    count = 1  # doubled until a sample lasts MIN_SAMPLE_NS
    while count < 1 << 16 and sample(calls[0], count) < MIN_SAMPLE_NS:
        count *= 2
    out = [[] for _ in calls]
    for _ in range(REPEAT):
        for times, call in zip(out, calls):
            times.append(sample(call, count) / count / 1e6)
    return out


def spread(times):
    """The distance between the quartiles of ``times``, as a share of
    their median."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return (q3 - q1) / median


def main(argv) -> None:
    if argv and (len(argv) != 2 or argv[0] != "--against"):
        sys.exit(__doc__.split("\n\n")[1])
    other = load_tree(argv[1]) if argv else None
    trees = [other, problems] if other else [problems]
    rng = random.Random(SEED)
    results = []
    start = time.perf_counter()
    for n in WIDTHS:
        for kind in KINDS:
            text = problem_text(rng, n, kind)
            parsed = [tree.parse_problem(text) for tree in trees]
            if hexes(parsed[-1]) != hexes(json_path(text)):
                raise AssertionError(f"{kind} n = {n}: the reader differs from json")
            if hexes(parsed[0]) != hexes(parsed[-1]):
                raise AssertionError(f"{kind} n = {n}: the trees differ")
            result = {"kind": kind, "width": n, "chars": len(text), "read": tables_read(text)}
            for key, calls in (
                    ("parse", [lambda tree=tree: tree.parse_problem(text) for tree in trees]),
                    ("serialize", [lambda tree=tree, problem=problem: tree.serialize_problem(
                        problem) for tree, problem in zip(trees, parsed)])):
                *against, times = samples_ms(calls)
                result[key + "_ms"] = round(min(times), 4)
                if against:
                    result[key + "_against_ms"] = round(min(against[0]), 4)
                    result[key + "_change"] = round(statistics.median(
                        map(float.__truediv__, times, against[0])) - 1, 4)
                    result[key + "_against_spread"] = round(spread(against[0]), 4)
            results.append(result)
    out = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "timer": "time.process_time_ns, best of %d samples" % REPEAT,
        "against": argv[1] if argv else None,
        "seconds": round(time.perf_counter() - start, 1),
        "results": results,
    }
    (ROOT / "BENCH_parse.json").write_text(json.dumps(out, indent=2) + "\n")
    for key in ("parse", "serialize"):
        print(f"\nCPU ms per {key} call, best of {REPEAT}"
              + (" (* the table reader took both tables, ~ one)" if key == "parse" else ""))
        if other:
            print("other tree -> this tree (change; the other tree's quartile spread)")
        print("| file | " + " | ".join(f"n = {n}" for n in WIDTHS) + " |")
        print("| --- |" + " --- |" * len(WIDTHS))
        for kind in KINDS:
            cells = []
            for r in results:
                if r["kind"] != kind:
                    continue
                cell = f"{r[key + '_ms']:.4g}"
                if key == "parse":
                    cell += {2: "*", 1: "~", 0: ""}[len(r["read"])]
                if other:
                    was = r[key + "_against_ms"]
                    cell = (f"{was:.4g} -> {cell} ({r[key + '_change']:+.1%};"
                            f" {r[key + '_against_spread']:.1%})")
                cells.append(cell)
            print(f"| {kind} | " + " | ".join(cells) + " |")
    print(f"\nwrote {ROOT / 'BENCH_parse.json'} in {out['seconds']} s")


if __name__ == "__main__":
    main(sys.argv[1:])
