#!/usr/bin/env python3
"""Check that two source trees of gendual behave byte for byte alike, or
that one tree behaves as the record in tests/same_output.json says.

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC
    python3 tools/same_output.py --record SRC

Each SRC argument is a ``src`` directory holding a ``gendual`` package.
The script writes one set of input files, then runs the same command list
against each tree, in a fresh interpreter with that tree first on
``sys.path``, calling ``gendual.cli.main`` in-process for each command:

  - ``gendual -h``, ``-h`` of each command, and usage errors: no command,
    an unknown one, one bad or missing argument per command, and a fuzz
    grid and infinity share out of range;
  - every command in the text, csv and structured formats on the gallery
    under problems/ and on seeded random R, L and couple files at
    n = 4, 16, 64 and 256, with integer literals, fractional, signed-zero
    and wide entries, each family with 10% of each infinity; on the
    gallery, ``conjugate --side dual`` also runs on a function whose first
    entry is -2, spelled ``--function -2,...``;
  - the transforms again with ``--output``, and a canonical couple built
    from their output files;
  - ``check-couple`` at ``--tol 0`` on the random couple files and the
    built couples, so that audit witnesses found off the exact row compare
    are compared too;
  - ``check-couple`` in every format, at the default tol and at ``--tol 0``,
    on the gallery pair e1.json with e1_lagrangian.json, on e1.json with a
    copy of e1_lagrangian.json whose coupling has one entry raised by 0.5
    (a domain error at both tols, and an audit at ``--tol 1``), and on
    copies of the built couples at n = 16 and 64 with one entry of R or of L raised
    in a middle row (the ``raise`` step below), so that minimality and
    row-item witnesses beyond the first decision are compared, and with an
    entry of R raised in row n/4 and one of L in row 3n/4, so that item
    (ii)'s witness is its first failing decision, n/4, and names R, and at
    n = 4 on the signed-zero couple with an L entry of 0 raised, so that an
    item (ii) witness prints an inf-transform entry of 0.0;
  - at n = 4 and 16, tables with rows fixed at an infinity: an infeasible
    decision (a row of R that is +inf everywhere), an unbounded one (a row
    of -inf), rows of L likewise, and a coupling whose last row and column
    are -inf.  They go through both transforms with ``--output``,
    ``check-couple`` of the couple built from those files and of the raw
    pair, ``conjugate`` of a function that is +inf or -inf everywhere on
    each side, and ``weak-duality`` at every base point, also with the
    unbounded decision made infeasible;
  - at n = 4 and 16, near-overflow tables, finite entries of magnitude
    0.85e308 to 1.7e308 with 10% of each infinity, where a finite sum or
    difference can overflow.  They go through both transforms with
    ``--output``, ``check-couple`` of the couple built from those files and
    of the raw pair, in every format and at both tols, ``conjugate`` on each
    side, and ``weak-duality`` at every base point;
  - at n = 16 and 128, an L table whose every row mixes -inf with integer
    entries, where item (i)'s inequality reads +inf in -L_u, over a
    coupling without +inf.  R is its Rockafellian, written with
    ``--output``, so that the inequality holds at every decision.
    ``check-couple`` runs in every format and at both tols on that pair, and
    on R with an L whose row 3n/4 has a finite entry raised to 40, so that
    the inequality fails there, after minimality fails at the first
    decision;
  - at n = 16, 64 and 128, indicator tables: rows of R that are +inf
    but for k finite entries, and rows of L that are -inf but for k
    entries, a tenth of them +inf, over an integer coupling with 10% of
    each infinity, for k = 1, 2, 6 and 7, and, after the family below, at
    n = 64 and 128 for k at the kernel's cut-off for few such entries on
    lines of n entries (``extreal._few``: 8 and 12) and one above it.
    They go through both transforms with ``--output``, ``conjugate`` on
    each side of a function that is +inf but for k finite entries (on the
    dual side also one -inf), and ``check-couple`` of the couple built
    from R, of R's transform of L with L itself, and of each with one L
    entry raised in row n/2 (in L itself, a -inf raised to 0);
  - at n = 64, tables on the boundary of the formatting memo, which takes
    one ``float.__repr__`` per distinct double of a table only when its
    first row and the table hold few distinct values: a coupling whose
    first row is one fractional value over fractional rows, with an R
    whose first row is +inf everywhere over fractional rows, and the
    reverse, a fractional first row over rows that are each one value
    (coupling) or +inf everywhere (R).  They go through ``to-lagrangian``
    with ``--output`` in every format, ``to-rockafellian`` of that file
    with ``--output``, and ``check-couple`` of the two files written;
  - malformed variants of a gallery file, one fault each (among them a
    top level that is not an object, a coupling with a row too few, and
    embeddings with a point too few, an empty point and mixed dimensions),
    a ``--function`` file with an entry that is not a number, and variants of
    e1.json and e1_lagrangian.json with an overflowing literal in a row
    that also holds a word ("inf" or "-inf"), in each of the three tables;
  - at n = 64, the boundary of the problem-file reader, which reads wide
    tables token by token and leaves any table it refuses to json: the
    integer R file with one entry of its middle row replaced by each token
    the reader refuses (``READER_FALLBACK_ENTRIES``: words, numbers json
    refuses, numbers beyond the double range, an escaped "inf", a nested
    array, strings holding a comma or a bracket, a form feed or no-break
    space before a number, an Arabic-Indic digit, and a NUL between two
    digits) or spells differently from ``float.__repr__``
    (``READER_ACCEPTED_ENTRIES``), with that row empty, with a trailing
    comma, with a duplicate top-level key and with a byte order mark, each
    through ``to-lagrangian``; the file in the compact and tab layouts,
    also with ``--output``; an integer coupling, which the reader takes,
    with a fractional R, which it leaves to json, with ``--output``; and
    e1.json and the n = 64 file with a label spelled as a lone surrogate
    escape, through ``to-lagrangian`` in every format and with
    ``--output``;
  - ``fuzz --count 1000 --max-set-size 5 --seed s`` for s = 0..9, and
    ``fuzz --count 300 --max-set-size 4 --seed 7 --values F`` for the four
    off-grid value families F, each also with ``--tol 0`` (the integer
    family for s = 0..3), so that every family runs at both tols, and
    ``fuzz --count 300`` at both tols with the grid -2:2, spelled
    ``--grid=-2:2`` and ``--grid -2:2``;
  - ``tools/make_gallery.py``, writing into the work directory.

It compares, command by command, the exit code, stdout, stderr (minus the
``elapsed:`` line that fuzz prints) and the bytes of every file the command
wrote, prints the number of differing commands, each of them and its first
difference (for a text, the number of its first differing line and that line
on each side), and exits 1 if there is any, else 0.  A command that starts
with ``raise`` is a step of this script, not of gendual: it copies a file
the tree wrote, with one table entry raised from a given row on.

``--record`` runs the list on one tree and writes tests/same_output.json:
the Python version, and per command its argv and one sha256 digest of its
exit code, stdout, stderr (minus ``elapsed:``) and written files.
``changed_commands``, which tests/test_same_output.py calls, runs the list
on a tree and names every command whose digest differs from the record.
argparse's help and usage text changes between Python minor versions, so
the record holds for the minor version it was made with.  Needs no numpy.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
GALLERY = TOOLS.parent / "problems"
RECORD = TOOLS.parent / "tests" / "same_output.json"
FORMATS = ("text", "csv", "structured")
SIZES = (4, 16, 64, 256)
RAISED_SIZES = (16, 64)
FIXED_ROW_SIZES = (4, 16)
NEAR_OVERFLOW_SIZES = (4, 16)
MIXED_SIZES = (16, 128)
INDICATOR_SIZES = (16, 64, 128)
INDICATOR_KS = (1, 2, 6, 7)
BOUNDARY_SIZE = 64
# the kernel's cut-off for few entries off the infinities on lines of 64
# and of 128 entries (``extreal._few``), and one more
CUT_OFF_INDICATORS = ((64, 8), (64, 9), (128, 12), (128, 13))
READER_SIZE = 64
INF_SHARE = 0.1
FUZZ_SEEDS = range(10)
FUZZ_TOL0_SEEDS = range(4)
OFF_GRID_FAMILIES = ("fractional", "tiny", "wide", "near-overflow")
COMMANDS = ("conjugate", "to-lagrangian", "to-rockafellian", "check-couple",
            "weak-duality", "fuzz")
# one usage error per command, two without a valid command, and the two
# fuzz settings that are checked for range
USAGE_ERRORS = (
    [],
    ["bogus"],
    ["conjugate", "gallery/e1.json"],
    ["to-lagrangian"],
    ["to-rockafellian", "gallery/e1.json", "--format", "bogus"],
    ["check-couple", "gallery/e1_couple.json", "--tol", "-1"],
    ["weak-duality", "gallery/e1.json", "--tol", "nan"],
    ["fuzz", "--values", "bogus"],
    ["fuzz", "--grid", "3:-3"],
    ["fuzz", "--inf-prob", "0.5"],
)


def _value(rng, family):
    roll = rng.random()
    if roll < INF_SHARE:
        return "-inf"
    if roll < 2 * INF_SHARE:
        return "inf"
    if family == "integer":
        return rng.randint(-10, 10)  # written as a JSON integer literal
    if family == "fractional":
        return rng.randint(-100, 100) / 10 + rng.random()
    if family == "signed_zero":
        return rng.choice((0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.25, -2.5))
    if family == "near_overflow":
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.85e308, 1.7e308)
    return rng.choice((-1.0, 1.0)) * rng.uniform(1e10, 1e15)  # wide


def _table(rng, family, n):
    return [[_value(rng, family) for _ in range(n)] for _ in range(n)]


def _problem(n, coupling, rockafellian=None, lagrangian=None):
    doc = {
        "comment": "same_output input",
        "sets": {key: [f"{key.lower()}{i}" for i in range(n)] for key in "UXY"},
        "coupling": coupling,
    }
    if rockafellian is not None:
        doc["rockafellian"] = rockafellian
    if lagrangian is not None:
        doc["lagrangian"] = lagrangian
    return json.dumps(doc, indent=2) + "\n"


def _fixed_rows(rng, n):
    """Coupling, R and L tables with integer entries, 10% of each infinity,
    and rows fixed at an infinity: row 0 of R and of L is +inf everywhere,
    row 1 is -inf everywhere, and the coupling's last row and column are
    -inf."""
    c, r, lag = (_table(rng, "integer", n) for _ in range(3))
    for row in c:
        row[-1] = "-inf"
    c[-1] = ["-inf"] * n
    for table in (r, lag):
        table[0], table[1] = ["inf"] * n, ["-inf"] * n
    return c, r, lag


def _mixed_rows(rng, n):
    """A coupling of integers with 10% of -inf, an L table of integers with
    -inf at a quarter of the entries of each row, and L with the first
    finite entry of row 3n/4 raised to 40, above every -L(u,y) + R(u,x) of
    the Rockafellian R of L that meets a finite c(x,y)."""
    c = [[rng.randint(-10, 10) if rng.random() >= INF_SHARE else "-inf" for _ in range(n)]
         for _ in range(n)]
    lag = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(n)]
    for row in lag:
        for j in rng.sample(range(n), n // 4):
            row[j] = "-inf"
    raised = [list(row) for row in lag]
    row = raised[3 * n // 4]
    row[next(j for j, v in enumerate(row) if v != "-inf")] = 40
    return c, lag, raised


def _indicator(rng, n, k, rest, p_plus=0.0):
    """A row that is ``rest`` but for k entries, integers or, with
    probability ``p_plus``, +inf."""
    row = [rest] * n
    for j in rng.sample(range(n), k):
        row[j] = "inf" if rng.random() < p_plus else rng.randint(-10, 10)
    return row


def _boundary(rng, n, constant_first):
    """A coupling and an R table of fractional rows with 10% of each
    infinity, except, with ``constant_first``, their first rows: one
    fractional value in the coupling and +inf in R; without it, every row
    but the first: one value per row in the coupling and +inf in R."""
    c, r = _table(rng, "fractional", n), _table(rng, "fractional", n)
    rows = [0] if constant_first else range(1, n)
    for i in rows:
        c[i] = [rng.randint(-100, 100) / 10 + rng.random()] * n
        r[i] = ["inf"] * n
    return c, r


def _function(rng, family, n):
    return ",".join(str(_value(rng, family)) for _ in range(n))


def _malformed(text):
    """Variants of a gallery file with one fault each."""
    out = {}
    for bad in ("true", "null", '"nan"', '"Inf"', "1e400", "-1e400",
                "1" + "0" * 400, "[1]", "{}", '"x"'):
        out[f"entry {bad[:8]}"] = text.replace("5.0", bad, 1)
    out["short row"] = text.replace("5.0,\n      3.0", "5.0", 1)
    out["long row"] = text.replace("5.0,", "5.0, 5.0,", 1)
    out["label number"] = text.replace('"x1"', "1", 1)
    out["no sets"] = text.replace('"sets"', '"sots"', 1)
    for cut in (1, 40, 200, len(text) // 2, len(text) - 3):
        out[f"truncated at {cut}"] = text[:cut]
    out["top level array"] = "[" + text + "]"
    doc = json.loads(text)
    out["short coupling"] = json.dumps({**doc, "coupling": doc["coupling"][:1]})
    del doc["coupling"]
    for label, points in (("few points", [[1.0]]), ("empty point", [[], [1.0]]),
                          ("mixed dimensions", [[1.0], [1.0, 2.0]])):
        out[label] = json.dumps({**doc, "embedding": {"X": points, "Y": [[1.0], [2.0]]}})
    return out


def _overflows_among_words(e1, e1_lagrangian):
    """Variants of e1.json and e1_lagrangian.json, each with an overflowing
    literal in a row that also holds a word, and the command to run on it."""
    lagrangian = e1_lagrangian.index('"lagrangian"')
    head, tail = e1_lagrangian[:lagrangian], e1_lagrangian[lagrangian:]
    return {
        "R 1e400 by inf": ("to-lagrangian", e1.replace(
            '0.0,\n      "inf"', '1e400,\n      "inf"', 1)),
        "R -1e400 by -inf": ("to-lagrangian", e1.replace(
            "5.0,\n      3.0", '"-inf",\n      -1e400', 1)),
        "c 1e309 by inf": ("to-lagrangian", e1.replace(
            "1.0,\n      2.0", '"inf",\n      1e309', 1)),
        "L 1E400 by -inf": ("to-rockafellian", head + tail.replace(
            "2.0,\n      1.0", '"-inf",\n      1E400', 1)),
        "L -1e400 by inf": ("to-rockafellian", head + tail.replace(
            "0.0,\n      0.0", '-1e400,\n      "inf"', 1)),
    }


# Entries of a wide file that the problem-file reader hands to the json
# path: each is valid JSON read as something other than a plain number or
# an infinity word, invalid JSON (among them a non-ASCII digit, which
# ``float`` reads, and a NUL, which the reader joins a row's new tokens
# with), or a number beyond the double range.  The accepted
# entries read as a table entry on either path.
READER_FALLBACK_ENTRIES = (
    "false", "true", "null", "01", "+1", ".5", "5.", "1_0", '"\\u0069nf"', "1e400",
    "1" + "0" * 400, "1" * 4301, "[1]", '"a,b"', '"a]"', "\f3", "\u00a03",
    "\u0661", "1\x002",
)  # the last is 1, a NUL character and 2
READER_ACCEPTED_ENTRIES = ("-0", "-0.0", "-1e-400", "1E2", "2.5e-3",
                           "-1.7976931348623157e308")


def _reader_variants(text):
    """Variants of an integer problem file wide enough for the table
    reader, one fault or one spelling each: an entry of R's middle row
    replaced, the row's other entries set to +inf so that the Lagrangian's
    middle row shows the entry; that row empty; a trailing comma after its last entry; a
    duplicate top-level key; a byte order mark; and the compact and tab
    layouts of the file.  (A CRLF layout cannot reach the parser from a
    file: ``read_text`` reads it with universal newlines.)"""
    doc = json.loads(text)
    middle = len(doc["rockafellian"]) // 2
    doc["rockafellian"][middle] = ["inf"] * len(doc["rockafellian"][middle])
    doc["rockafellian"][middle][5] = "@@"
    marked = json.dumps(doc, indent=2) + "\n"
    out = {f"entry{i:02d}": marked.replace('"@@"', bad)
           for i, bad in enumerate(READER_FALLBACK_ENTRIES + READER_ACCEPTED_ENTRIES)}
    doc = json.loads(text)
    doc["rockafellian"][middle] = []
    out["empty_row"] = json.dumps(doc, indent=2) + "\n"
    doc = json.loads(text)
    doc["rockafellian"][middle][-1] = "@@"
    out["trailing_comma"] = json.dumps(doc, indent=2).replace('"@@"', "5,") + "\n"
    out["duplicate_key"] = text.replace('"comment": ', '"comment": "x",\n  "comment": ', 1)
    out["bom"] = "\ufeff" + text
    doc = json.loads(text)
    out["compact"] = json.dumps(doc, separators=(",", ":"))
    out["tab"] = json.dumps(doc, indent="\t") + "\n"
    return out


def _reader_commands(root, rng):
    """Write the reader family under ``root``; return its commands."""
    (root / "reader").mkdir()
    wide = (root / f"rand/integer{READER_SIZE}r.json").read_text(encoding="utf-8")
    commands = []
    for label, text in _reader_variants(wide).items():
        name = f"reader/{label}.json"
        (root / name).write_text(text, encoding="utf-8")
        commands.append(["to-lagrangian", name])
        if label in ("compact", "tab"):
            commands.append(["to-lagrangian", name, "--output", f"out/reader_{label}l.json"])
    doc = json.loads(wide)
    (root / "reader/mixed.json").write_text(_problem(
        READER_SIZE, doc["coupling"], rockafellian=_table(rng, "fractional", READER_SIZE)),
        encoding="utf-8")
    commands += [["to-lagrangian", "reader/mixed.json", "--output", "out/reader_mixedl.json"]]
    e1 = json.loads((GALLERY / "e1.json").read_text(encoding="utf-8"))
    for tag, doc in (("e1", e1), ("wide", doc)):
        doc["sets"]["U"][1] = "\ud800"  # a lone surrogate, written as its JSON escape
        name = f"reader/surrogate_{tag}.json"
        (root / name).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        commands += [["to-lagrangian", name, "--format", fmt] for fmt in FORMATS]
        commands.append(["to-lagrangian", name, "--output", f"out/surrogate_{tag}l.json"])
    return commands


def _audits(*files):
    """``check-couple`` on ``files`` in every format, at the default tol and
    at tol 0."""
    return [["check-couple", *files, "--format", fmt, *tol]
            for tol in ((), ("--tol", "0")) for fmt in FORMATS]


def raise_entry(src, dst, table, row, zero=""):
    """Copy the problem file ``src`` to ``dst`` with one entry of ``table``
    raised: the first entry below +inf from row ``row`` on, or with
    ``zero`` the first entry that is 0, a finite one by 1 and -inf to 0."""
    doc = json.loads(Path(src).read_text(encoding="utf-8"))
    rows = doc[table]
    for row in rows[int(row):]:
        for j, v in enumerate(row):
            if v != "inf" and (not zero or v == 0):
                row[j] = 0.0 if v == "-inf" else v + 1.0
                Path(dst).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
                return


def _indicator_commands(root, rng, n, k):
    """Write the indicator tables of size n with k entries per row off
    their infinity under ``root``; return their commands."""
    tag, out = f"rand/indicator{n}k{k}", f"out/indicator{n}k{k}"
    c = _table(rng, "integer", n)
    r = [_indicator(rng, n, k, "inf") for _ in range(n)]
    lag = [_indicator(rng, n, k, "-inf", INF_SHARE) for _ in range(n)]
    for suffix, text in (("r", _problem(n, c, rockafellian=r)),
                         ("l", _problem(n, c, lagrangian=lag))):
        (root / f"{tag}{suffix}.json").write_text(text, encoding="utf-8")
    f_x = ",".join(map(str, _indicator(rng, n, k, "inf")))
    g_y = _indicator(rng, n, k, "inf")
    g_y[next(j for j, v in enumerate(g_y) if v == "inf")] = "-inf"
    commands = [
        ["to-lagrangian", f"{tag}r.json", "--output", f"{out}l1.json"],
        ["to-rockafellian", f"{out}l1.json", "--output", f"{out}r1.json"],
        ["to-rockafellian", f"{tag}l.json", "--output", f"{out}r2.json"],
        ["conjugate", f"{tag}r.json", f"--function={f_x}"],
        ["conjugate", f"{tag}l.json", "--side", "dual",
         f"--function={','.join(map(str, g_y))}"],
    ]
    for pair, raised in (((f"{out}r1.json", f"{out}l1.json"), f"{out}l1_raised.json"),
                         ((f"{out}r2.json", f"{tag}l.json"), f"{out}l_raised.json")):
        commands += [["check-couple", *pair],
                     ["raise", pair[1], raised, "lagrangian", str(n // 2)],
                     ["check-couple", pair[0], raised]]
    return commands


def write_inputs(root):
    """Write the input files under ``root``; return the command list.  Both
    are fixed: the random files come from a constant seed."""
    commands = [["-h"], *([name, "-h"] for name in COMMANDS), *USAGE_ERRORS]
    gallery = root / "gallery"
    shutil.copytree(GALLERY, gallery)
    for path in sorted(gallery.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        n_x, n_y = len(doc["sets"]["X"]), len(doc["sets"]["Y"])
        name = f"gallery/{path.name}"
        base = [
            ["to-lagrangian", name], ["to-rockafellian", name],
            ["weak-duality", name], ["check-couple", name],
            ["conjugate", name, "--function", ",".join((["1", "inf", "-2.5"] * n_x)[:n_x])],
            ["conjugate", name, "--side", "dual", "--function", ",".join(["0"] * n_y)],
            ["conjugate", name, "--side", "dual", "--function",
             ",".join((["-2", "inf", "0.5"] * n_y)[:n_y])],
        ]
        commands += [cmd + ["--format", fmt] for cmd in base for fmt in FORMATS]
        commands += [[c, name, "--output", f"out/{c}-{path.name}"]
                     for c in ("to-lagrangian", "to-rockafellian")]
    e1 = (GALLERY / "e1.json").read_text(encoding="utf-8")
    for label, text in _malformed(e1).items():
        bad = root / f"bad/{label.replace(' ', '_').replace('/', '_')}.json"
        bad.parent.mkdir(exist_ok=True)
        bad.write_text(text, encoding="utf-8")
        commands.append(["to-lagrangian", str(bad.relative_to(root))])
    (root / "bad/function_entry.json").write_text("[[1], 2]", encoding="utf-8")
    commands.append(["conjugate", "gallery/e1.json", "--function", "bad/function_entry.json"])
    e1_lagrangian = (GALLERY / "e1_lagrangian.json").read_text(encoding="utf-8")
    for label, (command, text) in _overflows_among_words(e1, e1_lagrangian).items():
        bad = root / f"bad/{label.replace(' ', '_')}.json"
        bad.write_text(text, encoding="utf-8")
        commands.append([command, str(bad.relative_to(root))])
    commands += _audits("gallery/e1.json", "gallery/e1_lagrangian.json")
    doc = json.loads(e1_lagrangian)
    doc["coupling"][0][0] += 0.5
    (root / "bad/coupling_raised.json").write_text(json.dumps(doc, indent=2) + "\n",
                                                   encoding="utf-8")
    pair = ("gallery/e1.json", "bad/coupling_raised.json")
    commands += _audits(*pair)
    commands += [["check-couple", *pair, "--tol", "1", "--format", fmt] for fmt in FORMATS]

    rng = random.Random(20260101)
    for n in SIZES:
        for family in ("integer", "fractional", "signed_zero", "wide"):
            tag = f"rand/{family}{n}"
            (root / "rand").mkdir(exist_ok=True)
            c, r, lag = (_table(rng, family, n) for _ in range(3))
            for suffix, text in (("r", _problem(n, c, rockafellian=r)),
                                 ("l", _problem(n, c, lagrangian=lag)),
                                 ("both", _problem(n, c, r, lag))):
                (root / f"{tag}{suffix}.json").write_text(text, encoding="utf-8")
            f_x, g_y = _function(rng, family, n), _function(rng, family, n)
            base = [
                ["to-lagrangian", f"{tag}r.json"],
                ["to-rockafellian", f"{tag}l.json"],
                ["weak-duality", f"{tag}r.json"],
                ["check-couple", f"{tag}both.json"],
                ["conjugate", f"{tag}r.json", f"--function={f_x}"],
                ["conjugate", f"{tag}l.json", "--side", "dual", f"--function={g_y}"],
            ]
            commands += [cmd + ["--format", fmt] for cmd in base for fmt in FORMATS]
            # a canonical couple, built from the transforms' own output files
            commands += [
                ["to-lagrangian", f"{tag}r.json", "--output", f"out/{family}{n}l1.json"],
                ["to-rockafellian", f"out/{family}{n}l1.json",
                 "--output", f"out/{family}{n}r1.json"],
                ["to-rockafellian", f"{tag}l.json", "--output", f"out/{family}{n}r2.json"],
            ]
            commands += [["check-couple", f"out/{family}{n}r1.json",
                          f"out/{family}{n}l1.json", "--format", fmt] for fmt in FORMATS]
            commands += [["check-couple", *files, "--tol", "0"]
                         for files in ([f"{tag}both.json"],
                                       [f"out/{family}{n}r1.json", f"out/{family}{n}l1.json"])]
            if n in RAISED_SIZES:
                pair = {key: f"out/{family}{n}{key[0]}1.json"
                        for key in ("rockafellian", "lagrangian")}
                for key in pair:
                    raised = dict(pair, **{key: f"out/{family}{n}{key[0]}1_raised.json"})
                    commands.append(["raise", pair[key], raised[key], key, str(n // 2)])
                    commands += _audits(raised["rockafellian"], raised["lagrangian"])
                both = {key: f"out/{family}{n}{key[0]}1_both.json" for key in pair}
                commands += [["raise", pair[key], both[key], key, str(row)]
                             for key, row in (("rockafellian", n // 4),
                                              ("lagrangian", 3 * n // 4))]
                commands += _audits(both["rockafellian"], both["lagrangian"])
            if family == "signed_zero" and n == SIZES[0]:
                # the first L entry of 0 raised: item (ii)'s witness prints
                # an inf-transform entry of 0.0, which is 0.0 - (R_u)^c
                zero = f"out/{family}{n}l1_zero.json"
                commands.append(["raise", f"out/{family}{n}l1.json", zero, "lagrangian",
                                 "0", "zero"])
                commands += _audits(f"out/{family}{n}r1.json", zero)
    for n in FIXED_ROW_SIZES:
        tag = f"rand/fixed{n}"
        c, r, lag = _fixed_rows(rng, n)
        # with the unbounded decision made infeasible too, phi is not -inf
        # everywhere
        bounded = [r[0], r[0], *r[2:]]
        for suffix, text in (("r", _problem(n, c, rockafellian=r)),
                             ("l", _problem(n, c, lagrangian=lag)),
                             ("both", _problem(n, c, r, lag)),
                             ("bounded", _problem(n, c, rockafellian=bounded))):
            (root / f"{tag}{suffix}.json").write_text(text, encoding="utf-8")
        base = [["weak-duality", f"{tag}{suffix}.json", "--base-point", f"x{i}"]
                for suffix in ("r", "bounded") for i in range(n)]
        for value in ("inf", "-inf"):
            base += [["conjugate", f"{tag}r.json", f"--function={value}" + f",{value}" * (n - 1)],
                     ["conjugate", f"{tag}l.json", "--side", "dual",
                      f"--function={value}" + f",{value}" * (n - 1)]]
        commands += [cmd + ["--format", fmt] for cmd in base for fmt in FORMATS]
        commands += [
            ["to-lagrangian", f"{tag}r.json", "--output", f"out/fixed{n}l1.json"],
            ["to-rockafellian", f"out/fixed{n}l1.json", "--output", f"out/fixed{n}r1.json"],
            ["to-rockafellian", f"{tag}l.json", "--output", f"out/fixed{n}r2.json"],
        ]
        commands += _audits(f"out/fixed{n}r1.json", f"out/fixed{n}l1.json")
        commands += _audits(f"{tag}both.json")
    for n in NEAR_OVERFLOW_SIZES:
        tag = f"rand/near_overflow{n}"
        c, r, lag = (_table(rng, "near_overflow", n) for _ in range(3))
        for suffix, text in (("r", _problem(n, c, rockafellian=r)),
                             ("l", _problem(n, c, lagrangian=lag)),
                             ("both", _problem(n, c, r, lag))):
            (root / f"{tag}{suffix}.json").write_text(text, encoding="utf-8")
        f_x, g_y = (_function(rng, "near_overflow", n) for _ in range(2))
        base = [["weak-duality", f"{tag}r.json", "--base-point", f"x{i}"] for i in range(n)]
        base += [["conjugate", f"{tag}r.json", f"--function={f_x}"],
                 ["conjugate", f"{tag}l.json", "--side", "dual", f"--function={g_y}"]]
        commands += [cmd + ["--format", fmt] for cmd in base for fmt in FORMATS]
        out = f"out/near_overflow{n}"
        commands += [
            ["to-lagrangian", f"{tag}r.json", "--output", f"{out}l1.json"],
            ["to-rockafellian", f"{out}l1.json", "--output", f"{out}r1.json"],
            ["to-rockafellian", f"{tag}l.json", "--output", f"{out}r2.json"],
        ]
        commands += _audits(f"{out}r1.json", f"{out}l1.json")
        commands += _audits(f"{tag}both.json")
    for n in MIXED_SIZES:
        tag = f"rand/mixed{n}"
        c, lag, raised = _mixed_rows(rng, n)
        for suffix, table in (("l", lag), ("l_raised", raised)):
            (root / f"{tag}{suffix}.json").write_text(
                _problem(n, c, lagrangian=table), encoding="utf-8")
        commands.append(["to-rockafellian", f"{tag}l.json", "--output", f"out/mixed{n}r.json"])
        commands += _audits(f"out/mixed{n}r.json", f"{tag}l.json")
        commands += _audits(f"out/mixed{n}r.json", f"{tag}l_raised.json")
    for n, k in itertools.product(INDICATOR_SIZES, INDICATOR_KS):
        commands += _indicator_commands(root, rng, n, k)
    for name, constant_first in (("first", True), ("rest", False)):
        tag = f"boundary{BOUNDARY_SIZE}{name}"
        c, r = _boundary(rng, BOUNDARY_SIZE, constant_first)
        (root / f"rand/{tag}r.json").write_text(
            _problem(BOUNDARY_SIZE, c, rockafellian=r), encoding="utf-8")
        commands += [["to-lagrangian", f"rand/{tag}r.json", "--output", f"out/{tag}l1.json",
                      "--format", fmt] for fmt in FORMATS]
        commands += [
            ["to-rockafellian", f"out/{tag}l1.json", "--output", f"out/{tag}r1.json"],
            ["check-couple", f"out/{tag}r1.json", f"out/{tag}l1.json"],
        ]
    for n, k in CUT_OFF_INDICATORS:
        commands += _indicator_commands(root, rng, n, k)
    commands += _reader_commands(root, rng)
    for seed in FUZZ_SEEDS:
        fmts = FORMATS if seed < 2 else ("text",)
        commands += [["fuzz", "--count", "1000", "--max-set-size", "5", "--seed",
                      str(seed), "--output", "repro", "--format", fmt] for fmt in fmts]
    # the off-grid families fail where sums round and overflow, so their
    # failing reports and reproduction files compare those results too
    commands += [["fuzz", "--count", "300", "--max-set-size", "4", "--seed", "7",
                  "--values", family, "--output", f"repro/{family}"]
                 for family in OFF_GRID_FAMILIES]
    commands += [["fuzz", "--count", "1000", "--max-set-size", "5", "--seed", str(seed),
                  "--tol", "0", "--output", f"repro/tol0-{seed}"] for seed in FUZZ_TOL0_SEEDS]
    commands += [["fuzz", "--count", "300", "--max-set-size", "4", "--seed", "7",
                  "--values", family, "--tol", "0", "--output", f"repro/{family}-tol0"]
                 for family in OFF_GRID_FAMILIES]
    commands += [["fuzz", "--count", "300", *grid, *tol, "--output", "repro/grid"]
                 for grid in (["--grid=-2:2"], ["--grid", "-2:2"])
                 for tol in ((), ("--tol", "0"))]
    return commands


def _snapshot(root):
    return {
        str(p.relative_to(root)): p.stat().st_mtime_ns
        for p in root.rglob("*") if p.is_file()
    }


def worker(src, work, commands_path, result_path):
    """Run every command against the tree at ``src``; write the records."""
    sys.path.insert(0, src)
    from gendual.cli import main

    os.chdir(work)
    (Path(work) / "out").mkdir(exist_ok=True)
    records = []
    for argv in json.loads(Path(commands_path).read_text(encoding="utf-8")):
        before = _snapshot(Path(work))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = raise_entry(*argv[1:]) if argv[:1] == ["raise"] else main(argv)
            except SystemExit as exc:
                code = exc.code
        after = _snapshot(Path(work))
        written = sorted(k for k, t in after.items() if before.get(k) != t)
        stderr = "".join(line for line in err.getvalue().splitlines(True)
                         if not line.startswith("elapsed: "))
        records.append({
            "argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": stderr,
            "files": {k: (Path(work) / k).read_text(encoding="utf-8") for k in written},
        })
    sys.path.insert(0, str(TOOLS))
    import make_gallery

    make_gallery.OUT = Path(work) / "made_gallery"
    make_gallery.main()
    records.append({"argv": ["tools/make_gallery.py"], "files": {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(make_gallery.OUT.glob("*.json"))
    }})
    Path(result_path).write_text(json.dumps(records), encoding="utf-8")


def run_tree(src, inputs, scratch, commands_path, tag):
    work = scratch / f"work_{tag}"
    shutil.copytree(inputs, work)
    result = scratch / f"result_{tag}.json"
    subprocess.run(
        [sys.executable, __file__, "--worker", str(Path(src).resolve()), str(work),
         str(commands_path), str(result)],
        check=True, env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    return json.loads(result.read_text(encoding="utf-8"))


def _first_line_difference(a, b):
    """The number of the first line where the texts ``a`` and ``b`` differ,
    and that line on each side (None past the end of a text)."""
    pairs = itertools.zip_longest(a.splitlines(True), b.splitlines(True))
    for k, (x, y) in enumerate(pairs, 1):
        if x != y:
            return f"line {k}: {x!r:.300} != {y!r:.300}"
    return None


def _first_difference(a, b):
    if a.get("exit") != b.get("exit"):
        return f"exit: {a.get('exit')!r} != {b.get('exit')!r}"
    for key in ("stdout", "stderr"):
        if a.get(key) != b.get(key):
            return f"{key} {_first_line_difference(a[key], b[key])}"
    if a["files"].keys() != b["files"].keys():
        return f"files written: {sorted(a['files'])} != {sorted(b['files'])}"
    for name in a["files"]:
        if a["files"][name] != b["files"][name]:
            return f"file {name} {_first_line_difference(a['files'][name], b['files'][name])}"
    return None


def run_trees(*srcs):
    """The records of each tree in ``srcs``, every tree run on one set of
    inputs."""
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        inputs = scratch / "inputs"
        inputs.mkdir()
        commands = write_inputs(inputs)
        commands_path = scratch / "commands.json"
        commands_path.write_text(json.dumps(commands), encoding="utf-8")
        return [run_tree(src, inputs, scratch, commands_path, f"tree{i}")
                for i, src in enumerate(srcs)]


def digest(record):
    """The sha256 of one command's exit code, stdout, stderr and written
    files."""
    body = {key: record.get(key) for key in ("exit", "stdout", "stderr", "files")}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def record(src):
    """Write the record of the tree at ``src`` to ``RECORD``, one command a
    line."""
    (records,) = run_trees(src)
    lines = ",\n".join(json.dumps([r["argv"], digest(r)]) for r in records)
    version = platform.python_version()
    RECORD.write_text(f'{{"python": "{version}", "commands": [\n{lines}\n]}}\n',
                      encoding="utf-8")
    print(f"{len(records)} commands recorded in {RECORD}")


def changed_commands(src):
    """The argv, as one string, of every command whose run on the tree at
    ``src`` differs from ``RECORD``: in its digest, or in the command list
    itself."""
    want = json.loads(RECORD.read_text(encoding="utf-8"))["commands"]
    (records,) = run_trees(src)
    have = [[r["argv"], digest(r)] for r in records]
    return [" ".join((a or b)[0]) for a, b in itertools.zip_longest(have, want) if a != b]


def main(argv):
    if argv[:1] == ["--worker"]:
        worker(*argv[1:])
        return 0
    if len(argv) == 2 and argv[0] == "--record":
        record(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = run_trees(*argv)
    differing = []
    for a, b in zip(old, new):
        diff = _first_difference(a, b)
        if diff is not None:
            differing.append((a, diff))
    files = sum(len(r["files"]) for r in old)
    print(f"{len(old)} commands, {files} written files compared")
    if differing:
        print(f"{len(differing)} commands differ:")
        for a, diff in differing:
            print(f"{' '.join(a['argv'])[:200]}\n  {diff}")
        return 1
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
