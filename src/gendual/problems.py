"""Problem files: the JSON format consumed and produced by the CLI.

A problem file carries the three label sets, a coupling (either an explicit
table over X x Y or a bilinear embedding of the labels into real vectors),
exactly one of a Rockafellian or a Lagrangian table, and optionally a base
point and a free-text comment.  Infinities are spelled as the strings "inf"
and "-inf"; every other entry must be a plain JSON number.  A number that
reads as -0.0 (a literal -0.0, or a negative one that underflows, such as
-1e-400) is read as 0.0, in table entries and embedding coordinates alike,
so that the package holds one zero (see ``extreal``).  Serialization is
canonical (fixed key order, two-space indent, floats everywhere), so files
written by this module round-trip byte-identically.

Table rows are read and written whole, in C-level passes: ``json.dumps``
with an indent would encode entry by entry in pure Python.  Each row read
is checked once, and the tables are built from the checked rows without a
second check (see ``spaces``).  Embedding coordinates are checked once
too, in ``_points``, and their dot products are taken without the
coordinate checks of ``bilinear_coupling``.

A text of at least 16 KiB (``_READ_CHARS``) goes first to the table
reader, ``_read_tables``.  It reads the top-level "coupling",
"rockafellian" and "lagrangian" tables straight from the text, and every
other value with ``read_json``'s scanner and hooks.  A row is the text
between its brackets, split at its commas.  Each token, with the
whitespace around it, maps through one memo per file to its double, and a
token not in the memo yet is checked and converted once, in one batch per
row.  A token is a JSON number in ASCII digits, read by ``float`` (which
rounds as json's ``int`` then ``float`` does), or exactly "inf" or
"-inf", between JSON whitespace only.  The reader leaves a table to the
scanner, to be checked as on the json path below, on anything else:
another token, a nested array, a number beyond the double range, a row of
fewer than 32 entries (``_READ_WIDTH``) or of another length than the
first, or a row more than half of whose entries are new to the memo
(``_READ_SHARE``).  It hands the whole text to ``read_json`` on a
duplicate top-level key or on any text json would refuse.  So every text
parses to the same doubles, and fails with the same message, on both
paths.  The gate is where the reader pays, in a sweep of
``tools/bench_parse.py``'s files over n: from 32-48 entries a row on
integer tables, in the indent and compact layouts.  The size bound keeps
small files off the reader.  A table the reader gives up costs what it
read before it gave up, on top of the scanner's read.  A table of
distinct doubles, such as a fractional one, is given up at its first row,
which costs about 1% of the parse on ``bench_parse``'s fractional files
at n = 64 to 256.

The json path is ``read_json``, then ``_row`` on each row, in C-level
passes.  A row that fails that fast read, as one with a literal beyond the
double range does, is read again entry by entry, to name the bad entry.

Tables are written, and rendered by the CLI, from their ``table_tokens``:
``float.__repr__`` of each entry.  A table with few distinct doubles takes
one ``float.__repr__`` per distinct double and maps each row through that
memo; one whose first row, or the whole table, has more than a quarter of
its entries distinct is formatted entry by entry, from the row where the
share is passed.  A table holding -0.0 beside 0.0 is formatted entry by
entry too, since a dict keys the two zeros as one, so its -0.0 is written
as -0.0.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from itertools import chain, filterfalse, repeat
from operator import is_

from json.decoder import scanstring as _scanstring
from json.encoder import encode_basestring_ascii as _string

from .errors import MissingTableError, ProblemFormatError
from .extreal import ExtReal, render_extreal
from .spaces import Coupling, FiniteSet, Lagrangian, Rockafellian, _dot_products

__all__ = [
    "Problem",
    "extreal_to_jsonable",
    "finite_number",
    "load_problem",
    "parse_problem",
    "read_json",
    "read_text",
    "save_problem",
    "serialize_problem",
    "table_block",
    "table_tokens",
]

_TOP_KEYS = (
    "comment",
    "sets",
    "embedding",
    "coupling",
    "rockafellian",
    "lagrangian",
    "base_point",
)


class Problem(namedtuple("Problem", (
        "decisions", "primal", "dual", "coupling", "rockafellian", "lagrangian",
        "base_point", "comment", "embedding"), defaults=(None,) * 5)):
    """In-memory image of a problem file: the three ``FiniteSet``s, the
    ``Coupling``, and, each None unless given, the ``Rockafellian``, the
    ``Lagrangian``, the base point label, the comment and the embedding.

    ``embedding`` preserves the coordinate form when the file used one (the
    coupling is still materialized); exactly one of ``rockafellian`` and
    ``lagrangian`` is set unless the file was loaded as a combined couple
    file.
    """

    __slots__ = ()

    def require_rockafellian(self) -> Rockafellian:
        if self.rockafellian is None:
            raise MissingTableError("this problem carries no Rockafellian table")
        return self.rockafellian

    def require_lagrangian(self) -> Lagrangian:
        if self.lagrangian is None:
            raise MissingTableError("this problem carries no Lagrangian table")
        return self.lagrangian


def _reject_constant(token: str):
    raise ProblemFormatError(
        f"JSON token {token!r} is not allowed; spell infinities as the "
        "strings \"inf\" / \"-inf\""
    )


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ProblemFormatError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def read_json(text: str, source: str):
    """``json.loads`` for input files; every failure is a ProblemFormatError
    naming the source, a key given twice in one object included."""
    try:
        return json.loads(
            text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys
        )
    except json.JSONDecodeError as exc:
        msg = f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
    except ProblemFormatError as exc:
        msg = str(exc)
    except ValueError:  # int() refuses a literal beyond its digit limit
        msg = "integer literal outside the double range"
    except RecursionError:
        msg = "invalid JSON: nesting too deep"
    raise ProblemFormatError(f"{source}: {msg}") from None


# the scanner ``read_json`` runs, for the values the table reader leaves
# to json: ``scan_once(text, i)`` reads the JSON value at text[i] and
# returns it with the index after it
_SCAN_ONCE = json.JSONDecoder(
    parse_constant=_reject_constant, object_pairs_hook=_unique_keys).scan_once


def read_text(path) -> str:
    """The text of an input file; one that is not UTF-8 is a
    ProblemFormatError naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError:
        raise ProblemFormatError(f"{path}: not UTF-8 text") from None


def _double(raw) -> float | None:
    """A JSON number as a double, -0.0 read as 0.0, or None beyond the
    double range."""
    try:
        value = float(raw) + 0.0
    except OverflowError:  # an integer literal too large for a double
        return None
    return value if math.isfinite(value) else None


def finite_number(raw, where: str) -> float:
    """A JSON number as a double; one beyond the double range is rejected
    rather than read as an infinity."""
    value = _double(raw)
    if value is None:
        raise ProblemFormatError(f"{where}: number outside the double range")
    return value


_INF = math.inf
# the words to their infinities, both zeros to 0.0 (-0.0 hashes and
# compares like 0.0, and so do the int 0 and False), and the infinities
# json reads from literals such as 1e400 to None, a type no row may hold
_WORDS = {"inf": _INF, "-inf": -_INF, 0.0: 0.0, _INF: None, -_INF: None}
_FLOAT = frozenset((float,))
_NUMBER_TYPES = frozenset((int, float))


def _row(raw_row: list, falses: bool) -> tuple[float, ...] | None:
    """A JSON row as doubles, or None if some entry is neither a number
    within the double range nor "inf"/"-inf".  One C-level pass each: a
    scan for ``false`` if the file text holds the word (``falses``), the
    ``_WORDS`` lookup, which builds the row and maps an overflowing literal
    to None, the types, and the conversion (none if all are floats).  Each
    word and each zero maps to one shared float, so a parsed infinity or
    zero costs no object of its own, and -0.0 is read as 0.0 for free."""
    if falses and any(map(is_, raw_row, repeat(False))):  # _WORDS reads it as 0.0
        return None
    try:
        values = tuple(map(_WORDS.get, raw_row, raw_row))
    except TypeError:  # a nested array or object, which cannot be a key
        return None
    types = set(map(type, values))
    if types == _FLOAT:
        return values
    if types <= _NUMBER_TYPES:  # not a bool, null, overflow or other string
        try:
            return tuple(map(float, values))
        except OverflowError:  # an integer literal beyond the double range
            return None
    return None


def _entry(raw, name: str, i: int, j: int) -> float:
    """Entry (i, j) of table ``name``; the location is formatted only when
    the entry is rejected."""
    if isinstance(raw, str):
        if raw in _WORDS:
            return _WORDS[raw]
    elif not isinstance(raw, bool) and isinstance(raw, (int, float)):
        value = _double(raw)
        if value is not None:
            return value
        raise ProblemFormatError(
            f"{name} row {i} column {j}: number outside the double range"
        )
    raise ProblemFormatError(
        f"{name} row {i} column {j}: invalid entry {raw!r} "
        "(only numbers or \"inf\"/\"-inf\")"
    )


def _table(
    raw, name: str, n_rows: int, n_cols: int, falses: bool
) -> tuple[tuple[float, ...], ...]:
    """The rows of table ``name``, each checked once: by the table reader,
    whose rows are tuples of doubles of one length, by ``_row``, or entry
    by entry to name the first bad entry."""
    if not isinstance(raw, list) or len(raw) != n_rows:
        raise ProblemFormatError(f"{name}: expected {n_rows} rows")
    if type(raw[0]) is tuple and len(raw[0]) == n_cols:
        return tuple(raw)
    rows = []
    for i, raw_row in enumerate(raw):
        if not isinstance(raw_row, list) or len(raw_row) != n_cols:
            raise ProblemFormatError(
                f"{name} row {i}: expected {n_cols} entries"
            )
        row = _row(raw_row, falses)
        if row is None:
            row = tuple(_entry(v, name, i, j) for j, v in enumerate(raw_row))
        rows.append(row)
    return tuple(rows)


# The table reader (see the module docstring).  A token keeps the
# whitespace around it, which repeats from row to row in any layout, so a
# row's tokens need no strip unless they are new.  json's scanner reads
# ASCII digits only, hence [0-9] and not \d, which matches any digit
# ``float`` reads; JSON whitespace is " \t\n\r", hence no plain strip().
_READ_CHARS = 16384
_READ_WIDTH = 32
_READ_SHARE = 2
_TABLE_KEYS = frozenset(("coupling", "rockafellian", "lagrangian"))
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_TOKEN = r'(?:-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|"-?inf")'
_TOKENS = re.compile(_TOKEN + r"(?:\x00" + _TOKEN + ")*")


def _learn(memo: dict, tokens: list) -> bool:
    """Add a row's new tokens to ``memo``, each mapped to its double, in
    passes over them all: one regex over the tokens, stripped and joined,
    then ``float`` on each, -0.0 read as 0.0.  False, with the memo
    unchanged, if more than 1/_READ_SHARE of the row's entries are new,
    which is decided before any is converted, if a token breaks the rule
    or holds the NUL the tokens are joined with, or if a number reads as an
    infinity (json reads 1e400 so too)."""
    new = list(set(tokens).difference(memo))
    if len(new) * _READ_SHARE > len(tokens):
        return False
    joined = "\x00".join([token.strip(" \t\n\r") for token in new])
    # a NUL within a token, which json refuses, would split it in two
    if joined.count("\x00") != len(new) - 1 or _TOKENS.fullmatch(joined) is None:
        return False
    values = [float(word) + 0.0 for word in joined.replace('"', "").split("\x00")]
    if values.count(_INF) + values.count(-_INF) != joined.count("inf"):
        return False
    memo.update(zip(new, values))
    return True


def _read_table(text: str, pos: int, memo: dict) -> tuple[list, int] | None:
    """The table whose text starts at text[pos], as a list of rows, each a
    tuple of doubles, and the index after it; None unless it is an array
    of rows of one length, at least ``_READ_WIDTH``, that ``_learn``
    accepts."""
    if not text.startswith("[", pos):
        return None
    rows = []
    width = None
    double = memo.__getitem__
    space = _WHITESPACE.match
    pos = space(text, pos + 1).end()
    while text.startswith("[", pos):
        end = text.find("]", pos)
        body = text[pos + 1:end]
        if end < 0 or "[" in body:  # unclosed, or a nested array
            return None
        tokens = body.split(",")
        if width is None:
            width = len(tokens)
        if len(tokens) != width or width < _READ_WIDTH:  # ragged, or narrow
            return None
        try:
            rows.append(tuple(map(double, tokens)))
        except KeyError:
            if not _learn(memo, tokens):
                return None
            rows.append(tuple(map(double, tokens)))
        pos = space(text, end + 1).end()
        if not text.startswith(",", pos):
            break
        pos = space(text, pos + 1).end()
    else:
        return None
    if not text.startswith("]", pos):
        return None
    return rows, pos + 1


def _read_tables(text: str) -> tuple[dict, bool] | None:
    """The top-level object of problem-file text, each table read by
    ``_read_table`` as a list of tuples of doubles, or by ``read_json``'s
    scanner if that refuses it, like every other value, and whether a
    table json read holds the word false; None unless the text is large
    enough to pay for it and json would accept it.  json reads the same
    object, with its tables as lists of rows that ``_row`` reads as the
    same doubles."""
    if len(text) < _READ_CHARS:
        return None
    space = _WHITESPACE.match
    pos = space(text).end()
    if not text.startswith("{", pos):
        return None
    doc = {}
    memo = {}
    falses = False
    try:
        while True:
            pos = space(text, pos + 1).end()
            if not text.startswith('"', pos):
                return None
            key, pos = _scanstring(text, pos + 1)
            pos = space(text, pos).end()
            if key in doc or not text.startswith(":", pos):
                return None
            pos = space(text, pos + 1).end()
            read = _read_table(text, pos, memo) if key in _TABLE_KEYS else None
            if read is None:
                start = pos
                doc[key], pos = _SCAN_ONCE(text, pos)
                # JSON false can hide in a table only if its text holds the word
                falses = falses or (
                    key in _TABLE_KEYS and text.find("false", start, pos) >= 0)
            else:
                doc[key], pos = read
            pos = space(text, pos).end()
            if not text.startswith(",", pos):
                break
    # what json would refuse, or a hook reject: the json path names it
    except (StopIteration, ValueError, ProblemFormatError, RecursionError):
        return None
    if not text.startswith("}", pos) or space(text, pos + 1).end() != len(text):
        return None
    return doc, falses


_SURROGATE = re.compile("[\ud800-\udfff]")


def _labels(raw, name: str) -> FiniteSet:
    if (
        not isinstance(raw, list)
        or not raw
        or not all(isinstance(s, str) for s in raw)
    ):
        raise ProblemFormatError(f"sets.{name}: expected a nonempty list of strings")
    try:
        "".join(raw).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which json reads from "\ud800"
        bad = next(filter(_SURROGATE.search, raw))
        raise ProblemFormatError(
            f"sets.{name}: label {bad!r} does not encode as UTF-8") from None
    try:
        return FiniteSet(raw)
    except ValueError as exc:
        raise ProblemFormatError(f"sets.{name}: {exc}") from None


def _points(raw, name: str, expected: int) -> list[tuple[float, ...]]:
    if not isinstance(raw, list) or len(raw) != expected:
        raise ProblemFormatError(
            f"embedding.{name}: expected {expected} points (one per label)"
        )
    points = []
    for i, p in enumerate(raw):
        coords = p if isinstance(p, list) else [p]
        out = []
        for coord in coords:
            if isinstance(coord, bool) or not isinstance(coord, (int, float)):
                raise ProblemFormatError(
                    f"embedding.{name} point {i}: coordinates must be numbers"
                )
            out.append(finite_number(coord, f"embedding.{name} point {i}"))
        if not out:
            raise ProblemFormatError(f"embedding.{name} point {i}: empty point")
        points.append(tuple(out))
    dims = {len(p) for p in points}
    if len(dims) != 1:
        raise ProblemFormatError(f"embedding.{name}: mixed point dimensions")
    return points


def parse_problem(
    text: str, source: str = "<string>", allow_both: bool = False
) -> Problem:
    """Parse problem-file text; ``allow_both`` admits combined couple files
    that carry a Rockafellian and a Lagrangian at once."""
    read = _read_tables(text)
    if read is None:
        raw = read_json(text, source)
        # JSON false can hide in a table only if the text holds the word
        falses = "false" in text
    else:
        raw, falses = read
    if not isinstance(raw, dict):
        raise ProblemFormatError(f"{source}: top level must be an object")
    unknown = set(raw) - set(_TOP_KEYS)
    if unknown:
        raise ProblemFormatError(f"{source}: unknown keys {sorted(unknown)}")

    sets = raw.get("sets")
    if not isinstance(sets, dict) or set(sets) != {"U", "X", "Y"}:
        raise ProblemFormatError(f"{source}: 'sets' must hold exactly U, X and Y")
    decisions = _labels(sets["U"], "U")
    primal = _labels(sets["X"], "X")
    dual = _labels(sets["Y"], "Y")

    has_coupling = "coupling" in raw
    has_embedding = "embedding" in raw
    if has_coupling == has_embedding:
        raise ProblemFormatError(
            f"{source}: exactly one of 'coupling' or 'embedding' is required"
        )
    embedding = None
    if has_embedding:
        emb = raw["embedding"]
        if not isinstance(emb, dict) or set(emb) != {"X", "Y"}:
            raise ProblemFormatError(
                f"{source}: 'embedding' must hold exactly X and Y"
            )
        xs = _points(emb["X"], "X", len(primal))
        ys = _points(emb["Y"], "Y", len(dual))
        if len(xs[0]) != len(ys[0]):
            raise ProblemFormatError(
                f"{source}: embedding X and Y point dimensions differ"
            )
        # the points are checked finite doubles of one dimension, so the
        # dot products need none of bilinear_coupling's checks
        try:
            coupling = Coupling._unchecked(primal, dual, _dot_products(
                xs, ys, primal.labels, dual.labels))
        except ValueError as exc:
            raise ProblemFormatError(f"{source}: embedding: {exc}") from None
        embedding = {"X": [list(p) for p in xs], "Y": [list(p) for p in ys]}
    else:
        coupling = Coupling._unchecked(primal, dual, _table(
            raw["coupling"], "coupling", len(primal), len(dual), falses))

    has_r = "rockafellian" in raw
    has_l = "lagrangian" in raw
    if not has_r and not has_l:
        raise ProblemFormatError(
            f"{source}: one of 'rockafellian' or 'lagrangian' is required"
        )
    if has_r and has_l and not allow_both:
        raise ProblemFormatError(
            f"{source}: 'rockafellian' and 'lagrangian' are mutually exclusive here"
        )
    rockafellian = None
    lagrangian = None
    if has_r:
        rockafellian = Rockafellian._unchecked(decisions, primal, _table(
            raw["rockafellian"], "rockafellian", len(decisions), len(primal), falses))
    if has_l:
        lagrangian = Lagrangian._unchecked(decisions, dual, _table(
            raw["lagrangian"], "lagrangian", len(decisions), len(dual), falses))

    base_point = raw.get("base_point")
    if base_point is not None:
        if not isinstance(base_point, str) or base_point not in primal:
            raise ProblemFormatError(
                f"{source}: base_point {base_point!r} is not a label of X"
            )
    comment = raw.get("comment")
    if comment is not None and not isinstance(comment, str):
        raise ProblemFormatError(f"{source}: comment must be a string")

    return Problem(
        decisions=decisions,
        primal=primal,
        dual=dual,
        coupling=coupling,
        rockafellian=rockafellian,
        lagrangian=lagrangian,
        base_point=base_point,
        comment=comment,
        embedding=embedding,
    )


def load_problem(path, allow_both: bool = False) -> Problem:
    return parse_problem(read_text(path), source=str(path), allow_both=allow_both)


def extreal_to_jsonable(v: ExtReal):
    """JSON image of one entry: a float, or the strings "inf"/"-inf"."""
    return float(v) if math.isfinite(v) else render_extreal(v)


def _array(items, depth: int) -> str:
    """JSON array of already encoded items, laid out as ``json.dumps`` with
    ``indent=2`` lays out an array whose closing bracket is indented by
    ``depth`` levels."""
    pad = "\n" + "  " * depth
    return f"[{pad}  " + f",{pad}  ".join(items) + f"{pad}]"


def _object(members, depth: int) -> str:
    """JSON object of (key, encoded value) pairs, laid out like ``_array``."""
    pad = "\n" + "  " * depth
    return f"{{{pad}  " + f",{pad}  ".join(
        f"{_string(key)}: {value}" for key, value in members
    ) + f"{pad}}}"


# A table is formatted through a memo of its distinct doubles while at most
# 1/_MEMO_SHARE of its entries are distinct.  At n = 256 the memo's lookups
# and its one call per distinct double cost as much as one
# ``float.__repr__`` per entry near a distinct share of 0.55 for 17-digit
# fractions and near 0.3 for short tokens such as "3.0"; the sweep is in
# CHANGES.md.
_MEMO_SHARE = 4


class _Tokens(dict):
    """``float.__repr__`` of each double looked up, made on its first
    lookup: ``__getitem__`` calls ``__missing__`` only for a key not held
    yet."""

    __slots__ = ()

    def __missing__(self, value: float) -> str:
        token = self[value] = float.__repr__(value)
        return token


def table_tokens(rows) -> list[list[str]]:
    """The rows of a table (a sequence of rows of doubles) as text:
    ``float.__repr__`` of each entry, which is ``render_extreal`` on every
    double that is not NaN.  The CLI makes this one pass per result table
    and builds both its stdout rendering and the table's ``table_block``
    from it.

    Each row is mapped in one C-level ``map`` through a ``_Tokens`` memo,
    which calls ``float.__repr__`` once per distinct double, while at most
    1/_MEMO_SHARE of the entries are distinct.  That is tested on the first
    row, at the cost of its set, and then on the memo before each row, so
    a table of distinct doubles under a repeated first row takes about
    1/_MEMO_SHARE of its entries through the memo and the rest entry by
    entry.  A table holding -0.0 beside the memo's zero is formatted entry
    by entry, since a dict keys the two zeros as one; the pass that looks
    for it runs only when the memo holds a zero."""
    first = rows[0] if rows else ()
    if len(set(first)) * _MEMO_SHARE > len(first):
        return _reprs(rows)
    memo = _Tokens()
    get = memo.__getitem__
    limit = len(rows) * len(first) // _MEMO_SHARE
    tokens = []
    for row in rows:
        if len(memo) > limit:
            break
        tokens.append(list(map(get, row)))
    if 0.0 in memo and -1.0 in map(
            math.copysign, repeat(1.0), filterfalse(None, chain.from_iterable(rows))):
        return _reprs(rows)
    return tokens + _reprs(rows[len(tokens):])


def _reprs(rows) -> list[list[str]]:
    return [list(map(float.__repr__, row)) for row in rows]


def _row_block(tokens, depth: int = 2) -> str:
    """JSON array of one row's tokens, the infinities quoted: the
    ``float.__repr__`` of a double that is not NaN holds "inf" only as a
    whole token, "inf" or "-inf", so two replaces on the joined row do it."""
    return _array(tokens, depth).replace("inf", '"inf"').replace('-"inf"', '"-inf"')


def table_block(token_rows) -> str:
    """The JSON text of a table in a problem file, from its rows of tokens."""
    return _array(map(_row_block, token_rows), 1)


def serialize_problem(problem: Problem, *, blocks=None) -> str:
    """Canonical text form; stable under parse -> serialize round trips.
    It is ``json.dumps(..., indent=2)`` of the file's JSON image, keys in
    ``_TOP_KEYS`` order, and a newline.  ``blocks`` may map a table's key
    ("coupling", "rockafellian" or "lagrangian") to its ``table_block``,
    if that was made already; other tables are formatted row by row."""
    made = blocks or {}
    sets = (("U", problem.decisions), ("X", problem.primal), ("Y", problem.dual))
    parts = {
        "sets": _object([(key, _array(map(_string, s.labels), 2)) for key, s in sets], 1)
    }
    for key in ("comment", "base_point"):
        text = getattr(problem, key)
        if text is not None:
            parts[key] = _string(text)
    tables = [("rockafellian", problem.rockafellian), ("lagrangian", problem.lagrangian)]
    if problem.embedding is not None:
        emb = {"X": problem.embedding["X"], "Y": problem.embedding["Y"]}
        # json escapes every newline inside a string, so each one in the
        # text starts a line, which moves one level in
        parts["embedding"] = json.dumps(emb, indent=2).replace("\n", "\n  ")
    else:
        tables.append(("coupling", problem.coupling))
    for key, table in tables:
        if table is not None:
            parts[key] = made.get(key) or table_block(table_tokens(table.rows))
    return _object(
        [(key, parts[key]) for key in _TOP_KEYS if key in parts], 0
    ) + "\n"


def save_problem(problem: Problem, path, *, blocks=None) -> None:
    """Write ``serialize_problem(problem, blocks=blocks)`` to ``path``."""
    text = serialize_problem(problem, blocks=blocks)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
