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
is checked once, in ``_row``, and the tables are built from the checked
rows without a second check (see ``spaces``).  A row that fails the fast
read, as one with a literal beyond the double range does, is read again
entry by entry, to name the bad entry.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from itertools import repeat
from operator import is_

from json.encoder import encode_basestring_ascii as _string

from .errors import MissingTableError, ProblemFormatError
from .extreal import ExtReal, render_extreal
from .spaces import Coupling, FiniteSet, Lagrangian, Rockafellian, bilinear_coupling

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
    """The rows of table ``name``, each checked once: by ``_row``, or entry
    by entry to name the first bad entry."""
    if not isinstance(raw, list) or len(raw) != n_rows:
        raise ProblemFormatError(f"{name}: expected {n_rows} rows")
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


def _labels(raw, name: str) -> FiniteSet:
    if (
        not isinstance(raw, list)
        or not raw
        or not all(isinstance(s, str) for s in raw)
    ):
        raise ProblemFormatError(f"sets.{name}: expected a nonempty list of strings")
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
    raw = read_json(text, source)
    # JSON false can hide in a table only if the text holds the word
    falses = "false" in text
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
        try:
            coupling = bilinear_coupling(xs, ys, primal.labels, dual.labels)
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


def table_tokens(rows) -> list[list[str]]:
    """The rows of a table as text, one ``float.__repr__`` per entry (which
    is ``render_extreal`` on every double that is not NaN).  The CLI makes
    this one pass per result table and builds both its stdout rendering and
    the table's ``table_block`` from it."""
    return list(map(_tokens, rows))


def _tokens(row) -> list[str]:
    return list(map(float.__repr__, row))


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
            parts[key] = made.get(key) or table_block(map(_tokens, table.rows))
    return _object(
        [(key, parts[key]) for key in _TOP_KEYS if key in parts], 0
    ) + "\n"


def save_problem(problem: Problem, path, *, blocks=None) -> None:
    """Write ``serialize_problem(problem, blocks=blocks)`` to ``path``."""
    text = serialize_problem(problem, blocks=blocks)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
