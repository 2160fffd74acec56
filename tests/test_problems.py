import importlib.util
import json
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from gendual import (
    Coupling,
    ExtReal,
    FiniteSet,
    Lagrangian,
    ProblemFormatError,
    Rockafellian,
    bilinear_coupling,
)
from gendual import problems
from gendual.problems import (
    Problem,
    load_problem,
    parse_problem,
    save_problem,
    serialize_problem,
    table_block,
    table_tokens,
)
from gendual.cli import _render_function, _render_matrix

MINIMAL = {
    "sets": {"U": ["u0"], "X": ["x0", "x1"], "Y": ["y0"]},
    "coupling": [[0.0], [1.0]],
    "rockafellian": [[2.0, "inf"]],
}


def as_text(obj):
    return json.dumps(obj)


def test_parse_minimal():
    p = parse_problem(as_text(MINIMAL))
    assert p.decisions.labels == ("u0",)
    assert p.coupling("x1", "y0") == ExtReal(1.0)
    assert p.rockafellian("u0", "x1") == math.inf
    assert p.lagrangian is None and p.base_point is None


def test_round_trip_identity_in_memory():
    text = serialize_problem(parse_problem(as_text(MINIMAL)))
    p1 = parse_problem(text)
    p2 = parse_problem(serialize_problem(p1))
    assert p1.coupling == p2.coupling
    assert p1.rockafellian == p2.rockafellian
    # canonical text is a fixed point
    assert serialize_problem(p1) == serialize_problem(p2) == text


def test_round_trip_preserves_infinities_and_precision(tmp_path):
    raw = dict(MINIMAL)
    raw["rockafellian"] = [[0.1 + 0.2, "-inf"]]
    path = tmp_path / "p.json"
    path.write_text(serialize_problem(parse_problem(as_text(raw))))
    p = load_problem(path)
    assert p.rockafellian("u0", "x0") == ExtReal(0.1 + 0.2)
    assert p.rockafellian("u0", "x1") == -math.inf


def test_gallery_round_trips_byte_identically(problems_dir):
    files = sorted(problems_dir.glob("*.json"))
    assert len(files) == 5
    for path in files:
        original = path.read_text(encoding="utf-8")
        reloaded = parse_problem(original, allow_both=True)
        assert serialize_problem(reloaded) == original, path.name


def test_embedding_builds_bilinear_coupling(problems_dir):
    p = load_problem(problems_dir / "fenchel_quadratic.json")
    assert p.embedding is not None
    assert p.coupling("2", "-3") == ExtReal(-6.0)
    assert p.coupling("0", "3") == ExtReal(0.0)


def test_embedding_points_are_checked_once(problems_dir, monkeypatch):
    # the parser's checked points reach the dot products without the
    # coordinate check of bilinear_coupling, and give the coupling that
    # bilinear_coupling builds from the same points, bit for bit
    import gendual.spaces

    path = problems_dir / "fenchel_quadratic.json"
    p = load_problem(path)
    want = bilinear_coupling(p.embedding["X"], p.embedding["Y"],
                             p.coupling.primal.labels, p.coupling.dual.labels)

    def second_check(*args):
        raise AssertionError("a coordinate was checked twice")

    monkeypatch.setattr(gendual.spaces, "_as_vector", second_check)
    have = load_problem(path).coupling
    assert type(have) is Coupling and have == want
    assert [[v.hex() for v in row] for row in have.rows] == [
        [v.hex() for v in row] for row in want.rows]


def test_invalid_json_reports_position():
    with pytest.raises(ProblemFormatError, match=r"line \d+ column \d+"):
        parse_problem("{\n  \"sets\": }")


def test_wrong_case_infinity_rejected_with_location():
    raw = dict(MINIMAL)
    raw["rockafellian"] = [[2.0, "Inf"]]
    with pytest.raises(ProblemFormatError, match=r"rockafellian row 0 column 1"):
        parse_problem(as_text(raw))


def test_json_infinity_token_rejected():
    text = as_text(MINIMAL).replace('"inf"', "Infinity")
    with pytest.raises(ProblemFormatError, match="Infinity"):
        parse_problem(text)


def test_bool_entry_rejected():
    raw = dict(MINIMAL)
    raw["coupling"] = [[True], [1.0]]
    with pytest.raises(ProblemFormatError):
        parse_problem(as_text(raw))


def test_unknown_keys_rejected():
    raw = dict(MINIMAL)
    raw["extra"] = 1
    with pytest.raises(ProblemFormatError, match="unknown keys"):
        parse_problem(as_text(raw))


def test_sets_must_be_exactly_uxy():
    raw = dict(MINIMAL)
    raw["sets"] = {"U": ["u0"], "X": ["x0", "x1"]}
    with pytest.raises(ProblemFormatError):
        parse_problem(as_text(raw))


def test_ragged_table_rejected():
    raw = dict(MINIMAL)
    raw["rockafellian"] = [[1.0]]
    with pytest.raises(ProblemFormatError, match="rockafellian"):
        parse_problem(as_text(raw))


def test_duplicate_labels_rejected():
    raw = dict(MINIMAL)
    raw["sets"] = {"U": ["u0"], "X": ["x0", "x0"], "Y": ["y0"]}
    with pytest.raises(ProblemFormatError, match="duplicate"):
        parse_problem(as_text(raw))


def test_both_tables_need_opt_in():
    raw = dict(MINIMAL)
    raw["lagrangian"] = [[0.0]]
    with pytest.raises(ProblemFormatError, match="mutually exclusive"):
        parse_problem(as_text(raw))
    p = parse_problem(as_text(raw), allow_both=True)
    assert p.rockafellian is not None and p.lagrangian is not None


def test_neither_table_rejected():
    raw = {k: v for k, v in MINIMAL.items() if k != "rockafellian"}
    with pytest.raises(ProblemFormatError, match="required"):
        parse_problem(as_text(raw))


def test_coupling_and_embedding_mutually_exclusive():
    raw = dict(MINIMAL)
    raw["embedding"] = {"X": [[0.0], [1.0]], "Y": [[1.0]]}
    with pytest.raises(ProblemFormatError, match="exactly one"):
        parse_problem(as_text(raw))


def test_embedding_dimension_mismatch():
    raw = {k: v for k, v in MINIMAL.items() if k != "coupling"}
    raw["embedding"] = {"X": [[0.0, 1.0], [1.0, 2.0]], "Y": [[1.0]]}
    with pytest.raises(ProblemFormatError, match="dimension"):
        parse_problem(as_text(raw))


def test_base_point_must_be_in_x():
    raw = dict(MINIMAL)
    raw["base_point"] = "y0"
    with pytest.raises(ProblemFormatError, match="base_point"):
        parse_problem(as_text(raw))


def test_save_and_load(tmp_path, problems_dir):
    p = load_problem(problems_dir / "e1.json")
    out = tmp_path / "copy.json"
    save_problem(p, out)
    assert out.read_text() == (problems_dir / "e1.json").read_text()


def test_require_helpers(problems_dir):
    from gendual import MissingTableError

    p = load_problem(problems_dir / "e1.json")
    assert p.require_rockafellian() is p.rockafellian
    with pytest.raises(MissingTableError):
        p.require_lagrangian()


def test_make_gallery_reproduces_problems_dir(problems_dir, tmp_path, monkeypatch):
    script = problems_dir.parent / "tools" / "make_gallery.py"
    spec = importlib.util.spec_from_file_location("make_gallery", script)
    make_gallery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_gallery)
    monkeypatch.setattr(make_gallery, "OUT", tmp_path)
    make_gallery.main()
    want = sorted(p.name for p in problems_dir.glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for name in want:
        assert (tmp_path / name).read_bytes() == (problems_dir / name).read_bytes(), name


# --- parsing: the row-at-a-time fast path against a per-entry reference ------

def reference_table(raw, name, n_rows, n_cols):
    """Table ``name`` read entry by entry, as the file format defines it:
    a number that reads as -0.0 is 0.0."""
    if not isinstance(raw, list) or len(raw) != n_rows:
        raise ProblemFormatError(f"{name}: expected {n_rows} rows")
    rows = []
    for i, raw_row in enumerate(raw):
        if not isinstance(raw_row, list) or len(raw_row) != n_cols:
            raise ProblemFormatError(f"{name} row {i}: expected {n_cols} entries")
        row = []
        for j, v in enumerate(raw_row):
            if v == "inf" or v == "-inf":
                row.append(float(v))
                continue
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                try:
                    value = float(v)
                except OverflowError:
                    value = math.inf
                if math.isfinite(value):
                    row.append(0.0 if value == 0 else value)
                    continue
                raise ProblemFormatError(
                    f"{name} row {i} column {j}: number outside the double range"
                )
            raise ProblemFormatError(
                f"{name} row {i} column {j}: invalid entry {v!r} "
                '(only numbers or "inf"/"-inf")'
            )
        rows.append(tuple(row))
    return tuple(rows)


# JSON source text of one table entry: valid and invalid ones alike
entry_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from([
        "0.0", "-0.0", "0", "-0", "5e-324", "-5e-324", "1.7976931348623157e308",
        "1" + "0" * 400, "-1" + "0" * 400, "1e400", "-1e400", "1E400",
        '"inf"', '"-inf"', '"inf"', '"-inf"', '"Inf"', '"nan"', '"x"', '""',
        "true", "false", "null", "[1.0]", "[]", '{"a": 1}',
        # strings that float() reads but the format does not
        '"1"', '"1e5"', '"Infinity"', '"+inf"', '" inf"', '"-Inf"', '"NaN"',
        '"infinity"',
    ]),
)


@st.composite
def table_texts(draw, n_rows, n_cols):
    """Rows mostly of the right length, now and then one short or long."""
    rows = []
    for _ in range(n_rows):
        k = n_cols + draw(st.sampled_from([0] * 8 + [-1, 1]))
        rows.append("[" + ", ".join(draw(st.lists(entry_tokens, min_size=k,
                                                  max_size=k))) + "]")
    return "[" + ", ".join(rows) + "]"


@st.composite
def problem_texts(draw):
    n_u, n_x, n_y = (draw(st.integers(1, 6)) for _ in range(3))
    sets = {"U": [f"u{i}" for i in range(n_u)], "X": [f"x{i}" for i in range(n_x)],
            "Y": [f"y{i}" for i in range(n_y)]}
    return (
        '{"sets": ' + json.dumps(sets)
        + ', "coupling": ' + draw(table_texts(n_x, n_y))
        + ', "rockafellian": ' + draw(table_texts(n_u, n_x)) + "}"
    )


@given(problem_texts())
# a row whose one fault is a JSON false, which the row lookup alone reads as 0.0
@example('{"sets": {"U": ["u0"], "X": ["x0"], "Y": ["y0", "y1"]}, '
         '"coupling": [[1.0, false]], "rockafellian": [[0.0]]}')
@settings(max_examples=400)
def test_parse_matches_per_entry_reference(text):
    raw = json.loads(text)
    n_u, n_x, n_y = (len(raw["sets"][k]) for k in "UXY")
    try:
        want = (reference_table(raw["coupling"], "coupling", n_x, n_y),
                reference_table(raw["rockafellian"], "rockafellian", n_u, n_x))
    except ProblemFormatError as exc:
        with pytest.raises(ProblemFormatError) as got:
            parse_problem(text)
        assert str(got.value) == str(exc)
        return
    p = parse_problem(text)
    assert repr((p.coupling.rows, p.rockafellian.rows)) == repr(want)
    # the parser builds its tables unchecked: it must give plain doubles
    for rows in (p.coupling.rows, p.rockafellian.rows):
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
        assert all(type(v) is float for row in rows for v in row)


@pytest.mark.parametrize("table", ["coupling", "rockafellian", "lagrangian"])
def test_largest_doubles_among_words_read_exactly(table):
    # the lookup that reads the words maps only the infinities json makes
    # of overflowing literals to a non-float: the largest finite doubles
    # next to the words and both zeros are read as themselves
    labels = {key: [f"{key.lower()}{i}" for i in range(6)] for key in "UXY"}
    row = ('["inf", 1.7976931348623157e308, "-inf", -1.7976931348623157e308, '
           "0, -0.0]")
    plain = "[" + ", ".join([row] + ["[0, 0, 0, 0, 0, 0]"] * 5) + "]"
    second = "lagrangian" if table == "lagrangian" else "rockafellian"
    tables = {"coupling": plain, second: plain}
    tables[table] = "[" + ", ".join(["[1, 2, 3, 4, 5, 6]", row] * 3) + "]"
    p = parse_problem('{"sets": ' + json.dumps(labels) + ", " + ", ".join(
        f'"{name}": {text}' for name, text in tables.items()) + "}")
    for read in getattr(p, table).rows[1::2]:
        assert [v.hex() for v in read] == [
            "inf", "0x1.fffffffffffffp+1023", "-inf", "-0x1.fffffffffffffp+1023",
            "0x0.0p+0", "0x0.0p+0"]


# --- serializing: the row-at-a-time writer against json.dumps ----------------

DBL_MAX = sys.float_info.max
special_entries = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-7, 1e16, -1e16, DBL_MAX, -DBL_MAX,
    math.inf, -math.inf, 0.1 + 0.2, -2.5,
])
entries = st.one_of(special_entries, st.floats(allow_nan=False))
# quotes, backslashes, control and non-ASCII characters, NUL included
texts = st.text(alphabet=st.sampled_from('ab"\\/\x00\n\t\x7fé漢😀 '), max_size=6)


def jsonable(v):
    return v if math.isfinite(v) else ("inf" if v > 0 else "-inf")


def entry_image(v):
    """A table entry as a problem holds and writes it: -0.0 is read as 0.0."""
    return jsonable(0.0 if v == 0 else v)


@st.composite
def problems_and_images(draw):
    """A Problem and the dict whose ``json.dumps`` is its file text."""
    labels = [draw(st.lists(texts, min_size=1, max_size=3, unique=True))
              for _ in range(3)]
    U, X, Y = (FiniteSet(lab) for lab in labels)

    def table(n_rows, n_cols):
        return [draw(st.lists(entries, min_size=n_cols, max_size=n_cols))
                for _ in range(n_rows)]

    image = {}
    comment = draw(st.none() | texts)
    if comment is not None:
        image["comment"] = comment
    image["sets"] = dict(zip("UXY", labels))
    embedding = None
    if draw(st.booleans()):
        dim = draw(st.integers(1, 2))
        coords = st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, 1e-7, 3.0]),
                          min_size=dim, max_size=dim)
        xs = [draw(coords) for _ in X]
        ys = [draw(coords) for _ in Y]
        embedding = {"X": xs, "Y": ys}
        image["embedding"] = {"X": xs, "Y": ys}
        coupling = bilinear_coupling(xs, ys, X.labels, Y.labels)
    else:
        c_rows = table(len(X), len(Y))
        image["coupling"] = [[entry_image(v) for v in row] for row in c_rows]
        coupling = Coupling(X, Y, c_rows)
    kinds = draw(st.sampled_from([("rockafellian",), ("lagrangian",),
                                  ("rockafellian", "lagrangian")]))
    tables = {}
    for kind in kinds:
        cls, cols = (Rockafellian, X) if kind == "rockafellian" else (Lagrangian, Y)
        rows = table(len(U), len(cols))
        image[kind] = [[entry_image(v) for v in row] for row in rows]
        tables[kind] = cls(U, cols, rows)
    base_point = draw(st.none() | st.sampled_from(X.labels))
    if base_point is not None:
        image["base_point"] = base_point
    problem = Problem(
        decisions=U, primal=X, dual=Y, coupling=coupling,
        rockafellian=tables.get("rockafellian"), lagrangian=tables.get("lagrangian"),
        base_point=base_point, comment=comment, embedding=embedding,
    )
    return problem, image


@given(problems_and_images())
@settings(max_examples=300)
def test_serialize_is_json_dumps_with_indent_2(case):
    problem, image = case
    want = json.dumps(image, indent=2) + "\n"
    assert serialize_problem(problem) == want
    # a table block made beforehand, as the CLI hands it over, gives the same
    # text; one for a table the problem does not carry is not written
    for key in ("coupling", "rockafellian", "lagrangian"):
        table = getattr(problem, key)
        block = table_block(table_tokens(table.rows)) if table is not None else "[]"
        if key == "coupling" and problem.embedding is not None:
            block = "[]"
        assert serialize_problem(problem, blocks={key: block}) == want


@given(st.lists(texts, min_size=1, max_size=3, unique=True),
       st.lists(texts, min_size=1, max_size=3, unique=True), st.data())
@settings(max_examples=200)
def test_structured_output_is_json_dumps_with_indent_2(row_labels, col_labels, data):
    rows = [data.draw(st.lists(entries, min_size=len(col_labels),
                               max_size=len(col_labels))) for _ in row_labels]
    payload = {"row_labels": row_labels, "col_labels": col_labels,
               "entries": [[jsonable(v) for v in row] for row in rows]}
    got = _render_matrix(row_labels, col_labels, table_tokens(rows), "structured")
    assert got == json.dumps(payload, indent=2) + "\n"
    payload = {"labels": col_labels, "values": payload["entries"][0]}
    got = _render_function(col_labels, rows[0], "structured")
    assert got == json.dumps(payload, indent=2) + "\n"


@st.composite
def token_tables(draw):
    """Tables on both sides of ``table_tokens``' memo rule: entries from a
    pool of at most four doubles, from one that mixes 0.0 and -0.0 with
    them, or distinct ones, and a first row of one double over rows of
    distinct ones, or the reverse.  The entries hold both infinities,
    subnormals and +-DBL_MAX."""
    n_rows, n_cols = draw(st.integers(1, 9)), draw(st.integers(1, 40))
    pool = draw(st.lists(entries, min_size=1, max_size=4))
    shape = draw(st.sampled_from(
        ["grid", "signed zeros", "distinct", "constant first", "constant rest"]))
    if shape in ("grid", "signed zeros"):
        values = st.sampled_from(pool + [0.0, -0.0] if shape == "signed zeros" else pool)
        return [draw(st.lists(values, min_size=n_cols, max_size=n_cols))
                for _ in range(n_rows)]
    distinct = lambda: draw(st.lists(entries, min_size=n_cols, max_size=n_cols))
    constant = lambda: [draw(entries)] * n_cols
    if shape == "distinct":
        return [distinct() for _ in range(n_rows)]
    first, rest = (constant, distinct) if shape == "constant first" else (distinct, constant)
    return [first()] + [rest() for _ in range(n_rows - 1)]


@given(token_tables())
@example([[0.0, -0.0, 0.0, 0.0]] * 3)
@settings(max_examples=300)
def test_table_tokens_are_each_entry_repr(rows):
    # a memo of the table's distinct doubles keys 0.0 and -0.0 as one, so
    # a table holding both takes one repr per entry
    assert table_tokens(rows) == [[float.__repr__(v) for v in row] for row in rows]


# --- parsing: the table reader against the json path --------------------------

# tokens the reader leaves to the json path: valid JSON it does not read as
# a table entry, invalid JSON (among them a non-ASCII digit, which float
# reads, and a NUL, which the reader joins new tokens with), numbers beyond
# the double range, and strings holding a comma or a bracket; then tokens
# both paths read, in spellings float.__repr__ does not write
FALLBACK_TOKENS = [
    "false", "true", "null", "01", "+1", ".5", "5.", "1_0", '"\\u0069nf"', "1e400",
    "1" + "0" * 400, "1" * 4301, "[1]", '"a,b"', '"a]"', "\u0661", "1\u0660", "1\x002",
]
ACCEPTED_TOKENS = [
    "-0", "-0.0", "-1e-400", "1E2", "2.5e-3", "-7E+1", "1e308", "-5e-324",
    "123456789012345678901234567890", '"inf"', '"-inf"',
]
# (newline, indent unit, comma, colon): indent-2, tab, CRLF, compact and
# the one-line json.dumps layout
LAYOUTS = {
    "indent": ("\n", "  ", ",", ": "), "tab": ("\n", "\t", ",", ": "),
    "crlf": ("\r\n", "  ", ",", ": "), "compact": ("", "", ",", ":"),
    "spaced": ("", "", ", ", ": "),
}


def layout_text(members, layout):
    """Problem-file text of (key, value) pairs in ``layout``: a table is a
    list of rows of token strings, any other value is JSON-dumped."""
    nl, unit, comma, colon = LAYOUTS[layout]

    def array(items, depth):
        pad = nl + unit * (depth + 1)
        return "[" + pad + (comma + pad).join(items) + nl + unit * depth + "]"

    def value(v):
        if isinstance(v, list) and v and isinstance(v[0], list):
            return array([array(row, 2) for row in v], 1)
        return json.dumps(v)
    pad = nl + unit
    return ("{" + pad + (comma + pad).join(f"{json.dumps(k)}{colon}{value(v)}"
                                           for k, v in members) + nl + "}")


def reader_outcome(text):
    """The doubles of every table ``parse_problem`` reads, by ``float.hex``,
    or its exception's type and message."""
    try:
        p = parse_problem(text, allow_both=True)
    except ProblemFormatError as exc:
        return type(exc), str(exc)
    return [[v.hex() for v in row] for table in (p.coupling, p.rockafellian, p.lagrangian)
            if table is not None for row in table.rows]


def json_path_outcome(text):
    """``reader_outcome`` with the table reader switched off."""
    reader = problems._read_tables
    problems._read_tables = lambda text: None
    try:
        return reader_outcome(text)
    finally:
        problems._read_tables = reader


def wide_text(rows, layout="indent", fault=None, n_cols=None):
    """Text of a problem whose coupling and Rockafellian are ``rows`` (rows
    of tokens), its comment padded so that the text is large enough for
    the reader, with at most one ``fault`` that is not an entry."""
    n = n_cols or len(rows[0])
    sets = {key: [f"{key.lower()}{i}" for i in range(len(rows) if key == "U" else n)]
            for key in "UXY"}
    members = [("comment", ""), ("sets", sets), ("coupling", [list(r) for r in rows[:n]]),
               ("rockafellian", rows)]
    if fault == "duplicate key":
        members.append(("comment", ""))
    text = layout_text(members, layout)
    short = problems._READ_CHARS - len(text)
    text = text.replace('""', json.dumps("x" * max(short, 0)), 1)
    if fault == "bom":
        text = "\ufeff" + text
    return text


def grid_rows(n, token=None):
    """n rows of n integer tokens, ``token`` at row n // 2, column 5."""
    rows = [[str((i * 7 + j * 3) % 21 - 10) + ".0" for j in range(n)] for i in range(n)]
    if token is not None:
        rows[n // 2][5] = token
    return rows


@st.composite
def wide_problem_texts(draw):
    """Problem texts the reader's gate admits: rows of at least
    ``_READ_WIDTH`` entries, from a pool of a few tokens (the reader
    takes them) or distinct doubles (it leaves them to json), in one of
    the layouts, with at most one fault or unusual spelling."""
    n = draw(st.sampled_from([problems._READ_WIDTH, problems._READ_WIDTH + 9]))
    pool = draw(st.lists(st.sampled_from(
        ["0.0", "-3.0", "7.0", "2.5", '"inf"', '"-inf"', "-0", "1e2"]),
        min_size=1, max_size=5))
    rng = random.Random(draw(st.integers(0, 2**16)))
    distinct = lambda: repr(rng.uniform(-10, 10))
    kind = draw(st.sampled_from(["grid", "grid", "distinct", "mixed"]))
    # the coupling is the first n rows of R: in "mixed", the grid rows
    rows = [[rng.choice(pool) if kind == "grid" or (kind == "mixed" and i < n)
             else distinct() for _ in range(n)] for i in range(2 * n)]
    fault = draw(st.sampled_from(
        ["none", "none", "token", "accepted", "space", "empty row", "trailing comma",
         "short row", "long row", "duplicate key", "bom", "truncated"]))
    i, j = draw(st.integers(0, 2 * n - 1)), draw(st.integers(0, n - 1))
    if fault == "token":
        rows[i][j] = draw(st.sampled_from(FALLBACK_TOKENS))
    elif fault == "accepted":
        rows[i][j] = draw(st.sampled_from(ACCEPTED_TOKENS))
    elif fault == "space":
        rows[i][j] = draw(st.sampled_from(["\f", "\u00a0", " \t", "\r\n "])) + rows[i][j]
    elif fault == "empty row":
        rows[i] = []
    elif fault == "trailing comma":
        rows[i][-1] += ","
    elif fault in ("short row", "long row"):
        rows[i] = rows[i][:-1] if fault == "short row" else rows[i] + rows[i][:1]
    text = wide_text(rows, draw(st.sampled_from(sorted(LAYOUTS))), fault, n_cols=n)
    if fault == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def with_examples(texts):
    def decorate(test):
        for text in texts:
            test = example(text)(test)
        return test
    return decorate


@given(wide_problem_texts())
@with_examples([wide_text(grid_rows(problems._READ_WIDTH, token))
                for token in FALLBACK_TOKENS + ACCEPTED_TOKENS + ["\f3.0", "\u00a03.0"]]
               + [wide_text(grid_rows(problems._READ_WIDTH), fault=fault)
                  for fault in ("duplicate key", "bom")])
@settings(max_examples=300, deadline=None)
def test_reader_matches_the_json_path(text):
    assert reader_outcome(text) == json_path_outcome(text)


def test_reader_takes_wide_grids_in_every_layout():
    # a fault-free table of few distinct tokens passes the reader's gate in
    # every layout, so the test above compares the reader, not json twice
    rows = grid_rows(problems._READ_WIDTH)
    for layout in LAYOUTS:
        text = wide_text(rows, layout)
        assert problems._read_tables(text) is not None, layout
        assert reader_outcome(text) == json_path_outcome(text)


@pytest.mark.parametrize("token", [None, "false", "1e400", "[1]"])
def test_reader_leaves_a_refused_table_to_json(token):
    # a grid coupling over an R of distinct doubles: the reader takes the
    # coupling and leaves R, with any bad token in it, to json's scanner
    n = problems._READ_WIDTH
    rng = random.Random(n)
    rows = grid_rows(n) + [[repr(rng.uniform(-10, 10)) for _ in range(n)] for _ in range(n)]
    if token is not None:
        rows[n + 3][7] = token
    text = wide_text(rows, n_cols=n)
    doc, falses = problems._read_tables(text)
    assert type(doc["coupling"][0]) is tuple and type(doc["rockafellian"][0]) is list
    assert falses == (token == "false")
    assert reader_outcome(text) == json_path_outcome(text)
