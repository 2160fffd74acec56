"""The one-zero rule: no table entry, function value or scalar the package
holds is -0.0.  Every entry path reads -0.0 as 0.0, every result is free of
-0.0, and rows equal in value give bit-identical conjugates."""

import math

from hypothesis import given, settings, strategies as st

from gendual import (
    Coupling,
    ExtReal,
    FiniteSet,
    Lagrangian,
    Rockafellian,
    SetFunction,
    as_extreal,
    biconjugate,
    bilinear_coupling,
    conjugate,
    dual_function,
    lagrangian_of,
    make_couple,
    neg,
    parse_extreal,
    parse_problem,
    perturbation_function,
    reverse_biconjugate,
    reverse_conjugate,
    rockafellian_of,
    serialize_problem,
    weak_duality_report,
)
from gendual.cli import _load_function
from gendual.conjugacy import conjugate_row
from gendual.fuzz import VALUE_FAMILIES

INF = math.inf
ZERO = (0.0).hex()


def hexes(values):
    return [float(v).hex() for v in values]


# --- every entry path reads -0.0 as 0.0 --------------------------------------

FILE = """{
  "sets": {"U": ["u0"], "X": ["x0", "x1"], "Y": ["y0", "y1"]},
  %s,
  "rockafellian": [[-0.0, -1e-400]],
  "lagrangian": [[-1e-400, -0.0]]
}"""


def test_file_table_entries():
    p = parse_problem(FILE % '"coupling": [[-0.0, -1e-400], [-0, 1.5]]', allow_both=True)
    for table in (p.coupling, p.rockafellian, p.lagrangian):
        for row in table.rows:
            assert hexes(v for v in row if v == 0) == [ZERO] * sum(v == 0 for v in row)
    assert "-0.0" not in serialize_problem(p)


def test_embedding_coordinates():
    text = FILE % '"embedding": {"X": [[-0.0], [-1e-400]], "Y": [[-0.0], [2.0]]}'
    p = parse_problem(text, allow_both=True)
    coords = [v for side in "XY" for point in p.embedding[side] for v in point]
    assert hexes(coords) == [ZERO, ZERO, ZERO, (2.0).hex()]
    assert hexes(v for row in p.coupling.rows for v in row) == [ZERO] * 4
    assert "-0.0" not in serialize_problem(p)


def test_function_inline_and_as_json_file(tmp_path):
    domain = FiniteSet(["a", "b", "c"])
    f = _load_function("-0.0,-1e-400,-0", domain, "function")
    assert hexes(f.values) == [ZERO] * 3
    path = tmp_path / "f.json"
    path.write_text("[-0.0, -1e-400, -0]", encoding="utf-8")
    f = _load_function(str(path), domain, "function")
    assert hexes(f.values) == [ZERO] * 3


def test_public_constructors():
    X, Y, U = FiniteSet(["x0", "x1"]), FiniteSet(["y0", "y1"]), FiniteSet(["u0"])
    # a row of floats, a row mixing ints and floats, a row of ExtReals
    for row in ([-0.0, -0.0], [0, -0.0], [ExtReal(-0.0), -0.0]):
        assert hexes(SetFunction(X, row).values) == [ZERO] * 2
        assert hexes(Rockafellian(U, X, [row]).rows[0]) == [ZERO] * 2
        assert hexes(Lagrangian(U, Y, [row]).rows[0]) == [ZERO] * 2
        c = Coupling(X, Y, [row, row])
        assert hexes(v for line in c.rows for v in line) == [ZERO] * 4
        assert hexes(v for line in c.transposed.rows for v in line) == [ZERO] * 4
    c = bilinear_coupling([-0.0, 1.0], [-0.0, -2.0])
    assert c.primal.labels == ("0.0", "1.0")
    assert hexes(c.rows[0]) == [ZERO] * 2


def test_scalars():
    for text in ("-0.0", "-0", "-0e5", "-1e-400"):
        assert parse_extreal(text).hex() == ZERO
    for value in (-0.0, 0, -0.0 * 1):
        assert as_extreal(value).hex() == ZERO
        assert ExtReal(value).hex() == ZERO
    assert neg(ExtReal(0.0)).hex() == ZERO


# --- no result is -0.0 -------------------------------------------------------

zeros_and_infs = st.sampled_from([-INF, INF, 0.0, -0.0])


@st.composite
def zero_tables(draw):
    """(c, R, L) rows up to 4 a side: entries of one fuzz value family, half
    of them replaced by a zero of either sign or an infinity."""
    family = VALUE_FAMILIES[draw(st.sampled_from(sorted(VALUE_FAMILIES)))]
    rng = draw(st.randoms(use_true_random=False))

    def table(n, m):
        return [[draw(zeros_and_infs) if draw(st.booleans()) else float(family(rng))
                 for _ in range(m)] for _ in range(n)]

    nu, nx, ny = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    return table(nx, ny), table(nu, nx), table(nu, ny)


def no_negative_zero(values):
    assert (-0.0).hex() not in hexes(values)


@given(zero_tables())
@settings(max_examples=300, deadline=None)
def test_no_result_is_negative_zero(data):
    c_rows, r_rows, l_rows = data
    U = FiniteSet([f"u{i}" for i in range(len(r_rows))])
    X = FiniteSet([f"x{i}" for i in range(len(c_rows))])
    Y = FiniteSet([f"y{i}" for i in range(len(c_rows[0]))])
    c = Coupling(X, Y, c_rows)
    r, lag = Rockafellian(U, X, r_rows), Lagrangian(U, Y, l_rows)
    f, g = SetFunction(X, r_rows[0]), SetFunction(Y, l_rows[0])
    phi, psi = perturbation_function(r), dual_function(lagrangian_of(r, c))
    for fn in (conjugate(f, c), biconjugate(f, c), reverse_conjugate(g, c),
               reverse_biconjugate(g, c), phi, psi, dual_function(lag),
               f.negated(), g.negated(), phi.negated(), psi.negated()):
        no_negative_zero(fn.values)
    for table in (lagrangian_of(r, c), rockafellian_of(lag, c), *make_couple(r, c)):
        for row in table.rows:
            no_negative_zero(row)
    for x in X:
        try:
            rep = weak_duality_report(r, c, x)
        except ArithmeticError:  # a dual value that overflowed to inf
            continue
        no_negative_zero([rep.primal_value, rep.dual_value]
                         + ([rep.gap] if rep.gap is not None else []))
    no_negative_zero([neg(ExtReal(v)) for row in c_rows for v in row])


# --- rows equal in value give bit-identical conjugates ----------------------

@given(zero_tables(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_equal_rows_give_identical_conjugates(data, rng):
    # a row and its copy with each zero's sign drawn afresh are equal in
    # value; their conjugates, transforms and the kernel rows of the audit
    # must be the same doubles
    c_rows, r_rows, l_rows = data

    def twin(rows):
        return [[rng.choice((0.0, -0.0)) if v == 0 else v for v in row] for row in rows]

    U = FiniteSet([f"u{i}" for i in range(len(r_rows))])
    X = FiniteSet([f"x{i}" for i in range(len(c_rows))])
    Y = FiniteSet([f"y{i}" for i in range(len(c_rows[0]))])
    c, c2 = Coupling(X, Y, c_rows), Coupling(X, Y, twin(c_rows))
    for (cp, rr, ll) in ((c, r_rows, l_rows), (c2, twin(r_rows), twin(l_rows))):
        r, lag = Rockafellian(U, X, rr), Lagrangian(U, Y, ll)
        got = [
            conjugate(SetFunction(X, rr[0]), cp).values,
            reverse_conjugate(SetFunction(Y, ll[0]), cp).values,
            *lagrangian_of(r, cp).rows,
            *rockafellian_of(lag, cp).rows,
            *(conjugate_row(row, cp.sorted_cols) for row in r.rows),
            *(conjugate_row([0.0 - v for v in row], cp.sorted_rows) for row in lag.rows),
            # the kernel's operand as given, zeros of either sign
            *(conjugate_row(row, cp.sorted_cols) for row in rr),
        ]
        if cp is c:
            want = [hexes(values) for values in got]
        else:
            assert [hexes(values) for values in got] == want
