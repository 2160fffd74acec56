import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gendual import (
    Coupling,
    DomainMismatchError,
    ExtReal,
    FiniteSet,
    Lagrangian,
    NEG_INF,
    Rockafellian,
    SetFunction,
    UnknownLabelError,
    biconjugate,
    bilinear_coupling,
    conjugate,
    dual_function,
    is_c_convex,
    is_cprime_convex,
    partial_lagrangian,
    partial_rockafellian,
    perturbation_function,
    pointwise_max,
    pointwise_min,
    reverse_biconjugate,
    reverse_conjugate,
    reverse_coupling,
)
from gendual.duality import lagrangian_of, rockafellian_of


def test_finite_set_basics():
    s = FiniteSet(["a", "b", "c"])
    assert list(s) == ["a", "b", "c"]
    assert len(s) == 3
    assert "b" in s and "z" not in s
    assert s.index("c") == 2
    with pytest.raises(UnknownLabelError):
        s.index("z")
    assert s == FiniteSet(["a", "b", "c"])
    assert s == s
    assert s != FiniteSet(["b", "a", "c"])  # order is part of identity
    assert s != ("a", "b", "c")


def test_finite_set_rejects_bad_labels():
    with pytest.raises(ValueError):
        FiniteSet([])
    with pytest.raises(ValueError):
        FiniteSet(["a", "a"])
    with pytest.raises(TypeError):
        FiniteSet(["a", 3])


def test_set_function_total_and_typed():
    s = FiniteSet(["a", "b"])
    f = SetFunction(s, [1, math.inf])
    assert f("a") == ExtReal(1.0)
    assert f("b") == math.inf
    with pytest.raises(ValueError):
        SetFunction(s, [1.0])
    with pytest.raises(UnknownLabelError):
        f("zz")


class _Float(float):
    pass


# each public constructor given one row of three entries from outside the
# package, and the row it stores
_PUBLIC_CONSTRUCTORS = {
    "SetFunction": lambda row: SetFunction(["a", "b", "c"], row).values,
    "Coupling": lambda row: Coupling(["x0"], ["y0", "y1", "y2"], [row]).rows[0],
    "Rockafellian": lambda row: Rockafellian(["u0"], ["x0", "x1", "x2"], [row]).rows[0],
    "Lagrangian": lambda row: Lagrangian(["u0"], ["y0", "y1", "y2"], [row]).rows[0],
}


@pytest.mark.parametrize("entry, error", [
    (math.nan, ValueError), (True, TypeError), ("1", TypeError),
    # as_extreal's ValueError, which names the value (test_extreal)
    (10 ** 400, ValueError),
], ids=["nan", "bool", "str", "int-overflow"])
@pytest.mark.parametrize("name", list(_PUBLIC_CONSTRUCTORS))
def test_public_constructors_check_every_entry(name, entry, error):
    make = _PUBLIC_CONSTRUCTORS[name]
    with pytest.raises(error):
        make([0.5, 1.0, entry])
    # an int, an ExtReal and a float subclass are stored as plain floats
    stored = make([1, ExtReal(2.5), _Float(-3.0)])
    assert stored == (1.0, 2.5, -3.0)
    assert [type(v) for v in stored] == [float] * 3


def test_set_function_negated_and_isclose():
    s = FiniteSet(["a", "b"])
    f = SetFunction(s, [2.0, -math.inf])
    g = f.negated()
    assert g("a") == ExtReal(-2.0)
    assert g("b") == math.inf
    assert f.isclose(SetFunction(s, [2.0 + 1e-12, -math.inf]))
    assert not f.isclose(SetFunction(s, [2.0, math.inf]))
    assert not f.isclose(SetFunction(FiniteSet(["a", "z"]), [2.0, -math.inf]))


def test_pointwise_min_max():
    s = FiniteSet(["a", "b", "c"])
    f = SetFunction(s, [1.0, math.inf, 0.0])
    g = SetFunction(s, [2.0, 3.0, -math.inf])
    assert pointwise_min(f, g).values == SetFunction(s, [1.0, 3.0, -math.inf]).values
    assert pointwise_max(f, g).values == SetFunction(s, [2.0, math.inf, 0.0]).values
    with pytest.raises(DomainMismatchError):
        pointwise_min(f, SetFunction(FiniteSet(["a"]), [0.0]))


def test_table_shapes_validated():
    with pytest.raises(ValueError):
        Coupling(["x0"], ["y0", "y1"], [[1.0]])
    with pytest.raises(ValueError):
        Rockafellian(["u0", "u1"], ["x0"], [[1.0]])


def test_public_dunders_and_mismatches():
    # equal objects hash alike, each repr names its labels, and each
    # mismatch returns NotImplemented or False, or raises as documented
    s = FiniteSet(["a", "b"])
    f = SetFunction(s, [1.0, math.inf])
    assert hash(s) == hash(FiniteSet(["a", "b"])) and repr(s) == "FiniteSet(['a', 'b'])"
    assert f == SetFunction(["a", "b"], [1.0, math.inf])
    assert hash(f) == hash(SetFunction(["a", "b"], [1.0, math.inf]))
    assert list(f.items()) == [("a", 1.0), ("b", math.inf)]
    assert repr(f) == "SetFunction({a: 1.0, b: inf})"
    assert s.__eq__(["a", "b"]) is NotImplemented and f.__eq__(s) is NotImplemented
    with pytest.raises(DomainMismatchError, match="^pointwise_max: domains differ$"):
        pointwise_max(f, SetFunction(["a"], [0.0]))
    for kind in (Coupling, Rockafellian, Lagrangian):
        t = kind(s, ["y"], [[0.0], [1.0]])
        same = kind(["a", "b"], ["y"], [[0.0], [1.0]])
        assert t == same and hash(t) == hash(same)
        assert repr(t) == f"{kind.__name__}(rows=['a', 'b'], cols=['y'])"
        assert t.__eq__(f) is NotImplemented
        other = Lagrangian if kind is Rockafellian else Rockafellian
        assert not t.isclose(other(s, ["y"], [[0.0], [1.0]]))
        assert not t.isclose(kind(["a", "z"], ["y"], [[0.0], [1.0]]))
        assert not t.isclose(kind(s, ["z"], [[0.0], [1.0]]))
    with pytest.raises(ValueError, match="^bilinear_coupling: points must have at least one"):
        bilinear_coupling([()], [()])


def test_reverse_coupling_transposes_and_involutes(e1):
    c = e1["c"]
    rc = reverse_coupling(c)
    assert rc.primal == e1["Y"] and rc.dual == e1["X"]
    for x in e1["X"]:
        for y in e1["Y"]:
            assert rc(y, x) == c(x, y)
    assert reverse_coupling(rc) == c


def _sorts(monkeypatch):
    """Counts the sorts of ``descending`` views: each build of ``pairs``."""
    import gendual.extreal as extreal

    lazy_pairs = extreal.descending.__dict__["pairs"]
    calls = []

    def counted(view, sort=lazy_pairs.func):
        calls.append(view)
        return sort(view)

    monkeypatch.setattr(lazy_pairs, "func", counted)
    return calls


def test_the_transpose_shares_the_views_crosswise(e1, monkeypatch):
    sorts = _sorts(monkeypatch)
    c = Coupling(e1["X"], e1["Y"], e1["c"].rows)
    t = c.transposed
    assert reverse_coupling(c) is t and t.rows == tuple(zip(*c.rows))
    assert t.sorted_rows is c.sorted_cols and t.sorted_cols is c.sorted_rows
    # and so does the transpose of the transpose, over c's own rows
    assert t.transposed.rows is c.rows
    assert t.transposed.sorted_rows is c.sorted_rows
    assert t.transposed.sorted_cols is c.sorted_cols
    # a reverse conjugate after the conjugate through c^T sorts nothing new,
    # and each view is sorted once, whichever direction reads it
    g = SetFunction(e1["Y"], [-2.0, 1.0])
    want = conjugate(g, t)
    assert sorts == [c.sorted_rows]
    assert reverse_conjugate(g, c) == want
    assert reverse_biconjugate(g, c) == biconjugate(g, t)
    assert is_cprime_convex(g, c) == is_c_convex(g, t)
    assert conjugate(SetFunction(e1["X"], [1.0, -1.0]), c) == reverse_conjugate(
        SetFunction(e1["X"], [1.0, -1.0]), t)
    assert sorts == [c.sorted_rows, c.sorted_cols]


def test_a_dropped_coupling_is_freed_without_the_cyclic_collector(e1):
    # the transpose holds c's views, not c: no reference cycle keeps the
    # pair alive until a full collection
    import gc
    import weakref

    c = Coupling(e1["X"], e1["Y"], e1["c"].rows)
    reverse_biconjugate(SetFunction(e1["Y"], [-2.0, 1.0]), c)
    refs = [weakref.ref(obj) for obj in (c, c.transposed, c.transposed.transposed)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del c
        assert [ref() for ref in refs] == [None] * 3
    finally:
        if enabled:
            gc.enable()


def test_reverse_coupling_one_by_one():
    c = Coupling(["x"], ["y"], [[-math.inf]])
    rc = reverse_coupling(c)
    assert rc("y", "x") == NEG_INF


def test_bilinear_coupling_scalars():
    c = bilinear_coupling([-1, 0, 1], [-1, 0, 1])
    assert c.primal.labels == ("-1.0", "0.0", "1.0")
    assert c("1.0", "-1.0") == ExtReal(-1.0)
    # the zero point couples to zero against everything
    for y in c.dual:
        assert c("0.0", y) == ExtReal(0.0)
    assert all(math.isfinite(v) for row in c.rows for v in row)


def test_bilinear_coupling_vectors_and_reversal():
    c = bilinear_coupling([(1.0, 2.0)], [(3.0, 4.0)], ["p"], ["q"])
    assert c("p", "q") == ExtReal(11.0)
    rc = reverse_coupling(c)
    assert rc("q", "p") == ExtReal(11.0)


def test_bilinear_coupling_dimension_mismatch():
    with pytest.raises(DomainMismatchError):
        bilinear_coupling([(1.0, 2.0)], [(1.0,)])
    with pytest.raises(ValueError):
        bilinear_coupling([], [(1.0,)])


def test_bilinear_coupling_nan_coordinate_names_the_point():
    with pytest.raises(ValueError, match=r"^bilinear_coupling: Y point 1 \(1\.0, nan\) "
                                         r"has a NaN coordinate$"):
        bilinear_coupling([(1.0, 2.0)], [(0.0, 1.0), (1.0, math.nan)])
    with pytest.raises(ValueError, match=r"^bilinear_coupling: X point 0 \(nan,\) "):
        bilinear_coupling([math.nan], [1.0])


@pytest.mark.parametrize("xs, ys, error, message", [
    (["12"], [1.0], TypeError, "X point 0 has a coordinate '12' that is not a number"),
    ([True], [1.0], TypeError, "X point 0 has a coordinate True that is not a number"),
    ([1.0], [(1.0,), (True,)], TypeError,
     "Y point 1 has a coordinate True that is not a number"),
    ([1.0], [None], TypeError, "Y point 0 has a coordinate None that is not a number"),
    ([(1.0, 10 ** 400)], [(1.0, 2.0)], ValueError,
     "X point 0 has a coordinate outside the double range"),
], ids=["str", "bool", "bool-in-vector", "none", "int-overflow"])
def test_bilinear_coupling_checks_each_coordinate(xs, ys, error, message):
    # the value rule of the tables, with the point named
    with pytest.raises(error) as info:
        bilinear_coupling(xs, ys)
    assert str(info.value) == f"bilinear_coupling: {message}"


@pytest.mark.parametrize("xs, ys, fault", [
    # a coordinate product inf * 0 is NaN
    ([math.inf], [0.0], "X point 'inf' and Y point '0.0' is inf * 0"),
    ([(1.0, -math.inf)], [(1.0, 0.0)], "X point '1.0,-inf' and Y point '1.0,0.0' is inf * 0"),
    # a sum of opposite infinities is NaN, whether they are coordinate
    # products or finite products that overflow
    ([(math.inf, 1.0)], [(1.0, -math.inf)],
     "X point 'inf,1.0' and Y point '1.0,-inf' is inf + (-inf)"),
    ([(1e300, 1e300)], [(1e300, -1e300)],
     "X point '1e+300,1e+300' and Y point '1e+300,-1e+300' is inf + (-inf)"),
], ids=["inf*0", "-inf*0", "inf-inf", "overflow"])
def test_bilinear_coupling_names_the_nan_of_a_dot_product(xs, ys, fault):
    with pytest.raises(ValueError) as info:
        bilinear_coupling(xs, ys)
    assert str(info.value) == f"the dot product of {fault}"


def test_partial_rockafellian(e1):
    row = partial_rockafellian(e1["R"], "u0")
    assert row.values == (ExtReal(5.0), ExtReal(3.0))
    row1 = partial_rockafellian(e1["R"], "u1")
    assert row1("x0") == ExtReal(0.0)
    assert row1("x1") == math.inf
    with pytest.raises(UnknownLabelError):
        partial_rockafellian(e1["R"], "u9")


def test_partial_rockafellian_single_row():
    r = Rockafellian(["u0"], ["x0", "x1"], [[1.0, 2.0]])
    assert partial_rockafellian(r, "u0").values == (ExtReal(1.0), ExtReal(2.0))


def test_partial_lagrangian(e1):
    lag = lagrangian_of(e1["R"], e1["c"])
    assert partial_lagrangian(lag, "u0").values == (ExtReal(2.0), ExtReal(1.0))
    assert partial_lagrangian(lag, "u1").values == (ExtReal(0.0), ExtReal(0.0))
    with pytest.raises(UnknownLabelError):
        partial_lagrangian(lag, "nope")


def test_partial_lagrangian_single_row():
    from gendual import Lagrangian

    lag = Lagrangian(["u0"], ["y0", "y1"], [[4.0, -math.inf]])
    assert partial_lagrangian(lag, "u0").values == (ExtReal(4.0), ExtReal(-math.inf))


def test_tables_are_total(e1):
    # every (row, col) pair resolves; nothing missing by construction
    for u in e1["U"]:
        for x in e1["X"]:
            e1["R"](u, x)
    for x in e1["X"]:
        for y in e1["Y"]:
            e1["c"](x, y)


@pytest.mark.parametrize("tol", [-1e-9, -math.inf, math.nan])
def test_isclose_rejects_a_negative_tol(e1, tol):
    # equal values are compared whole first, which must not skip the check
    f = SetFunction(e1["X"], [1.0, -math.inf])
    for a, b in ((f, f), (f, f.negated()), (e1["R"], e1["R"]), (e1["R"], e1["R2"])):
        with pytest.raises(ValueError):
            a.isclose(b, tol)


@pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
def test_isclose_checks_tol_before_the_domains(e1, tol):
    # one tol rule for every comparison of tables or functions, applied
    # first: a bad tol fails even where the domains alone answer False
    f = SetFunction(e1["X"], [1.0, -math.inf])
    g = SetFunction(e1["Y"], [1.0, -math.inf])
    c = e1["c"]
    for a, b in ((f, f), (f, g), (c, c), (c, reverse_coupling(c)), (e1["R"], e1["L"])):
        with pytest.raises(ValueError, match="^tolerance must be finite and nonnegative$"):
            a.isclose(b, tol)


def test_isclose_compares_whole_and_entry_by_entry(e1):
    f = SetFunction(e1["X"], [0.0, math.inf])
    assert f.isclose(SetFunction(e1["X"], [-0.0, math.inf]), 0.0)
    assert f.isclose(SetFunction(e1["X"], [1e-10, math.inf]))
    assert not f.isclose(SetFunction(e1["X"], [1e-10, math.inf]), 0.0)
    r = e1["R"]
    near = Rockafellian(r.decisions, r.primal, [[5.0, 3.0 + 1e-12], [0.0, math.inf]])
    assert r.isclose(near) and not r.isclose(near, 0.0)
    assert not r.isclose(e1["R2"])


# Entries where the package's producers round, overflow or meet an
# opposite-infinity pair: their results are built without a second check.
DBL_MAX = sys.float_info.max
entries = st.one_of(
    st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 1.7e308, -1.7e308,
                     DBL_MAX, -DBL_MAX, 0.1, -2.5, 1e-300]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def instances(draw):
    n_u, n_x, n_y = (draw(st.integers(1, 4)) for _ in range(3))
    U, X, Y = (FiniteSet(f"{k}{i}" for i in range(n)) for k, n in
               (("u", n_u), ("x", n_x), ("y", n_y)))

    def rows(n_rows, n_cols):
        return [draw(st.lists(entries, min_size=n_cols, max_size=n_cols))
                for _ in range(n_rows)]

    return (Coupling(X, Y, rows(n_x, n_y)), Rockafellian(U, X, rows(n_u, n_x)),
            Lagrangian(U, Y, rows(n_u, n_y)), SetFunction(X, rows(1, n_x)[0]),
            SetFunction(X, rows(1, n_x)[0]), SetFunction(Y, rows(1, n_y)[0]))


def _plain(values):
    return type(values) is tuple and all(
        type(v) is float and not math.isnan(v) for v in values
    )


@given(instances())
@settings(max_examples=300)
def test_producers_give_what_the_public_constructors_would(case):
    c, r, lag, f, f2, g = case
    u = r.decisions.labels[-1]
    functions = [
        conjugate(f, c), reverse_conjugate(g, c), f.negated(),
        pointwise_min(f, f2), pointwise_max(f, f2),
        partial_rockafellian(r, u), partial_lagrangian(lag, u),
        perturbation_function(r), dual_function(lag),
    ]
    for h in functions:
        assert _plain(h.values)
        assert h == SetFunction(h.domain, list(h.values))
    for t in (lagrangian_of(r, c), rockafellian_of(lag, c), reverse_coupling(c)):
        assert type(t.rows) is tuple and all(map(_plain, t.rows))
        assert t == type(t)(t.row_set, t.col_set, [list(row) for row in t.rows])
