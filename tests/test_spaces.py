import math

import pytest

from gendual import (
    Coupling,
    DomainMismatchError,
    ExtReal,
    FiniteSet,
    NEG_INF,
    Rockafellian,
    SetFunction,
    UnknownLabelError,
    bilinear_coupling,
    partial_lagrangian,
    partial_rockafellian,
    pointwise_max,
    pointwise_min,
    reverse_coupling,
)
from gendual.duality import lagrangian_of


def test_finite_set_basics():
    s = FiniteSet(["a", "b", "c"])
    assert list(s) == ["a", "b", "c"]
    assert len(s) == 3
    assert "b" in s and "z" not in s
    assert s.index("c") == 2
    with pytest.raises(UnknownLabelError):
        s.index("z")
    assert s == FiniteSet(["a", "b", "c"])
    assert s != FiniteSet(["b", "a", "c"])  # order is part of identity


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


def test_reverse_coupling_transposes_and_involutes(e1):
    c = e1["c"]
    rc = reverse_coupling(c)
    assert rc.primal == e1["Y"] and rc.dual == e1["X"]
    for x in e1["X"]:
        for y in e1["Y"]:
            assert rc(y, x) == c(x, y)
    assert reverse_coupling(rc) == c


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
