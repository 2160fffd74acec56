import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
from gendual import (
    Coupling,
    DomainMismatchError,
    ExtReal,
    FiniteSet,
    Lagrangian,
    Rockafellian,
    SetFunction,
    UnknownLabelError,
    approx_le,
    conjugate,
    dual_function,
    is_c_convex,
    is_cprime_convex,
    lagrangian_of,
    partial_lagrangian,
    partial_rockafellian,
    perturbation_function,
    reverse_conjugate,
    rockafellian_of,
    weak_duality_report,
    weak_duality_reports,
    biconjugate,
    low_add,
)
from gendual.fuzz import VALUE_FAMILIES, random_instance as fuzz_instance

INF = math.inf


def rows_as_floats(table):
    return [[float(v) for v in row] for row in table.rows]


def vals_as_floats(fn):
    return [float(v) for v in fn.values]


def random_instance(rng, max_n=4):
    pick = lambda: rng.choice([-INF, INF] + [float(k) for k in range(-8, 9)])
    nu, nx, ny = (rng.randint(1, max_n) for _ in range(3))
    U = FiniteSet([f"u{i}" for i in range(nu)])
    X = FiniteSet([f"x{i}" for i in range(nx)])
    Y = FiniteSet([f"y{i}" for i in range(ny)])
    c_rows = [[pick() for _ in range(ny)] for _ in range(nx)]
    r_rows = [[pick() for _ in range(nx)] for _ in range(nu)]
    l_rows = [[pick() for _ in range(ny)] for _ in range(nu)]
    return (
        Coupling(X, Y, c_rows),
        Rockafellian(U, X, r_rows),
        Lagrangian(U, Y, l_rows),
        c_rows,
        r_rows,
        l_rows,
    )


# --- lagrangian_of -----------------------------------------------------------

def test_lagrangian_of_e1(e1):
    lag = lagrangian_of(e1["R"], e1["c"])
    want = bf.lagrangian([[0.0, 0.0], [1.0, 2.0]], [[5.0, 3.0], [0.0, INF]])
    assert rows_as_floats(lag) == want == [[2.0, 1.0], [0.0, 0.0]]


def test_lagrangian_of_all_plus_inf(e1):
    r = Rockafellian(e1["U"], e1["X"], [[INF, INF], [INF, INF]])
    lag = lagrangian_of(r, e1["c"])
    assert all(v == INF for row in lag.rows for v in row)


def test_lagrangian_single_point_zero_coupling():
    c = Coupling(["x0"], ["y0", "y1"], [[0.0, 0.0]])
    r = Rockafellian(["u0", "u1"], ["x0"], [[7.0], [-INF]])
    lag = lagrangian_of(r, c)
    assert rows_as_floats(lag) == [[7.0, 7.0], [-INF, -INF]]


def test_lagrangian_of_checks_domains(e1):
    bad = Rockafellian(e1["U"], FiniteSet(["z0", "z1"]), [[0, 0], [0, 0]])
    with pytest.raises(DomainMismatchError):
        lagrangian_of(bad, e1["c"])


def test_lagrangian_of_equals_conjugate_route(e1):
    # inf/upper-add formula vs negated row-wise conjugate
    lag = lagrangian_of(e1["R"], e1["c"])
    for u in e1["U"]:
        via = conjugate(partial_rockafellian(e1["R"], u), e1["c"]).negated()
        assert via.isclose(partial_lagrangian(lag, u))


# --- rockafellian_of ---------------------------------------------------------

def test_rockafellian_of_e1(e1):
    r2 = rockafellian_of(e1["L"], e1["c"])
    want = bf.rockafellian([[0.0, 0.0], [1.0, 2.0]], [[2.0, 1.0], [0.0, 0.0]])
    assert rows_as_floats(r2) == want == [[2.0, 3.0], [0.0, 2.0]]


def test_rockafellian_of_all_minus_inf(e1):
    lag = Lagrangian(e1["U"], e1["Y"], [[-INF, -INF], [-INF, -INF]])
    r = rockafellian_of(lag, e1["c"])
    assert all(v == -INF for row in r.rows for v in row)


def test_rockafellian_of_checks_domains(e1):
    bad = Lagrangian(e1["U"], FiniteSet(["w0", "w1"]), [[0, 0], [0, 0]])
    with pytest.raises(DomainMismatchError):
        rockafellian_of(bad, e1["c"])


def test_round_trip_is_rowwise_biconjugate(e1):
    r2 = rockafellian_of(lagrangian_of(e1["R"], e1["c"]), e1["c"])
    for u in e1["U"]:
        want = biconjugate(partial_rockafellian(e1["R"], u), e1["c"])
        assert partial_rockafellian(r2, u).isclose(want)


# --- perturbation / dual functions ------------------------------------------

def test_perturbation_function_e1(e1):
    phi = perturbation_function(e1["R"])
    assert vals_as_floats(phi) == bf.column_minima([[5.0, 3.0], [0.0, INF]])
    assert vals_as_floats(phi) == [0.0, 3.0]


def test_perturbation_function_single_decision():
    r = Rockafellian(["u0"], ["x0", "x1"], [[4.0, -INF]])
    assert vals_as_floats(perturbation_function(r)) == [4.0, -INF]


def test_perturbation_function_minus_inf_column():
    r = Rockafellian(["u0", "u1"], ["x0"], [[3.0], [-INF]])
    assert vals_as_floats(perturbation_function(r)) == [-INF]


def test_dual_function_e1(e1):
    psi = dual_function(lagrangian_of(e1["R"], e1["c"]))
    assert vals_as_floats(psi) == [0.0, 0.0]


def test_dual_function_single_decision():
    lag = Lagrangian(["u0"], ["y0", "y1"], [[1.0, INF]])
    assert vals_as_floats(dual_function(lag)) == [1.0, INF]


def test_neg_psi_equals_phi_conjugate(e1):
    psi = dual_function(lagrangian_of(e1["R"], e1["c"]))
    phi = perturbation_function(e1["R"])
    assert psi.negated().isclose(conjugate(phi, e1["c"]))


# --- weak duality ------------------------------------------------------------

def test_weak_duality_e1_tight(e1):
    rep = weak_duality_report(e1["R"], e1["c"], "x0")
    primal, dual = bf.weak_duality([[0.0, 0.0], [1.0, 2.0]], [[5.0, 3.0], [0.0, INF]], 0)
    assert (float(rep.primal_value), float(rep.dual_value)) == (primal, dual) == (0.0, 0.0)
    assert rep.tight and rep.gap == ExtReal(0.0)


def test_weak_duality_e1_gap(e1):
    rep = weak_duality_report(e1["R"], e1["c"], "x1")
    primal, dual = bf.weak_duality([[0.0, 0.0], [1.0, 2.0]], [[5.0, 3.0], [0.0, INF]], 1)
    assert (float(rep.primal_value), float(rep.dual_value)) == (primal, dual) == (3.0, 2.0)
    assert not rep.tight and rep.gap == ExtReal(1.0)


def test_weak_duality_all_plus_inf(e1):
    # R identically +inf forces psi identically +inf, so with a finite
    # coupling the dual value is +inf as well: tight, no finite gap
    r = Rockafellian(e1["U"], e1["X"], [[INF, INF], [INF, INF]])
    rep = weak_duality_report(r, e1["c"], "x0")
    assert rep.primal_value == INF
    assert rep.dual_value == INF
    assert rep.tight
    assert rep.gap is None


def test_weak_duality_report_reads_one_coupling_row(e1):
    # the dual value reads a view of the base point's row alone, so the
    # report leaves the coupling's sorted row view unbuilt
    c = Coupling(e1["X"], e1["Y"], e1["c"].rows)
    for x in c.primal:
        assert weak_duality_report(e1["R"], c, x) == weak_duality_report(e1["R"], e1["c"], x)
    assert "sorted_rows" not in vars(c)


def _hexes(report):
    return [v.hex() if isinstance(v, float) else v for v in report]


@pytest.mark.parametrize("values", sorted(VALUE_FAMILIES))
def test_reports_at_every_base_point_are_the_one_point_reports(values):
    # one phi^c and one row over c.sorted_rows give each point's report bit
    # for bit, and a violating point its error, while the others report
    rng = random.Random(21)
    violations = 0
    for i in range(300):
        inst = fuzz_instance(rng, i, values=values)
        r, c = inst.rockafellian, inst.coupling
        for tol in (0.0, 1e-9):
            reports = weak_duality_reports(r, c, tol)
            assert len(reports) == len(c.primal)
            for x, rep in zip(c.primal, reports):
                if isinstance(rep, ArithmeticError):
                    violations += 1
                    with pytest.raises(ArithmeticError) as exc:
                        weak_duality_report(r, c, x, tol)
                    assert str(exc.value) == str(rep)
                    continue
                assert _hexes(rep) == _hexes(weak_duality_report(r, c, x, tol))
    assert (violations > 0) == (values != "integer")  # off the grid, at tol 0


def test_weak_duality_reports_check_the_domain(e1):
    c = Coupling(e1["Y"], e1["X"], e1["c"].rows)
    with pytest.raises(DomainMismatchError, match="weak_duality_reports"):
        weak_duality_reports(Rockafellian(e1["U"], FiniteSet(["a", "b"]), e1["R"].rows), c)


def test_weak_duality_unknown_base_point(e1):
    with pytest.raises(UnknownLabelError):
        weak_duality_report(e1["R"], e1["c"], "x9")


# --- randomized cross-checks against the oracle ------------------------------

def test_transforms_match_oracle_randomized():
    rng = random.Random(123)
    for _ in range(120):
        c, r, lag, c_rows, r_rows, l_rows = random_instance(rng)
        assert rows_as_floats(lagrangian_of(r, c)) == bf.lagrangian(c_rows, r_rows)
        assert rows_as_floats(rockafellian_of(lag, c)) == bf.rockafellian(c_rows, l_rows)
        assert vals_as_floats(perturbation_function(r)) == bf.column_minima(r_rows)
        for i in range(len(c.primal)):
            primal, dual = bf.weak_duality(c_rows, r_rows, i)
            rep = weak_duality_report(r, c, c.primal.labels[i])
            assert float(rep.primal_value) == primal
            assert float(rep.dual_value) == dual


def test_proposition_identities_randomized():
    rng = random.Random(321)
    for _ in range(120):
        c, r, lag, *_ = random_instance(rng)
        built = lagrangian_of(r, c)
        # exact identity for the inf-direction transform
        psi = dual_function(built)
        phi = perturbation_function(r)
        assert psi.negated().isclose(conjugate(phi, c))
        for u in built.decisions:
            assert is_cprime_convex(partial_lagrangian(built, u).negated(), c)
        # inequality only for the sup-direction transform
        r2 = rockafellian_of(lag, c)
        phi2 = perturbation_function(r2)
        lower = reverse_conjugate(dual_function(lag).negated(), c)
        assert all(approx_le(a, b) for a, b in zip(lower.values, phi2.values))
        for u in r2.decisions:
            assert is_c_convex(partial_rockafellian(r2, u), c)
        # round-trip contraction, with equality exactly on c-convex rows
        r3 = rockafellian_of(built, c)
        assert all(
            approx_le(a, b)
            for ra, rb in zip(r3.rows, r.rows)
            for a, b in zip(ra, rb)
        )
        assert r3.isclose(r) == all(
            is_c_convex(partial_rockafellian(r, u), c) for u in r.decisions
        )
        # round-trip stability
        assert lagrangian_of(r3, c).isclose(built)


# --- psi through phi: the report against the Lagrangian route ---------------

@st.composite
def weak_duality_instance(draw):
    """(c, R, L) rows up to 5 a side from one fuzz value family, a third of
    the entries replaced by an infinity or a zero of either sign."""
    family = VALUE_FAMILIES[draw(st.sampled_from(sorted(VALUE_FAMILIES)))]
    rng = draw(st.randoms(use_true_random=False))
    special = st.sampled_from([-INF, INF, 0.0, -0.0])

    def table(n, m):
        return [[draw(special) if draw(st.integers(0, 2)) == 0 else float(family(rng))
                 for _ in range(m)] for _ in range(n)]

    nu, nx, ny = (draw(st.integers(min_value=1, max_value=5)) for _ in range(3))
    return table(nx, ny), table(nu, nx), table(nu, ny)


@given(weak_duality_instance())
@settings(max_examples=300, deadline=None)
def test_psi_through_phi_is_the_lagrangian_route_bit_for_bit(data):
    # -psi = phi^c holds bit for bit, so the report's psi = 0.0 - phi^c is
    # the dual function of the whole Lagrangian, and so is its dual value
    c_rows, r_rows, _ = data
    U = FiniteSet([f"u{i}" for i in range(len(r_rows))])
    X = FiniteSet([f"x{i}" for i in range(len(c_rows))])
    Y = FiniteSet([f"y{i}" for i in range(len(c_rows[0]))])
    c, r = Coupling(X, Y, c_rows), Rockafellian(U, X, r_rows)
    psi = dual_function(lagrangian_of(r, c)).values
    via_phi = conjugate(perturbation_function(r), c).negated().values
    assert [v.hex() for v in via_phi] == [v.hex() for v in psi]
    for x, c_row in zip(X, c.rows):
        dual = max(map(low_add, c_row, psi))
        try:
            rep = weak_duality_report(r, c, x)
        except ArithmeticError as exc:  # a dual value rounded above the primal
            assert dual > perturbation_function(r)(x), exc
            continue
        assert rep.dual_value.hex() == dual.hex()


@given(weak_duality_instance())
@settings(max_examples=300, deadline=None)
def test_conjugates_transforms_and_dual_values_match_oracle(data):
    # off the integer grid too, in every fuzz value family: each conjugate,
    # transform row and dual value the kernel computes is the brute-force
    # one bit for bit, on the entries read with one zero
    c_rows, r_rows, l_rows = data
    U = FiniteSet([f"u{i}" for i in range(len(r_rows))])
    X = FiniteSet([f"x{i}" for i in range(len(c_rows))])
    Y = FiniteSet([f"y{i}" for i in range(len(c_rows[0]))])
    c, r, lag = Coupling(X, Y, c_rows), Rockafellian(U, X, r_rows), Lagrangian(U, Y, l_rows)
    cb, rb, lb = ([[v + 0.0 for v in row] for row in t] for t in (c_rows, r_rows, l_rows))

    def hexes(values):
        return [v.hex() for v in values]

    for f, g in zip(rb, lb):
        assert hexes(conjugate(SetFunction(X, f), c).values) == hexes(bf.conjugate(cb, f))
        assert hexes(reverse_conjugate(SetFunction(Y, g), c).values) == hexes(
            bf.reverse_conjugate(cb, g))
    assert list(map(hexes, lagrangian_of(r, c).rows)) == list(map(hexes, bf.lagrangian(cb, rb)))
    assert list(map(hexes, rockafellian_of(lag, c).rows)) == list(
        map(hexes, bf.rockafellian(cb, lb)))
    for ix, x in enumerate(X):
        primal, dual = bf.weak_duality(cb, rb, ix)
        try:
            rep = weak_duality_report(r, c, x)
        except ArithmeticError:  # a dual value rounded above the primal
            assert not approx_le(dual, primal)
            continue
        assert hexes((rep.primal_value, rep.dual_value)) == hexes((primal, dual))
