import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from gendual import (
    DEFAULT_TOL,
    Coupling,
    DomainMismatchError,
    FiniteSet,
    Lagrangian,
    Rockafellian,
    SetFunction,
    approx_eq,
    approx_le,
    audit,
    biconjugate,
    check_item_ii,
    check_item_iii,
    check_item_iv,
    check_item_v,
    conjugate,
    inequality_holds,
    lagrangian_of,
    load_problem,
    make_couple,
    minimality_probe,
    neg,
    partial_lagrangian,
    partial_rockafellian,
    reverse_biconjugate,
    reverse_conjugate,
    rockafellian_of,
    upp_add,
    young_check,
)

from gendual.fuzz import VALUE_FAMILIES

import bruteforce as bf

INF = math.inf


def replace(table_cls, table, row_set, col_set, iu, j, value):
    rows = [list(r) for r in table.rows]
    rows[iu][j] = value
    return table_cls(row_set, col_set, rows)


# --- inequality ---------------------------------------------------------------

def test_inequality_e1_couple(e1):
    assert inequality_holds(e1["L"], e1["R2"], e1["c"])


def test_inequality_e1_original_r(e1):
    # the original R dominates the rebuilt one, so the inequality still holds
    assert inequality_holds(e1["L"], e1["R"], e1["c"])


def test_inequality_broken_by_raising_l(e1):
    bumped = replace(Lagrangian, e1["L"], e1["U"], e1["Y"], 0, 0, 3.0)
    assert not inequality_holds(bumped, e1["R2"], e1["c"])


def test_inequality_domain_mismatch(e1):
    bad = Lagrangian(FiniteSet(["w0"]), e1["Y"], [[0.0, 0.0]])
    with pytest.raises(DomainMismatchError):
        inequality_holds(bad, e1["R2"], e1["c"])


# --- items (ii) through (v) ----------------------------------------------------

def test_item_ii(e1):
    assert check_item_ii(e1["L"], e1["R2"], e1["c"])
    assert not check_item_ii(e1["L"], e1["R"], e1["c"])


def test_item_ii_degenerate_minus_inf():
    c = Coupling(["x"], ["y"], [[0.0]])
    lag = Lagrangian(["u"], ["y"], [[-INF]])
    r = Rockafellian(["u"], ["x"], [[-INF]])
    assert check_item_ii(lag, r, c)
    assert check_item_iii(lag, r, c)
    assert check_item_iv(lag, r, c)
    assert check_item_v(lag, r, c)


def test_item_iii(e1):
    assert check_item_iii(e1["L"], e1["R2"], e1["c"])
    assert not check_item_iii(e1["L"], e1["R"], e1["c"])


def test_item_iii_trivial_zero():
    c = Coupling(["x"], ["y"], [[0.0]])
    lag = Lagrangian(["u"], ["y"], [[0.0]])
    r = Rockafellian(["u"], ["x"], [[0.0]])
    assert check_item_iii(lag, r, c)


@pytest.mark.parametrize("checker", [check_item_iv, check_item_v])
def test_items_iv_v_match_iii_on_e1(e1, checker):
    assert checker(e1["L"], e1["R2"], e1["c"])
    assert not checker(e1["L"], e1["R"], e1["c"])


# --- minimality ----------------------------------------------------------------

def test_probe_true_on_couple(e1):
    assert minimality_probe(e1["L"], e1["R2"], e1["c"])


def test_probe_false_on_dominating_r(e1):
    # R(u0,x0) = 5 can drop to its least feasible value 2 with the inequality intact
    assert not minimality_probe(e1["L"], e1["R"], e1["c"])


def test_probe_names_a_slack_of_1e_4(e1):
    # R(u0,x0) = 2.0001 sits 1e-4 above its least feasible value 2.0
    r = replace(Rockafellian, e1["R2"], e1["U"], e1["X"], 0, 0, 2.0001)
    assert inequality_holds(e1["L"], r, e1["c"])
    assert not minimality_probe(e1["L"], r, e1["c"])
    a = audit(e1["L"], r, e1["c"])
    assert not (a.item_i_minimality_probe or a.item_ii)
    w = next(w for w in a.witnesses if w.item == "i-minimality")
    assert (w.u, w.x, w.y) == ("u0", "x0", None)


def test_probe_false_when_inequality_fails(e1):
    bumped = replace(Lagrangian, e1["L"], e1["U"], e1["Y"], 0, 0, 3.0)
    assert not minimality_probe(bumped, e1["R2"], e1["c"])


def test_inequality_failing_after_minimality_is_not_probed(e1):
    # with its original R, e1 fails minimality at u0 and keeps the
    # inequality; L(u1,y0) raised to 3 breaks the inequality at u1 only, so
    # the one row pass meets the minimality witness first and must still
    # report minimality as not probed
    a = audit(e1["L"], e1["R"], e1["c"])
    assert a.item_i_inequality
    assert [w.u for w in a.witnesses if w.item == "i-minimality"] == ["u0"]
    bumped = replace(Lagrangian, e1["L"], e1["U"], e1["Y"], 1, 0, 3.0)
    assert not inequality_holds(bumped, e1["R"], e1["c"])
    assert not minimality_probe(bumped, e1["R"], e1["c"])
    a = audit(bumped, e1["R"], e1["c"])
    assert not (a.item_i_inequality or a.item_i_minimality_probe)
    assert [tuple(w) for w in a.witnesses if w.item.startswith("i-")] == [
        ("i-inequality", "u1", "x0", "y0",
         "-L(u1,y0) upper-add R(u1,x0) = -3.0 < c(x0,y0) = 0.0"),
        ("i-minimality", None, None, None, "not probed: the inequality itself fails"),
    ]
    assert _literal_inequality_witness(bumped, e1["R"], e1["c"]) == tuple(a.witnesses[0])[1:]
    assert _reference_minimality(bumped, e1["R"], e1["c"]) == INEQUALITY_FAILS


def test_probe_saturated_instance():
    # -inf entries admit no decrease; the probe holds vacuously there
    c = Coupling(["x"], ["y"], [[0.0]])
    lag = Lagrangian(["u"], ["y"], [[-INF]])
    r = Rockafellian(["u"], ["x"], [[-INF]])
    assert minimality_probe(lag, r, c)


def _literal_inequality_witness(lag, r, c, tol=1e-9):
    """Reference inequality check: upp_add and approx_le on ExtReals for
    every triple.  Returns the first failing (u, x, y, description)."""
    for iu, u in enumerate(r.decisions.labels):
        for ix, x in enumerate(r.primal.labels):
            for iy, y in enumerate(lag.dual.labels):
                lhs = upp_add(neg(lag.rows[iu][iy]), r.rows[iu][ix])
                cv = c.rows[ix][iy]
                if not approx_le(cv, lhs, tol):
                    return u, x, y, (
                        f"-L({u},{y}) upper-add R({u},{x}) = {lhs} < c({x},{y}) = {cv}"
                    )
    return None


INEQUALITY_FAILS = "inequality fails"


def _reference_minimality(lag, r, c, tol=1e-9):
    """Reference for item (i)'s minimality, from the brute-force transforms:
    the least feasible values rho = the Rockafellian of L and sigma = minus
    the Lagrangian of R, and approx_le entry by entry, R_u before -L_u for
    each u.  Returns None if minimality holds, INEQUALITY_FAILS if it is
    not tested, else the first failing (u, x, y, text, least value), the
    text up to the least value."""
    if _literal_inequality_witness(lag, r, c, tol) is not None:
        return INEQUALITY_FAILS
    rho = bf.rockafellian(c.rows, lag.rows)
    sigma = [[0.0 - v for v in row] for row in bf.lagrangian(c.rows, r.rows)]
    for iu, u in enumerate(lag.decisions.labels):
        for side, labels, have, want, text in (
            ("x", r.primal.labels, r.rows[iu], rho[iu],
             "R({u},{lab}) = {a} is above its least feasible value (-L_u)^c'({lab})"),
            ("y", lag.dual.labels, [0.0 - v for v in lag.rows[iu]], sigma[iu],
             "-L({u},{lab}) = {a} is above its least feasible value (R_u)^c({lab})"),
        ):
            for lab, a, b in zip(labels, have, want):
                if not approx_le(a, b, tol):
                    x, y = (lab, None) if side == "x" else (None, lab)
                    return u, x, y, text.format(u=u, lab=lab, a=a), b
    return None


def _minimality_witness_of(a):
    """The audit's i-minimality witness in the shape ``_reference_minimality``
    returns, the least value read back as a double."""
    w = next((w for w in a.witnesses if w.item == "i-minimality"), None)
    if w is None:
        return None
    if w.u is None:
        return INEQUALITY_FAILS
    text, least = w.description.rsplit(" = ", 1)
    return w.u, w.x, w.y, text, float(least)


def test_probe_agrees_with_literal_reference():
    rng = random.Random(99)
    pick = lambda: rng.choice([-INF, INF] + [float(k) for k in range(-5, 6)])
    for _ in range(60):
        nu, nx, ny = (rng.randint(1, 3) for _ in range(3))
        U = FiniteSet([f"u{i}" for i in range(nu)])
        X = FiniteSet([f"x{i}" for i in range(nx)])
        Y = FiniteSet([f"y{i}" for i in range(ny)])
        c = Coupling(X, Y, [[pick() for _ in range(ny)] for _ in range(nx)])
        r = Rockafellian(U, X, [[pick() for _ in range(nx)] for _ in range(nu)])
        lag, r2 = make_couple(r, c)
        for pair in ((lag, r2), (lag, r)):
            want = _reference_minimality(pair[0], pair[1], c)
            assert minimality_probe(pair[0], pair[1], c) == (want is None)
            assert _minimality_witness_of(audit(pair[0], pair[1], c)) == want


# values where IEEE and Moreau arithmetic part ways: opposite infinities,
# signed zeros, rounding at 1e-9 and overflow at the double range
extreme_entry = st.sampled_from([
    -INF, INF, 0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-9, -1e-9,
    sys.float_info.max, -sys.float_info.max,
])


@st.composite
def item_i_instance(draw):
    """(L, R, c, tol): random L, random L with a -inf in each row beside a
    finite entry where the row has two (-L_u is +inf where L is -inf, and
    that term never fails), the canonical couple of R, or the canonical L
    with R itself, so that the inequality both holds and fails."""
    nu, nx, ny = (draw(st.integers(min_value=1, max_value=3)) for _ in range(3))

    def table(n, m):
        return draw(st.lists(
            st.lists(extreme_entry, min_size=m, max_size=m), min_size=n, max_size=n
        ))

    U = FiniteSet([f"u{i}" for i in range(nu)])
    X = FiniteSet([f"x{i}" for i in range(nx)])
    Y = FiniteSet([f"y{i}" for i in range(ny)])
    c = Coupling(X, Y, table(nx, ny))
    r = Rockafellian(U, X, table(nu, nx))
    kind = draw(st.sampled_from(["random", "mixed", "couple", "dominating"]))
    if kind in ("random", "mixed"):
        rows = table(nu, ny)
        if kind == "mixed":
            for row in rows:
                j = draw(st.integers(min_value=0, max_value=ny - 1))
                row[j - 1] = draw(st.sampled_from([0.0, 1.0, -2.5, 1e-9]))
                row[j] = -INF
        lag = Lagrangian(U, Y, rows)
    else:
        lag, r2 = make_couple(r, c)
        if kind == "couple":
            r = r2
    return lag, r, c, draw(st.sampled_from([0.0, 1e-9, 1.0]))


def _sparse_l_instance(r_u1):
    """L row u0 is -inf everywhere and L row u1 has one finite entry, the
    shape of a rejected couple, so that item (i) skips u0 and scans u1 only
    at y1.  R row u1 is ``r_u1``."""
    U, X, Y = FiniteSet(["u0", "u1"]), FiniteSet(["x0", "x1"]), FiniteSet(["y0", "y1", "y2"])
    c = Coupling(X, Y, [[0.0, 0.0, 1.0], [2.0, -1.0, INF]])
    r = Rockafellian(U, X, [[-INF, 3.0], r_u1])
    lag = Lagrangian(U, Y, [[-INF, -INF, -INF], [-INF, 2.5, -INF]])
    return lag, r, c, 0.0


# the first fails at (u1, x0, y1): -2.5 upper-add 1.0 < 0.0; the second holds
@example(_sparse_l_instance([1.0, -INF]))
@example(_sparse_l_instance([3.0, 2.0]))
@given(item_i_instance())
@settings(max_examples=300)
def test_item_i_matches_literal_extreal_loops(data):
    lag, r, c, tol = data
    want = _literal_inequality_witness(lag, r, c, tol)
    assert inequality_holds(lag, r, c, tol) == (want is None)
    a = audit(lag, r, c, tol)
    got = next((w for w in a.witnesses if w.item == "i-inequality"), None)
    assert want == (got and (got.u, got.x, got.y, got.description))
    minimal = _reference_minimality(lag, r, c, tol)
    assert minimality_probe(lag, r, c, tol) == (minimal is None)
    assert a.item_i_minimality_probe == (minimal is None)
    assert _minimality_witness_of(a) == minimal
    for row in r.rows:
        f = SetFunction(r.primal, row)
        fc = conjugate(f, c)
        literal = all(
            not upp_add(fx, gy) < cv
            for fx, c_row in zip(f.values, c.rows)
            for gy, cv in zip(fc.values, c_row)
        )
        assert young_check(f, c) == literal


def test_minimality_holds_near_the_double_range():
    # a +inf entry beside c = DBL_MAX, and a couple near 6e14, where half an
    # ulp exceeds the default tol
    X, Y = FiniteSet(["x0"]), FiniteSet(["y0"])
    for c_entry, r_entry in ((sys.float_info.max, INF), (0.0, -634864309678605.6)):
        c = Coupling(X, Y, [[c_entry]])
        lag, r = make_couple(Rockafellian(["u0"], X, [[r_entry]]), c)
        assert minimality_probe(lag, r, c)
        a = audit(lag, r, c)
        assert a.is_couple and a.item_i_minimality_probe
        assert not any(w.item == "i-minimality" for w in a.witnesses)


@pytest.mark.parametrize("tol", [-1.0, math.nan, INF])
@pytest.mark.parametrize("check", [
    audit, inequality_holds, minimality_probe,
    check_item_ii, check_item_iii, check_item_iv, check_item_v,
])
def test_couple_checks_reject_bad_tolerance(e1, check, tol):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        check(e1["L"], e1["R2"], e1["c"], tol=tol)


@pytest.mark.parametrize("side, message", [
    ("primal", "couple check: Rockafellian primal set differs from the coupling's"),
    ("dual", "couple check: Lagrangian dual set differs from the coupling's"),
])
@pytest.mark.parametrize("check", [
    audit, inequality_holds, minimality_probe,
    check_item_ii, check_item_iii, check_item_iv, check_item_v,
])
def test_couple_checks_reject_mismatched_sets(e1, check, side, message):
    other = FiniteSet(["a", "b"])
    if side == "primal":
        c = Coupling(other, e1["Y"], e1["c"].rows)
    else:
        c = Coupling(e1["X"], other, e1["c"].rows)
    with pytest.raises(DomainMismatchError) as exc:
        check(e1["L"], e1["R2"], c)
    assert str(exc.value) == message


# --- audit and make_couple ------------------------------------------------------

def test_audit_e1_couple(e1):
    a = audit(e1["L"], e1["R2"], e1["c"])
    assert a.item_i_inequality and a.item_i_minimality_probe
    assert a.item_ii and a.item_iii and a.item_iv and a.item_v
    assert a.items_agree and a.is_couple
    assert a.witnesses == ()


def test_couple_rows_are_generalized_convex(e1):
    # consequence of being a couple: R rows c-convex, -L rows c'-convex
    from gendual import is_c_convex, is_cprime_convex, partial_lagrangian, partial_rockafellian

    for u in e1["U"]:
        assert is_c_convex(partial_rockafellian(e1["R2"], u), e1["c"])
        assert is_cprime_convex(partial_lagrangian(e1["L"], u).negated(), e1["c"])


def test_audit_e1_original_r(e1):
    a = audit(e1["L"], e1["R"], e1["c"])
    assert a.item_i_inequality
    assert not a.item_i_minimality_probe
    assert not (a.item_ii or a.item_iii or a.item_iv or a.item_v)
    assert a.items_agree and not a.is_couple
    items = {w.item for w in a.witnesses}
    assert items == {"i-minimality", "ii", "iii", "iv", "v"}


def test_audit_witness_points_at_first_violation(e1):
    bumped = replace(Lagrangian, e1["L"], e1["U"], e1["Y"], 0, 0, 3.0)
    a = audit(bumped, e1["R2"], e1["c"])
    w = next(w for w in a.witnesses if w.item == "i-inequality")
    assert (w.u, w.x, w.y) == ("u0", "x0", "y0")


# Between them the three instances give every witness template of the audit.
@pytest.mark.parametrize("l_entry, r_key, expected", [
    # E1 with its original R: the R forms of items (ii)-(v)
    (None, "R", [
        ("i-minimality", "u0", "x0", None,
         "R(u0,x0) = 5.0 is above its least feasible value (-L_u)^c'(x0) = 2.0"),
        ("ii", "u0", "x0", None, "R(u0,x0) = 5.0 but the sup-transform gives 2.0"),
        ("iii", "u0", "x0", None, "R(u0,x0) = 5.0 but (-L_u)^c'(x0) = 2.0"),
        ("iv", "u0", "x0", None,
         "R(u0,x0) = 5.0 is not c-convex: biconjugate gives 2.0"),
        ("v", "u0", "x0", None, "R(u0,x0) = 5.0 but (-L_u)^c'(x0) = 2.0"),
    ]),
    # the E1 couple with L(u0,y0) raised past the inequality
    ((0, 0, 3.0), "R2", [
        ("i-inequality", "u0", "x0", "y0",
         "-L(u0,y0) upper-add R(u0,x0) = -1.0 < c(x0,y0) = 0.0"),
        ("i-minimality", None, None, None, "not probed: the inequality itself fails"),
        ("ii", "u0", None, "y0", "L(u0,y0) = 3.0 but the inf-transform gives 2.0"),
        ("iii", "u0", None, "y0", "-L(u0,y0) = -3.0 but (R_u)^c(y0) = -2.0"),
        ("iv", "u0", None, "y0", "-L(u0,y0) = -3.0 but (R_u)^c(y0) = -2.0"),
        ("v", "u0", "x0", None, "R(u0,x0) = 2.0 but (-L_u)^c'(x0) = 3.0"),
    ]),
    # the E1 couple with L(u0,y1) lowered, so that it can rise again
    ((0, 1, -0.5), "R2", [
        ("i-minimality", "u0", None, "y1",
         "-L(u0,y1) = 0.5 is above its least feasible value (R_u)^c(y1) = -1.0"),
        ("ii", "u0", None, "y1", "L(u0,y1) = -0.5 but the inf-transform gives 1.0"),
        ("iii", "u0", None, "y1", "-L(u0,y1) = 0.5 but (R_u)^c(y1) = -1.0"),
        ("iv", "u0", None, "y1", "-L(u0,y1) = 0.5 but (R_u)^c(y1) = -1.0"),
        ("v", "u0", None, "y1",
         "-L(u0,y1) = 0.5 is not c'-convex: reverse biconjugate gives -1.0"),
    ]),
], ids=["original-R", "L-raised", "L-lowered"])
def test_audit_witnesses_are_pinned(e1, l_entry, r_key, expected):
    lag = e1["L"]
    if l_entry is not None:
        lag = replace(Lagrangian, lag, e1["U"], e1["Y"], *l_entry)
    a = audit(lag, e1[r_key], e1["c"])
    assert [(w.item, w.u, w.x, w.y, w.description) for w in a.witnesses] == expected


def _reference_item_witnesses(lag, r, c, tol):
    """Reference for items (ii)-(v): the public SetFunction conjugates and
    biconjugates, the two transforms, and approx_eq entry by entry.
    Returns the first witness of each failing item as (item, u, x, y,
    description), in audit order."""
    def first(item, u, side, labels, have, want, text):
        for lab, a, b in zip(labels, have, want):
            if not approx_eq(a, b, tol):
                x, y = (lab, None) if side == "x" else (None, lab)
                return item, u, x, y, text.format(u=u, lab=lab, a=a, b=b)
        return None

    def item_ii():
        halves = (
            ("y", lag, lagrangian_of(r, c),
             "L({u},{lab}) = {a} but the inf-transform gives {b}"),
            ("x", r, rockafellian_of(lag, c),
             "R({u},{lab}) = {a} but the sup-transform gives {b}"),
        )
        for i, u in enumerate(lag.decisions.labels):
            for side, have, want, text in halves:
                w = first("ii", u, side, have.col_set.labels, have.rows[i], want.rows[i], text)
                if w:
                    return w
        return None

    def rows(u):
        neg_lu = partial_lagrangian(lag, u).negated()
        r_u = partial_rockafellian(r, u)
        return {
            "E1": ("y", neg_lu, conjugate(r_u, c),
                   "-L({u},{lab}) = {a} but (R_u)^c({lab}) = {b}"),
            "E2": ("x", r_u, reverse_conjugate(neg_lu, c),
                   "R({u},{lab}) = {a} but (-L_u)^c'({lab}) = {b}"),
            "E3": ("x", r_u, biconjugate(r_u, c),
                   "R({u},{lab}) = {a} is not c-convex: biconjugate gives {b}"),
            "E4": ("y", neg_lu, reverse_biconjugate(neg_lu, c),
                   "-L({u},{lab}) = {a} is not c'-convex: reverse biconjugate gives {b}"),
        }

    def row_item(item, equations):
        for u in lag.decisions.labels:
            eq = rows(u)
            for name in equations:
                side, have, want, text = eq[name]
                w = first(item, u, side, have.domain.labels, have.values, want.values, text)
                if w:
                    return w
        return None

    found = [item_ii(), row_item("iii", ("E1", "E2")), row_item("iv", ("E1", "E3")),
             row_item("v", ("E2", "E4"))]
    return [w for w in found if w]


# fractional values, both signed zeros and both infinities
fractional_entry = st.one_of(
    st.sampled_from([-INF, INF, 0.0, -0.0]),
    st.floats(min_value=-20.0, max_value=20.0),
)


@st.composite
def items_instance(draw):
    """(L, R, c, tol) up to 12 a side: a random pair, a canonical couple, a
    canonical couple with a few entries nudged within tol (a signed zero
    flipped, or a finite entry moved by less than tol, or by 1e-12 at tol 0),
    so that rows agree within tol without being equal, or a canonical couple
    broken in two rows (see below)."""
    kind = draw(st.sampled_from(["random", "couple", "nudged", "broken"]))
    nu = draw(st.integers(min_value=3 if kind == "broken" else 1, max_value=12))
    nx, ny = (draw(st.integers(min_value=1, max_value=12)) for _ in range(2))

    def table(n, m):
        return draw(st.lists(
            st.lists(fractional_entry, min_size=m, max_size=m), min_size=n, max_size=n
        ))

    U = FiniteSet([f"u{i}" for i in range(nu)])
    X = FiniteSet([f"x{i}" for i in range(nx)])
    Y = FiniteSet([f"y{i}" for i in range(ny)])
    c = Coupling(X, Y, table(nx, ny))
    r = Rockafellian(U, X, table(nu, nx))
    tol = draw(st.sampled_from([0.0, 1e-9, 1.0]))
    if kind == "random":
        return Lagrangian(U, Y, table(nu, ny)), r, c, tol
    lag, r = make_couple(r, c)
    if kind == "nudged":
        step = draw(st.sampled_from([1e-12, -1e-12, tol / 2, -tol / 2]))
        tables = {"L": [list(row) for row in lag.rows], "R": [list(row) for row in r.rows]}
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            rows = tables[draw(st.sampled_from(["L", "R"]))]
            i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            j = draw(st.integers(min_value=0, max_value=len(rows[0]) - 1))
            v = rows[i][j]
            rows[i][j] = -v if v == 0.0 else v + step if math.isfinite(v) else v
        lag, r = Lagrangian(U, Y, tables["L"]), Rockafellian(U, X, tables["R"])
    if kind == "broken":
        # one entry of L and one of R moved by more than tol, in two
        # different rows u >= 1, so that an item's first witness can fall on
        # either of its two row comparisons, and within tol the row items
        # need not fail on the same row; a row without finite entries has
        # an infinity set to 0
        step = draw(st.sampled_from([-1.0, 1.0])) * (2 * tol + 0.5)
        u_l, u_r = draw(st.permutations(range(1, nu)))[:2]
        tables = {"L": [list(row) for row in lag.rows], "R": [list(row) for row in r.rows]}
        for rows, i in ((tables["L"], u_l), (tables["R"], u_r)):
            finite = [j for j, v in enumerate(rows[i]) if math.isfinite(v)]
            j = draw(st.sampled_from(finite or range(len(rows[i]))))
            rows[i][j] = rows[i][j] + step if finite else 0.0
        lag, r = Lagrangian(U, Y, tables["L"]), Rockafellian(U, X, tables["R"])
    return lag, r, c, tol


@given(items_instance())
@settings(max_examples=150, deadline=None)
def test_items_ii_to_v_match_reference(data):
    lag, r, c, tol = data
    want = _reference_item_witnesses(lag, r, c, tol)
    a = audit(lag, r, c, tol=tol)
    got = [(w.item, w.u, w.x, w.y, w.description) for w in a.witnesses
           if w.item in ("ii", "iii", "iv", "v")]
    assert got == want
    failing = {w[0] for w in want}
    assert (a.item_ii, a.item_iii, a.item_iv, a.item_v) == tuple(
        item not in failing for item in ("ii", "iii", "iv", "v"))


@given(items_instance())
@settings(max_examples=150, deadline=None)
def test_row_items_alone_match_audit(data):
    # each check_item_* runs the shared row pass with its item alone
    lag, r, c, tol = data
    a = audit(lag, r, c, tol=tol)
    assert (check_item_iii(lag, r, c, tol), check_item_iv(lag, r, c, tol),
            check_item_v(lag, r, c, tol)) == (a.item_iii, a.item_iv, a.item_v)
    assert minimality_probe(lag, r, c, tol) == a.item_i_minimality_probe


def test_items_name_their_own_first_witness_rows():
    # a canonical couple with L(u1,y1) lowered by 1.5 and R(u2,x2) raised by
    # 1.5, at tol 1: minimality and items (ii)-(iv) fail at u1, while item
    # (v) holds there within tol and leaves the shared row pass only at u2
    U, X, Y = (FiniteSet([f"{k}{i}" for i in range(3)]) for k in "uxy")
    c = Coupling(X, Y, [[-2.0, 1.0, -2.0], [1.0, 1.0, 2.0], [-1.0, 0.0, -1.0]])
    lag = Lagrangian(U, Y, [[-2.0, -4.0, -2.0], [-2.0, -5.5, -2.0], [-2.0, -4.0, -2.0]])
    r = Rockafellian(U, X, [[-3.0, 0.0, -3.0], [-3.0, 0.0, -3.0], [-3.0, 0.0, -1.5]])
    a = audit(lag, r, c, tol=1.0)
    assert {w.item: w.u for w in a.witnesses} == {
        "i-minimality": "u1", "ii": "u1", "iii": "u1", "iv": "u1", "v": "u2"}
    assert [(w.item, w.u, w.x, w.y, w.description) for w in a.witnesses
            if w.item != "i-minimality"] == _reference_item_witnesses(lag, r, c, 1.0)
    assert _minimality_witness_of(a) == _reference_minimality(lag, r, c, 1.0)


@pytest.fixture
def count_conjugate_rows(monkeypatch):
    """Records the view of each call the row items make to
    ``conjugate_row``: ``c.sorted_cols`` for a sigma row, ``c.sorted_rows``
    for a rho row."""
    import gendual.couple as couple

    calls = []
    kernel = couple.conjugate_row

    def counted(f, view):
        calls.append(view)
        return kernel(f, view)

    monkeypatch.setattr(couple, "conjugate_row", counted)
    return calls


def _canonical_couple(n, seed):
    """A canonical n x n x n couple on integer entries in [-5, 5]."""
    rng = random.Random(seed)
    U, X, Y = (FiniteSet([f"{k}{i}" for i in range(n)]) for k in "uxy")
    c = Coupling(X, Y, [[float(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)])
    return (*make_couple(
        Rockafellian(U, X, [[float(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]),
        c), c)


def test_each_conjugate_row_is_built_once_per_decision(problems_dir, count_conjugate_rows):
    # sigma_u and rho_u per u for a whole audit; each biconjugate is one of
    # them wherever item (iii) holds exactly, as on e1_couple.json, and is
    # built otherwise
    problem = load_problem(problems_dir / "e1_couple.json", allow_both=True)
    e1 = (problem.require_lagrangian(), problem.require_rockafellian(), problem.coupling)
    canonical = _canonical_couple(8, seed=8)
    count_conjugate_rows.clear()
    assert audit(*e1).is_couple
    assert len(count_conjugate_rows) == 4
    count_conjugate_rows.clear()
    assert audit(*canonical).is_couple
    assert len(count_conjugate_rows) == 2 * 8
    for lag, r, c in (e1, canonical):
        count_conjugate_rows.clear()
        assert check_item_iv(lag, r, c)
        assert len(count_conjugate_rows) == 2 * len(lag.decisions)


def _views(calls, c):
    """The kind of each recorded ``conjugate_row`` call on ``c``."""
    return ["sigma" if view is c.sorted_cols else "rho" for view in calls]


def test_item_ii_reuses_the_rho_rows_of_the_row_pass(
        problems_dir, count_kernel_calls, count_conjugate_rows):
    # item (ii) compares the rows of E1 and E2: alone, it makes a sigma row
    # and then a rho row at each u, while a passing audit adds none to the
    # conjugate rows of the row pass; the product kernel has no mirror
    import gendual.extreal as extreal

    assert not hasattr(extreal, "inf_product")
    call = ("conjugate_product", 1)
    problem = load_problem(problems_dir / "e1_couple.json", allow_both=True)
    e1 = (problem.require_lagrangian(), problem.require_rockafellian(), problem.coupling)
    for lag, r, c in (e1, _canonical_couple(8, seed=8)):
        n = len(lag.decisions)
        count_kernel_calls.clear()
        count_conjugate_rows.clear()
        assert check_item_ii(lag, r, c)
        assert count_kernel_calls == [call] * (2 * n)
        assert _views(count_conjugate_rows, c) == ["sigma", "rho"] * n
        count_kernel_calls.clear()
        count_conjugate_rows.clear()
        assert audit(lag, r, c).is_couple
        assert count_kernel_calls == [call] * len(count_conjugate_rows)
    # only the 4 conjugate rows that test_each_conjugate_row_is_built_once_
    # per_decision counts
    count_kernel_calls.clear()
    assert audit(*e1).is_couple
    assert count_kernel_calls == [call] * 4


def test_unbounded_decisions_audit_without_a_sort():
    # R_u = -inf everywhere feeds sigma_u a kernel row of +inf, and its
    # Lagrangian row L_u = -inf feeds rho_u a row of -inf: the audit of such
    # a couple sorts neither view of the coupling.  One raised R entry makes
    # its decision's row mixed, and only the view that row reads is sorted.
    n = 6
    rng = random.Random(6)
    U, X, Y = (FiniteSet([f"{k}{i}" for i in range(n)]) for k in "uxy")
    table = [[float(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
    lag, r = make_couple(Rockafellian(U, X, [[-INF] * n] * n), Coupling(X, Y, table))
    assert {v for row in lag.rows + r.rows for v in row} == {-INF}
    c = Coupling(X, Y, table)
    assert audit(lag, r, c).is_couple
    assert "pairs" not in vars(c.sorted_cols) and "pairs" not in vars(c.sorted_rows)
    c = Coupling(X, Y, table)
    raised = Rockafellian(U, X, [[0.0] + [-INF] * (n - 1) if u == 2 else [-INF] * n
                                 for u in range(n)])
    assert not audit(lag, raised, c).is_couple
    assert "pairs" in vars(c.sorted_cols) and "pairs" not in vars(c.sorted_rows)


@pytest.mark.parametrize("value", [3.0, INF])
def test_a_raised_entry_of_an_unbounded_couple_audits_without_a_sort(value):
    # the couple of an R that is -inf everywhere has L = -inf everywhere, and
    # one L entry raised from -inf makes -L_u +inf but for that entry, so
    # rho_u = (-L_u)^{c'} is one term per line for a finite raise, and for a
    # raise to +inf is +inf on the lines above -inf at that entry and -inf on
    # the rest.  On views wider than _SCAN_WIDTH neither sorts
    from gendual.extreal import _SCAN_WIDTH

    n = _SCAN_WIDTH + 1
    rng = random.Random(17)
    U, X, Y = (FiniteSet([f"{k}{i}" for i in range(n)]) for k in "uxy")
    table = [[float(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
    table[0][n // 2] = -INF  # a line that a raise to +inf at y = n/2 leaves
    lag, r = make_couple(Rockafellian(U, X, [[-INF] * n] * n), Coupling(X, Y, table))
    assert {v for row in lag.rows + r.rows for v in row} == {-INF}
    raised = Lagrangian(U, Y, [[value if (u, y) == (2, n // 2) else -INF for y in range(n)]
                               for u in range(n)])
    c = Coupling(X, Y, table)
    assert not audit(raised, r, c).is_couple
    assert "pairs" not in vars(c.sorted_cols) and "pairs" not in vars(c.sorted_rows)


def test_biconjugate_is_reused_from_equal_rows(count_conjugate_rows):
    # the coupling's -0.0 entries read as 0.0, so at u0 -L_u = [0.0] and
    # sigma_u = [0.0] are the same double: (R_u)^{cc'} is rho_u, not built
    # again, and the item (iv) witness names its 0.0, as the reference does
    U, X, Y = (FiniteSet([f"{k}{i}" for i in range(n)]) for k, n in zip("uxy", (3, 3, 1)))
    c = Coupling(X, Y, [[-0.0], [-0.0], [-INF]])
    lag = Lagrangian(U, Y, [[0.0], [-INF], [0.0]])
    r = Rockafellian(U, X, [[1.0, -0.0, INF], [-1.0, INF, INF], [-1.0, 2.0, -INF]])
    want = _reference_item_witnesses(lag, r, c, 0.0)
    assert ("iv", "u0", "x0", None,
            "R(u0,x0) = 1.0 is not c-convex: biconjugate gives 0.0") in want
    count_conjugate_rows.clear()
    assert not check_item_iv(lag, r, c, 0.0)
    assert _views(count_conjugate_rows, c) == ["sigma", "rho"]
    assert [(w.item, w.u, w.x, w.y, w.description) for w in audit(lag, r, c, tol=0.0).witnesses
            if w.item in ("ii", "iii", "iv", "v")] == want


def test_equal_conjugate_rows_are_the_held_rows(problems_dir):
    # where item (iii) holds exactly, sigma_u is the list -L_u and rho_u is
    # the list R_u, and so are the biconjugates: every later compare of a
    # pair reads one list twice
    import gendual.couple as couple

    problem = load_problem(problems_dir / "e1_couple.json", allow_both=True)
    e1 = (problem.require_lagrangian(), problem.require_rockafellian(), problem.coupling)
    for lag, r, c in (e1, _canonical_couple(8, seed=8)):
        for l_row, r_row in zip(lag.rows, r.rows):
            rows = couple._Rows(l_row, r_row, c)
            assert rows.sigma is rows.nl and rows.rho is rows.r
            assert rows.r_bi is rows.r and rows.nl_bi is rows.nl


def _bruteforce_item_iii_witness(lag, r, c, tol):
    """The first item (iii) witness, from the brute-force conjugates: E1
    then E2 at each u, -L_u negated as 0.0 - v (one zero)."""
    c_rows = [list(row) for row in c.rows]
    for u, l_row, r_row in zip(lag.decisions.labels, lag.rows, r.rows):
        nl = [0.0 - v for v in l_row]
        for side, labels, have, want, text in (
            ("y", c.dual.labels, nl, bf.conjugate(c_rows, list(r_row)),
             "-L({u},{lab}) = {a} but (R_u)^c({lab}) = {b}"),
            ("x", c.primal.labels, list(r_row), bf.reverse_conjugate(c_rows, nl),
             "R({u},{lab}) = {a} but (-L_u)^c'({lab}) = {b}"),
        ):
            for lab, a, b in zip(labels, have, want):
                if not approx_eq(a, b, tol):
                    x, y = (lab, None) if side == "x" else (None, lab)
                    return "iii", u, x, y, text.format(u=u, lab=lab, a=a, b=b)
    return None


@pytest.mark.parametrize("table", ["lagrangian", "rockafellian"])
def test_a_raised_entry_keeps_its_rows_apart(table):
    # one entry raised in row u3 of a canonical couple: there sigma_u is
    # not -L_u (L raised) or rho_u is not R_u (R raised), the rows before
    # it are still shared, and the witnesses are the references'
    import gendual.couple as couple

    lag, r, c = _canonical_couple(8, seed=8)
    held = lag if table == "lagrangian" else r
    rows = [list(row) for row in held.rows]
    j = next(j for j, v in enumerate(rows[3]) if math.isfinite(v))
    rows[3][j] += 1.0
    held = type(held)(held.row_set, held.col_set, rows)
    lag, r = (held, r) if table == "lagrangian" else (lag, held)
    for u, (l_row, r_row) in enumerate(zip(lag.rows, r.rows)):
        pair = couple._Rows(l_row, r_row, c)
        if u < 3:
            assert pair.sigma is pair.nl and pair.rho is pair.r
        elif u == 3:
            unshared = (pair.sigma, pair.nl) if table == "lagrangian" else (pair.rho, pair.r)
            assert unshared[0] is not unshared[1] and unshared[0] != unshared[1]
    a = audit(lag, r, c)
    want = _bruteforce_item_iii_witness(lag, r, c, DEFAULT_TOL)
    assert want is not None and want[1] == "u3"
    assert [tuple(w) for w in a.witnesses if w.item == "iii"] == [want]
    assert [tuple(w) for w in a.witnesses if w.item in ("ii", "iii", "iv", "v")] == \
        _reference_item_witnesses(lag, r, c, DEFAULT_TOL)


def test_item_ii_stops_at_the_first_witness_row(count_kernel_calls, count_conjugate_rows):
    # L changed in row u0: item (ii) builds that one sigma row and stops
    lag, r, c = _canonical_couple(8, seed=8)
    rows = [list(row) for row in lag.rows]
    j = next(j for j, v in enumerate(rows[0]) if math.isfinite(v))
    rows[0][j] += 1.0
    lag = Lagrangian(lag.decisions, lag.dual, rows)
    want = [w for w in _reference_item_witnesses(lag, r, c, DEFAULT_TOL) if w[0] == "ii"]
    assert want[0][1:4] == ("u0", None, f"y{j}")
    count_kernel_calls.clear()
    count_conjugate_rows.clear()
    assert not check_item_ii(lag, r, c)
    assert count_kernel_calls == [("conjugate_product", 1)]
    assert _views(count_conjugate_rows, c) == ["sigma"]
    assert [(w.item, w.u, w.x, w.y, w.description)
            for w in audit(lag, r, c).witnesses if w.item == "ii"] == want


def test_minimality_probe_stops_at_the_first_raised_row(
        monkeypatch, count_kernel_calls, count_conjugate_rows):
    # R raised in row u0: minimality fails there, on rho_u0 alone, and the
    # probe ends without an inequality scan; on the couple itself every u
    # is scanned
    import gendual.couple as couple_module

    scans = []

    def counted(c_rows, f, g, tol, exceeds=couple_module.exceeds):
        scans.append(len(c_rows))
        return exceeds(c_rows, f, g, tol)

    monkeypatch.setattr(couple_module, "exceeds", counted)
    lag, r, c = _canonical_couple(8, seed=8)
    assert minimality_probe(lag, r, c)
    assert len(scans) == 8
    rows = [list(row) for row in r.rows]
    i = next(i for i, v in enumerate(rows[0]) if math.isfinite(v))
    rows[0][i] += 1.0
    raised = Rockafellian(r.decisions, r.primal, rows)
    scans.clear()
    count_kernel_calls.clear()
    count_conjugate_rows.clear()
    assert not minimality_probe(lag, raised, c)
    assert scans == []
    assert count_kernel_calls == [("conjugate_product", 1)]
    assert _views(count_conjugate_rows, c) == ["rho"]


def test_item_ii_names_an_r_witness_before_a_later_l_witness():
    # R raised in row u0 where no inf of the Lagrangian is attained, so that
    # only item (ii)'s R half fails there, and L raised in row u2: item (ii)
    # runs both halves at each u, so its witness is the R one at u0, as in
    # the reference, and names the entry item (iii) names
    lag, r, c = _canonical_couple(4, seed=8)
    r_rows = [list(row) for row in r.rows]
    for i in range(len(r_rows[0])):
        r_rows[0][i] += 1.0
        raised = Rockafellian(r.decisions, r.primal, r_rows)
        if lagrangian_of(raised, c).rows[0] == lag.rows[0]:
            break
        r_rows[0][i] -= 1.0
    else:
        raise AssertionError("no entry of R_u0 is free to rise")
    l_rows = [list(row) for row in lag.rows]
    j = next(j for j, v in enumerate(l_rows[2]) if math.isfinite(v))
    l_rows[2][j] += 1.0
    lag = Lagrangian(lag.decisions, lag.dual, l_rows)
    assert rockafellian_of(lag, c).rows[0] != raised.rows[0]
    want = [w for w in _reference_item_witnesses(lag, raised, c, DEFAULT_TOL) if w[0] == "ii"]
    assert want[0][1:4] == ("u0", f"x{i}", None)
    a = audit(lag, raised, c)
    assert [(w.item, w.u, w.x, w.y, w.description) for w in a.witnesses if w.item == "ii"] == want
    assert [w[1:4] for w in a.witnesses if w.item == "iii"] == [want[0][1:4]]
    assert not check_item_ii(lag, raised, c)


@st.composite
def transform_row_instance(draw):
    """(R_u, c, L_u) for one decision, up to 6 a side: entries from one fuzz
    value family, each replaced by an infinity or a signed zero a quarter of
    the time; R_u is sometimes a column of c, so that sums R(u,x) - c(x,y)
    tie at zero.  L_u mixes entries of the inf-transform row, entries one
    ulp or about 1e-9 away from them, and fresh draws."""
    family = VALUE_FAMILIES[draw(st.sampled_from(sorted(VALUE_FAMILIES)))]
    rng = draw(st.randoms(use_true_random=False))
    special = st.sampled_from([-INF, INF, 0.0, -0.0])

    def entry():
        return draw(special) if draw(st.integers(0, 3)) == 0 else float(family(rng))

    nx, ny = (draw(st.integers(min_value=1, max_value=6)) for _ in range(2))
    c_rows = [[entry() for _ in range(ny)] for _ in range(nx)]
    if draw(st.booleans()):
        # a column of c, each entry v as v or as -(-v + 0.0), which is -0.0
        # for v = 0.0: the column's sums R(u,x) - c(x,y) tie at zero
        y = draw(st.integers(0, ny - 1))
        r_u = [draw(st.sampled_from([row[y], -(-row[y] + 0.0)])) for row in c_rows]
    else:
        r_u = [entry() for _ in range(nx)]
    row = bf.lagrangian(c_rows, [r_u])[0]
    l_u = []
    for v in row:
        kind = draw(st.sampled_from(["same", "ulp", "1e-9", "fresh"]))
        if kind == "ulp":
            v = math.nextafter(v, draw(st.sampled_from([-INF, INF])))
        elif kind == "1e-9":
            v += draw(st.sampled_from([-1.5e-9, -1e-9, 5e-10, 1e-9, 1.5e-9]))
        elif kind == "fresh":
            v = entry()
        l_u.append(v)
    return r_u, c_rows, l_u


@example(([0.0], [[0.0]], [0.0]))
@given(transform_row_instance())
@settings(max_examples=300, deadline=None)
def test_inf_transform_row_is_negated_sigma(data):
    # item (ii)'s L half runs as E1 on this identity: the Lagrangian's row
    # is 0.0 - sigma_u bit for bit, it is the brute-force inf-transform of
    # the entries read with one zero, and approx_eq gives the same verdicts
    # either way
    from gendual.conjugacy import conjugate_row

    r_u, c_rows, l_u = data
    U = FiniteSet(["u0"])
    X = FiniteSet([f"x{i}" for i in range(len(c_rows))])
    Y = FiniteSet([f"y{i}" for i in range(len(c_rows[0]))])
    c = Coupling(X, Y, c_rows)
    r = Rockafellian(U, X, [r_u])
    row = lagrangian_of(r, c).rows[0]
    sigma = conjugate_row(r.rows[0], c.sorted_cols)
    assert [v.hex() for v in row] == [(0.0 - v).hex() for v in sigma]
    want = bf.lagrangian([[v + 0.0 for v in line] for line in c_rows], [[v + 0.0 for v in r_u]])
    assert [v.hex() for v in row] == [v.hex() for v in want[0]]
    for tol in (0.0, 1e-9):
        assert ([approx_eq(a, b, tol) for a, b in zip(l_u, row)]
                == [approx_eq(0.0 - a, b, tol) for a, b in zip(l_u, sigma)])


def test_inf_transform_row_and_negated_sigma_agree_in_a_zero():
    # R_u = [-0.0] and c = [[-0.0]] read as 0.0: the inf-transform entry
    # and 0.0 - sigma_u are both +0.0, and item (ii)'s L witness prints it
    from gendual.conjugacy import conjugate_row

    U, X, Y = FiniteSet(["u0"]), FiniteSet(["x0"]), FiniteSet(["y0"])
    c = Coupling(X, Y, [[-0.0]])
    r = Rockafellian(U, X, [[-0.0]])
    assert lagrangian_of(r, c).rows[0][0].hex() == "0x0.0p+0"
    assert (0.0 - conjugate_row(r.rows[0], c.sorted_cols)[0]).hex() == "0x0.0p+0"
    lag = Lagrangian(U, Y, [[1.0]])
    assert [w.description for w in audit(lag, r, c).witnesses if w.item == "ii"] == [
        "L(u0,y0) = 1.0 but the inf-transform gives 0.0"]


@st.composite
def nudged_couple_instance(draw):
    """(L, R, c) up to 6 a side at the default tol: a random pair, a
    canonical couple, or a canonical couple with one finite entry of L or R
    moved by tol/2, 2 tol or 1e-4, either way."""
    nu, nx, ny = (draw(st.integers(min_value=1, max_value=6)) for _ in range(3))

    def table(n, m):
        return draw(st.lists(
            st.lists(fractional_entry, min_size=m, max_size=m), min_size=n, max_size=n
        ))

    U = FiniteSet([f"u{i}" for i in range(nu)])
    X = FiniteSet([f"x{i}" for i in range(nx)])
    Y = FiniteSet([f"y{i}" for i in range(ny)])
    c = Coupling(X, Y, table(nx, ny))
    r = Rockafellian(U, X, table(nu, nx))
    kind = draw(st.sampled_from(["random", "couple", "nudged"]))
    if kind == "random":
        return Lagrangian(U, Y, table(nu, ny)), r, c
    lag, r = make_couple(r, c)
    if kind == "nudged":
        step = draw(st.sampled_from([DEFAULT_TOL / 2, 2 * DEFAULT_TOL, 1e-4]))
        side = draw(st.sampled_from(["L", "R"]))
        rows = [list(row) for row in (lag if side == "L" else r).rows]
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        j = draw(st.integers(min_value=0, max_value=len(rows[0]) - 1))
        if math.isfinite(rows[i][j]):
            rows[i][j] += draw(st.sampled_from([step, -step]))
        if side == "L":
            lag = Lagrangian(U, Y, rows)
        else:
            r = Rockafellian(U, X, rows)
    return lag, r, c


@given(nudged_couple_instance())
@settings(max_examples=300, deadline=None)
def test_item_i_verdict_equals_item_ii(data):
    # the theorem's (i) <=> (ii): minimal in the inequality iff a couple
    lag, r, c = data
    a = audit(lag, r, c)
    assert (a.item_i_inequality and a.item_i_minimality_probe) == a.item_ii


def test_audit_random_round_trip_always_couple(e1):
    rng = random.Random(5)
    pick = lambda: rng.choice([-INF, INF] + [float(k) for k in range(-6, 7)])
    for _ in range(40):
        nu, nx, ny = (rng.randint(1, 4) for _ in range(3))
        U = FiniteSet([f"u{i}" for i in range(nu)])
        X = FiniteSet([f"x{i}" for i in range(nx)])
        Y = FiniteSet([f"y{i}" for i in range(ny)])
        c = Coupling(X, Y, [[pick() for _ in range(ny)] for _ in range(nx)])
        r = Rockafellian(U, X, [[pick() for _ in range(nx)] for _ in range(nu)])
        lag = lagrangian_of(r, c)
        r2 = rockafellian_of(lag, c)
        a = audit(lag, r2, c)
        assert a.is_couple and a.items_agree
        assert a.item_i_inequality and a.item_i_minimality_probe


def test_make_couple_e1(e1):
    lag, r2 = make_couple(e1["R"], e1["c"])
    assert lag.isclose(e1["L"]) and r2.isclose(e1["R2"])
    a = audit(lag, r2, e1["c"])
    assert a.is_couple


def test_make_couple_fixed_point_on_convex_rows(e1):
    lag, r2 = make_couple(e1["R2"], e1["c"])
    assert r2.isclose(e1["R2"])  # rows already c-convex
    lag2, r3 = make_couple(r2, e1["c"])
    assert lag2.isclose(lag) and r3.isclose(r2)


def test_make_couple_bottom(e1):
    r = Rockafellian(e1["U"], e1["X"], [[-INF, -INF], [-INF, -INF]])
    lag, r2 = make_couple(r, e1["c"])
    assert all(v == -INF for row in lag.rows for v in row)
    assert all(v == -INF for row in r2.rows for v in row)
