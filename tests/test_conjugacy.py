import math
import random
import sys

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import bruteforce as bf
from gendual import (
    Coupling,
    DomainMismatchError,
    FiniteSet,
    Lagrangian,
    Rockafellian,
    SetFunction,
    approx_le,
    biconjugate,
    bilinear_coupling,
    conjugate,
    is_c_convex,
    is_cprime_convex,
    lagrangian_of,
    pointwise_min,
    pointwise_max,
    reverse_biconjugate,
    reverse_conjugate,
    reverse_coupling,
    rockafellian_of,
    weak_duality_report,
    young_check,
)

INF = math.inf


def as_floats(fn):
    return [float(v) for v in fn.values]


@pytest.mark.parametrize("tol", [-1.0, INF, math.nan])
def test_convexity_tests_reject_a_bad_tol(e1, tol):
    f = SetFunction(e1["X"], [0.0, 1.0])
    g = SetFunction(e1["Y"], [0.0, 1.0])
    for test, h in ((is_c_convex, f), (is_cprime_convex, g)):
        with pytest.raises(ValueError, match="^tolerance must be finite and nonnegative$"):
            test(h, e1["c"], tol)


# --- worked examples --------------------------------------------------------

def test_conjugate_of_plus_inf_is_minus_inf(e1):
    f = SetFunction(e1["X"], [INF, INF])
    assert as_floats(conjugate(f, e1["c"])) == [-INF, -INF]


def test_conjugate_bilinear_zero_function():
    c = bilinear_coupling([-1, 0, 1], [-1, 0, 1])
    f = SetFunction(c.primal, [0.0, 0.0, 0.0])
    # oracle: max over x of x*y
    want = bf.conjugate([[x * y for y in (-1, 0, 1)] for x in (-1, 0, 1)], [0.0] * 3)
    assert as_floats(conjugate(f, c)) == want == [1.0, 0.0, 1.0]


def test_conjugate_bilinear_square():
    c = bilinear_coupling([-1, 0, 1], [-1, 0, 1])
    f = SetFunction(c.primal, [1.0, 0.0, 1.0])  # x^2 on the grid
    want = bf.conjugate(
        [[x * y for y in (-1, 0, 1)] for x in (-1, 0, 1)], [1.0, 0.0, 1.0]
    )
    assert as_floats(conjugate(f, c)) == want == [0.0, 0.0, 0.0]


def test_reverse_conjugate_of_plus_inf(e1):
    g = SetFunction(e1["Y"], [INF, INF])
    assert as_floats(reverse_conjugate(g, e1["c"])) == [-INF, -INF]


def test_reverse_conjugate_matches_reversed_coupling(e1):
    g = SetFunction(e1["Y"], [-2.0, -1.0])
    direct = reverse_conjugate(g, e1["c"])
    via_reverse = conjugate(g, reverse_coupling(e1["c"]))
    assert as_floats(direct) == as_floats(via_reverse) == [2.0, 3.0]


def test_biconjugate_spike():
    c = bilinear_coupling([0, 1, 2], [-1, 0, 1])
    f = SetFunction(c.primal, [0.0, 10.0, 0.0])
    want = bf.biconjugate(
        [[x * y for y in (-1, 0, 1)] for x in (0, 1, 2)], [0.0, 10.0, 0.0]
    )
    assert as_floats(biconjugate(f, c)) == want == [0.0, 0.0, 0.0]
    assert not is_c_convex(f, c)


def test_biconjugate_of_minus_inf(e1):
    f = SetFunction(e1["X"], [-INF, -INF])
    assert as_floats(biconjugate(f, e1["c"])) == [-INF, -INF]
    assert is_c_convex(f, e1["c"])


def test_biconjugate_e1_row(e1):
    f = SetFunction(e1["X"], [5.0, 3.0])
    want = bf.biconjugate([[0.0, 0.0], [1.0, 2.0]], [5.0, 3.0])
    assert as_floats(biconjugate(f, e1["c"])) == want == [2.0, 3.0]


def test_reverse_biconjugate(e1):
    g = SetFunction(e1["Y"], [-INF, -INF])
    assert as_floats(reverse_biconjugate(g, e1["c"])) == [-INF, -INF]
    # a conjugate is a fixed point
    g2 = conjugate(SetFunction(e1["X"], [5.0, 3.0]), e1["c"])
    assert reverse_biconjugate(g2, e1["c"]).isclose(g2)
    g3 = SetFunction(e1["Y"], [0.0, 0.0])
    assert as_floats(reverse_biconjugate(g3, e1["c"])) == [0.0, 0.0]


def test_cprime_convexity(e1):
    g = conjugate(SetFunction(e1["X"], [5.0, 3.0]), e1["c"])
    assert is_cprime_convex(g, e1["c"])
    assert is_cprime_convex(SetFunction(e1["Y"], [-INF, -INF]), e1["c"])
    # +inf equals (-inf)^c when the coupling is finite-valued, so it is a
    # conjugate and hence c'-convex
    top = SetFunction(e1["Y"], [INF, INF])
    assert reverse_biconjugate(top, e1["c"]).isclose(top)
    assert is_cprime_convex(top, e1["c"])
    assert conjugate(SetFunction(e1["X"], [-INF, -INF]), e1["c"]).isclose(top)


def test_c_convex_from_reverse_conjugate(e1):
    f = reverse_conjugate(SetFunction(e1["Y"], [-2.0, -1.0]), e1["c"])
    assert is_c_convex(f, e1["c"])


def test_young_check(e1):
    assert young_check(SetFunction(e1["X"], [5.0, 3.0]), e1["c"])
    assert young_check(SetFunction(e1["X"], [INF, INF]), e1["c"])
    assert young_check(SetFunction(e1["X"], [-INF, -INF]), e1["c"])


def test_domain_mismatch_raises(e1):
    f = SetFunction(FiniteSet(["a", "b"]), [0.0, 0.0])
    with pytest.raises(DomainMismatchError):
        conjugate(f, e1["c"])
    with pytest.raises(DomainMismatchError):
        reverse_conjugate(f, e1["c"])


# --- randomized properties, cross-checked against the oracle ----------------

entry = st.one_of(
    st.just(-INF),
    st.just(INF),
    st.integers(min_value=-10, max_value=10).map(float),
)


# zeros of both signs, which every entry path reads as one zero
signed_entry = st.sampled_from([-INF, INF, 0.0, -0.0, 1.0, -1.0, 2.5, -2.5])


def one_zero(rows):
    """Rows with -0.0 read as 0.0, as the package reads its entries."""
    return [[v + 0.0 for v in row] for row in rows]


@st.composite
def coupling_and_functions(draw, values=entry):
    """Coupling over X x Y, two functions on X, and tables over U x X, U x Y."""
    nu, nx, ny = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))

    def table(n, m):
        return draw(
            st.lists(
                st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )

    c_rows = table(nx, ny)
    f_vals, g_vals = table(2, nx)
    return c_rows, f_vals, g_vals, table(nu, nx), table(nu, ny)


@given(coupling_and_functions())
@settings(max_examples=150)
def test_conjugate_matches_oracle(data):
    c_rows, f_vals = data[:2]
    X = FiniteSet([f"x{i}" for i in range(len(c_rows))])
    Y = FiniteSet([f"y{j}" for j in range(len(c_rows[0]))])
    c = Coupling(X, Y, c_rows)
    f = SetFunction(X, f_vals)
    assert as_floats(conjugate(f, c)) == bf.conjugate(c_rows, f_vals)
    assert as_floats(biconjugate(f, c)) == bf.biconjugate(c_rows, f_vals)


@given(coupling_and_functions())
@settings(max_examples=150)
def test_conjugacy_laws(data):
    c_rows, f_vals, g_vals = data[:3]
    X = FiniteSet([f"x{i}" for i in range(len(c_rows))])
    Y = FiniteSet([f"y{j}" for j in range(len(c_rows[0]))])
    c = Coupling(X, Y, c_rows)
    f = SetFunction(X, f_vals)
    g = SetFunction(X, g_vals)

    # antitonicity through a dominated function
    m = pointwise_min(f, g)
    assert all(
        approx_le(a, b)
        for a, b in zip(conjugate(f, c).values, conjugate(m, c).values)
    )
    # biconjugate below, triple conjugate exact, idempotence
    bi = biconjugate(f, c)
    assert all(approx_le(a, b) for a, b in zip(bi.values, f.values))
    assert conjugate(bi, c).isclose(conjugate(f, c))
    assert biconjugate(bi, c).isclose(bi)
    # inf of a family maps to sup of conjugates
    assert conjugate(m, c).isclose(
        pointwise_max(conjugate(f, c), conjugate(g, c))
    )
    # anything of the form g^{c'} is c-convex
    assert is_c_convex(reverse_conjugate(conjugate(f, c), c), c)
    # Young holds always
    assert young_check(f, c)


def same(values, want):
    # repr tells -0.0 from 0.0, which == does not
    assert [repr(float(v)) for v in values] == [repr(w) for w in want]


# The former tie traps of the kernel's sorted scan: visiting the coupling
# line in descending order meets a zero sum at a later index first, and one
# of the other sign at a lower index after it, had -0.0 entries been kept.
# In the first example, column y0 meets -f = (-0.0, -1.0) against c =
# (-0.0, 1.0), and column y1 meets the R row (-1.0, -0.0); in the second,
# row x0 meets -g and the L row u1, both (-0.0, -1.0).  With -0.0 read as
# 0.0, every zero sum is +0.0, so the scan order cannot decide a zero's
# sign: each result is the oracle's on the inputs read with one zero, bit
# for bit, and none is -0.0.
@example(([[-0.0, -1.0], [1.0, 0.0]], [0.0, 1.0], [0.0, 0.0], [[-1.0, -0.0]],
          [[0.0, 0.0]]))
@example(([[-0.0, 1.0]], [0.0], [0.0], [[0.0], [1.0]], [[0.0, 1.0], [-0.0, -1.0]]))
@given(coupling_and_functions(values=signed_entry))
@settings(max_examples=300)
def test_signed_zeros_match_oracle(data):
    c_rows, f_vals, _, r_rows, l_rows = data
    U = FiniteSet([f"u{i}" for i in range(len(r_rows))])
    X = FiniteSet([f"x{i}" for i in range(len(c_rows))])
    Y = FiniteSet([f"y{j}" for j in range(len(c_rows[0]))])
    c = Coupling(X, Y, c_rows)
    r = Rockafellian(U, X, r_rows)
    # the oracle reads the entries as the package does
    oc, orr, ol, (of,) = one_zero(c_rows), one_zero(r_rows), one_zero(l_rows), one_zero([f_vals])

    same(conjugate(SetFunction(X, f_vals), c).values, bf.conjugate(oc, of))
    same(
        reverse_conjugate(SetFunction(Y, l_rows[0]), c).values,
        bf.reverse_conjugate(oc, ol[0]),
    )
    for have, want in zip(lagrangian_of(r, c).rows, bf.lagrangian(oc, orr)):
        same(have, want)
    lag = Lagrangian(U, Y, l_rows)
    for have, want in zip(rockafellian_of(lag, c).rows, bf.rockafellian(oc, ol)):
        same(have, want)
    for ix, x in enumerate(X):
        rep = weak_duality_report(r, c, x)
        same((rep.primal_value, rep.dual_value), bf.weak_duality(oc, orr, ix))


@st.composite
def pruned_scan_tables(draw):
    """(c, R, L) rows over up to 24 labels a side, where the kernel's bound
    prunes: quarter-grid entries with exact ties, zeros of both signs,
    uniform fractions and 0-5% of each infinity.

    Most rows of R and L copy a line of c, now and then raised, so that zero
    is the optimum of a scan, reached at several indices: the ties of a
    sorted scan.  v + 0.0 turns -0.0 into 0.0, and -(-v + 0.0) turns 0.0
    into -0.0; the package reads both as 0.0, so every zero sum below is
    +0.0 whichever zero the row holds."""
    # a seeded generator, not hypothesis draws: those favour small sizes and
    # simple values, where the traps are rare
    rng = draw(st.randoms(use_true_random=True))
    nu, nx, ny = (rng.randint(1, 24) for _ in range(3))
    p_inf = rng.choice([0.0, 0.01, 0.05])

    def table(n, m):
        lo, hi = rng.choice([(-12, 12), (-12, 0), (0, 12)])

        def entry():
            t = rng.random()
            if t < p_inf:
                return -INF
            if t < 2 * p_inf:
                return INF
            if t < 0.3:
                return rng.choice([0.0, -0.0])
            if t < 0.7:
                return rng.randint(lo, hi) / 4
            return rng.uniform(lo, hi) / 4

        return [[entry() for _ in range(m)] for _ in range(n)]

    def up(v):
        return v + rng.randint(1, 8) / 4 if rng.random() < 0.3 else v

    c_rows = table(nx, ny)

    def r_row(row):
        y = rng.randrange(ny)
        col = [line[y] for line in c_rows]
        # conjugate sums c - f: 0.0 or below
        sup_tight = [up(v + 0.0) for v in col]
        # inf-transform sums R - c: 0.0 or above; twice as likely, as only
        # the inf-transform negates the kernel's operand and result
        inf_tight = [up(-(-v + 0.0)) for v in col]
        return rng.choice([row, sup_tight, inf_tight, inf_tight])

    def l_row(row):
        line = c_rows[rng.randrange(nx)]
        return rng.choice([
            row,
            # sup-transform sums L + c: 0.0 or below
            [-up(v + 0.0) for v in line],
            # reverse-conjugate sums c - g: as for the conjugate
            [up(v + 0.0) for v in line],
        ])

    return (c_rows, [r_row(row) for row in table(nu, nx)],
            [l_row(row) for row in table(nu, ny)])


# no shrink phase: tables drawn from a seeded generator do not shrink
@given(pruned_scan_tables())
@settings(max_examples=200, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_pruned_kernel_matches_oracle(data):
    c_rows, r_rows, l_rows = data
    U = FiniteSet([f"u{i}" for i in range(len(r_rows))])
    X = FiniteSet([f"x{i}" for i in range(len(c_rows))])
    Y = FiniteSet([f"y{j}" for j in range(len(c_rows[0]))])
    c = Coupling(X, Y, c_rows)
    # the oracle reads the entries as the package does
    oc, orr, ol = one_zero(c_rows), one_zero(r_rows), one_zero(l_rows)
    for f_vals, want in zip(r_rows, orr):
        same(conjugate(SetFunction(X, f_vals), c).values, bf.conjugate(oc, want))
    for g_vals, want in zip(l_rows, ol):
        same(
            reverse_conjugate(SetFunction(Y, g_vals), c).values,
            bf.reverse_conjugate(oc, want),
        )
    lag = lagrangian_of(Rockafellian(U, X, r_rows), c)
    for have, want in zip(lag.rows, bf.lagrangian(oc, orr)):
        same(have, want)
    r = rockafellian_of(Lagrangian(U, Y, l_rows), c)
    for have, want in zip(r.rows, bf.rockafellian(oc, ol)):
        same(have, want)


@st.composite
def rows_fixed_at_an_infinity(draw):
    """A coupling with some rows and columns all -inf, and tables over
    U x X and U x Y whose rows are each +inf everywhere, -inf everywhere or
    mixed: the rows that the kernel answers without a scan and those it
    scans, in one call."""
    nu, nx, ny = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    dead_x = draw(st.sets(st.integers(min_value=0, max_value=nx - 1)))
    dead_y = draw(st.sets(st.integers(min_value=0, max_value=ny - 1)))
    c_rows = [[-INF if i in dead_x or j in dead_y else draw(entry) for j in range(ny)]
              for i in range(nx)]

    def row(m):
        kind = draw(st.sampled_from(("inf", "-inf", "mixed")))
        if kind == "mixed":
            return draw(st.lists(entry, min_size=m, max_size=m))
        return [float(kind)] * m

    return c_rows, [row(nx) for _ in range(nu)], [row(ny) for _ in range(nu)]


def hexes(values):
    return [float(v).hex() for v in values]


@given(rows_fixed_at_an_infinity())
@settings(max_examples=300, deadline=None)
def test_rows_fixed_at_an_infinity_match_oracle(data):
    # R_u = +inf and L_u = -inf give kernel rows of -inf, R_u = -inf and a
    # reverse-conjugated g = -inf give kernel rows of +inf; each result is
    # the oracle's bit for bit, and so is every weak-duality report
    c_rows, r_rows, l_rows = data
    U = FiniteSet([f"u{i}" for i in range(len(r_rows))])
    X = FiniteSet([f"x{i}" for i in range(len(c_rows))])
    Y = FiniteSet([f"y{j}" for j in range(len(c_rows[0]))])
    c = Coupling(X, Y, c_rows)
    for f_vals in r_rows:
        assert hexes(conjugate(SetFunction(X, f_vals), c).values) == hexes(
            bf.conjugate(c_rows, f_vals))
    for g_vals in l_rows:
        assert hexes(reverse_conjugate(SetFunction(Y, g_vals), c).values) == hexes(
            bf.reverse_conjugate(c_rows, g_vals))
    r = Rockafellian(U, X, r_rows)
    for have, want in zip(lagrangian_of(r, c).rows, bf.lagrangian(c_rows, r_rows)):
        assert hexes(have) == hexes(want)
    lag = Lagrangian(U, Y, l_rows)
    for have, want in zip(rockafellian_of(lag, c).rows, bf.rockafellian(c_rows, l_rows)):
        assert hexes(have) == hexes(want)
    for ix, x in enumerate(X):
        rep = weak_duality_report(r, c, x)
        assert hexes((rep.primal_value, rep.dual_value)) == hexes(
            bf.weak_duality(c_rows, r_rows, ix))


def _finite_draw(rng):
    """A draw of finite entries of one kind, chosen by ``rng``: integers,
    fractions, ones near DBL_MAX, whose differences overflow, or tiny ones,
    subnormal or zero, never -0.0."""
    kind = rng.choice(["integer", "fraction", "near-overflow", "tiny"])

    def finite():
        if kind == "integer":
            return float(rng.randint(-10, 10))
        if kind == "fraction":
            return rng.uniform(-10.0, 10.0) + 0.0
        if kind == "near-overflow":
            return rng.choice([1.0, -1.0]) * sys.float_info.max * rng.uniform(0.5, 1.0)
        return rng.choice([1.0, -1.0]) * 5e-324 * rng.randint(0, 1000) + 0.0

    return finite


def _assert_kernel_rows_match_oracle(c_rows, r_rows, g_rows, l_rows):
    """The conjugate of each row of R, the reverse conjugate of each row of
    G, and both transforms, against the brute-force oracle by float.hex."""
    U = FiniteSet([f"u{i}" for i in range(len(r_rows))])
    X = FiniteSet([f"x{i}" for i in range(len(c_rows))])
    Y = FiniteSet([f"y{j}" for j in range(len(c_rows[0]))])
    c = Coupling(X, Y, c_rows)
    for f_vals in r_rows:
        assert hexes(conjugate(SetFunction(X, f_vals), c).values) == hexes(
            bf.conjugate(c_rows, f_vals))
    for g_vals in g_rows:
        assert hexes(reverse_conjugate(SetFunction(Y, g_vals), c).values) == hexes(
            bf.reverse_conjugate(c_rows, g_vals))
    for have, want in zip(lagrangian_of(Rockafellian(U, X, r_rows), c).rows,
                          bf.lagrangian(c_rows, r_rows)):
        assert hexes(have) == hexes(want)
    for have, want in zip(rockafellian_of(Lagrangian(U, Y, l_rows), c).rows,
                          bf.rockafellian(c_rows, l_rows)):
        assert hexes(have) == hexes(want)


@st.composite
def rows_with_a_few_minus_infinities(draw):
    """(c, R, L) rows whose table rows hold a few -inf, and L rows also a few
    +inf, among finite and +inf entries, over widths on both sides of
    ``extreal._SCAN_WIDTH``: the kernel rows that the view's ``above``
    bitsets answer on a wide view and a scan answers on a narrow one.

    The coupling's entries are integers, fractions, tiny ones and ones near
    DBL_MAX, whose differences overflow.  Some lines of the coupling are
    made -inf at every -inf index of a kernel row (R's and L's -inf for the
    conjugates and the Lagrangian, L's +inf for the Rockafellian, which
    negates L), so that the row reaches only some lines and the others
    scan.

    A quarter of the draws have a coupling dense in -inf: 30% or 50% -inf
    and 5% +inf, with one or two of each infinity per table row, so that
    most lines are left to the scan, bounded by the least entry of the
    kernel row above -inf."""
    rng = draw(st.randoms(use_true_random=True))
    width = lambda: rng.choice([rng.randint(1, 16), rng.randint(17, 40)])
    nu, nx, ny = rng.randint(1, 4), width(), width()
    dense = rng.random() < 0.25
    p_inf = rng.choice([0.0, 0.05, 0.1])
    p_minus, p_plus = (rng.choice([0.3, 0.5]), 0.05) if dense else (p_inf, p_inf)
    finite = _finite_draw(rng)

    def entry():
        t = rng.random()
        return -INF if t < p_minus else INF if t < p_minus + p_plus else finite()

    def row(m, infinities):
        out = [INF if rng.random() < 0.1 else finite() for _ in range(m)]
        for v in infinities:
            count = rng.randint(1, min(2, m)) if dense else rng.randint(0, min(3, m))
            for k in rng.sample(range(m), count):
                out[k] = v
        return out

    c_rows = [[entry() for _ in range(ny)] for _ in range(nx)]
    r_rows = [row(nx, (-INF,)) for _ in range(nu)]
    l_rows = [row(ny, (-INF, INF)) for _ in range(nu)]
    # half the kernel rows kill no line, and so reach every line of c that
    # has an entry above -inf at their -inf indices
    kills = lambda n: rng.sample(range(n), rng.choice([0, rng.randint(1, n)]))
    for f in r_rows:  # columns of c, the lines of the conjugate's view
        for y in kills(ny):
            for x, v in enumerate(f):
                if v == -INF:
                    c_rows[x][y] = -INF
    for g in l_rows:  # rows of c, the lines of the reverse view
        for x in kills(nx):
            dead = rng.choice([-INF, INF])
            for y, v in enumerate(g):
                if v == dead:
                    c_rows[x][y] = -INF
    return c_rows, r_rows, l_rows


# no shrink phase: tables drawn from a seeded generator do not shrink
@given(rows_with_a_few_minus_infinities())
@settings(max_examples=200, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_rows_with_a_few_minus_infinities_match_oracle(data):
    c_rows, r_rows, l_rows = data
    _assert_kernel_rows_match_oracle(c_rows, r_rows, l_rows, l_rows)


@st.composite
def rows_mostly_plus_infinity(draw):
    """(c, R, G, L) rows whose kernel rows are +inf but for a few entries,
    some of them -inf: R's rows for the conjugate and the Lagrangian, G's
    for the reverse conjugate, and -L's for the Rockafellian, so L's rows
    are -inf but for a few entries, some of them +inf.  A row of m entries
    keeps 0, 1, 2, ``extreal._few(m)`` - 1, ``_few(m)`` or ``_few(m)`` + 1
    entries, just below, at and just above the cut-off of the kernel's
    direct path for lines of m entries, over widths on both sides of
    ``extreal._SCAN_WIDTH``.

    The coupling holds both infinities among finite entries of one kind (see
    ``_finite_draw``).  Some lines of the coupling are made -inf at every
    -inf index of a kernel row, so that its ``above`` bitsets leave them to
    the direct path or the scan.  When both sides have more than
    ``_SCAN_WIDTH`` members, a fifth of the rows of R and G are -inf
    everywhere and a fifth of L's +inf everywhere: kernel rows answered by
    a wide view's ``reach``."""
    from gendual.extreal import _SCAN_WIDTH, _few

    rng = draw(st.randoms(use_true_random=True))
    width = lambda: rng.choice([rng.randint(1, 16), rng.randint(17, 64)])
    nu, nx, ny = rng.randint(1, 4), width(), width()
    p_inf = rng.choice([0.05, 0.1, 0.3])
    finite = _finite_draw(rng)

    def entry():
        t = rng.random()
        return -INF if t < p_inf else INF if t < 2 * p_inf else finite()

    def row(m, rest, other):
        if min(nx, ny) > _SCAN_WIDTH and rng.random() < 0.2:
            return [other] * m
        out = [rest] * m
        few = _few(m)
        for k in rng.sample(range(m), min(m, rng.choice([0, 1, 2, few - 1, few, few + 1]))):
            out[k] = other if rng.random() < 0.2 else finite()
        return out

    c_rows = [[entry() for _ in range(ny)] for _ in range(nx)]
    r_rows = [row(nx, INF, -INF) for _ in range(nu)]
    g_rows = [row(ny, INF, -INF) for _ in range(nu)]
    l_rows = [row(ny, -INF, INF) for _ in range(nu)]
    kills = lambda n: rng.sample(range(n), rng.choice([0, rng.randint(1, n)]))
    for f in r_rows:  # columns of c, the lines of the conjugate's view
        for y in kills(ny):
            for x, v in enumerate(f):
                if v == -INF:
                    c_rows[x][y] = -INF
    for g, dead in [(g, -INF) for g in g_rows] + [(g, INF) for g in l_rows]:
        for x in kills(nx):  # rows of c, the lines of the reverse view
            for y, v in enumerate(g):
                if v == dead:
                    c_rows[x][y] = -INF
    return c_rows, r_rows, g_rows, l_rows


# no shrink phase: tables drawn from a seeded generator do not shrink
@given(rows_mostly_plus_infinity())
@settings(max_examples=200, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_rows_mostly_plus_infinity_match_oracle(data):
    _assert_kernel_rows_match_oracle(*data)


def test_rows_fixed_at_an_infinity_leave_the_view_unsorted(monkeypatch):
    # a row of +inf (an empty domain) reads the view's width and a row of
    # -inf its reach row, so a call of only such rows sorts nothing; the
    # first row that scans sorts the view once, for every later call too.
    # On a view of at most _SCAN_WIDTH lines, a mixed row always scans
    from gendual.extreal import _SCAN_WIDTH, _few, conjugate_product, descending

    sorts = []
    build = descending.pairs.func
    monkeypatch.setattr(descending.pairs, "func",
                        lambda view: sorts.append(view) or build(view))
    view = descending(((1.0, -INF, 2.0), (-INF, -INF, -INF), (-INF, INF, -INF)))
    plus, minus = [INF] * 3, [-INF] * 3
    assert conjugate_product([minus, plus, minus], view) == [
        [INF, -INF, INF], [-INF, -INF, -INF], [INF, -INF, INF]]
    assert sorts == [] and "pairs" not in vars(view)
    # the reach row is copied, never handed out
    conjugate_product([minus], view)[0][0] = 0.0
    assert view.reach == (INF, -INF, INF)
    assert conjugate_product([plus, [0.0, -1.0, 1.0], minus, [-2.0, 0.0, 1.0]], view) == [
        [-INF, -INF, -INF], [1.0, -INF, INF], [INF, -INF, INF], [3.0, -INF, INF]]
    assert conjugate_product([[-1.0, -1.0, -1.0]], view) == [[3.0, -INF, INF]]
    assert sorts == [view]
    # on a view of more lines than the cut-off, a row's -inf entries answer
    # the lines they reach by the view's ``above`` bitsets: a row that
    # reaches every line sorts nothing.  A row with at most _few(m) entries
    # strictly between the infinities, for lines of m entries, takes the
    # max of their terms on each line it leaves, or on every line if it has
    # no -inf, and sorts nothing either; one with more scans, sorting the
    # view once
    n = _SCAN_WIDTH + 1
    pad = (0.0,) * 6
    wide = descending(tuple((float(j) if j % 2 else -INF, 2.0, -INF, *pad) for j in range(n)))
    few = _few(len(pad) + 3)
    assert 2 <= few <= len(pad)
    plus_pad = [INF] * len(pad)
    assert conjugate_product([[-INF, -INF, 0.0, *plus_pad], [INF, -INF, 3.0, *plus_pad]],
                             wide) == [[INF] * n] * 2
    assert conjugate_product([[INF, 1.0, INF, *plus_pad]], wide) == [[1.0] * n]
    # the odd lines are reached at index 0; the even ones are -inf there
    once = [INF if j % 2 else 1.0 for j in range(n)]
    assert conjugate_product([[-INF, 1.0, 5.0, *plus_pad], [-INF, INF, 0.0, *plus_pad]],
                             wide) == [once, [INF if j % 2 else -INF for j in range(n)]]
    assert sorts == [view] and "pairs" not in vars(wide)
    # with _few(m) + 1 such entries the even lines scan, bounded by the
    # least entry of f above -inf
    scans = [-INF, 1.0, 5.0, *plus_pad]
    scans[3:few + 2] = [9.0] * (few - 1)
    assert conjugate_product([scans], wide) == [once]
    assert sorts == [view, wide]


def test_infinity_exactness_in_identities():
    # identities must match infinities exactly, not just within tolerance
    rng = random.Random(7)
    for _ in range(50):
        nx, ny = rng.randint(1, 4), rng.randint(1, 4)
        pick = lambda: rng.choice([-INF, INF] + [float(k) for k in range(-5, 6)])
        c_rows = [[pick() for _ in range(ny)] for _ in range(nx)]
        f_vals = [pick() for _ in range(nx)]
        X = FiniteSet([f"x{i}" for i in range(nx)])
        Y = FiniteSet([f"y{j}" for j in range(ny)])
        c = Coupling(X, Y, c_rows)
        f = SetFunction(X, f_vals)
        lhs = conjugate(biconjugate(f, c), c)
        rhs = conjugate(f, c)
        assert as_floats(lhs) == as_floats(rhs)
