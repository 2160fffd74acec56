import itertools
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from gendual.extreal import (
    ExtReal,
    NEG_INF,
    POS_INF,
    approx_eq,
    approx_le,
    as_extreal,
    exceeds,
    low_add,
    neg,
    parse_extreal,
    render_extreal,
    upp_add,
)

F2 = ExtReal(2.0)
F3 = ExtReal(3.0)

# all nine infinity patterns with finite stand-ins 2 and 3
LOW_TABLE = [
    (NEG_INF, NEG_INF, NEG_INF),
    (NEG_INF, F3, NEG_INF),
    (NEG_INF, POS_INF, NEG_INF),
    (F2, NEG_INF, NEG_INF),
    (F2, F3, ExtReal(5.0)),
    (F2, POS_INF, POS_INF),
    (POS_INF, NEG_INF, NEG_INF),
    (POS_INF, F3, POS_INF),
    (POS_INF, POS_INF, POS_INF),
]

UPP_TABLE = [
    (NEG_INF, NEG_INF, NEG_INF),
    (NEG_INF, F3, NEG_INF),
    (NEG_INF, POS_INF, POS_INF),
    (F2, NEG_INF, NEG_INF),
    (F2, F3, ExtReal(5.0)),
    (F2, POS_INF, POS_INF),
    (POS_INF, NEG_INF, POS_INF),
    (POS_INF, F3, POS_INF),
    (POS_INF, POS_INF, POS_INF),
]


# ExtReal is a float, so pytest would name cases by their values; these
# keep the index-based names the cases have always had.
TABLE_IDS = [f"a{i}-b{i}-want{i}" for i in range(9)]


@pytest.mark.parametrize("a,b,want", LOW_TABLE, ids=TABLE_IDS)
def test_low_add_table(a, b, want):
    assert low_add(a, b) == want


@pytest.mark.parametrize("a,b,want", UPP_TABLE, ids=TABLE_IDS)
def test_upp_add_table(a, b, want):
    assert upp_add(a, b) == want


def test_spot_values_from_definitions():
    assert low_add(POS_INF, NEG_INF) == NEG_INF
    assert upp_add(POS_INF, NEG_INF) == POS_INF
    assert low_add(ExtReal(2.0), ExtReal(3.0)) == ExtReal(5.0)
    assert upp_add(ExtReal(-2.0), ExtReal(-3.0)) == ExtReal(-5.0)
    assert low_add(POS_INF, ExtReal(7.0)) == POS_INF
    assert upp_add(NEG_INF, NEG_INF) == NEG_INF


def test_neg():
    assert neg(POS_INF) == NEG_INF
    assert neg(NEG_INF) == POS_INF
    assert neg(ExtReal(0.0)) == ExtReal(0.0)
    assert neg(ExtReal(-4.5)) == ExtReal(4.5)
    for v in (POS_INF, NEG_INF, ExtReal(1.25)):
        assert neg(neg(v)) == v


def test_total_order():
    assert NEG_INF < ExtReal(-1e300) < ExtReal(0.0) < ExtReal(1e300) < POS_INF
    assert not POS_INF < POS_INF
    assert POS_INF <= POS_INF
    assert ExtReal(2.0) >= ExtReal(2.0)


def test_approx_eq():
    assert approx_eq(POS_INF, POS_INF, 1e-9)
    assert approx_eq(ExtReal(1.0), ExtReal(1.0 + 1e-12), 1e-9)
    assert not approx_eq(POS_INF, ExtReal(1e300), 1e-9)
    assert not approx_eq(NEG_INF, POS_INF, 1e9)
    assert not approx_eq(ExtReal(1.0), ExtReal(1.1), 1e-2)
    with pytest.raises(ValueError):
        approx_eq(F2, F3, -1.0)


def test_approx_le():
    assert approx_le(ExtReal(1.0), ExtReal(1.0 - 1e-12), 1e-9)
    assert not approx_le(ExtReal(1.0), ExtReal(0.9), 1e-3)
    assert approx_le(NEG_INF, ExtReal(-1e308), 0.0)
    assert not approx_le(POS_INF, ExtReal(1e308), 1e9)
    with pytest.raises(ValueError):
        approx_le(F2, F3, -1.0)


@pytest.mark.parametrize("compare", [approx_eq, approx_le])
def test_nan_tol_is_rejected_like_isclose(compare):
    # a NaN tol compares false with everything, so unchecked it would turn
    # every finite comparison false without a word; isclose rejects it too
    for a, b in ((F2, F2), (F2, F3), (POS_INF, POS_INF)):
        with pytest.raises(ValueError, match="nonnegative"):
            compare(a, b, math.nan)


def test_constructor_rejects_nan_and_normalizes_inf():
    with pytest.raises(ValueError):
        ExtReal(math.nan)
    assert ExtReal(math.inf) == POS_INF
    assert ExtReal(-math.inf) == NEG_INF


def test_as_extreal():
    assert as_extreal(5) == ExtReal(5.0)
    assert as_extreal(POS_INF) is POS_INF
    with pytest.raises(TypeError):
        as_extreal(True)
    with pytest.raises(TypeError):
        as_extreal("3")
    # a ValueError naming the value, not the OverflowError of float(value)
    for value in (10 ** 400, -10 ** 400, 2 ** 1024):
        with pytest.raises(ValueError) as info:
            as_extreal(value)
        assert str(info.value) == f"number outside the double range: {value!r}"
    # the largest double is in range, as an int too
    assert as_extreal(int(sys.float_info.max)) == sys.float_info.max


PARSE_CASES = [
    ("inf", POS_INF),
    ("-inf", NEG_INF),
    ("0", ExtReal(0.0)),
    ("-4.5", ExtReal(-4.5)),
    ("1e3", ExtReal(1000.0)),
    ("+.5", ExtReal(0.5)),
]


@pytest.mark.parametrize(
    "text,want", PARSE_CASES,
    ids=[f"{text}-want{i}" for i, (text, _) in enumerate(PARSE_CASES)],
)
def test_parse_accepts(text, want):
    assert parse_extreal(text) == want


@pytest.mark.parametrize(
    "text", ["Inf", "INF", "+inf", "nan", "NaN", "1_000", "0x1p3", "", " 1", "1e400", "-1e400",
             # digits that float() reads but that are not ASCII 0-9
             "\u0661", "\uff11", "1\u0662", "1e\u0663", "\u0665.5"]
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_extreal(text)


def test_render_round_trip():
    for v in (POS_INF, NEG_INF, ExtReal(0.1), ExtReal(-3.0), ExtReal(1e-300)):
        assert parse_extreal(render_extreal(v)) == v
    assert render_extreal(POS_INF) == "inf"
    assert render_extreal(NEG_INF) == "-inf"


# --- property tests ---------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(ExtReal)
ext_reals = st.one_of(st.just(NEG_INF), st.just(POS_INF), finite)
TOL = 1e-9


@given(ext_reals, ext_reals)
def test_additions_commute(a, b):
    assert low_add(a, b) == low_add(b, a)
    assert upp_add(a, b) == upp_add(b, a)


@given(ext_reals, ext_reals, ext_reals)
def test_additions_associate(a, b, c):
    # exact at infinities, tolerance for float reassociation on finites
    assert approx_eq(low_add(low_add(a, b), c), low_add(a, low_add(b, c)), TOL)
    assert approx_eq(upp_add(upp_add(a, b), c), upp_add(a, upp_add(b, c)), TOL)


@given(ext_reals, ext_reals)
def test_de_morgan_duality(a, b):
    assert neg(low_add(a, b)) == upp_add(neg(a), neg(b))
    assert neg(upp_add(a, b)) == low_add(neg(a), neg(b))


@given(ext_reals, ext_reals, ext_reals, ext_reals)
def test_monotonicity(a, a2, b, b2):
    lo_a, hi_a = (a, a2) if a <= a2 else (a2, a)
    lo_b, hi_b = (b, b2) if b <= b2 else (b2, b)
    assert low_add(lo_a, lo_b) <= low_add(hi_a, hi_b)
    assert upp_add(lo_a, lo_b) <= upp_add(hi_a, hi_b)


@given(ext_reals, ext_reals)
def test_moreau_slack_inequality(a, b):
    # b <= a upper-add (b lower-add -a), up to float slack on finites
    assert approx_le(b, upp_add(a, low_add(b, neg(a))), TOL)


@given(ext_reals, ext_reals)
def test_low_add_below_upp_add(a, b):
    lo, up = low_add(a, b), upp_add(a, b)
    assert lo <= up
    opposite = {a, b} == {NEG_INF, POS_INF}
    assert (lo != up) == opposite


# --- reference: the (kind, value) tag rules -----------------------------------
#
# An extended real as a tag kind in {-1, 0, 1} (for -inf, finite, +inf) and a
# value that is meaningful only when the kind is finite.  The scalar layer
# must agree with these rules whatever its representation.

def _tag(x: float):
    if x == math.inf:
        return 1, 0.0
    if x == -math.inf:
        return -1, 0.0
    return 0, x


def _ref_add(a, b, clash):
    (ka, va), (kb, vb) = a, b
    if ka == 0 and kb == 0:
        return _tag(va + vb)  # an overflowing finite sum lands on the tag
    if ka == 0:
        return b
    if kb == 0 or ka == kb:
        return a
    return clash, 0.0


def _ref_neg(a):
    k, v = a
    return (0, 0.0 - v) if k == 0 else (-k, 0.0)  # one zero: 0.0 - 0.0 is 0.0


def _ref_lt(a, b):
    return a[0] < b[0] or (a[0] == b[0] and a[1] < b[1])


def _ref_eq(a, b):
    return a[0] == b[0] and a[1] == b[1]


def _ref_approx_eq(a, b, tol):
    if a[0] != b[0]:
        return False
    return a[0] != 0 or abs(a[1] - b[1]) <= tol


def _ref_approx_le(a, b, tol):
    if a[0] == 0 and b[0] == 0:
        return a[1] - b[1] <= tol
    return a[0] <= b[0]


def _ref_render(a):
    return {1: "inf", -1: "-inf"}.get(a[0]) or repr(a[1])


def _as_tag(r):
    """The tag of a result, with the sign of a zero kept visible."""
    assert isinstance(r, ExtReal)
    return _shown(_tag(float(r)))


def _shown(t):
    return t[0], repr(t[1])


DBL_MAX = sys.float_info.max
SPECIAL = [
    s * v for v in (math.inf, 0.0, 5e-324, 1.0, 2.5, 1e308, DBL_MAX) for s in (1, -1)
]
scalar = st.sampled_from(SPECIAL)


@given(scalar, scalar, st.sampled_from([0.0, 1e-9, 1.0, math.inf]))
@example(math.inf, 1.0, math.inf)
@example(math.inf, math.inf, 0.0)
@example(DBL_MAX, -DBL_MAX, math.inf)
@settings(max_examples=500)
def test_scalar_layer_matches_tag_reference(x, y, tol):
    a, b = ExtReal(x), ExtReal(y)
    ta, tb = _tag(x + 0.0), _tag(y + 0.0)  # ExtReal reads -0.0 as 0.0
    assert _as_tag(low_add(a, b)) == _shown(_ref_add(ta, tb, -1))
    assert _as_tag(upp_add(a, b)) == _shown(_ref_add(ta, tb, 1))
    assert _as_tag(neg(a)) == _shown(_ref_neg(ta))
    assert (a < b) == _ref_lt(ta, tb)
    assert (a == b) == _ref_eq(ta, tb)
    assert approx_eq(a, b, tol) == _ref_approx_eq(ta, tb, tol)
    assert approx_le(a, b, tol) == _ref_approx_le(ta, tb, tol)
    assert render_extreal(a) == _ref_render(ta)


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1.0, DBL_MAX])
def test_exceeds_is_approx_le_of_the_upper_sum(tol):
    # every triple of special values, NaN-producing sums and differences
    # included: one entry at a time, as one row of c, and as a table of one
    # value c over f = g = SPECIAL, where the first failing (i, k) in row
    # order is named
    def fails(c, a, b):
        return not approx_le(ExtReal(c), upp_add(ExtReal(a), ExtReal(b)), tol)

    n = len(SPECIAL)
    for a, b in itertools.product(SPECIAL, repeat=2):
        row = [fails(c, a, b) for c in SPECIAL]
        assert [exceeds([[c]], [b], [a], tol) for c in SPECIAL] == [
            (0, 0) if fail else None for fail in row]
        assert exceeds([SPECIAL], [b], [a] * n, tol) == (
            (0, row.index(True)) if any(row) else None)
    for c in SPECIAL:
        want = next(((i, k) for i, b in enumerate(SPECIAL) for k, a in enumerate(SPECIAL)
                     if fails(c, a, b)), None)
        assert exceeds([[c] * n] * n, SPECIAL, SPECIAL, tol) == want
    # rows 1 and 2 fail, row 1 only at k = 1: row order names (1, 1), not (2, 0)
    c_rows = [[0.0, 0.0, 0.0], [0.0, math.inf, 0.0], [math.inf] * 3]
    assert exceeds(c_rows, [0.0] * 3, [0.0] * 3, tol) == (1, 1)

