"""The paper's symmetry between Lagrangians and Rockafellians, as one map on
finite tables: (L, R, c) -> (-R, -L, c^T).

The new Lagrangian is -R over decisions x X, the new Rockafellian -L over
decisions x Y, and c^T(y, x) = c(x, y).  The Young inequality is the same
sum with its terms commuted, so the audit's verdicts are unchanged but
items (iv) and (v), which swap, and the transforms swap with a negation.
Negation is exact, IEEE addition commutes, rounding is sign-symmetric and
the two Moreau additions send the opposite-infinity pair to opposite
infinities, so all of it holds bit for bit in doubles, off the integer
grid too.  Each c^T here is a fresh ``Coupling`` built from c's columns,
so it shares no view with c.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gendual import Coupling, Lagrangian, Rockafellian, audit, make_couple
from gendual.duality import lagrangian_of, rockafellian_of
from gendual.fuzz import VALUE_FAMILIES, random_instance


def _negated(table):
    return [[0.0 - v for v in row] for row in table.rows]


def _mirror(lag, r, c):
    """(-R, -L, c^T), with c^T built afresh from the columns of c."""
    ct = Coupling(c.dual, c.primal, [list(col) for col in zip(*c.rows)])
    return (Lagrangian(r.decisions, c.primal, _negated(r)),
            Rockafellian(lag.decisions, c.dual, _negated(lag)), ct)


def _hexes(rows):
    return [[v.hex() for v in row] for row in rows]


def _verdicts(a, swap=False):
    iv, v = (a.item_v, a.item_iv) if swap else (a.item_iv, a.item_v)
    return (a.item_i_inequality, a.item_i_minimality_probe, a.item_ii, a.item_iii,
            iv, v, a.items_agree)


def _by_item(a):
    return {w.item: w for w in a.witnesses}


def _check_mirror(lag, r, c):
    m_lag, m_r, ct = _mirror(lag, r, c)
    # rockafellian_of(-R, c^T) = -lagrangian_of(R, c), and
    # lagrangian_of(-L, c^T) = -rockafellian_of(L, c)
    assert _hexes(rockafellian_of(m_lag, ct).rows) == _hexes(_negated(lagrangian_of(r, c)))
    assert _hexes(lagrangian_of(m_r, ct).rows) == _hexes(_negated(rockafellian_of(lag, c)))
    a, m = audit(lag, r, c, tol=0.0), audit(m_lag, m_r, ct, tol=0.0)
    assert _verdicts(m) == _verdicts(a, swap=True)
    # where the witnesses map: item (iv) runs E1 then E3 at each u, and item
    # (v) of the mirror runs the same two comparisons in the same order, so
    # it names the same u and label, on the other side; the inequality,
    # minimality and items (ii) and (iii) scan each u in another order, so
    # they name the same u
    w, mw = _by_item(a), _by_item(m)
    for item, mirrored in (("iv", "v"), ("v", "iv")):
        if item in w:
            assert (mw[mirrored].u, mw[mirrored].x, mw[mirrored].y) == (w[item].u, w[item].y,
                                                                        w[item].x)
    for item in ("i-inequality", "i-minimality", "ii", "iii"):
        assert (item in mw) == (item in w)
        if item in w:
            assert mw[item].u == w[item].u


@pytest.mark.parametrize("values", sorted(VALUE_FAMILIES))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_the_map_swaps_items_iv_and_v_and_negates_the_transforms(values, seed):
    inst = random_instance(random.Random(seed), 5, values=values)
    lag, r, c = inst.lagrangian, inst.rockafellian, inst.coupling
    _check_mirror(lag, r, c)
    _check_mirror(*make_couple(r, c), c)
