"""Lagrangian-Rockafellian couples and their five equivalent tests.

A pair (L, R) over a coupling c is a couple when (-L, R) is minimal among
the pairs satisfying the generalized Young inequality

    -L(u, y)  upper-add  R(u, x)  >=  c(x, y)      for all (u, x, y).

The audit tests this from five sides:

  (i)   the inequality above, and minimality: no entry of R or of -L lies
        above its least feasible value given the other table;
  (ii)  L is the Lagrangian of R and R is the Rockafellian of L (the two
        inf/sup transform equations);
  (iii) row-wise conjugate duality: E1 and E2 below;
  (iv)  E1, and every row R_u is c-convex (E3);
  (v)   E2, and every -L_u is c'-convex (E4);

where, for every decision u,

  E1: -L_u = (R_u)^c             E2: R_u = (-L_u)^{c'}
  E3:  R_u = (R_u)^{cc'}         E4: -L_u = (-L_u)^{c'c}.

Items (ii) through (v) and the minimality of item (i) share one mismatch
scan, which names the first entry where a row fails its comparison with
another.  It first compares the two rows whole, at C speed, and of a pair
that is not equal entry for entry it scans with ``approx_eq`` (or
``approx_le``) only the entries that differ; equal doubles pass both at
every tol >= 0, so the witness does not depend on the shortcut.

The minimality of item (i) and items (iii)-(v) are row tests, and they
share each u's rows: one pass over the decisions builds sigma_u = (R_u)^c,
rho_u = (-L_u)^{c'} and their biconjugates at most once each, from raw
table rows through the product kernel (``conjugacy.conjugate_row``, the one
conjugate code path), and runs every still-open item's tests on them.  A
biconjugate whose argument is a row already held is not rebuilt: where
sigma_u is -L_u bit for bit, (R_u)^{cc'} is rho_u, and where rho_u is R_u
bit for bit, (-L_u)^{c'c} is sigma_u.  So wherever item (iii) holds
exactly, a decision costs two conjugate rows, not four.
Their agreement with one another is therefore not an independent check.
The independent cross-check is item (ii): it compares L and R, row by row
up to the first witness, with the Lagrangian and Rockafellian transforms
(``inf_product`` and ``sup_product``, each row the one the whole-table
transform gives).  Its sup-transform row is the same ``sup_product`` call
on L_u that builds rho_u, so the audit reuses every rho_u the row pass
built and builds only the others; the independent half of the cross-check
is the inf-transform (``inf_product``) against sigma_u (``sup_product`` on
-R_u).  Items (ii)-(v) are exactly equivalent, so the audit flags an
internal alarm (``items_agree``) if their verdicts ever disagree.

Minimality is decided exactly, from least feasible values.  Given L, the
least value R(u, x) may take with the inequality intact is

    rho(u, x) = sup_y [L(u, y) lower-add c(x, y)] = (-L_u)^{c'}(x),

the Rockafellian of L in Rockafellar's perturbation scheme, and given R
the least value of -L(u, y) is sigma(u, y) = (R_u)^c(y).  Lowering an entry
of -L only raises rho, and lowering an entry of R only raises sigma, so a
pair below (-L, R) that keeps the inequality exists only if a single entry
can drop alone: (-L, R) is minimal iff R_u <= rho_u and -L_u <= sigma_u for
every u.  These are the rows of E2 and E1 compared with ``approx_le``
instead of ``approx_eq``.  Where the inequality holds, R >= rho and
-L >= sigma, so minimality there is R = rho and -L = sigma: item (ii).

The inequality itself does not use the product kernel: it scans rows of
doubles with ``extreal.exceeds``, which is exact for a finite tol >= 0.
It scans, for each u, only the y where L(u, y) > -inf, the domain of -L_u:
elsewhere -L(u, y) is +inf, so the upper sum is +inf and cannot fail.  A u
whose L row is -inf everywhere costs no scan, and the first failing y is
the same.  Minimality is not tested when the inequality fails.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from itertools import compress
from operator import ne

from .errors import DomainMismatchError
from .extreal import (
    DEFAULT_TOL, approx_eq, approx_le, exceeds, inf_product, sup_product, upp_add,
)
from .spaces import Coupling, Lagrangian, Rockafellian, lazy
from .conjugacy import conjugate_row
from .duality import lagrangian_of, rockafellian_of

__all__ = [
    "CoupleAudit",
    "Witness",
    "audit",
    "check_item_ii",
    "check_item_iii",
    "check_item_iv",
    "check_item_v",
    "inequality_holds",
    "make_couple",
    "minimality_probe",
]

_INF = float("inf")


class Witness(namedtuple("Witness", "item u x y description")):
    """First counterexample found for one audit item, in scan order: the
    item's name, the labels of U, X and Y it names (each a str or None),
    and a one-line description."""

    __slots__ = ()


class CoupleAudit(namedtuple("CoupleAudit", (
        "item_i_inequality", "item_i_minimality_probe", "item_ii", "item_iii",
        "item_iv", "item_v", "items_agree", "witnesses"))):
    """Verdicts of all five characterizations for one (L, R, c) triple: one
    bool per item, ``items_agree``, and the tuple of ``Witness``es found."""

    __slots__ = ()

    @property
    def is_couple(self) -> bool:
        return self.item_ii and self.items_agree


def _require_valid(lag, r, c, tol: float) -> None:
    if lag.decisions != r.decisions:
        raise DomainMismatchError(
            "couple check: Lagrangian and Rockafellian decision sets differ"
        )
    if r.primal != c.primal:
        raise DomainMismatchError(
            "couple check: Rockafellian primal set differs from the coupling's"
        )
    if lag.dual != c.dual:
        raise DomainMismatchError(
            "couple check: Lagrangian dual set differs from the coupling's"
        )
    # extreal.exceeds, the inequality scan of item (i), needs a finite tol >= 0
    if not 0.0 <= tol < _INF:
        raise ValueError("tolerance must be finite and nonnegative")


def _inequality_witness(lag, r, c, tol) -> Witness | None:
    # each u scans only the domain of -L_u (see the module docstring)
    for u, l_row, r_row in zip(r.decisions.labels, lag.rows, r.rows):
        dom = [v > -_INF for v in l_row]
        if all(dom):
            ys, c_rows = lag.dual.labels, c.rows
        elif any(dom):
            ys = tuple(compress(lag.dual.labels, dom))
            c_rows = (tuple(compress(c_row, dom)) for c_row in c.rows)
        else:
            continue
        nl_row = [-v for v in compress(l_row, dom)]
        for x, rv, c_row in zip(r.primal.labels, r_row, c_rows):
            if not exceeds(c_row, nl_row, rv, tol):
                continue
            # name the first failing y
            for y, cv, nl in zip(ys, c_row, nl_row):
                if exceeds((cv,), (nl,), rv, tol):
                    return Witness(
                        item="i-inequality", u=u, x=x, y=y,
                        description=(
                            f"-L({u},{y}) upper-add R({u},{x}) = {upp_add(nl, rv)} "
                            f"< c({x},{y}) = {cv}"
                        ),
                    )
    return None


def inequality_holds(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """-L(u,y) upper-add R(u,x) >= c(x,y) everywhere (tol slack on finites)."""
    _require_valid(lag, r, c, tol)
    return _inequality_witness(lag, r, c, tol) is None


def _witness(item, u, side, lab, description) -> Witness:
    """Witness naming ``lab`` as a label of X (side "x") or of Y (side "y");
    the side is given, not inferred, because X and Y may share labels."""
    if side == "x":
        return Witness(item, u, lab, None, description)
    return Witness(item, u, None, lab, description)


def _mismatch(item, u, side, labels, have, want, tol, text,
              holds=approx_eq) -> Witness | None:
    """Witness at the first label where ``holds(have[k], want[k], tol)``
    fails, or None; ``holds`` is ``approx_eq`` or ``approx_le``.  ``have``
    and ``want`` are lists.  Rows that compare equal entry for entry pass
    both and are done in one C-level test; of the others, only the entries
    that differ are scanned."""
    if have == want:
        return None
    for lab, a, b in compress(zip(labels, have, want), map(ne, have, want)):
        if not holds(a, b, tol):
            return _witness(item, u, side, lab, text.format(u=u, lab=lab, a=a, b=b))
    return None


def _item_ii_witness(lag, r, c, tol, rho=None) -> Witness | None:
    """All of L against the inf-transform of R, then all of R against the
    sup-transform of L, one row at a time up to the first witness.  Each
    row is the kernel call that ``lagrangian_of`` (``rockafellian_of``)
    makes for it, so it is that table's row bit for bit.  The sup-transform
    row of u is the call that builds rho_u in ``_Rows``: ``rho`` maps the
    index of each u whose rho_u the row pass built to that row, and only
    the other rows are built here."""
    rho = rho or {}
    decisions = lag.decisions.labels
    view = c.sorted_cols
    for u, l_row, r_row in zip(decisions, lag.rows, r.rows):
        w = _mismatch("ii", u, "y", lag.dual.labels, list(l_row),
                      inf_product((r_row,), view)[0], tol,
                      "L({u},{lab}) = {a} but the inf-transform gives {b}")
        if w is not None:
            return w
    view = c.sorted_rows
    for i, (u, l_row, r_row) in enumerate(zip(decisions, lag.rows, r.rows)):
        want = rho[i] if i in rho else sup_product((l_row,), view)[0]
        w = _mismatch("ii", u, "x", r.primal.labels, list(r_row), want, tol,
                      "R({u},{lab}) = {a} but the sup-transform gives {b}")
        if w is not None:
            return w
    return None


def _negated(row) -> list[float]:
    return [-v for v in row]


def _same_bits(a, b) -> bool:
    """True iff the rows hold the same doubles bit for bit.  ``==`` alone
    does not tell -0.0 from 0.0, and equal rows differ in bits only there,
    so only equal rows holding a zero are compared as bytes."""
    return a == b and (
        0.0 not in a or array("d", a).tobytes() == array("d", b).tobytes())


class _Rows:
    """The rows of one decision u that the row tests compare, each a list
    built on first use and then shared by every test that reads it.  ``r``
    is R_u as a list and ``l`` the raw row L_u, which no test compares.  The
    conjugates come from ``conjugate_row``, which takes the negated
    function: the columns of c conjugate a function on X, its rows a
    function on Y.  So (-L_u)^c' is conjugate_row(L_u), since -(-v) is v for
    every double.

    A biconjugate is not rebuilt when its argument is a row already held.
    Where sigma_u is -L_u bit for bit, (R_u)^{cc'} = (sigma_u)^{c'} is the
    call on the same doubles that built rho_u, so it is rho_u; where rho_u
    is R_u bit for bit, (-L_u)^{c'c} is sigma_u.  Equal as values is not
    enough: where R(u,x) - c(x,y) is exactly 0 the inf-transform gives
    L = +0.0, so -L_u holds -0.0 where sigma_u holds +0.0, and the
    biconjugate, which can differ in the sign of a zero, is then built."""

    def __init__(self, l_row, r_row, c):
        self.l, self.r, self.c = l_row, list(r_row), c

    @lazy
    def nl(self):  # -L_u
        return _negated(self.l)

    @lazy
    def sigma(self):  # (R_u)^c, the least feasible -L_u
        return conjugate_row(_negated(self.r), self.c.sorted_cols)

    @lazy
    def rho(self):  # (-L_u)^{c'}, the least feasible R_u
        return conjugate_row(self.l, self.c.sorted_rows)

    @lazy
    def r_bi(self):  # (R_u)^{cc'}
        if _same_bits(self.sigma, self.nl):
            return self.rho
        return conjugate_row(_negated(self.sigma), self.c.sorted_rows)

    @lazy
    def nl_bi(self):  # (-L_u)^{c'c}
        if _same_bits(self.rho, self.r):
            return self.sigma
        return conjugate_row(_negated(self.rho), self.c.sorted_cols)


# The row tests of items (i) and (iii)-(v), each stated once: the side of
# the row's labels, the ``_Rows`` row and the row it is compared with, the
# comparison, and the witness text.  Minimality (M1, M2) compares the rows
# of E2 and E1 with ``approx_le``: each entry at most its least feasible
# value.
_E1 = ("y", "nl", "sigma", approx_eq, "-L({u},{lab}) = {a} but (R_u)^c({lab}) = {b}")
_E2 = ("x", "r", "rho", approx_eq, "R({u},{lab}) = {a} but (-L_u)^c'({lab}) = {b}")
_E3 = ("x", "r", "r_bi", approx_eq,
       "R({u},{lab}) = {a} is not c-convex: biconjugate gives {b}")
_E4 = ("y", "nl", "nl_bi", approx_eq,
       "-L({u},{lab}) = {a} is not c'-convex: reverse biconjugate gives {b}")
_M1 = ("x", "r", "rho", approx_le,
       "R({u},{lab}) = {a} is above its least feasible value (-L_u)^c'({lab}) = {b}")
_M2 = ("y", "nl", "sigma", approx_le,
       "-L({u},{lab}) = {a} is above its least feasible value (R_u)^c({lab}) = {b}")
_ROW_TESTS = {"i-minimality": (_M1, _M2),
              "iii": (_E1, _E2), "iv": (_E1, _E3), "v": (_E2, _E4)}


def _row_witnesses(items, lag, r, c, tol, rho=None) -> dict[str, Witness | None]:
    """First witness against each of ``items``, a sequence of "iii", "iv",
    "v" and "i-minimality" (the minimality of item (i)), or None where the
    item holds.  A ``rho`` dict receives, by the index of u, each rho_u the
    pass built, for item (ii) to reuse.

    One pass over the decisions: for each u, every still-open item runs its
    two row tests in ``_ROW_TESTS`` order, on rows of ``_Rows`` built at most
    once.  An item leaves the pass at its first witness, so that witness is
    the one the item finds alone.  The rows are raw rows of doubles: their
    values are the ones ``conjugate`` and ``reverse_conjugate`` give, bit
    for bit, since those two are ``conjugate_row`` behind a domain check.
    ``_mismatch`` then compares each pair of rows at C speed first: exact
    equality implies ``approx_eq`` and ``approx_le`` at every tol >= 0
    (signed zeros compare equal and no entry is NaN), so only the entries
    that differ are scanned, and the first witness is the same."""
    found = dict.fromkeys(items)
    open_items = list(items)
    labels = {"x": c.primal.labels, "y": c.dual.labels}
    for i, (u, l_row, r_row) in enumerate(zip(lag.decisions.labels, lag.rows, r.rows)):
        rows = _Rows(l_row, r_row, c)
        for item in tuple(open_items):
            for side, have, want, holds, text in _ROW_TESTS[item]:
                w = _mismatch(item, u, side, labels[side], getattr(rows, have),
                              getattr(rows, want), tol, text, holds)
                if w is not None:
                    found[item] = w
                    open_items.remove(item)
                    break
        if rho is not None and "rho" in vars(rows):
            rho[i] = rows.rho
        if not open_items:
            break
    return found


def _holds(item, lag, r, c, tol) -> bool:
    _require_valid(lag, r, c, tol)
    if item == "ii":
        return _item_ii_witness(lag, r, c, tol) is None
    return _row_witnesses((item,), lag, r, c, tol)[item] is None


def check_item_ii(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """L equals the Lagrangian of R and R equals the Rockafellian of L."""
    return _holds("ii", lag, r, c, tol)


def check_item_iii(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """Row-wise conjugate dual pair: -L_u = (R_u)^c and R_u = (-L_u)^{c'}."""
    return _holds("iii", lag, r, c, tol)


def check_item_iv(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """-L_u = (R_u)^c and every row of R is c-convex."""
    return _holds("iv", lag, r, c, tol)


def check_item_v(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """R_u = (-L_u)^{c'} and every -L_u is c'-convex."""
    return _holds("v", lag, r, c, tol)


def minimality_probe(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """Minimality of (-L, R) in the inequality, decided exactly.

    False when the inequality itself fails.  Otherwise True iff every entry
    of R is at most its least feasible value (-L_u)^{c'} and every entry of
    -L at most (R_u)^c, within tol (see the module docstring).
    """
    _require_valid(lag, r, c, tol)
    if _inequality_witness(lag, r, c, tol) is not None:
        return False
    return _row_witnesses(("i-minimality",), lag, r, c, tol)["i-minimality"] is None


def audit(
    lag: Lagrangian,
    r: Rockafellian,
    c: Coupling,
    tol: float = DEFAULT_TOL,
) -> CoupleAudit:
    """Run all five characterizations and collect first witnesses.

    ``items_agree`` reports whether the four exactly-equivalent items (ii)
    through (v) returned one common verdict; False there means the checker
    itself is inconsistent, not merely that the input fails to be a couple.
    """
    _require_valid(lag, r, c, tol)
    w_ineq = _inequality_witness(lag, r, c, tol)
    rho = {}
    if w_ineq is None:
        w_probe, *rows = _row_witnesses(
            ("i-minimality", "iii", "iv", "v"), lag, r, c, tol, rho).values()
    else:
        w_probe = Witness(
            item="i-minimality", u=None, x=None, y=None,
            description="not probed: the inequality itself fails",
        )
        rows = _row_witnesses(("iii", "iv", "v"), lag, r, c, tol, rho).values()
    found = [_item_ii_witness(lag, r, c, tol, rho), *rows]
    ii, iii, iv, v = (w is None for w in found)
    return CoupleAudit(
        item_i_inequality=w_ineq is None,
        item_i_minimality_probe=w_probe is None,
        item_ii=ii,
        item_iii=iii,
        item_iv=iv,
        item_v=v,
        items_agree=ii == iii == iv == v,
        witnesses=tuple(w for w in (w_ineq, w_probe, *found) if w is not None),
    )


def make_couple(r: Rockafellian, c: Coupling) -> tuple[Lagrangian, Rockafellian]:
    """Canonical couple built from any Rockafellian.

    Returns (L, R') with L the Lagrangian of R and R' the Rockafellian
    rebuilt from L; row-wise R' is the biconjugate of R, and R' = R exactly
    when every row of R is c-convex.  On the integer grid, where double
    arithmetic does not round, the pair audits as a couple at every tol.
    Off it the round trip L -> R' -> L can round, so the promise holds only
    within ``tol``: a fractional pair can fail at tol 0, and at magnitudes
    near 1e13 the rounding exceeds the default tol.  Exact arithmetic
    (ROADMAP item 2) is the planned fix.
    """
    lag = lagrangian_of(r, c)
    return lag, rockafellian_of(lag, c)
