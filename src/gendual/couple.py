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

The minimality of item (i) and items (ii)-(v) are row tests.  One pass
over the decisions builds, for each u, sigma_u = (R_u)^c,
rho_u = (-L_u)^{c'} and their biconjugates at most once each, through
``conjugacy.conjugate_row``, and runs every still-open test on them.  No
row holds -0.0, so rows equal in value are the same doubles: a conjugate
row equal to its held row is shared as that row, and a biconjugate whose
argument is a row already held is not rebuilt.  So wherever item (iii)
holds exactly a decision costs two conjugate rows, not four.
Each test names the first entry where its two rows fail ``approx_eq`` (or
``approx_le``).

In IEEE arithmetic items (ii) and (iii) are one comparison.  Item (ii)'s
R half compares R_u with the sup-transform row, which is rho_u bit for bit
(the same kernel call), so it is E2.  Its L half compares L_u with the
inf-transform row, which ``lagrangian_of`` computes as 0.0 - sigma_u, so it
is E1 with both rows negated.  ``approx_eq`` is sign-symmetric, so the L
half runs as E1, with the same verdict and first y, and its witness prints
L(u,y) and 0.0 - sigma_u(y).  An L witness at any u comes before every R
witness.  So ``items_agree``, the audit's alarm for disagreeing verdicts
among (ii)-(v), cannot separate (ii) from (iii), and (iv) and (v) read the
same rows: the independent check is the brute-force reference in
``tests/bruteforce.py``, which shares no code with the package.

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

from collections import namedtuple
from itertools import compress
from operator import ne

from .errors import DomainMismatchError
from .extreal import DEFAULT_TOL, approx_eq, approx_le, exceeds, upp_add
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


def _mismatch(have, want, tol, holds) -> int | None:
    """Index of the first entry where ``holds(have[k], want[k], tol)``
    fails, or None; ``holds`` is ``approx_eq`` or ``approx_le``.  Lists
    equal entry for entry pass both at every tol >= 0 (no entry is NaN), so
    they are done in one C-level test, and of the others only the entries
    that differ are scanned."""
    if have == want:
        return None
    for k in compress(range(len(have)), map(ne, have, want)):
        if not holds(have[k], want[k], tol):
            return k
    return None


def _negated(row) -> list[float]:
    return [0.0 - v for v in row]


class _Rows:
    """The rows of one decision u that the row tests compare, each a list
    built on first use and shared by every test that reads it: ``l`` and
    ``r`` are L_u and R_u.  ``conjugate_row`` takes the negated function,
    so rho_u = (-L_u)^c' is conjugate_row(L_u), which is also the
    sup-transform row ``rockafellian_of`` gives, bit for bit.  The
    inf-transform row is 0.0 - sigma_u (see the module docstring) and is
    not built.

    No row holds -0.0, so rows equal in value are the same doubles and give
    the same conjugate bit for bit.  So sigma_u is the list -L_u where the
    two are equal, and rho_u is R_u where they are; a later compare of
    such a pair meets each float by identity.  And a biconjugate is not
    rebuilt when its argument is a row already held: (R_u)^{cc'} is rho_u
    where sigma_u is -L_u, and (-L_u)^{c'c} is sigma_u where rho_u is R_u."""

    def __init__(self, l_row, r_row, c):
        self.l, self.r, self.c = list(l_row), list(r_row), c

    @lazy
    def nl(self):  # -L_u
        return _negated(self.l)

    @lazy
    def sigma(self):  # (R_u)^c, the least feasible -L_u
        row = conjugate_row(_negated(self.r), self.c.sorted_cols)
        return self.nl if row == self.nl else row

    @lazy
    def rho(self):  # (-L_u)^{c'}, the least feasible R_u
        row = conjugate_row(self.l, self.c.sorted_rows)
        return self.r if row == self.r else row

    @lazy
    def r_bi(self):  # (R_u)^{cc'}
        if self.sigma is self.nl:
            return self.rho
        return conjugate_row(_negated(self.sigma), self.c.sorted_rows)

    @lazy
    def nl_bi(self):  # (-L_u)^{c'c}
        if self.rho is self.r:
            return self.sigma
        return conjugate_row(_negated(self.rho), self.c.sorted_cols)


# The row tests of items (i)-(v), each stated once: the side of the row's
# labels, the ``_Rows`` row and the row it is compared with, the
# comparison, and the witness text.  Minimality (M1, M2) compares the rows
# of E2 and E1 with ``approx_le``: each entry at most its least feasible
# value.  Item (ii) is two entries, its L half T1 and its R half T2: an L
# witness at any u comes before every R witness, so it closes the R half.
# T1 compares the rows of E1 (see the module docstring); its witness names
# L(u,y) and the inf-transform entry 0.0 - sigma_u(y) instead of -L(u,y)
# and sigma_u(y).
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
_T1 = ("y", "nl", "sigma", approx_eq, "L({u},{lab}) = {a} but the inf-transform gives {b}")
_T2 = ("x", "r", "rho", approx_eq, "R({u},{lab}) = {a} but the sup-transform gives {b}")
_ROW_TESTS = {"i-minimality": (_M1, _M2), "ii-L": (_T1,), "ii-R": (_T2,),
              "iii": (_E1, _E2), "iv": (_E1, _E3), "v": (_E2, _E4)}
_ITEM_II = ("ii-L", "ii-R")


def _row_witnesses(entries, lag, r, c, tol) -> dict[str, Witness | None]:
    """First witness against each of ``entries``, keys of ``_ROW_TESTS``,
    or None where the entry holds.

    One pass over the decisions: for each u, every still-open entry runs its
    row tests in ``_ROW_TESTS`` order on one ``_Rows``.  An entry leaves the
    pass at its first witness, so that witness is the one the entry finds
    alone; the L half of item (ii) takes its R half along.  The rows hold
    the values ``conjugate``, ``reverse_conjugate`` and the sup-transform
    give, bit for bit: they are the same kernel calls behind a domain
    check."""
    found = dict.fromkeys(entries)
    open_entries = list(entries)
    labels = {"x": c.primal.labels, "y": c.dual.labels}
    for u, l_row, r_row in zip(lag.decisions.labels, lag.rows, r.rows):
        rows = _Rows(l_row, r_row, c)
        for entry in tuple(open_entries):
            if entry not in open_entries:  # the R half, closed by this u's L half
                continue
            item = "ii" if entry in _ITEM_II else entry
            for side, have, want, holds, text in _ROW_TESTS[entry]:
                have, want = getattr(rows, have), getattr(rows, want)
                k = _mismatch(have, want, tol, holds)
                if k is None:
                    continue
                a, b = have[k], want[k]
                if entry == "ii-L":  # compared as E1, shown as L and the inf-transform
                    a, b = rows.l[k], 0.0 - b
                lab = labels[side][k]  # of X or of Y by side: the two may share labels
                x, y = (lab, None) if side == "x" else (None, lab)
                found[entry] = Witness(item, u, x, y, text.format(u=u, lab=lab, a=a, b=b))
                closed = _ITEM_II if entry == "ii-L" else (entry,)
                open_entries = [e for e in open_entries if e not in closed]
                break
        if not open_entries:
            break
    return found


def _holds(entry, lag, r, c, tol) -> bool:
    _require_valid(lag, r, c, tol)
    return _row_witnesses((entry,), lag, r, c, tol)[entry] is None


def check_item_ii(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """L equals the Lagrangian of R and R equals the Rockafellian of L."""
    return _holds("ii-L", lag, r, c, tol) and _holds("ii-R", lag, r, c, tol)


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
    entries = ("ii-L", "ii-R", "iii", "iv", "v")
    if w_ineq is None:
        w_probe, w_l, w_r, *rows = _row_witnesses(
            ("i-minimality", *entries), lag, r, c, tol).values()
    else:
        w_probe = Witness(
            item="i-minimality", u=None, x=None, y=None,
            description="not probed: the inequality itself fails",
        )
        w_l, w_r, *rows = _row_witnesses(entries, lag, r, c, tol).values()
    found = [w_l or w_r, *rows]
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
