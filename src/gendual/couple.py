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

The paper's map (L, R, c) -> (-R, -L, c^T) keeps the inequality and swaps
the two sides of each decision: R_u over X and -L_u over Y, each with its
least feasible value, the other side's row conjugated (see below).  It
sends E1 to E2 and E3 to E4, and so swaps items (iv) and (v).  So each
row law is stated once and runs on both sides, and one pass over the
decisions decides the whole audit: for each u it holds both sides' rows,
builds sigma_u = (R_u)^c, rho_u = (-L_u)^{c'} and their biconjugates at
most once each (see ``_Rows``), and runs every still-open test on them.
Each row comparison names the first entry where its two rows fail
``approx_eq`` (or ``approx_le``).

In IEEE arithmetic items (ii) and (iii) are one comparison.  Item (ii)'s
R half compares R_u with the sup-transform row, which is rho_u bit for bit
(the same kernel call), so it is E2.  Its L half compares L_u with the
inf-transform row, which ``lagrangian_of`` computes as 0.0 - sigma_u, so it
is E1 with both rows negated.  ``approx_eq`` is sign-symmetric, so the L
half runs as E1, with the same verdict and first y, and its witness prints
L(u,y) and 0.0 - sigma_u(y).  At each u item (ii) runs its L half, then
its R half, as item (iii) runs E1, then E2, so the two items' witnesses
name the same entry.  So ``items_agree``, the audit's alarm for
disagreeing verdicts among (ii)-(v), cannot separate (ii) from (iii), and
(iv) and (v) read the same rows: the independent check is the brute-force reference in
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

The inequality at u, a test of the pass on R_u and -L_u, does not use the
product kernel: ``extreal.exceeds`` scans c against them, exact for a
finite tol >= 0, and names the first failing (x, y).  A -inf entry of L is
+inf in -L_u, where the upper sum is +inf and cannot fail, so a u whose L
row is -inf everywhere costs no scan.  Minimality is reported only where
the inequality holds at every u, and is "not probed" elsewhere.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainMismatchError
from .extreal import (
    DEFAULT_TOL, approx_eq, approx_le, check_tol, exceeds, lazy, mismatch, upp_add)
from .spaces import Coupling, Lagrangian, Rockafellian
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
    check_tol(tol)
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


class _Rows:
    """The rows of one decision u that the row tests compare, each a list
    built on first use and shared by every test that reads it: ``l`` and
    ``r`` are L_u and R_u, ``nl`` is -L_u, the one negated row, and each
    conjugate row is ``conjugate_row`` of its function, as in the paper.
    rho_u is also the sup-transform row ``rockafellian_of`` gives, bit for
    bit; the inf-transform row, 0.0 - sigma_u, is not built (see the module
    docstring).

    No row holds -0.0, so rows equal in value are the same doubles and give
    the same conjugate bit for bit.  So sigma_u is the list -L_u where the
    two are equal, and rho_u is R_u where they are; a later compare of
    such a pair meets each float by identity.  And a biconjugate is not
    rebuilt when its argument is a row already held: (R_u)^{cc'} is rho_u
    where sigma_u is -L_u, and (-L_u)^{c'c} is sigma_u where rho_u is R_u.
    So wherever item (iii) holds exactly a decision costs two conjugate
    rows, not four."""

    def __init__(self, l_row, r_row, c):
        self.l, self.r, self.c = list(l_row), list(r_row), c

    @lazy
    def nl(self):  # -L_u
        return [0.0 - v for v in self.l]

    @lazy
    def sigma(self):  # (R_u)^c, the least feasible -L_u
        row = conjugate_row(self.r, self.c.sorted_cols)
        return self.nl if row == self.nl else row

    @lazy
    def rho(self):  # (-L_u)^{c'}, the least feasible R_u
        row = conjugate_row(self.nl, self.c.sorted_rows)
        return self.r if row == self.r else row

    @lazy
    def r_bi(self):  # (R_u)^{cc'}
        if self.sigma is self.nl:
            return self.rho
        return conjugate_row(self.sigma, self.c.sorted_rows)

    @lazy
    def nl_bi(self):  # (-L_u)^{c'c}
        if self.rho is self.r:
            return self.sigma
        return conjugate_row(self.rho, self.c.sorted_cols)


# The row laws, each stated once and run on both sides of a decision u.  A
# side is the key of its labels, the ``_Rows`` attributes of its row, of
# its least feasible value and of its biconjugate, and the names that fill
# a witness template.  A law is the row it compares the side's row with,
# the comparison and the template: equality (E1, E2) and minimality compare
# with the least feasible value, convexity (E3, E4) with the biconjugate,
# and item (ii)'s two transform halves compare the rows of equality.
_Side = namedtuple("_Side", "key row least bi names")
_R_SIDE = _Side("x", "r", "rho", "r_bi", dict(
    own="R", least="(-L_u)^c'", convex="c", bi="biconjugate", shown="R", transform="sup"))
_L_SIDE = _Side("y", "nl", "sigma", "nl_bi", dict(
    own="-L", least="(R_u)^c", convex="c'", bi="reverse biconjugate", shown="L",
    transform="inf"))
_E = ("least", approx_eq, "%(own)s({u},{lab}) = {a} but %(least)s({lab}) = {b}")
_M = ("least", approx_le,
      "%(own)s({u},{lab}) = {a} is above its least feasible value %(least)s({lab}) = {b}")
_C = ("bi", approx_eq, "%(own)s({u},{lab}) = {a} is not %(convex)s-convex: %(bi)s gives {b}")
_T = ("least", approx_eq,
      "%(shown)s({u},{lab}) = {a} but the %(transform)s-transform gives {b}")

# Each entry's laws, in the order it runs them at each u.  The inequality,
# the pass's one entry that is not a row comparison, is ``_inequality_at``.
# Where it fails it closes minimality and replaces its result with
# ``_NOT_PROBED``, even where minimality failed at an earlier u.
_ROW_TESTS = {
    entry: tuple((side.key, side.row, getattr(side, want), holds, text % side.names)
                 for (want, holds, text), side in laws)
    for entry, laws in (("i-minimality", ((_M, _R_SIDE), (_M, _L_SIDE))),
                        ("ii", ((_T, _L_SIDE), (_T, _R_SIDE))),
                        ("iii", ((_E, _L_SIDE), (_E, _R_SIDE))),
                        ("iv", ((_E, _L_SIDE), (_C, _R_SIDE))),
                        ("v", ((_E, _R_SIDE), (_C, _L_SIDE))))}
_NOT_PROBED = Witness(item="i-minimality", u=None, x=None, y=None,
                      description="not probed: the inequality itself fails")


def _inequality_at(u, rows, labels, tol) -> Witness | None:
    # a u whose L row is -inf everywhere costs no scan: -L_u is +inf there
    failing = min(rows.nl) < _INF and exceeds(rows.c.rows, rows.r, rows.nl, tol)
    if not failing:
        return None
    i, k = failing
    x, y = labels["x"][i], labels["y"][k]
    return Witness("i-inequality", u, x, y, (
        f"-L({u},{y}) upper-add R({u},{x}) = {upp_add(rows.nl[k], rows.r[i])} "
        f"< c({x},{y}) = {rows.c.rows[i][k]}"))


def _row_tests_at(entry, u, rows, labels, tol) -> Witness | None:
    for side, have, want, holds, text in _ROW_TESTS[entry]:
        have, want = getattr(rows, have), getattr(rows, want)
        k = mismatch(have, want, tol, holds)
        if k is None:
            continue
        a, b = have[k], want[k]
        if entry == "ii" and side == "y":  # compared as E1, shown as L and the inf-transform
            a, b = rows.l[k], 0.0 - b
        lab = labels[side][k]  # of X or of Y by side: the two may share labels
        x, y = (lab, None) if side == "x" else (None, lab)
        return Witness(entry, u, x, y, text.format(u=u, lab=lab, a=a, b=b))
    return None


def _row_witnesses(entries, lag, r, c, tol) -> dict[str, Witness | None]:
    """First witness against each of ``entries``, ``"i-inequality"`` or
    keys of ``_ROW_TESTS``, or None where the entry holds.

    One pass over the decisions: for each u, every still-open entry runs its
    test on one ``_Rows``.  An entry leaves the pass at its first witness,
    so that witness is the one the entry finds alone; the inequality's
    takes minimality along.  The rows hold the values ``conjugate`` and
    ``reverse_conjugate`` give, bit for bit: the same kernel calls."""
    found = dict.fromkeys(entries)
    open_entries = list(entries)
    labels = {"x": c.primal.labels, "y": c.dual.labels}
    for u, l_row, r_row in zip(lag.decisions.labels, lag.rows, r.rows):
        rows = _Rows(l_row, r_row, c)
        for entry in tuple(open_entries):
            if entry not in open_entries:  # minimality, closed by this u's inequality
                continue
            witness = (_inequality_at(u, rows, labels, tol) if entry == "i-inequality"
                       else _row_tests_at(entry, u, rows, labels, tol))
            if witness is None:
                continue
            found[entry] = witness
            open_entries.remove(entry)
            if entry == "i-inequality" and "i-minimality" in found:
                found["i-minimality"] = _NOT_PROBED
                open_entries = [e for e in open_entries if e != "i-minimality"]
        if not open_entries:
            break
    return found


def _holds(lag, r, c, tol, *entries) -> bool:
    """True iff each of ``entries`` holds, each decided alone, in the order
    given, by its own ``_row_witnesses`` pass; the first witness ends it."""
    _require_valid(lag, r, c, tol)
    return not any(_row_witnesses((entry,), lag, r, c, tol)[entry] for entry in entries)


def inequality_holds(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """-L(u,y) upper-add R(u,x) >= c(x,y) everywhere (tol slack on finites)."""
    return _holds(lag, r, c, tol, "i-inequality")


def check_item_ii(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """L equals the Lagrangian of R and R equals the Rockafellian of L."""
    return _holds(lag, r, c, tol, "ii")


def check_item_iii(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """Row-wise conjugate dual pair: -L_u = (R_u)^c and R_u = (-L_u)^{c'}."""
    return _holds(lag, r, c, tol, "iii")


def check_item_iv(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """-L_u = (R_u)^c and every row of R is c-convex."""
    return _holds(lag, r, c, tol, "iv")


def check_item_v(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """R_u = (-L_u)^{c'} and every -L_u is c'-convex."""
    return _holds(lag, r, c, tol, "v")


def minimality_probe(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """Minimality of (-L, R) in the inequality, decided exactly.

    False when the inequality itself fails.  Otherwise True iff every entry
    of R is at most its least feasible value (-L_u)^{c'} and every entry of
    -L at most (R_u)^c, within tol (see the module docstring).  Minimality
    is decided first: an entry above its least feasible value ends the
    probe at its u, before any inequality scan.
    """
    return _holds(lag, r, c, tol, "i-minimality", "i-inequality")


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
    w_ineq, w_probe, *found = _row_witnesses(
        ("i-inequality", "i-minimality", "ii", "iii", "iv", "v"), lag, r, c, tol).values()
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
