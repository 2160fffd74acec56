"""Lagrangian-Rockafellian couples and their five equivalent tests.

A pair (L, R) over a coupling c is a couple when (-L, R) is minimal among
the pairs satisfying the generalized Young inequality

    -L(u, y)  upper-add  R(u, x)  >=  c(x, y)      for all (u, x, y).

Minimality over the full function space cannot be enumerated, so the audit
approaches it from five sides.  Each item computes its own transforms and
conjugates, so that their agreement is itself a checkable claim:

  (i)   the inequality above, plus a finite falsification probe that lowers
        single entries of R (and raises single entries of L) and verifies
        the inequality breaks every time;
  (ii)  L is the Lagrangian of R and R is the Rockafellian of L (the two
        inf/sup transform equations);
  (iii) row-wise conjugate duality: E1 and E2 below;
  (iv)  E1, and every row R_u is c-convex (E3);
  (v)   E2, and every -L_u is c'-convex (E4);

where, for every decision u,

  E1: -L_u = (R_u)^c             E2: R_u = (-L_u)^{c'}
  E3:  R_u = (R_u)^{cc'}         E4: -L_u = (-L_u)^{c'c}.

Items (ii) through (v) share one mismatch scan, which names the first entry
where two rows differ.  It first compares the two rows whole, at C speed,
and of a pair that is not equal entry for entry it scans with
``approx_eq`` only the entries that differ; equal doubles are approximately
equal at every tol >= 0, so the witness does not depend on the shortcut.
Items (iii)-(v) pass raw table rows to the product kernel
(``conjugacy.conjugate_row``, the one conjugate code path) instead of
building a ``SetFunction`` per row.  The four items are exactly
equivalent; the audit flags an internal alarm if their verdicts ever
disagree.

Item (i) does not use the product kernel of items (ii)-(v): both the
inequality and the probe scan rows of doubles with ``extreal.exceeds``,
which is exact for a finite tol >= 0.  The inequality scans, for each u,
only the y where L(u, y) > -inf, the domain of -L_u: elsewhere -L(u, y) is
+inf, so the upper sum is +inf and cannot fail.  A u whose L row is -inf
everywhere costs no scan, and the first failing y is the same.

The probe tests each entry's weakest candidate first.  For fixed c and a,
whether ``c - (a + b) > tol`` holds can only turn from true to false as b
grows: IEEE ``+`` and ``-`` round monotonically, and the opposite-infinity
cases that give NaN are b = +inf or a + b = +inf, at the top of the range,
or a = +inf or c = -inf, where the test fails for every b.  So a candidate
that breaks the inequality is matched by every candidate below it for R
(where b is the candidate) and above it for L (where b is its negation).
If the largest R candidate, or the smallest L candidate, breaks the
inequality, so does every other candidate of the entry, which is done in
one scan; otherwise its candidates are scanned in order and the first
survivor is named, as a plain scan would.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import compress
from operator import ne

from .errors import DomainMismatchError
from .extreal import DEFAULT_TOL, ExtReal, approx_eq, exceeds, upp_add
from .spaces import Coupling, Lagrangian, Rockafellian
from .conjugacy import conjugate_row
from .duality import lagrangian_of, rockafellian_of

__all__ = [
    "CoupleAudit",
    "DEFAULT_DELTAS",
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

DEFAULT_DELTAS = (1e-3, 1.0)

_INF = float("inf")


@dataclass(frozen=True)
class Witness:
    """First counterexample found for one audit item, in scan order."""

    item: str
    u: str | None
    x: str | None
    y: str | None
    description: str


@dataclass(frozen=True)
class CoupleAudit:
    """Verdicts of all five characterizations for one (L, R, c) triple."""

    item_i_inequality: bool
    item_i_minimality_probe: bool
    item_ii: bool
    item_iii: bool
    item_iv: bool
    item_v: bool
    items_agree: bool
    witnesses: tuple[Witness, ...]

    @property
    def is_couple(self) -> bool:
        return self.item_ii and self.items_agree


def _require_valid(lag, r, c, tol: float, deltas=()) -> None:
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
    # extreal.exceeds, the scan of item (i), needs a finite tol >= 0
    if not 0.0 <= tol < _INF:
        raise ValueError("tolerance must be finite and nonnegative")
    if not all(d > 0.0 for d in deltas):
        raise ValueError("probe deltas must be positive")


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


def _mismatch(item, u, side, labels, have, want, tol, text) -> Witness | None:
    """Witness at the first label where the row ``have`` differs from the row
    ``want``, or None.  Rows that compare equal entry for entry are done in
    one C-level test; of the others, only the entries that differ are
    scanned with ``approx_eq``."""
    if tuple(have) == tuple(want):
        return None
    for lab, a, b in compress(zip(labels, have, want), map(ne, have, want)):
        if not approx_eq(a, b, tol):
            return _witness(item, u, side, lab, text.format(u=u, lab=lab, a=a, b=b))
    return None


def _item_ii_witness(lag, r, c, tol) -> Witness | None:
    # all of L against the inf-transform of R, then all of R against the
    # sup-transform of L, which is computed only once L has passed
    for side, have, make_want, text in (
        ("y", lag, lambda: lagrangian_of(r, c),
         "L({u},{lab}) = {a} but the inf-transform gives {b}"),
        ("x", r, lambda: rockafellian_of(lag, c),
         "R({u},{lab}) = {a} but the sup-transform gives {b}"),
    ):
        want = make_want()
        for u, have_row, want_row in zip(have.decisions.labels, have.rows, want.rows):
            w = _mismatch("ii", u, side, have.col_set.labels, have_row, want_row, tol, text)
            if w is not None:
                return w
    return None


def _negated(row) -> list[float]:
    return [-v for v in row]


# The row equations E1-E4 of items (iii)-(v), each stated once: the side of
# the row's labels, the row and the row it must equal, and the witness text.
# The rows come from L_u, -L_u, R_u and -R_u as raw rows of doubles, and the
# conjugates from ``conjugate_row``, which takes the negated function: the
# columns of c conjugate a function on X, its rows a function on Y.  So
# (-L_u)^c' is conjugate_row(L_u), since -(-v) is v for every double.
_E1 = ("y", lambda lu, nlu, ru, nru, c: (nlu, conjugate_row(nru, c.sorted_cols)),
       "-L({u},{lab}) = {a} but (R_u)^c({lab}) = {b}")
_E2 = ("x", lambda lu, nlu, ru, nru, c: (ru, conjugate_row(lu, c.sorted_rows)),
       "R({u},{lab}) = {a} but (-L_u)^c'({lab}) = {b}")
_E3 = ("x", lambda lu, nlu, ru, nru, c: (ru, conjugate_row(
           _negated(conjugate_row(nru, c.sorted_cols)), c.sorted_rows)),
       "R({u},{lab}) = {a} is not c-convex: biconjugate gives {b}")
_E4 = ("y", lambda lu, nlu, ru, nru, c: (nlu, conjugate_row(
           _negated(conjugate_row(lu, c.sorted_rows)), c.sorted_cols)),
       "-L({u},{lab}) = {a} is not c'-convex: reverse biconjugate gives {b}")
_ROW_EQUATIONS = {"iii": (_E1, _E2), "iv": (_E1, _E3), "v": (_E2, _E4)}


def _item_witness(item, lag, r, c, tol) -> Witness | None:
    """First witness against item (ii), (iii), (iv) or (v).  Each item
    computes its own conjugates: their agreement is the check.

    Items (iii)-(v) work on raw rows: each u hands L_u, -L_u, R_u and -R_u
    to the product kernel through ``conjugate_row`` and wraps no row in a
    ``SetFunction``.  Their values are the ones ``conjugate`` and
    ``reverse_conjugate`` give, bit for bit, since those two are
    ``conjugate_row`` behind a domain check.  ``_mismatch`` then compares
    each pair of rows at C speed first: exact equality implies ``approx_eq``
    at every tol >= 0 (signed zeros compare equal and no entry is NaN), so
    only the entries that differ are scanned, and the first witness is the
    same."""
    if item == "ii":
        return _item_ii_witness(lag, r, c, tol)
    for u, l_row, r_row in zip(lag.decisions.labels, lag.rows, r.rows):
        nl_row, nr_row = _negated(l_row), _negated(r_row)
        for side, rows, text in _ROW_EQUATIONS[item]:
            have, want = rows(l_row, nl_row, r_row, nr_row, c)
            labels = c.primal.labels if side == "x" else c.dual.labels
            w = _mismatch(item, u, side, labels, have, want, tol, text)
            if w is not None:
                return w
    return None


def _holds(item, lag, r, c, tol) -> bool:
    _require_valid(lag, r, c, tol)
    return _item_witness(item, lag, r, c, tol) is None


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


def _probe_magnitude(lag, r, c) -> float:
    """Replacement magnitude for probing infinite entries: well beyond every
    finite value present in the instance, and capped at the largest double
    so that it stays finite."""
    biggest = 0.0
    for table in (lag, r, c):
        for row in table.rows:
            for v in row:
                if biggest < abs(v) < _INF:
                    biggest = abs(v)
    return min(max(10.0 * biggest, 1e6), sys.float_info.max)


# Both drop a step that rounds back to v (one below half an ulp of v): it
# is no change to the entry, so it cannot be evidence against minimality.
def _lower_candidates(v: ExtReal, deltas, big: float) -> list[float]:
    if v == -_INF:
        return []
    if v == _INF:
        return [big]
    return [v - d for d in deltas if v - d != v] + [-_INF]


def _raise_candidates(v: ExtReal, deltas, big: float) -> list[float]:
    if v == _INF:
        return []
    if v == -_INF:
        return [-big]
    return [v + d for d in deltas if v + d != v] + [_INF]


def _probe_witness(lag, r, c, deltas, tol) -> Witness | None:
    # Single-entry changes only touch the inequality triples through that
    # entry's row/column slice; since the unperturbed inequality holds (the
    # caller checks it first), re-checking the slice is the full check.  An
    # entry of R meets the row of -L through a row of c; an entry of L meets
    # the row of R through a column of c, with its sign flipped (exactly, as
    # -1.0 * v is -v for every double, signed zeros included).  Each entry
    # first tests its weakest candidate, the one that ``weakest`` picks (see
    # the module docstring): if even that one breaks the inequality, every
    # candidate does.  Otherwise the candidates are scanned in list order,
    # which names the same one as a plain scan.
    big = _probe_magnitude(lag, r, c)
    for table, side, others, slices, sign, candidates, weakest, text in (
        (r, "x", (_negated(row) for row in lag.rows), c.rows, 1.0,
         _lower_candidates, max,
         "R({u},{lab}) = {v} can drop to {cand} with the inequality intact"),
        (lag, "y", r.rows, c.cols, -1.0,
         _raise_candidates, min,
         "L({u},{lab}) = {v} can rise to {cand} with the inequality intact"),
    ):
        for u, row, other in zip(table.decisions.labels, table.rows, others):
            for lab, v, c_slice in zip(table.col_set.labels, row, slices):
                cands = candidates(v, deltas, big)
                if len(cands) > 1 and exceeds(
                        c_slice, other, sign * weakest(cands), tol):
                    continue
                for cand in cands:
                    if not exceeds(c_slice, other, sign * cand, tol):
                        return _witness("i-minimality", u, side, lab, text.format(
                            u=u, lab=lab, v=v, cand=ExtReal(cand)))
    return None


def minimality_probe(
    lag: Lagrangian,
    r: Rockafellian,
    c: Coupling,
    deltas=DEFAULT_DELTAS,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Finite falsification probe for minimality of (-L, R) in the inequality.

    Returns False outright when the inequality itself fails.  Otherwise each
    finite entry of R is lowered by every delta and jumped to -inf (a +inf
    entry is replaced by a large finite value; -inf entries cannot drop),
    and symmetrically each entry of L is raised; the probe passes only if
    every attempt breaks the inequality.  A True verdict is finite evidence
    of minimality, not a proof over the whole function space.
    """
    _require_valid(lag, r, c, tol, deltas)
    if _inequality_witness(lag, r, c, tol) is not None:
        return False
    return _probe_witness(lag, r, c, deltas, tol) is None


def audit(
    lag: Lagrangian,
    r: Rockafellian,
    c: Coupling,
    deltas=DEFAULT_DELTAS,
    tol: float = DEFAULT_TOL,
) -> CoupleAudit:
    """Run all five characterizations and collect first witnesses.

    ``items_agree`` reports whether the four exactly-equivalent items (ii)
    through (v) returned one common verdict; False there means the checker
    itself is inconsistent, not merely that the input fails to be a couple.
    """
    _require_valid(lag, r, c, tol, deltas)
    w_ineq = _inequality_witness(lag, r, c, tol)
    if w_ineq is None:
        w_probe = _probe_witness(lag, r, c, deltas, tol)
    else:
        w_probe = Witness(
            item="i-minimality", u=None, x=None, y=None,
            description="not probed: the inequality itself fails",
        )
    found = [_item_witness(item, lag, r, c, tol) for item in ("ii", "iii", "iv", "v")]
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
    (ROADMAP item 1, stage 2) is the planned fix.
    """
    lag = lagrangian_of(r, c)
    return lag, rockafellian_of(lag, c)
