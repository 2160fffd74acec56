"""Lagrangian-Rockafellian couples and their five equivalent tests.

A pair (L, R) over a coupling c is a couple when (-L, R) is minimal among
the pairs satisfying the generalized Young inequality

    -L(u, y)  upper-add  R(u, x)  >=  c(x, y)      for all (u, x, y).

Minimality over the full function space cannot be enumerated, so the audit
approaches it from five sides, each implemented independently so their
agreement is itself a checkable claim:

  (i)   the inequality above, plus a finite falsification probe that lowers
        single entries of R (and raises single entries of L) and verifies
        the inequality breaks every time;
  (ii)  L is the Lagrangian of R and R is the Rockafellian of L (the two
        inf/sup transform equations);
  (iii) row-wise conjugate duality: -L_u = (R_u)^c and R_u = (-L_u)^{c'};
  (iv)  -L_u = (R_u)^c and every row R_u is c-convex;
  (v)   R_u = (-L_u)^{c'} and every -L_u is c'-convex.

Items (ii) through (v) are exactly equivalent; the audit flags an internal
alarm if their verdicts ever disagree.

Item (i) does not use the product kernel of items (ii)-(v): it compares
doubles once per triple.  For a finite tol >= 0, ``c <= a upper-add b``
within tol fails exactly when ``c - (a + b) > tol``, because the two cases
that give NaN never compare greater: the opposite-infinity sum, which the
upper addition sends to +inf, and the difference of equal infinities.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import DomainMismatchError
from .extreal import (
    DEFAULT_TOL,
    ExtReal,
    approx_eq,
    approx_le,
    neg,
    upp_add,
)
from .spaces import (
    Coupling,
    Lagrangian,
    Rockafellian,
    partial_lagrangian,
    partial_rockafellian,
)
from .conjugacy import biconjugate, conjugate, reverse_biconjugate, reverse_conjugate
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
    # the float scans of item (i) equal approx_le only for a finite tol >= 0
    if not 0.0 <= tol < _INF:
        raise ValueError("tolerance must be finite and nonnegative")
    if not all(d > 0.0 for d in deltas):
        raise ValueError("probe deltas must be positive")


def _inequality_witness(lag, r, c, tol) -> Witness | None:
    neg_l = [[-v for v in row] for row in lag.rows]
    for iu, (u, nl_row) in enumerate(zip(r.decisions.labels, neg_l)):
        for ix, (x, rv) in enumerate(zip(r.primal.labels, map(float, r.rows[iu]))):
            for cv, nl in zip(c.float_rows[ix], nl_row):
                if cv - (nl + rv) > tol:
                    break
            else:
                continue
            # name the first failing y in ExtReal terms
            for y, lv, cv in zip(lag.dual.labels, lag.rows[iu], c.rows[ix]):
                lhs = upp_add(neg(lv), r.rows[iu][ix])
                if not approx_le(cv, lhs, tol):
                    return Witness(
                        item="i-inequality", u=u, x=x, y=y,
                        description=(
                            f"-L({u},{y}) upper-add R({u},{x}) = {lhs} "
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


def _item_ii_witness(lag, r, c, tol) -> Witness | None:
    from_r = lagrangian_of(r, c)
    for iu, u in enumerate(lag.decisions.labels):
        for iy, y in enumerate(lag.dual.labels):
            have, want = lag.rows[iu][iy], from_r.rows[iu][iy]
            if not approx_eq(have, want, tol):
                return Witness(
                    item="ii",
                    u=u,
                    x=None,
                    y=y,
                    description=f"L({u},{y}) = {have} but the inf-transform gives {want}",
                )
    from_l = rockafellian_of(lag, c)
    for iu, u in enumerate(r.decisions.labels):
        for ix, x in enumerate(r.primal.labels):
            have, want = r.rows[iu][ix], from_l.rows[iu][ix]
            if not approx_eq(have, want, tol):
                return Witness(
                    item="ii",
                    u=u,
                    x=x,
                    y=None,
                    description=f"R({u},{x}) = {have} but the sup-transform gives {want}",
                )
    return None


def check_item_ii(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """L equals the Lagrangian of R and R equals the Rockafellian of L."""
    _require_valid(lag, r, c, tol)
    return _item_ii_witness(lag, r, c, tol) is None


def _first_mismatch(f, g, tol):
    for lab, a, b in zip(f.domain.labels, f.values, g.values):
        if not approx_eq(a, b, tol):
            return lab, a, b
    return None


def _item_iii_witness(lag, r, c, tol) -> Witness | None:
    for u in lag.decisions.labels:
        neg_lu = partial_lagrangian(lag, u).negated()
        r_u = partial_rockafellian(r, u)
        bad = _first_mismatch(neg_lu, conjugate(r_u, c), tol)
        if bad is not None:
            y, a, b = bad
            return Witness(
                item="iii", u=u, x=None, y=y,
                description=f"-L({u},{y}) = {a} but (R_u)^c({y}) = {b}",
            )
        bad = _first_mismatch(r_u, reverse_conjugate(neg_lu, c), tol)
        if bad is not None:
            x, a, b = bad
            return Witness(
                item="iii", u=u, x=x, y=None,
                description=f"R({u},{x}) = {a} but (-L_u)^c'({x}) = {b}",
            )
    return None


def check_item_iii(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """Row-wise conjugate dual pair: -L_u = (R_u)^c and R_u = (-L_u)^{c'}."""
    _require_valid(lag, r, c, tol)
    return _item_iii_witness(lag, r, c, tol) is None


def _item_iv_witness(lag, r, c, tol) -> Witness | None:
    for u in lag.decisions.labels:
        neg_lu = partial_lagrangian(lag, u).negated()
        r_u = partial_rockafellian(r, u)
        bad = _first_mismatch(neg_lu, conjugate(r_u, c), tol)
        if bad is not None:
            y, a, b = bad
            return Witness(
                item="iv", u=u, x=None, y=y,
                description=f"-L({u},{y}) = {a} but (R_u)^c({y}) = {b}",
            )
        bad = _first_mismatch(r_u, biconjugate(r_u, c), tol)
        if bad is not None:
            x, a, b = bad
            return Witness(
                item="iv", u=u, x=x, y=None,
                description=f"R({u},{x}) = {a} is not c-convex: biconjugate gives {b}",
            )
    return None


def check_item_iv(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """-L_u = (R_u)^c and every row of R is c-convex."""
    _require_valid(lag, r, c, tol)
    return _item_iv_witness(lag, r, c, tol) is None


def _item_v_witness(lag, r, c, tol) -> Witness | None:
    for u in lag.decisions.labels:
        neg_lu = partial_lagrangian(lag, u).negated()
        r_u = partial_rockafellian(r, u)
        bad = _first_mismatch(r_u, reverse_conjugate(neg_lu, c), tol)
        if bad is not None:
            x, a, b = bad
            return Witness(
                item="v", u=u, x=x, y=None,
                description=f"R({u},{x}) = {a} but (-L_u)^c'({x}) = {b}",
            )
        bad = _first_mismatch(neg_lu, reverse_biconjugate(neg_lu, c), tol)
        if bad is not None:
            y, a, b = bad
            return Witness(
                item="v", u=u, x=None, y=y,
                description=(
                    f"-L({u},{y}) = {a} is not c'-convex: "
                    f"reverse biconjugate gives {b}"
                ),
            )
    return None


def check_item_v(
    lag: Lagrangian, r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> bool:
    """R_u = (-L_u)^{c'} and every -L_u is c'-convex."""
    _require_valid(lag, r, c, tol)
    return _item_v_witness(lag, r, c, tol) is None


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


def _lower_candidates(v: ExtReal, deltas, big: float) -> list[float]:
    if v == -_INF:
        return []
    if v == _INF:
        return [big]
    return [v - d for d in deltas] + [-_INF]


def _raise_candidates(v: ExtReal, deltas, big: float) -> list[float]:
    if v == _INF:
        return []
    if v == -_INF:
        return [-big]
    return [v + d for d in deltas] + [_INF]


def _probe_witness(lag, r, c, deltas, tol) -> Witness | None:
    # Single-entry changes only touch the inequality triples through that
    # entry's row/column slice; since the unperturbed inequality holds (the
    # caller checks it first), re-checking the slice is the full check.
    big = _probe_magnitude(lag, r, c)
    neg_l = [[-v for v in row] for row in lag.rows]
    for iu, u in enumerate(r.decisions.labels):
        nl_row = neg_l[iu]
        for ix, x in enumerate(r.primal.labels):
            rv = r.rows[iu][ix]
            c_row = c.float_rows[ix]
            for cand in _lower_candidates(rv, deltas, big):
                for cv, nl in zip(c_row, nl_row):
                    if cv - (nl + cand) > tol:
                        break
                else:
                    return Witness(
                        item="i-minimality", u=u, x=x, y=None,
                        description=(
                            f"R({u},{x}) = {rv} can drop to {ExtReal(cand)} "
                            f"with the inequality intact"
                        ),
                    )
    for iu, u in enumerate(lag.decisions.labels):
        r_row = list(map(float, r.rows[iu]))
        for iy, y in enumerate(lag.dual.labels):
            lv = lag.rows[iu][iy]
            c_col = c.float_cols[iy]
            for cand in _raise_candidates(lv, deltas, big):
                ncand = -cand
                for cv, rv in zip(c_col, r_row):
                    if cv - (ncand + rv) > tol:
                        break
                else:
                    return Witness(
                        item="i-minimality", u=u, x=None, y=y,
                        description=(
                            f"L({u},{y}) = {lv} can rise to {ExtReal(cand)} "
                            f"with the inequality intact"
                        ),
                    )
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
    witnesses = []

    w_ineq = _inequality_witness(lag, r, c, tol)
    if w_ineq is not None:
        witnesses.append(w_ineq)
        probe_ok = False
        witnesses.append(
            Witness(
                item="i-minimality", u=None, x=None, y=None,
                description="not probed: the inequality itself fails",
            )
        )
    else:
        w_probe = _probe_witness(lag, r, c, deltas, tol)
        probe_ok = w_probe is None
        if w_probe is not None:
            witnesses.append(w_probe)

    w_ii = _item_ii_witness(lag, r, c, tol)
    w_iii = _item_iii_witness(lag, r, c, tol)
    w_iv = _item_iv_witness(lag, r, c, tol)
    w_v = _item_v_witness(lag, r, c, tol)
    for w in (w_ii, w_iii, w_iv, w_v):
        if w is not None:
            witnesses.append(w)

    verdicts = tuple(w is None for w in (w_ii, w_iii, w_iv, w_v))
    return CoupleAudit(
        item_i_inequality=w_ineq is None,
        item_i_minimality_probe=probe_ok,
        item_ii=verdicts[0],
        item_iii=verdicts[1],
        item_iv=verdicts[2],
        item_v=verdicts[3],
        items_agree=len(set(verdicts)) == 1,
        witnesses=tuple(witnesses),
    )


def make_couple(r: Rockafellian, c: Coupling) -> tuple[Lagrangian, Rockafellian]:
    """Canonical couple built from any Rockafellian.

    Returns (L, R') with L the Lagrangian of R and R' the Rockafellian
    rebuilt from L; row-wise R' is the biconjugate of R, so the pair always
    audits as a couple, and R' = R exactly when every row of R is c-convex.
    """
    lag = lagrangian_of(r, c)
    return lag, rockafellian_of(lag, c)
