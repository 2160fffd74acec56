"""Transforms between Rockafellians and Lagrangians, and weak duality.

A Rockafellian R over decisions x primal embeds a minimization problem into
a perturbed family; its Lagrangian over decisions x dual is

    L(u, y) = inf_x [ R(u, x) upper-add -c(x, y) ]

which row-wise says -L_u = (R_u)^c.  The converse transform rebuilds a
Rockafellian from a Lagrangian,

    R(u, x) = sup_y [ L(u, y) lower-add c(x, y) ]

i.e. R_u = (-L_u)^{c'}.  The perturbation function phi(x) = inf_u R(u, x)
and the dual function psi(y) = inf_u L(u, y) tie the two levels together:
going from R to L one has the exact identity -psi = phi^c, while going from
L to R only the inequality phi >= (-psi)^{c'} survives, because a conjugacy
turns an infimum into a supremum but not vice versa.

The weak-duality report evaluates, at a chosen perturbation point, the primal
value phi(x) against the dual value sup_y [c(x, y) lower-add psi(y)]; the
dual value never exceeds the primal one.  ``weak_duality_reports`` gives the
report at every base point from one phi^c.

Both transforms and the dual value are c-conjugates, computed by the kernel
of ``extreal``, ``conjugate_product``; phi and psi are column minima.  The
formulas read as the paper's: the Lagrangian's row u is 0.0 - (R_u)^c, the
inf-transform exactly (see ``extreal``), and the Rockafellian's row u is
(0.0 - L_u)^{c'}.  All of them are plain doubles, never NaN and never -0.0,
built without a second check (see ``spaces``).  So -psi = phi^c holds bit
for bit, and the dual value sup_y [c(x, y) lower-add -phi^c(y)] is the
biconjugate phi^{cc'}(x): two conjugate rows, not the whole Lagrangian.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainMismatchError
from .extreal import (
    DEFAULT_TOL,
    ExtReal,
    approx_eq,
    approx_le,
    conjugate_product,
    descending,
)
from .spaces import Coupling, Lagrangian, Rockafellian, SetFunction

__all__ = [
    "WeakDualityReport",
    "dual_function",
    "lagrangian_of",
    "perturbation_function",
    "rockafellian_of",
    "weak_duality_report",
    "weak_duality_reports",
]


def lagrangian_of(r: Rockafellian, c: Coupling) -> Lagrangian:
    """Lagrangian of a Rockafellian: L(u,y) = inf_x [R(u,x) upper-add -c(x,y)]."""
    if r.primal != c.primal:
        raise DomainMismatchError(
            "lagrangian_of: Rockafellian primal set differs from the coupling's"
        )
    rows = conjugate_product(r.rows, c.sorted_cols)  # -L_u = (R_u)^c
    return Lagrangian._unchecked(
        r.decisions, c.dual, tuple([tuple([0.0 - v for v in row]) for row in rows]))


def rockafellian_of(lag: Lagrangian, c: Coupling) -> Rockafellian:
    """Rockafellian of a Lagrangian: R(u,x) = sup_y [L(u,y) lower-add c(x,y)]."""
    if lag.dual != c.dual:
        raise DomainMismatchError(
            "rockafellian_of: Lagrangian dual set differs from the coupling's"
        )
    rows = conjugate_product(  # R_u = (-L_u)^{c'}
        [[0.0 - v for v in row] for row in lag.rows], c.sorted_rows)
    return Rockafellian._unchecked(lag.decisions, c.primal, tuple(map(tuple, rows)))


def perturbation_function(r: Rockafellian) -> SetFunction:
    """phi(x) = inf over decisions of R(u, x)."""
    return SetFunction._unchecked(r.primal, tuple(map(min, zip(*r.rows))))


def dual_function(lag: Lagrangian) -> SetFunction:
    """psi(y) = inf over decisions of L(u, y)."""
    return SetFunction._unchecked(lag.dual, tuple(map(min, zip(*lag.rows))))


class WeakDualityReport(namedtuple(
        "WeakDualityReport", "base_point primal_value dual_value tight gap")):
    """Primal vs dual value of a Rockafellian at one perturbation point: the
    point's label, the two values as ``ExtReal``s and the tightness flag.

    ``gap`` is present only when both values are finite, in which case it is
    their nonnegative difference as an ``ExtReal``; with an infinite value on
    either side it is None, and the two values and the tightness flag carry
    all the information.
    """

    __slots__ = ()


def weak_duality_report(
    r: Rockafellian,
    c: Coupling,
    base_point: str,
    tol: float = DEFAULT_TOL,
) -> WeakDualityReport:
    """Evaluate weak duality at ``base_point``.

    primal = phi(base_point); dual = phi^{cc'}(base_point) =
    sup_y [c(base_point, y) lower-add -phi^c(y)], where -phi^c is psi, the
    dual function of ``lagrangian_of(r, c)``, bit for bit: O(|U||X| + |X||Y|).
    The dual value reads a view of the coupling's row at ``base_point``
    alone, and leaves ``c.sorted_rows`` unbuilt.  It can never exceed the
    primal one; a violation means a broken arithmetic kernel or rounding at
    large magnitudes, and raises ArithmeticError instead of reporting.
    """
    _require_primal(r, c, "weak_duality_report")
    ix = c.primal.index(base_point)
    phi = perturbation_function(r).values
    phi_c = conjugate_product((phi,), c.sorted_cols)[0]
    dual = conjugate_product((phi_c,), descending((c.rows[ix],)))[0][0]
    report = _report(base_point, phi[ix], dual, tol)
    if isinstance(report, ArithmeticError):
        raise report
    return report


def weak_duality_reports(
    r: Rockafellian, c: Coupling, tol: float = DEFAULT_TOL
) -> list[WeakDualityReport | ArithmeticError]:
    """``weak_duality_report`` at every base point, in the order of
    ``c.primal``: one phi^c and one kernel row over ``c.sorted_rows`` give
    every dual value, each the same double as the one-point report's (the
    kernel scans a line of the coupling in the same order in either view).
    A base point where weak duality is violated gives, in place of its
    report, the ArithmeticError that ``weak_duality_report`` raises there,
    so that the other points still report."""
    _require_primal(r, c, "weak_duality_reports")
    phi = perturbation_function(r).values
    phi_c = conjugate_product((phi,), c.sorted_cols)[0]
    duals = conjugate_product((phi_c,), c.sorted_rows)[0]
    return [_report(x, primal, dual, tol)
            for x, primal, dual in zip(c.primal.labels, phi, duals)]


def _require_primal(r, c, name):
    if r.primal != c.primal:
        raise DomainMismatchError(
            f"{name}: Rockafellian primal set differs from the coupling's"
        )


def _report(base_point, primal, dual, tol):
    """The report at ``base_point`` from its two values, or the
    ArithmeticError of a violation."""
    dual, primal = ExtReal(dual), ExtReal(primal)
    if not approx_le(dual, primal, tol):
        return ArithmeticError(
            f"weak duality violated at {base_point!r}: dual {dual} > primal {primal}"
        )
    tight = approx_eq(dual, primal, tol)
    gap = None
    if math.isfinite(primal) and math.isfinite(dual):
        gap = ExtReal(max(primal - dual, 0.0))
    return WeakDualityReport(
        base_point=base_point,
        primal_value=primal,
        dual_value=dual,
        tight=tight,
        gap=gap,
    )
