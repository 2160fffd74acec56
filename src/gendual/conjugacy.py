"""Fenchel-Moreau conjugates for an arbitrary coupling, by enumeration.

For a coupling c over X x Y, the conjugate of f: X -> [-inf,+inf] is

    f^c(y) = sup over x of  c(x,y) (lower-add) -f(x)

and the reverse conjugate of g: Y -> [-inf,+inf] is the conjugate through
the transposed coupling ``c.transposed``, so the reverse functions reach
the kernel through ``conjugate``.  Biconjugation composes the two and
yields the largest c-convex function below the input; a function equal to
its biconjugate is called c-convex (respectively c'-convex on the dual
side).  Both conjugates are one-row calls of the kernel in ``extreal``,
``conjugate_product``, which is the c-conjugate itself and enumerates the
finite sets exactly: ``conjugate_row`` is that call, and the couple audit
calls it on raw table rows.  Its values are plain doubles that are never
NaN, so the conjugates are built without a second check (see ``spaces``).
"""

from __future__ import annotations

from .errors import DomainMismatchError
from .extreal import DEFAULT_TOL, conjugate_product, exceeds
from .spaces import Coupling, SetFunction

__all__ = [
    "biconjugate",
    "conjugate",
    "conjugate_row",
    "is_c_convex",
    "is_cprime_convex",
    "reverse_biconjugate",
    "reverse_conjugate",
    "young_check",
]


def conjugate_row(f, view) -> list[float]:
    """The conjugate of the row of values ``f`` over the lines of a
    ``descending`` view of the coupling: its columns (``c.sorted_cols``) for
    f on the primal set, its rows (``c.sorted_rows``) for the reverse
    conjugate of f on the dual set.  Returns the plain list of values, in
    the order of the view's lines."""
    return conjugate_product((f,), view)[0]


def conjugate(f: SetFunction, c: Coupling) -> SetFunction:
    """f^c(y) = sup_x [c(x,y) lower-add -f(x)], a function on the dual set.
    Both directions run here, so it reads ``c.row_set`` and ``c.col_set``,
    not the properties ``c.primal`` and ``c.dual``: a call less each."""
    if f.domain != c.row_set:
        raise DomainMismatchError(
            "conjugate: function domain differs from the coupling's primal set"
        )
    return SetFunction._unchecked(
        c.col_set, tuple(conjugate_row(f.values, c.sorted_cols))
    )


def reverse_conjugate(g: SetFunction, c: Coupling) -> SetFunction:
    """g^{c'}(x) = sup_y [c(x,y) lower-add -g(y)], the conjugate of g through c^T."""
    if g.domain != c.dual:
        raise DomainMismatchError(
            "reverse_conjugate: function domain differs from the coupling's dual set"
        )
    return conjugate(g, c.transposed)


def biconjugate(f: SetFunction, c: Coupling) -> SetFunction:
    """f^{cc'} = (f^c)^{c'}; never exceeds f anywhere."""
    return reverse_conjugate(conjugate(f, c), c)


def reverse_biconjugate(g: SetFunction, c: Coupling) -> SetFunction:
    """g^{c'c} = (g^{c'})^c; never exceeds g anywhere."""
    return conjugate(reverse_conjugate(g, c), c)


def is_c_convex(f: SetFunction, c: Coupling, tol: float = DEFAULT_TOL) -> bool:
    """True iff f equals its biconjugate (infinities exact, finites within tol)."""
    return biconjugate(f, c).isclose(f, tol)


def is_cprime_convex(g: SetFunction, c: Coupling, tol: float = DEFAULT_TOL) -> bool:
    """Dual-side convexity test: g equals its reverse biconjugate."""
    return reverse_biconjugate(g, c).isclose(g, tol)


def young_check(f: SetFunction, c: Coupling) -> bool:
    """Generalized Young inequality: f(x) upper-add f^c(y) >= c(x,y) for all
    pairs, tested exactly by ``extreal.exceeds`` at tol 0.  Holds for every
    input in exact arithmetic, and in doubles on the integer grid; off it a
    rounded f^c can break it (ROADMAP item 2).  Exposed as a self-test of the
    sign and infinity conventions."""
    return exceeds(c.rows, f.values, conjugate(f, c).values, 0.0) is None
