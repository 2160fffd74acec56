"""Exact arithmetic on the extended real line [-inf, +inf].

An extended real is an IEEE double that is never NaN: ``ExtReal`` is a
``float`` subclass whose constructor rejects NaN, and the two infinities
are the IEEE ones.  IEEE addition already agrees with both Moreau additions
everywhere except at (+inf) + (-inf), where it yields NaN; the lower
addition sends that pair to -inf, the upper addition to +inf.  So each
Moreau addition is one IEEE ``+`` with that NaN mapped to its infinity, and
a finite sum that overflows lands on the infinity of its sign.

The conjugates, the transforms and the dual value all go through one
kernel: ``sup_product``, the max-plus matrix product under the lower
addition, and its min-plus mirror ``inf_product`` under the upper one.  It
reads rows of doubles or extended reals and is exact: an IEEE sum is NaN
only for the opposite-infinity pair, which a strict ``>`` (``<``) never
selects, just as the -inf (+inf) that the lower (upper) addition gives it
never wins a sup (inf).

Every test of an upper Moreau sum against a coupling value (the couple
inequality, its minimality probe and the Young check) is one scan,
``exceeds``.

Comparisons against an infinity are always exact; tolerances apply only
between two finite values.
"""

from __future__ import annotations

import math
import re
from operator import add

__all__ = [
    "DEFAULT_TOL",
    "ExtReal",
    "NEG_INF",
    "POS_INF",
    "approx_eq",
    "approx_le",
    "as_extreal",
    "exceeds",
    "inf_product",
    "low_add",
    "neg",
    "parse_extreal",
    "render_extreal",
    "sup_product",
    "upp_add",
]

DEFAULT_TOL = 1e-9

_INF = math.inf
_new = float.__new__


class ExtReal(float):
    """A point of [-inf, +inf]: a double that is never NaN.

    Immutable, hashable, and totally ordered by the float comparisons with
    -inf < every finite value < +inf.  Arithmetic operators are the IEEE
    ones and return plain floats; the Moreau additions are ``low_add`` and
    ``upp_add``.
    """

    __slots__ = ()

    def __new__(cls, value: float):
        self = _new(cls, value)
        if self != self:
            raise ValueError("extended real cannot hold NaN")
        return self

    def __repr__(self):
        return f"ExtReal({render_extreal(self)})"

    def __str__(self):
        return render_extreal(self)


POS_INF = ExtReal(_INF)
NEG_INF = ExtReal(-_INF)


def _ext(v: float) -> ExtReal:
    # wraps a double known not to be NaN, reusing the infinity singletons
    if v == _INF:
        return POS_INF
    return NEG_INF if v == -_INF else _new(ExtReal, v)


def as_extreal(value) -> ExtReal:
    """Coerce an int, float, or ExtReal to ExtReal; NaN and bool are rejected."""
    if isinstance(value, ExtReal):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"cannot interpret {value!r} as an extended real")
    # ExtReal(value) without the cost of a Python-level constructor call
    value = _new(ExtReal, value)
    if value != value:
        raise ValueError("extended real cannot hold NaN")
    return value


def low_add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Moreau lower addition: usual +, except (+inf) + (-inf) = -inf."""
    s = a + b
    return _ext(s) if s == s else NEG_INF


def upp_add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Moreau upper addition: usual +, except (+inf) + (-inf) = +inf."""
    s = a + b
    return _ext(s) if s == s else POS_INF


def neg(a: ExtReal) -> ExtReal:
    """Negation; swaps the infinities, involutive."""
    return _ext(-a)


def _sup(a, b) -> float:
    best = -math.inf
    for s in map(add, a, b):
        if s > best:
            best = s
            if s == math.inf:
                break
    return best


def _inf(a, b) -> float:
    best = math.inf
    for s in map(add, a, b):
        if s < best:
            best = s
            if s == -math.inf:
                break
    return best


def sup_product(a_rows, b_rows) -> list[list[ExtReal]]:
    """P[i][j] = sup_k a_rows[i][k] (lower-add) b_rows[j][k].
    The scan over k stops at +inf; ties keep the first maximizer."""
    return [[_ext(_sup(a, b)) for b in b_rows] for a in a_rows]


def inf_product(a_rows, b_rows) -> list[list[ExtReal]]:
    """P[i][j] = inf_k a_rows[i][k] (upper-add) b_rows[j][k], written out
    rather than as -sup(-.) so that signed zeros match the sums."""
    return [[_ext(_inf(a, b)) for b in b_rows] for a in a_rows]


def exceeds(c_row, a_row, b, tol: float) -> bool:
    """True iff some k has c_row[k] > a_row[k] upper-add b beyond tol, that
    is, the inequality ``a upper-add b >= c`` fails somewhere along the rows.

    This is ``approx_le`` of the Moreau sum, tested on doubles as
    ``c - (a + b) > tol``, and exact for any finite tol >= 0: the two cases
    that give NaN never compare greater.  They are the opposite-infinity
    sum, which the upper addition sends to +inf, and the difference of two
    equal infinities; neither can fail the inequality.  With tol = 0.0 the
    test is ``c > a + b`` for every pair of doubles, NaN included.
    """
    for cv, a in zip(c_row, a_row):
        if cv - (a + b) > tol:
            return True
    return False


def approx_eq(a: ExtReal, b: ExtReal, tol: float = DEFAULT_TOL) -> bool:
    """True iff both are the same infinity, or both finite within tol.

    An infinity never approximately equals a finite value, whatever tol.
    """
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    if -_INF < a < _INF and -_INF < b < _INF:
        return abs(a - b) <= tol
    return a == b


def approx_le(a: ExtReal, b: ExtReal, tol: float = DEFAULT_TOL) -> bool:
    """True iff a <= b up to tol slack on finite pairs; exact at infinities."""
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    if -_INF < a < _INF and -_INF < b < _INF:
        return a - b <= tol
    return a <= b


_DECIMAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")


def parse_extreal(text: str) -> ExtReal:
    """Parse 'inf', '-inf', or a decimal literal within the double range.
    Strict: 'Inf', 'nan', hex floats, underscore separators and literals
    that overflow to an infinity are all rejected."""
    if text == "inf":
        return POS_INF
    if text == "-inf":
        return NEG_INF
    if _DECIMAL.match(text):
        value = ExtReal(text)
        if math.isfinite(value):
            return value
        raise ValueError(f"number outside the double range: {text!r}")
    raise ValueError(f"invalid extended-real literal: {text!r}")


def render_extreal(a: ExtReal) -> str:
    """Render as 'inf', '-inf', or the shortest round-tripping decimal."""
    if a == _INF:
        return "inf"
    return "-inf" if a == -_INF else float.__repr__(a)
