"""Exact arithmetic on the extended real line [-inf, +inf].

Finite values are IEEE doubles; the two infinities are explicit tags rather
than floating-point infinities.  IEEE arithmetic has no useful answer for
(+inf) + (-inf) (it yields NaN), while the two Moreau extensions of addition
used throughout this package resolve that pair explicitly: the lower addition
sends it to -inf, the upper addition to +inf.  Keeping the tags out of the
float payload makes those rules exact by construction.

The conjugates, the transforms and the dual value all go through one
kernel: ``sup_product``, the max-plus matrix product under the lower
addition, and its min-plus mirror ``inf_product`` under the upper one.  It
runs on IEEE images of the tables (the tags become +/-inf) and is exact
there.  An IEEE sum is NaN only for the opposite-infinity pair, which a
strict ``>`` (``<``) never selects, just as the -inf (+inf) that the lower
(upper) addition gives it never wins a sup (inf).  A finite sum that
overflows lands on the infinity of its sign, as ``_finite_sum`` does.

Comparisons against an infinity are always exact; tolerances apply only
between two finite values.
"""

from __future__ import annotations

import math
import re
from operator import add
from typing import Iterable

__all__ = [
    "DEFAULT_TOL",
    "ExtReal",
    "NEG_INF",
    "POS_INF",
    "approx_eq",
    "approx_le",
    "as_extreal",
    "ieee",
    "inf_over",
    "inf_product",
    "low_add",
    "neg",
    "parse_extreal",
    "render_extreal",
    "sup_over",
    "sup_product",
    "upp_add",
]

DEFAULT_TOL = 1e-9

# kind tags; their numeric order is the order of the extended line
_NEG, _FIN, _POS = -1, 0, 1


class ExtReal:
    """A point of [-inf, +inf].

    Immutable by convention, hashable, and totally ordered with
    -inf < every finite value < +inf.  The ``value`` slot is meaningful only
    when ``kind`` is finite; infinities carry 0.0 there so that lexicographic
    (kind, value) comparison realizes the total order.
    """

    __slots__ = ("kind", "value")

    def __init__(self, value: float):
        value = float(value)
        if math.isnan(value):
            raise ValueError("extended real cannot hold NaN")
        if math.isinf(value):
            self.kind = _POS if value > 0.0 else _NEG
            self.value = 0.0
        else:
            self.kind = _FIN
            self.value = value

    @property
    def is_finite(self) -> bool:
        return self.kind == _FIN

    def to_float(self) -> float:
        """IEEE image of the value (tags map back to IEEE infinities)."""
        if self.kind == _FIN:
            return self.value
        return math.inf if self.kind == _POS else -math.inf

    def __eq__(self, other):
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __ne__(self, other):
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self.kind != other.kind or self.value != other.value

    def __lt__(self, other):
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self.kind < other.kind or (
            self.kind == other.kind and self.value < other.value
        )

    def __le__(self, other):
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self.kind < other.kind or (
            self.kind == other.kind and self.value <= other.value
        )

    def __gt__(self, other):
        if not isinstance(other, ExtReal):
            return NotImplemented
        return other < self

    def __ge__(self, other):
        if not isinstance(other, ExtReal):
            return NotImplemented
        return other <= self

    def __hash__(self):
        return hash((self.kind, self.value))

    def __repr__(self):
        return f"ExtReal({render_extreal(self)})"

    def __str__(self):
        return render_extreal(self)


POS_INF = ExtReal(math.inf)
NEG_INF = ExtReal(-math.inf)


def _finite(value: float) -> ExtReal:
    # fast constructor for values already known finite and non-NaN
    r = ExtReal.__new__(ExtReal)
    r.kind = _FIN
    r.value = value
    return r


def _finite_sum(x: float, y: float) -> ExtReal:
    s = x + y
    if math.isinf(s):
        # double overflow leaves the representable range; land on the tag
        return POS_INF if s > 0.0 else NEG_INF
    return _finite(s)


def as_extreal(value) -> ExtReal:
    """Coerce an int, float, or ExtReal to ExtReal.

    IEEE infinities become the explicit tags; NaN and bool are rejected.
    """
    if isinstance(value, ExtReal):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"cannot interpret {value!r} as an extended real")
    return ExtReal(value)


def low_add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Moreau lower addition: usual +, except (+inf) + (-inf) = -inf."""
    ka = a.kind
    kb = b.kind
    if ka == _FIN:
        if kb == _FIN:
            return _finite_sum(a.value, b.value)
        return b
    if kb == _FIN or ka == kb:
        return a
    return NEG_INF


def upp_add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Moreau upper addition: usual +, except (+inf) + (-inf) = +inf."""
    ka = a.kind
    kb = b.kind
    if ka == _FIN:
        if kb == _FIN:
            return _finite_sum(a.value, b.value)
        return b
    if kb == _FIN or ka == kb:
        return a
    return POS_INF


def neg(a: ExtReal) -> ExtReal:
    """Negation; swaps the infinities, involutive."""
    k = a.kind
    if k == _FIN:
        return _finite(-a.value)
    return NEG_INF if k == _POS else POS_INF


def sup_over(values: Iterable[ExtReal]) -> ExtReal:
    """Largest element under the total order; the sequence must be nonempty."""
    return max(values)


def inf_over(values: Iterable[ExtReal]) -> ExtReal:
    """Smallest element under the total order; the sequence must be nonempty."""
    return min(values)


def ieee(values: Iterable[ExtReal]) -> list[float]:
    """IEEE images of a sequence of extended reals."""
    return [v.to_float() for v in values]


def _from_ieee(v: float) -> ExtReal:
    # inverse of to_float on the non-NaN doubles the kernel produces
    if v == math.inf:
        return POS_INF
    return NEG_INF if v == -math.inf else _finite(v)


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
    """P[i][j] = sup_k a_rows[i][k] (lower-add) b_rows[j][k] on IEEE images.
    The scan over k stops at +inf; ties keep the first maximizer."""
    return [[_from_ieee(_sup(a, b)) for b in b_rows] for a in a_rows]


def inf_product(a_rows, b_rows) -> list[list[ExtReal]]:
    """P[i][j] = inf_k a_rows[i][k] (upper-add) b_rows[j][k] on IEEE images,
    written out rather than as -sup(-.) so that signed zeros match the sums."""
    return [[_from_ieee(_inf(a, b)) for b in b_rows] for a in a_rows]


def approx_eq(a: ExtReal, b: ExtReal, tol: float = DEFAULT_TOL) -> bool:
    """True iff both are the same infinity, or both finite within tol.

    An infinity never approximately equals a finite value, whatever tol.
    """
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    if a.kind != b.kind:
        return False
    if a.kind != _FIN:
        return True
    return abs(a.value - b.value) <= tol


def approx_le(a: ExtReal, b: ExtReal, tol: float = DEFAULT_TOL) -> bool:
    """True iff a <= b up to tol slack on finite pairs; exact at infinities."""
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    if a.kind == _FIN and b.kind == _FIN:
        return a.value - b.value <= tol
    return a.kind <= b.kind


_DECIMAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")


def parse_extreal(text: str) -> ExtReal:
    """Parse 'inf', '-inf', or a decimal literal.  Strict: 'Inf', 'nan',
    hex floats, and underscore separators are all rejected."""
    if text == "inf":
        return POS_INF
    if text == "-inf":
        return NEG_INF
    if _DECIMAL.match(text):
        return _finite(float(text))
    raise ValueError(f"invalid extended-real literal: {text!r}")


def render_extreal(a: ExtReal) -> str:
    """Render as 'inf', '-inf', or the shortest round-tripping decimal."""
    k = a.kind
    if k == _POS:
        return "inf"
    if k == _NEG:
        return "-inf"
    return repr(a.value)
