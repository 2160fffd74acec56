"""Exact arithmetic on the extended real line [-inf, +inf].

An extended real is an IEEE double that is never NaN, and the two
infinities are the IEEE ones.  Tables and function values hold them as
plain ``float``s, checked once where they enter the package (see ``spaces``);
``ExtReal``, a ``float`` subclass whose constructor rejects NaN, is the
type of scalar results: the Moreau additions, ``neg``, ``parse_extreal``
and the weak-duality report.  IEEE addition already agrees with both Moreau
additions everywhere except at (+inf) + (-inf), where it yields NaN; the
lower addition sends that pair to -inf, the upper addition to +inf.  So
each Moreau addition is one IEEE ``+`` with that NaN mapped to its
infinity, and a finite sum that overflows lands on the infinity of its
sign.

The extended reals have one zero and IEEE doubles have two, so the package
keeps one: no table entry, function value or scalar it holds is -0.0.
Every value that enters is read with -0.0 as 0.0 (``ExtReal``,
``as_extreal``, ``parse_extreal``, ``spaces`` and ``problems``), and every
negation of a held value is ``0.0 - v``, which is -v except at zero.  An
IEEE difference b - f is -0.0 only when b is -0.0 and f is 0.0, and no
coupling entry is -0.0, so no kernel result is -0.0 either, whatever the
zeros of the function: two equal results are the same double.

The conjugates, the transforms and the dual value all go through one
kernel: ``conjugate_product``, the c-conjugate of each row it is given,
f^c(y) = sup_x [c(x,y) lower-add -f(x)], computed as c(x,y) - f(x).  In
IEEE arithmetic x - y is x + (-y) exactly, so each difference is the lower
Moreau sum of c and -f except where c and f are the same infinity, where it
is NaN.  The paper's couple is -L_u = (R_u)^c and R_u = (-L_u)^{c'}, and
its dual value phi^{cc'}, so the kernel's callers pass the function itself,
and the only negations left among them are the paper's -L: the Lagrangian's
output, the Rockafellian's input and the audit's -L_u row.  The
Lagrangian's inf_x [R(u,x) upper-add -c(x,y)] is 0.0 - (R_u)^c(y),
exactly, since negation is exact, rounding is sign-symmetric and the two
additions send the opposite-infinity pair to opposite infinities.  One
side of the product is always a coupling, read through its ``descending``
view, whose lines b are the coupling's columns or its rows.

The kernel is one rule, per row f and line b.  The line is +inf where f's
-inf entries reach it: f(k) = -inf and b[k] > -inf for some k, as
b[k] lower-add (+inf) is +inf.  Every other line is ``_direct``'s max of
b[k] - f(k) over the set K of f's entries strictly between the
infinities, or -inf when K is empty: there a +inf entry of f has the term
b[k] lower-add (-inf) = -inf, and a -inf entry has b[k] = -inf.  The
view builds three devices, each on first read and then kept, that answer
the rule with less work:
  - ``reach``, per line +inf if it has an entry above -inf, else -inf: the
    answer to a row of -inf everywhere, on every view.  A row of +inf
    everywhere (an empty domain) is -inf on every line and reads nothing;
  - ``above``, per index k one int with bit j set where line j has
    b[k] > -inf.  On a view of more than ``_SCAN_WIDTH`` lines, any other
    row ORs the bitsets of its -inf entries, if it has some: the lines
    reached are +inf, and a row that reaches every line reads nothing
    else.  ``_direct`` answers the lines left when |K| <= ``_few(m)``, for
    lines of m entries, and the scan when not;
  - ``pairs``, per line the indices of its entries above -inf, largest
    entry first, sorted once per view: the order of the scan, which also
    answers every other row of a view of at most ``_SCAN_WIDTH`` lines.  A
    scan visits k in that order and stops once b[k] - low cannot beat the
    best difference so far, so the line's -inf entries are never visited.
    low is min(f), or the least entry of f above -inf once ``above`` has
    answered f's -inf entries, since every line left is -inf at each.
The kernel is exact and returns plain doubles that are never NaN:
  - a difference is NaN only for two equal infinities, which the
    comparisons never select, just as the -inf that the lower addition
    gives the pair never wins a sup;
  - IEEE rounding is monotone, so no difference after the stop could even
    win;
  - a direct term is the scan's IEEE difference with f(k) finite, never
    NaN, and a max of doubles that are never NaN is exact, so a direct
    line is the scan's double.

Every test of an upper Moreau sum against a coupling value is one scan,
``exceeds``, which also names the first failing pair: the couple
inequality of the audit's row pass and the Young check.

Comparisons against an infinity are always exact; tolerances apply only
between two finite values.  A comparison of tables or functions checks its
tol first, before any domain test or kernel call, by ``check_tol``: finite,
as ``exceeds`` needs, and >= 0.  ``approx_eq`` and ``approx_le`` admit +inf.
"""

from __future__ import annotations

import math
import re
from functools import reduce
from itertools import compress, repeat
from operator import eq, itemgetter, ne, or_, sub

from .defaults import DEFAULT_TOL

__all__ = [
    "DEFAULT_TOL",
    "ExtReal",
    "NEG_INF",
    "POS_INF",
    "approx_eq",
    "approx_le",
    "as_extreal",
    "conjugate_product",
    "descending",
    "exceeds",
    "low_add",
    "neg",
    "parse_extreal",
    "render_extreal",
    "upp_add",
]

_INF = math.inf
_new = float.__new__


class ExtReal(float):
    """A point of [-inf, +inf]: a double that is never NaN, and never -0.0,
    which the constructor reads as 0.0.

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
        return self or _ZERO  # both zeros are false

    def __repr__(self):
        return f"ExtReal({render_extreal(self)})"

    def __str__(self):
        return render_extreal(self)


_ZERO = _new(ExtReal, 0.0)
POS_INF = ExtReal(_INF)
NEG_INF = ExtReal(-_INF)


def _ext(v: float) -> ExtReal:
    # wraps a double known not to be NaN, reusing the infinity singletons
    if v == _INF:
        return POS_INF
    return NEG_INF if v == -_INF else _new(ExtReal, v)


def as_extreal(value) -> ExtReal:
    """Coerce an int, float, or ExtReal to ExtReal; NaN, bool and an int
    beyond the double range are rejected, and -0.0 is read as 0.0."""
    if isinstance(value, ExtReal):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"cannot interpret {value!r} as an extended real")
    # ExtReal(value) without the cost of a Python-level constructor call
    try:
        value = _new(ExtReal, value)
    except OverflowError:
        raise ValueError(f"number outside the double range: {value!r}") from None
    if value != value:
        raise ValueError("extended real cannot hold NaN")
    return value or _ZERO


def low_add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Moreau lower addition: usual +, except (+inf) + (-inf) = -inf."""
    s = a + b
    return _ext(s) if s == s else NEG_INF


def upp_add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Moreau upper addition: usual +, except (+inf) + (-inf) = +inf."""
    s = a + b
    return _ext(s) if s == s else POS_INF


def neg(a: ExtReal) -> ExtReal:
    """Negation as 0.0 - a: swaps the infinities, keeps 0.0, involutive."""
    return _ext(0.0 - a)


class lazy:
    """A method turned into an attribute computed on first read.  The value
    is stored in the instance ``__dict__``, where it shadows this non-data
    descriptor, so later reads are plain attribute lookups.  Unlike
    ``functools.cached_property`` before Python 3.12, the first read takes
    no lock: a race can only compute the same value twice."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class descending:
    """The kernel's view of a coupling's rows or columns.  Building it costs
    nothing: it holds the tuple of ``lines`` and their number ``width``, and
    ``conjugate_product`` reads ``reach``, ``above`` or ``pairs`` only for a
    row that needs them, each built on first read and then kept."""

    def __init__(self, lines: tuple):
        self.lines = lines
        self.width = len(lines)

    @lazy
    def pairs(self) -> tuple:
        """For each line b, the pair (b, order), where order lists the k with
        b[k] > -inf by descending b[k], ties in index order.  It holds
        indices and the line itself, no copied values; the -inf entries are
        left out because their terms can never win a sup."""
        view = []
        for b in self.lines:
            order = sorted(range(len(b)), key=b.__getitem__, reverse=True)
            while order and b[order[-1]] == -_INF:
                order.pop()
            view.append((b, tuple(order)))
        return tuple(view)

    @lazy
    def reach(self) -> tuple:
        """Per line, +inf if it has an entry above -inf, else -inf: the
        conjugate of a row that is -inf everywhere, since v lower-add (+inf)
        is +inf for every v > -inf and -inf for v = -inf.  A count of -inf
        entries makes no rich compare per entry, and with no NaN in a line
        it agrees with max(b) > -inf."""
        return tuple([_INF if b.count(-_INF) < len(b) else -_INF for b in self.lines])

    @lazy
    def above(self) -> list:
        """Per index k, the bitset of the lines j with b_j[k] > -inf, as one
        int with bit j set: the lines whose conjugate a row with f(k) = -inf
        sends to +inf.  Built from the lines themselves, all bits set and
        then each line's bit cleared at its -inf entries, which
        ``tuple.index`` finds."""
        sets = [(1 << self.width) - 1] * len(self.lines[0])
        for j, b in enumerate(self.lines):
            k = -1
            for _ in range(b.count(-_INF)):
                k = b.index(-_INF, k + 1)
                sets[k] ^= 1 << j
        return sets


# A view of at most this many lines scans every row not fixed at an
# infinity.  On tables with 10% of each infinity, building ``above`` costs
# more than the scans it saves up to about 12 lines, and on couplings dense
# in -inf up to more; the sweep is in CHANGES.md.
_SCAN_WIDTH = 16


def _few(length: int) -> int:
    """The most entries strictly between the infinities for which a row
    answers the lines of a wide view by ``_direct``, on lines of ``length``
    entries: the largest k with k * k <= 1.25 * length.  ``_direct`` costs
    |K| C-level steps per line, against one sort per view and about
    length / |K| Python steps per line of the scan, so the break-even
    follows the lines' length, not their number: on sorted views it is
    near |K|^2 = 1.13 * length (0.94-1.33 at lengths 17-256 and 64 or 256
    lines).  The sweep is in CHANGES.md."""
    return math.isqrt(5 * length // 4)


def conjugate_product(f_rows, view) -> list[list[float]]:
    """P[i][j] = sup_k [b_j[k] lower-add -f_i[k]], computed as
    b_j[k] - f_i[k], over the lines b_j of a ``descending`` view: row i is
    the c-conjugate of the row f_i.  The module docstring states the rule
    of each row, the view's devices that answer it, and its exactness."""
    width = view.width
    wide = width > _SCAN_WIDTH
    few = _few(len(view.lines[0])) if wide else 0
    out = []
    pairs = None
    for f in f_rows:
        low = min(f)
        if low == _INF:
            out.append([-_INF] * width)
        # f[0] first, so that a mixed row rarely pays the pass of max(f)
        elif low == -_INF and f[0] == -_INF and max(f) == -_INF:
            out.append(list(view.reach))
        elif wide:
            out.append(_wide_row(f, low, view, few))
        else:
            if pairs is None:
                pairs = view.pairs
            out.append(_scan(pairs, f, low))
    return out


def _wide_row(f, low, view, few) -> list[float]:
    """Row f of ``conjugate_product``, with low = min(f), not fixed at an
    infinity, on a view of more than ``_SCAN_WIDTH`` lines: the module
    docstring's rule through ``above``, then through ``_direct`` if f has
    at most ``few`` entries strictly between the infinities, else the scan."""
    width = view.width
    left = None  # the lines that f's -inf entries do not reach, if it has any
    if low == -_INF:
        rest = ((1 << width) - 1) ^ reduce(
            or_, compress(view.above, map(eq, f, repeat(-_INF))))
        if not rest:
            return [_INF] * width
        left = []  # the indices of the bits of rest, lowest first
        while rest:
            bit = rest & -rest
            left.append(bit.bit_length() - 1)
            rest ^= bit
    if len(f) - f.count(_INF) - f.count(-_INF) <= few:
        lines = view.lines
        values = _direct(f, lines if left is None else [lines[j] for j in left])
    else:
        pairs = view.pairs
        if left is not None:
            pairs = [pairs[j] for j in left]
            low = min(filter((-_INF).__lt__, f))
        values = _scan(pairs, f, low)
    if left is None:
        return values
    row = [_INF] * width
    for j, v in zip(left, values):
        row[j] = v
    return row


def _scan(pairs, f, low) -> list[float]:
    """The conjugate of f over the lines of ``pairs``: each line's scan in
    its order, stopped by the bound b[k] - low, where low is at most every
    f[k] that the order visits."""
    row = []
    for b, order in pairs:
        best = -_INF
        for k in order:
            v = b[k]
            if v - low <= best:
                break
            s = v - f[k]
            if s > best:
                best = s
                if s == _INF:
                    break
        row.append(best)
    return row


def _direct(f, lines) -> list[float]:
    """The rule's max on each line b of ``lines``, none of which f's -inf
    entries reach: over the k in K, f's entries strictly between the
    infinities, of b[k] - f[k], or -inf on every line when K is empty.  One
    column of terms per k, each and their max built by C-level maps."""
    cols = [map(sub, map(itemgetter(k), lines), repeat(f[k]))
            for k in compress(range(len(f)), map(math.isfinite, f))]
    if not cols:
        return [-_INF] * len(lines)
    return list(cols[0]) if len(cols) == 1 else list(map(max, *cols))


def exceeds(c_rows, f, g, tol: float) -> tuple[int, int] | None:
    """The first (i, k) in row order where c_rows[i][k] > g[k] upper-add f[i]
    beyond tol, or None: where the generalized Young inequality
    ``f(i) upper-add g(k) >= c(i, k)`` first fails.

    This is ``approx_le`` of the Moreau sum, tested on doubles as
    ``c - (g + f) > tol``, and exact for any finite tol >= 0: the two cases
    that give NaN never compare greater.  They are the opposite-infinity
    sum, which the upper addition sends to +inf, and the difference of two
    equal infinities; neither can fail the inequality.  With tol = 0.0 the
    test is ``c > g + f`` for every pair of doubles, NaN included.  Only a
    failing row is scanned again, for its k.
    """
    for i, (c_row, b) in enumerate(zip(c_rows, f)):
        for cv, a in zip(c_row, g):
            if cv - (a + b) > tol:
                return i, next(k for k, (cv, a) in enumerate(zip(c_row, g))
                               if cv - (a + b) > tol)
    return None


def approx_eq(a: ExtReal, b: ExtReal, tol: float = DEFAULT_TOL) -> bool:
    """True iff both are the same infinity, or both finite within tol.

    An infinity never approximately equals a finite value, whatever tol.
    A negative or NaN tol is a ValueError.
    """
    if not tol >= 0.0:
        raise ValueError("tolerance must be nonnegative")
    if -_INF < a < _INF and -_INF < b < _INF:
        return abs(a - b) <= tol
    return a == b


def approx_le(a: ExtReal, b: ExtReal, tol: float = DEFAULT_TOL) -> bool:
    """True iff a <= b up to tol slack on finite pairs; exact at infinities.
    A negative or NaN tol is a ValueError."""
    if not tol >= 0.0:
        raise ValueError("tolerance must be nonnegative")
    if -_INF < a < _INF and -_INF < b < _INF:
        return a - b <= tol
    return a <= b


def check_tol(tol: float) -> None:
    """The tol rule of every comparison of tables or functions: finite and >= 0."""
    if not 0.0 <= tol < _INF:
        raise ValueError("tolerance must be finite and nonnegative")


def mismatch(have, want, tol, holds) -> int | None:
    """Index of the first entry where ``holds(have[k], want[k], tol)``
    fails, or None; ``holds`` is ``approx_eq`` or ``approx_le``, and tol is
    checked by the caller.  Rows equal entry for entry (two lists or two
    tuples) pass both at every tol >= 0, since no entry is NaN, so they are
    done in one C-level test, and of the others only the entries that
    differ are scanned."""
    if have == want:
        return None
    for k in compress(range(len(have)), map(ne, have, want)):
        if not holds(have[k], want[k], tol):
            return k
    return None


_DECIMAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z", re.ASCII)


def parse_extreal(text: str) -> ExtReal:
    """Parse 'inf', '-inf', or a decimal literal within the double range,
    -0.0 read as 0.0 (see ``ExtReal``).  Strict: 'Inf', 'nan', hex floats,
    underscore separators, digits other than ASCII 0-9 (which ``float``
    would read) and literals that overflow to an infinity are all
    rejected."""
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
    """Render as 'inf', '-inf', or the shortest round-tripping decimal:
    ``float.__repr__`` of a, for every double that is not NaN."""
    return float.__repr__(a)
