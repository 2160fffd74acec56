"""Finite index sets and the function tables built over them.

Everything downstream works on four table shapes: univariate functions on a
finite set (used for both primal- and dual-side functions), couplings over
primal x dual, Rockafellians over decisions x primal, and Lagrangians over
decisions x dual.  Tables are total and immutable after construction, and
domains are compared by label sequence, never coerced.  ``isclose`` checks
its tol first, by ``extreal.check_tol``, the rule of every comparison.

Every entry of a table or function is a plain ``float`` that is never NaN,
so CPython's float fast paths apply wherever entries are compared or added.
An entry is checked where it enters the package, and nowhere else, and
-0.0 is read there as 0.0, so that no entry is -0.0 (see ``extreal``):

  - the public constructors check every row they are given, in
    whole-row passes (``_doubles``);
  - the problem-file parser checks each row and each embedding coordinate
    once as it reads it, then builds its tables through ``_unchecked``, an
    embedded coupling from ``_dot_products``, and so does ``cli``;
  - the package's own producers build their results through ``_unchecked``
    too, since their output is plain non-NaN doubles by construction: the
    conjugates and transforms are products of the ``extreal`` kernel, which
    never returns NaN or -0.0, ``fuzz`` draws its entries as plain doubles
    with -0.0 read as 0.0, and the rest negate (as 0.0 - v), take the min
    or max of, or slice entries that were checked already.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from operator import mul

from .errors import DomainMismatchError, UnknownLabelError
from .extreal import (
    DEFAULT_TOL, ExtReal, approx_eq, as_extreal, check_tol, descending, lazy, mismatch)

__all__ = [
    "Coupling",
    "FiniteSet",
    "Lagrangian",
    "Rockafellian",
    "SetFunction",
    "bilinear_coupling",
    "partial_lagrangian",
    "partial_rockafellian",
    "pointwise_max",
    "pointwise_min",
    "reverse_coupling",
]


class FiniteSet:
    """Nonempty ordered collection of distinct string labels."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise ValueError("a finite set needs at least one label")
        index = {}
        for i, lab in enumerate(labels):
            if not isinstance(lab, str):
                raise TypeError(f"labels must be strings, got {lab!r}")
            if lab in index:
                raise ValueError(f"duplicate label {lab!r}")
            index[lab] = i
        self.labels = labels
        self._index = index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(
                f"label {label!r} not in set {list(self.labels)}"
            ) from None

    def __contains__(self, label) -> bool:
        return label in self._index

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteSet):
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"FiniteSet({list(self.labels)!r})"


def _as_set(obj) -> FiniteSet:
    return obj if isinstance(obj, FiniteSet) else FiniteSet(obj)


_FLOAT = frozenset((float,))
_DOUBLE_TYPES = frozenset((float, int, ExtReal))
_isnan = math.isnan


def _doubles(values) -> tuple[float, ...]:
    """``values`` as a tuple of plain doubles, none of them NaN or -0.0: the
    check of the public constructors, on every row given from outside the
    package.  A row of ints, floats and ExtReals is checked in three
    passes: its set of types, the conversion to float as v + 0.0, which
    reads -0.0 as 0.0 and leaves every other double alone (only a row of
    floats that holds a zero is converted), and a NaN scan.  Any other row,
    and one with an int beyond the double range, goes through
    ``as_extreal`` entry by entry, which converts the int and float
    subclasses and raises its TypeError or ValueError on the rest."""
    values = tuple(values)
    types = set(map(type, values))
    if types <= _DOUBLE_TYPES:
        doubles = values
        try:
            if types != _FLOAT or 0.0 in values:
                doubles = tuple([v + 0.0 for v in values])
        except OverflowError:  # an int beyond the double range
            pass
        else:
            if not any(map(_isnan, doubles)):
                return doubles
    return tuple(map(float, map(as_extreal, values)))


class SetFunction:
    """Total map from a finite set to extended reals, stored in domain order
    as plain doubles."""

    __slots__ = ("domain", "values")

    def __init__(self, domain, values: Sequence):
        domain = _as_set(domain)
        values = _doubles(values)
        if len(values) != len(domain):
            raise ValueError(
                f"expected {len(domain)} values for domain "
                f"{list(domain.labels)}, got {len(values)}"
            )
        self.domain = domain
        self.values = values

    @classmethod
    def _unchecked(cls, domain: FiniteSet, values: tuple) -> "SetFunction":
        """A function on ``domain`` holding ``values`` as given: a tuple of
        plain non-NaN doubles, one per label, that the package produced."""
        self = object.__new__(cls)
        self.domain = domain
        self.values = values
        return self

    def __call__(self, label: str) -> float:
        return self.values[self.domain.index(label)]

    def items(self):
        return zip(self.domain.labels, self.values)

    def negated(self) -> "SetFunction":
        """Pointwise negation as 0.0 - v, same domain: no value is -0.0."""
        return SetFunction._unchecked(self.domain, tuple([0.0 - v for v in self.values]))

    def isclose(self, other: "SetFunction", tol: float = DEFAULT_TOL) -> bool:
        """Same domain, infinities matching exactly, finite entries within tol.
        Equal values are done in one C-level test (see ``extreal.mismatch``)."""
        check_tol(tol)
        if self.domain != other.domain:
            return False
        return mismatch(self.values, other.values, tol, approx_eq) is None

    def __eq__(self, other):
        if not isinstance(other, SetFunction):
            return NotImplemented
        return self.domain == other.domain and self.values == other.values

    def __hash__(self):
        return hash((self.domain, self.values))

    def __repr__(self):
        body = ", ".join(f"{lab}: {v}" for lab, v in self.items())
        return f"{type(self).__name__}({{{body}}})"


def pointwise_min(f: SetFunction, g: SetFunction) -> SetFunction:
    """Entrywise minimum of two functions on the same domain."""
    if f.domain != g.domain:
        raise DomainMismatchError("pointwise_min: domains differ")
    return SetFunction._unchecked(
        f.domain, tuple([a if a < b else b for a, b in zip(f.values, g.values)])
    )


def pointwise_max(f: SetFunction, g: SetFunction) -> SetFunction:
    """Entrywise maximum of two functions on the same domain."""
    if f.domain != g.domain:
        raise DomainMismatchError("pointwise_max: domains differ")
    return SetFunction._unchecked(
        f.domain, tuple([a if a > b else b for a, b in zip(f.values, g.values)])
    )


class _Table:
    """Shared machinery for the three bivariate tables."""

    __slots__ = ("row_set", "col_set", "rows")

    def __init__(self, row_set, col_set, entries: Sequence[Sequence]):
        row_set = _as_set(row_set)
        col_set = _as_set(col_set)
        rows = tuple(map(_doubles, entries))
        if len(rows) != len(row_set):
            raise ValueError(
                f"expected {len(row_set)} rows, got {len(rows)}"
            )
        for i, row in enumerate(rows):
            if len(row) != len(col_set):
                raise ValueError(
                    f"row {i} has {len(row)} entries, expected {len(col_set)}"
                )
        self.row_set = row_set
        self.col_set = col_set
        self.rows = rows

    @classmethod
    def _unchecked(cls, row_set: FiniteSet, col_set: FiniteSet, rows: tuple):
        """A table over ``row_set`` x ``col_set`` holding ``rows`` as given: a
        tuple of rows, each a tuple of plain non-NaN doubles of the right
        length, that the package produced or the parser checked."""
        self = object.__new__(cls)
        self.row_set = row_set
        self.col_set = col_set
        self.rows = rows
        return self

    def __call__(self, row_label: str, col_label: str) -> float:
        return self.rows[self.row_set.index(row_label)][self.col_set.index(col_label)]

    def isclose(self, other, tol: float = DEFAULT_TOL) -> bool:
        check_tol(tol)
        if type(self) is not type(other):
            return False
        if self.row_set != other.row_set or self.col_set != other.col_set:
            return False
        return self.rows == other.rows or all(
            mismatch(a, b, tol, approx_eq) is None
            for a, b in zip(self.rows, other.rows))

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return (
            self.row_set == other.row_set
            and self.col_set == other.col_set
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((type(self).__name__, self.row_set, self.col_set, self.rows))

    def __repr__(self):
        return (
            f"{type(self).__name__}(rows={list(self.row_set.labels)!r}, "
            f"cols={list(self.col_set.labels)!r})"
        )


class Coupling(_Table):
    """Pairing table c over primal x dual; entries may be +/-inf.  The
    product kernel's views ``sorted_rows`` and ``sorted_cols``, and
    ``transposed``, are each built on first use and then kept, and so is
    what a view builds: the audit runs a conjugate once per row of a table,
    and sorting the coupling on each call would cost more than the scan.
    A view sorts its lines only when a product row scans them (see
    ``extreal.descending``)."""

    def __init__(self, primal, dual, entries):
        super().__init__(primal, dual, entries)

    @lazy
    def sorted_rows(self) -> descending:
        """``extreal.descending`` view of the rows, one line per x."""
        return descending(self.rows)

    @lazy
    def sorted_cols(self) -> descending:
        """``extreal.descending`` view of the columns, one line per y."""
        return descending(tuple(zip(*self.rows)))

    @lazy
    def transposed(self) -> "Coupling":
        """c^T(y, x) = c(x, y), through which the reverse conjugate is the
        conjugate.  Its rows are the lines of ``sorted_cols`` and its views
        are c's, crosswise, so neither it nor its own transpose sorts
        anything new.  It holds no reference back to c: dropping c frees
        both without the cyclic garbage collector."""
        t = Coupling._unchecked(self.col_set, self.row_set, self.sorted_cols.lines)
        t.sorted_rows, t.sorted_cols = self.sorted_cols, self.sorted_rows
        return t

    @property
    def primal(self) -> FiniteSet:
        return self.row_set

    @property
    def dual(self) -> FiniteSet:
        return self.col_set


class Rockafellian(_Table):
    """Bivariate table over decisions x primal: the perturbed objective family."""

    def __init__(self, decisions, primal, entries):
        super().__init__(decisions, primal, entries)

    @property
    def decisions(self) -> FiniteSet:
        return self.row_set

    @property
    def primal(self) -> FiniteSet:
        return self.col_set


class Lagrangian(_Table):
    """Bivariate table over decisions x dual."""

    def __init__(self, decisions, dual, entries):
        super().__init__(decisions, dual, entries)

    @property
    def decisions(self) -> FiniteSet:
        return self.row_set

    @property
    def dual(self) -> FiniteSet:
        return self.col_set


def reverse_coupling(c: Coupling) -> Coupling:
    """Swap the two arguments: c'(y, x) = c(x, y), ``c.transposed``.  Involutive."""
    return c.transposed


def bilinear_coupling(
    primal_points: Sequence,
    dual_points: Sequence,
    primal_labels: Sequence[str] | None = None,
    dual_labels: Sequence[str] | None = None,
) -> Coupling:
    """Coupling given by dot products of embedded real vectors.

    Points may be scalars (treated as 1-D) or same-length sequences.  A
    coordinate that is not an int or a float, or is a bool, is a TypeError,
    and a NaN or an int beyond the double range a ValueError, each naming
    the point.  A dot product that overflows becomes an infinity; one that
    meets inf * 0 or inf + (-inf) is a ValueError naming that fault.  Labels
    default to the rendered coordinates.
    """
    xs = [_as_vector(p, "X", i) for i, p in enumerate(primal_points)]
    ys = [_as_vector(p, "Y", i) for i, p in enumerate(dual_points)]
    if not xs or not ys:
        raise ValueError("bilinear_coupling: point sequences must be nonempty")
    dim = len(xs[0])
    if dim == 0:
        raise ValueError("bilinear_coupling: points must have at least one coordinate")
    for p in xs + ys:
        if len(p) != dim:
            raise DomainMismatchError(
                f"bilinear_coupling: mixed dimensions {len(p)} and {dim}"
            )
    if primal_labels is None:
        primal_labels = [_point_label(p) for p in xs]
    if dual_labels is None:
        dual_labels = [_point_label(p) for p in ys]
    entries = _dot_products(xs, ys, primal_labels, dual_labels)
    return Coupling(FiniteSet(primal_labels), FiniteSet(dual_labels), entries)


def _dot_products(xs, ys, primal_labels, dual_labels) -> tuple:
    """The rows of dot products of the checked vectors ``xs`` and ``ys``, all
    of one dimension: plain doubles, none of them NaN or -0.0 (a sum starts
    at the int 0, and 0 + -0.0 is 0.0).  A product that overflows becomes an
    infinity; one that is NaN is the ValueError ``bilinear_coupling``
    states, naming the two points by their labels.  The problem-file
    parser, which checks its points as it reads them, calls this directly."""
    entries = tuple([tuple([sum(a * b for a, b in zip(x, y)) for y in ys]) for x in xs])
    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            if math.isnan(v):
                # a coordinate product is NaN only as inf * 0
                if any(map(_isnan, map(mul, xs[i], ys[j]))):
                    fault = "inf * 0"
                else:
                    fault = "inf + (-inf)"
                raise ValueError(
                    f"the dot product of X point {primal_labels[i]!r} and Y point "
                    f"{dual_labels[j]!r} is {fault}"
                )
    return entries


def _as_vector(point, side: str, i: int) -> tuple[float, ...]:
    """The coordinates of point ``i`` on ``side`` as doubles, -0.0 read as
    0.0, checked by the rule ``bilinear_coupling`` states."""
    if isinstance(point, (str, bytes)) or not isinstance(point, Sequence):
        point = (point,)  # one coordinate
    where = f"bilinear_coupling: {side} point {i}"
    for x in point:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError(f"{where} has a coordinate {x!r} that is not a number")
    try:
        vector = tuple([float(x) + 0.0 for x in point])
    except OverflowError:
        raise ValueError(f"{where} has a coordinate outside the double range") from None
    if any(map(_isnan, vector)):
        raise ValueError(f"{where} {vector!r} has a NaN coordinate")
    return vector


def _point_label(point: tuple[float, ...]) -> str:
    return ",".join(repr(x) for x in point)


def partial_rockafellian(r: Rockafellian, decision: str) -> SetFunction:
    """Row of the Rockafellian at a frozen decision: x -> R(u, x)."""
    iu = r.decisions.index(decision)
    return SetFunction._unchecked(r.primal, r.rows[iu])


def partial_lagrangian(lag: Lagrangian, decision: str) -> SetFunction:
    """Row of the Lagrangian at a frozen decision: y -> L(u, y)."""
    iu = lag.decisions.index(decision)
    return SetFunction._unchecked(lag.dual, lag.rows[iu])
