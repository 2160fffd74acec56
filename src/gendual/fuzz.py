"""Randomized exercise of every identity the library is built on.

Instances draw small label sets and tables whose entries come from an
integer grid plus both infinities; small integers make sup/inf ties common
and keep every comparison exact, so any reported failure is a genuine bug
rather than float noise.  The other value families of ``VALUE_FAMILIES``
draw finite entries off that grid (fractional, tiny, wide and near the
double range), where rounding can break an identity that holds exactly on
the reals; they report how far the laws hold there.  Each instance runs
the conjugacy laws, both transform propositions, the round trip, weak
duality at every base point, and the couple theorem (a constructed couple
must pass all items; a single-entry perturbation of it must keep items (ii)
through (v) in agreement).

Each instance builds the transforms that several checks read once (see
``FuzzInstance``), and row convexity is read off whole-table transforms,
so no check compares a kernel call with the same call.  The transform
modules are referenced through their module objects so a test can swap a
deliberately broken operation in and watch the harness catch it.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from collections.abc import Callable

from . import conjugacy, couple, duality
from .defaults import DEFAULT_GRID, DEFAULT_INF_PROB, VALUE_FAMILY_NAMES
from .extreal import DEFAULT_TOL, approx_eq, approx_le, lazy, low_add, mismatch
from .problems import Problem
from .spaces import (
    Coupling,
    FiniteSet,
    Lagrangian,
    Rockafellian,
    SetFunction,
    partial_rockafellian,
    pointwise_max,
    pointwise_min,
)

__all__ = [
    "CHECK_NAMES",
    "DEFAULT_GRID",
    "DEFAULT_INF_PROB",
    "FuzzInstance",
    "FuzzReport",
    "VALUE_FAMILIES",
    "check_conjugacy_laws",
    "check_couple_theorem",
    "check_roundtrips",
    "check_transform_identity",
    "check_transform_inequality",
    "check_weak_duality",
    "random_extreal",
    "random_instance",
    "run_fuzz",
    "values_note",
]

CHECK_NAMES = (
    "conjugacy",
    "transform_identity",
    "transform_inequality",
    "roundtrips",
    "weak_duality",
    "couple_theorem",
)

_INF = math.inf


class FuzzInstance(namedtuple("FuzzInstance", (
        "index", "coupling", "rockafellian", "lagrangian", "extra_primal",
        "extra_dual"))):
    """One random instance: its index, the ``Coupling``, the
    ``Rockafellian`` and ``Lagrangian`` tables, and two spare
    ``SetFunction``s, one on each side.

    The transforms that several checks read are attributes built on first
    read and then kept, each through the ``duality`` module object."""

    @lazy
    def built_lagrangian(self) -> Lagrangian:
        """L = lagrangian_of(R), the Lagrangian of the instance's R."""
        return duality.lagrangian_of(self.rockafellian, self.coupling)

    @lazy
    def rebuilt_rockafellian(self) -> Rockafellian:
        """R' = rockafellian_of(L): row u is (R_u)^{cc'}."""
        return duality.rockafellian_of(self.built_lagrangian, self.coupling)

    @lazy
    def rebuilt_lagrangian(self) -> Lagrangian:
        """L'' = lagrangian_of(R'): row u is 0.0 - (-L_u)^{c'c}."""
        return duality.lagrangian_of(self.rebuilt_rockafellian, self.coupling)


def _off_grid(finite: Callable[[random.Random, tuple[int, int]], float]):
    """An entry draw ``draw(rng, grid, inf_prob)``: one ``rng.random()``
    roll gives -inf or +inf, each with probability ``inf_prob``, and
    otherwise the value is ``finite(rng, grid)``, a plain double with
    -0.0 read as 0.0."""
    def draw(rng, grid=DEFAULT_GRID, inf_prob=DEFAULT_INF_PROB) -> float:
        roll = rng.random()
        if roll < inf_prob:
            return -_INF
        if roll < 2.0 * inf_prob:
            return _INF
        return finite(rng, grid) + 0.0
    return draw


# integers of the grid [lo, hi], and each infinity with probability inf_prob
random_extreal = _off_grid(lambda rng, grid: float(rng.randint(grid[0], grid[1])))


def _sign(rng):
    return rng.choice((-1.0, 1.0))


# The entry draw of each value family, by its name for ``fuzz --values``,
# in the order of ``defaults.VALUE_FAMILY_NAMES``.  Only integer and
# fractional read the grid (lo, hi): fractional draws k/10 + U[0, 1) for an
# integer k in [10 lo, 10 hi].
VALUE_FAMILIES = dict(zip(VALUE_FAMILY_NAMES, (
    random_extreal,  # integer
    _off_grid(  # fractional
        lambda rng, grid: rng.randint(10 * grid[0], 10 * grid[1]) / 10 + rng.random()),
    _off_grid(lambda rng, grid: rng.uniform(-1e-300, 1e-300)),  # tiny
    _off_grid(lambda rng, grid: _sign(rng) * rng.uniform(1e10, 1e15)),  # wide
    _off_grid(  # near-overflow
        lambda rng, grid: _sign(rng) * rng.uniform(0.85e308, 1.7e308)),
), strict=True))


def _random_rows(rng, n, m, grid, inf_prob, draw):
    return [[draw(rng, grid, inf_prob) for _ in range(m)] for _ in range(n)]


def random_instance(
    rng: random.Random,
    index: int = 0,
    max_set_size: int = 5,
    grid: tuple[int, int] = DEFAULT_GRID,
    inf_prob: float = DEFAULT_INF_PROB,
    values: str = "integer",
) -> FuzzInstance:
    """One instance whose entries come from the value family ``values``."""
    draw = VALUE_FAMILIES[values]
    nu = rng.randint(1, max_set_size)
    nx = rng.randint(1, max_set_size)
    ny = rng.randint(1, max_set_size)
    decisions = FiniteSet([f"u{i}" for i in range(nu)])
    primal = FiniteSet([f"x{i}" for i in range(nx)])
    dual = FiniteSet([f"y{i}" for i in range(ny)])
    return FuzzInstance(
        index=index,
        coupling=Coupling(
            primal, dual, _random_rows(rng, nx, ny, grid, inf_prob, draw)
        ),
        rockafellian=Rockafellian(
            decisions, primal, _random_rows(rng, nu, nx, grid, inf_prob, draw)
        ),
        lagrangian=Lagrangian(
            decisions, dual, _random_rows(rng, nu, ny, grid, inf_prob, draw)
        ),
        extra_primal=SetFunction(
            primal, [draw(rng, grid, inf_prob) for _ in range(nx)]
        ),
        extra_dual=SetFunction(
            dual, [draw(rng, grid, inf_prob) for _ in range(ny)]
        ),
    )


def _le_all(f: SetFunction, g: SetFunction, tol: float) -> bool:
    return all(approx_le(a, b, tol) for a, b in zip(f.values, g.values))


def _first_row_apart(labels, rows, other_rows, tol):
    """The label of the first row that is not ``approx_eq`` to its
    counterpart, or None."""
    for label, row, other in zip(labels, rows, other_rows):
        if mismatch(row, other, tol, approx_eq) is not None:
            return label
    return None


def check_conjugacy_laws(inst: FuzzInstance, tol: float = DEFAULT_TOL) -> list[str]:
    """Antitonicity, biconjugate bounds, triple-conjugate identity,
    idempotence, the inf-to-sup law, and the Young inequality.  The
    biconjugate f^{cc'} is the reverse conjugate of the f^c already held,
    and its own biconjugate the reverse conjugate of (f^{cc'})^c."""
    fails = []
    c = inst.coupling
    f = inst.extra_primal
    row0 = partial_rockafellian(inst.rockafellian, inst.rockafellian.decisions.labels[0])

    f_c = conjugacy.conjugate(f, c)
    m = pointwise_min(f, row0)
    m_c = conjugacy.conjugate(m, c)
    if not _le_all(f_c, m_c, tol):
        fails.append("antitonicity: min(f, r) <= f but its conjugate is not >= f^c")

    bi = conjugacy.reverse_conjugate(f_c, c)
    if not _le_all(bi, f, tol):
        fails.append("biconjugate exceeds the function somewhere")
    bi_c = conjugacy.conjugate(bi, c)
    if not bi_c.isclose(f_c, tol):
        fails.append("triple-conjugate identity broken: (f^{cc'})^c != f^c")
    if not conjugacy.reverse_conjugate(bi_c, c).isclose(bi, tol):
        fails.append("biconjugation is not idempotent")

    if not m_c.isclose(pointwise_max(f_c, conjugacy.conjugate(row0, c)), tol):
        fails.append("conjugate of a pointwise inf is not the sup of conjugates")

    g = inst.extra_dual
    if not _le_all(conjugacy.reverse_biconjugate(g, c), g, tol):
        fails.append("reverse biconjugate exceeds the function somewhere")

    if not conjugacy.young_check(f, c):
        fails.append("generalized Young inequality fails")
    return fails


def check_transform_identity(
    inst: FuzzInstance, tol: float = DEFAULT_TOL
) -> list[str]:
    """Building L from R: -psi = phi^c exactly, and -L_u is c'-convex.

    ``is_cprime_convex(-L_u)`` compares -L_u with (-L_u)^{c'c}.  Row u of
    L'' is 0.0 - (-L_u)^{c'c}, ``approx_eq`` is sign-symmetric and no value
    is -0.0, so comparing L_u with that row gives the same verdict without
    a kernel call of its own."""
    fails = []
    r, c = inst.rockafellian, inst.coupling
    lag = inst.built_lagrangian
    psi = duality.dual_function(lag)
    phi = duality.perturbation_function(r)
    if not psi.negated().isclose(conjugacy.conjugate(phi, c), tol):
        fails.append("-psi differs from the conjugate of the perturbation function")
    u = _first_row_apart(r.decisions.labels, lag.rows, inst.rebuilt_lagrangian.rows, tol)
    if u is not None:
        fails.append(f"row {u}: -L_u is not c'-convex")
    return fails


def check_transform_inequality(
    inst: FuzzInstance, tol: float = DEFAULT_TOL
) -> tuple[list[str], bool]:
    """Building R from L: phi >= (-psi)^{c'} pointwise, and rows of R are
    c-convex.  Also reports whether the inequality is strict somewhere.

    The rows' biconjugates (R_u)^{cc'} are the rows of
    rockafellian_of(lagrangian_of(R)), bit for bit: two table transforms
    in place of two kernel calls per row, since 0.0 - (0.0 - v) is v for
    every v but -0.0, which no transform gives."""
    fails = []
    lag, c = inst.lagrangian, inst.coupling
    r = duality.rockafellian_of(lag, c)
    phi = duality.perturbation_function(r)
    psi = duality.dual_function(lag)
    lower = conjugacy.reverse_conjugate(psi.negated(), c)
    if not _le_all(lower, phi, tol):
        fails.append("perturbation function dips below (-psi)^{c'}")
    strict = any(
        lo < hi and not approx_eq(lo, hi, tol)
        for lo, hi in zip(lower.values, phi.values)
    )
    r_bi = duality.rockafellian_of(duality.lagrangian_of(r, c), c)
    u = _first_row_apart(lag.decisions.labels, r.rows, r_bi.rows, tol)
    if u is not None:
        fails.append(f"row {u}: R_u is not c-convex")
    return fails, strict


def check_roundtrips(inst: FuzzInstance, tol: float = DEFAULT_TOL) -> list[str]:
    """R -> L -> R' contracts, R' <= R, and the second trip is stable,
    L'' = L.  (R' = R iff the rows of R are c-convex holds by construction:
    the rows of R' are their biconjugates.)"""
    fails = []
    r, r2 = inst.rockafellian, inst.rebuilt_rockafellian
    if not all(
        approx_le(a, b, tol)
        for ra, rb in zip(r2.rows, r.rows)
        for a, b in zip(ra, rb)
    ):
        fails.append("round trip exceeds the original Rockafellian somewhere")
    if not inst.rebuilt_lagrangian.isclose(inst.built_lagrangian, tol):
        fails.append("second round trip changed the Lagrangian")
    return fails


def check_weak_duality(inst: FuzzInstance, tol: float = DEFAULT_TOL) -> list[str]:
    """The report at every base point, its flags and gap, and its dual value
    against the Lagrangian route: sup_y [c(x,y) lower-add psi(y)], taken
    with ``low_add`` and no kernel call, psi the dual function of L.  The
    reports come from one ``weak_duality_reports`` call: one phi^c for all
    base points."""
    fails = []
    r, c = inst.rockafellian, inst.coupling
    psi = duality.dual_function(inst.built_lagrangian).values
    reports = duality.weak_duality_reports(r, c, tol)
    for x, c_row, rep in zip(c.primal.labels, c.rows, reports):
        if isinstance(rep, ArithmeticError):
            fails.append(str(rep))
            continue
        if rep.dual_value != max(map(low_add, c_row, psi)):
            fails.append(f"dual value at {x} differs from the Lagrangian route")
        if rep.tight != approx_eq(rep.dual_value, rep.primal_value, tol):
            fails.append(f"tightness flag inconsistent at {x}")
        both_finite = math.isfinite(rep.primal_value) and math.isfinite(rep.dual_value)
        if (rep.gap is not None) != both_finite:
            fails.append(f"gap presence inconsistent at {x}")
        elif rep.gap is not None and rep.gap < 0.0:
            fails.append(f"negative gap at {x}")
    return fails


def _replace_entry(table_rows, iu, j, value):
    rows = [list(row) for row in table_rows]
    rows[iu][j] = value
    return rows


def check_couple_theorem(
    inst: FuzzInstance, rng: random.Random, tol: float = DEFAULT_TOL,
    grid: tuple[int, int] = DEFAULT_GRID, inf_prob: float = DEFAULT_INF_PROB,
    values: str = "integer",
) -> list[str]:
    """A constructed couple audits true on every item; a single-entry
    perturbation and an unrelated random pair keep items (ii)-(v) in
    agreement and consistent with item (i), the inequality plus minimality.
    The constructed couple is (L, R'), which ``couple.make_couple`` returns
    for R."""
    fails = []
    draw = VALUE_FAMILIES[values]
    c = inst.coupling
    lag1, r1 = inst.built_lagrangian, inst.rebuilt_rockafellian
    a = couple.audit(lag1, r1, c, tol=tol)
    if not (
        a.item_i_inequality
        and a.item_i_minimality_probe
        and a.item_ii
        and a.item_iii
        and a.item_iv
        and a.item_v
        and a.items_agree
    ):
        fails.append("constructed couple does not audit true on every item")

    # single-entry perturbation of the couple
    decisions = lag1.decisions
    iu = rng.randrange(len(decisions))
    if rng.random() < 0.5:
        ix = rng.randrange(len(c.primal))
        rows = _replace_entry(r1.rows, iu, ix, draw(rng, grid, inf_prob))
        lag2, r2 = lag1, Rockafellian(decisions, c.primal, rows)
    else:
        iy = rng.randrange(len(c.dual))
        rows = _replace_entry(lag1.rows, iu, iy, draw(rng, grid, inf_prob))
        lag2, r2 = Lagrangian(decisions, c.dual, rows), r1

    for label, lg, rk in (
        ("perturbed couple", lag2, r2),
        ("random pair", inst.lagrangian, inst.rockafellian),
    ):
        a2 = couple.audit(lg, rk, c, tol=tol)
        if not a2.items_agree:
            fails.append(f"{label}: items (ii)-(v) disagree")
        if a2.item_iii:
            if not (a2.item_i_inequality and a2.item_i_minimality_probe):
                fails.append(f"{label}: couple without inequality+minimality")
        elif a2.item_i_inequality and a2.item_i_minimality_probe:
            fails.append(f"{label}: minimal in the inequality yet not a couple")
    return fails


def values_note(values: str) -> str:
    """`` values=<family>``, or nothing for the default integer family, whose
    reports predate the option."""
    return "" if values == "integer" else f" values={values}"


class FuzzReport(namedtuple("FuzzReport", (
        "count", "max_set_size", "seed", "grid", "inf_prob", "values", "tol",
        "failures_by_check", "failures", "strict_inequality_instances",
        "first_failure"))):
    """Aggregate outcome of one fuzz run; printable deterministically.  It
    holds the run's settings, the failure count of each check by name, the
    failures as (instance, check, detail) triples, the number of instances
    with a strict transform inequality, and the first failing instance as a
    ``Problem`` (None if all passed)."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def run_fuzz(
    count: int,
    max_set_size: int,
    seed: int,
    grid: tuple[int, int] = DEFAULT_GRID,
    inf_prob: float = DEFAULT_INF_PROB,
    tol: float = DEFAULT_TOL,
    on_instance: Callable[[int], None] | None = None,
    values: str = "integer",
) -> FuzzReport:
    """Generate ``count`` instances, entries drawn from the value family
    ``values``, and run the whole invariant suite."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if max_set_size < 1:
        raise ValueError("max_set_size must be at least 1")
    if grid[0] > grid[1]:
        raise ValueError("grid low end exceeds high end")
    if not 0.0 <= inf_prob <= 0.4:
        raise ValueError("inf_prob must lie in [0, 0.4]")
    if values not in VALUE_FAMILIES:
        raise ValueError(f"unknown value family {values!r}")

    rng = random.Random(seed)
    failures_by_check = {name: 0 for name in CHECK_NAMES}
    failures: list[tuple[int, str, str]] = []
    strict_instances = 0
    first_failure: Problem | None = None

    for i in range(count):
        inst = random_instance(rng, i, max_set_size, grid, inf_prob, values)
        ineq_fails, strict = check_transform_inequality(inst, tol)
        if strict:
            strict_instances += 1
        outcomes = [
            ("conjugacy", check_conjugacy_laws(inst, tol)),
            ("transform_identity", check_transform_identity(inst, tol)),
            ("transform_inequality", ineq_fails),
            ("roundtrips", check_roundtrips(inst, tol)),
            ("weak_duality", check_weak_duality(inst, tol)),
            ("couple_theorem",
             check_couple_theorem(inst, rng, tol, grid, inf_prob, values)),
        ]
        for name, details in outcomes:
            if details:
                failures_by_check[name] += 1
                for detail in details:
                    failures.append((i, name, detail))
                if first_failure is None:
                    first_failure = Problem(
                        decisions=inst.rockafellian.decisions,
                        primal=inst.coupling.primal,
                        dual=inst.coupling.dual,
                        coupling=inst.coupling,
                        rockafellian=inst.rockafellian,
                        lagrangian=inst.lagrangian,
                        comment=(
                            f"fuzz reproduction: seed={seed} instance={i} "
                            f"check={name}{values_note(values)}"
                        ),
                    )
        if on_instance is not None:
            on_instance(i)

    return FuzzReport(
        count=count,
        max_set_size=max_set_size,
        seed=seed,
        grid=grid,
        inf_prob=inf_prob,
        values=values,
        tol=tol,
        failures_by_check=failures_by_check,
        failures=failures,
        strict_inequality_instances=strict_instances,
        first_failure=first_failure,
    )
