import math
import random

import pytest

from gendual import NEG_INF, POS_INF, SetFunction
from gendual.fuzz import (
    CHECK_NAMES,
    VALUE_FAMILIES,
    check_conjugacy_laws,
    check_couple_theorem,
    check_roundtrips,
    check_transform_identity,
    check_transform_inequality,
    check_weak_duality,
    random_extreal,
    random_instance,
    run_fuzz,
)


def test_random_extreal_distribution():
    rng = random.Random(0)
    draws = [random_extreal(rng) for _ in range(4000)]
    n_neg = sum(1 for v in draws if v == NEG_INF)
    n_pos = sum(1 for v in draws if v == POS_INF)
    finite = [v for v in draws if math.isfinite(v)]
    assert 250 < n_neg < 550 and 250 < n_pos < 550
    assert all(float(v).is_integer() and -10 <= v <= 10 for v in finite)


@pytest.mark.parametrize("values, low, high", [
    ("fractional", 0.0, 11.0),
    ("tiny", 0.0, 1e-300),
    ("wide", 1e10, 1e15),
    ("near-overflow", 0.85e308, 1.7e308),
])
def test_off_grid_families_draw_their_magnitudes(values, low, high):
    rng = random.Random(0)
    draws = [VALUE_FAMILIES[values](rng) for _ in range(4000)]
    assert 250 < draws.count(NEG_INF) < 550 and 250 < draws.count(POS_INF) < 550
    finite = [v for v in draws if math.isfinite(v)]
    assert all(low <= abs(v) <= high for v in finite)
    assert min(finite) < 0.0 < max(finite)
    if high < 2.0**53:  # every double beyond 2**53 is an integer
        assert not all(float(v).is_integer() for v in finite)


def test_run_fuzz_integer_family_is_the_default():
    assert run_fuzz(20, 4, 3, values="integer") == run_fuzz(20, 4, 3)
    with pytest.raises(ValueError, match="unknown value family"):
        run_fuzz(1, 4, 3, values="decimal")


def test_random_instance_shapes():
    rng = random.Random(1)
    for i in range(50):
        inst = random_instance(rng, i, max_set_size=5)
        nu, nx, ny = (
            len(inst.rockafellian.decisions),
            len(inst.coupling.primal),
            len(inst.coupling.dual),
        )
        assert 1 <= nu <= 5 and 1 <= nx <= 5 and 1 <= ny <= 5
        assert len(inst.lagrangian.rows) == nu
        assert len(inst.extra_primal.values) == nx
        assert len(inst.extra_dual.values) == ny


def test_generator_deterministic():
    a = random_instance(random.Random(42), 0)
    b = random_instance(random.Random(42), 0)
    assert a.coupling == b.coupling
    assert a.rockafellian == b.rockafellian
    assert a.lagrangian == b.lagrangian


def test_individual_checks_pass_on_sample():
    rng = random.Random(8)
    for i in range(60):
        inst = random_instance(rng, i)
        assert check_conjugacy_laws(inst) == []
        assert check_transform_identity(inst) == []
        fails, _ = check_transform_inequality(inst)
        assert fails == []
        assert check_roundtrips(inst) == []
        assert check_weak_duality(inst) == []
        assert check_couple_theorem(inst, rng) == []


def test_run_fuzz_small():
    report = run_fuzz(count=50, max_set_size=4, seed=13)
    assert report.passed
    assert report.failures == []
    assert set(report.failures_by_check) == set(CHECK_NAMES)
    assert all(v == 0 for v in report.failures_by_check.values())
    assert report.first_failure is None


def test_run_fuzz_argument_validation():
    with pytest.raises(ValueError):
        run_fuzz(count=0, max_set_size=5, seed=1)
    with pytest.raises(ValueError):
        run_fuzz(count=1, max_set_size=0, seed=1)
    with pytest.raises(ValueError):
        run_fuzz(count=1, max_set_size=5, seed=1, grid=(3, -3))
    with pytest.raises(ValueError):
        run_fuzz(count=1, max_set_size=5, seed=1, inf_prob=0.6)


def _sign_flip(values):
    return [0.0 - v for v in values]


def _one_off(values):
    """The values with the first finite one raised by 1."""
    values = list(values)
    k = next((k for k, v in enumerate(values) if math.isfinite(v)), None)
    if k is not None:
        values[k] += 1.0
    return values


def _broken_table(transform, breaks):
    def broken(*args):
        table = transform(*args)
        width = len(table.rows[0])
        flat = breaks([v for row in table.rows for v in row])
        rows = [flat[i:i + width] for i in range(0, len(flat), width)]
        return type(table)(table.decisions, table.col_set, rows)
    return broken


def _broken_function(transform, breaks):
    def broken(*args):
        f = transform(*args)
        return SetFunction(f.domain, breaks(f.values))
    return broken


def _broken_dual_values(reports_of, breaks):
    def broken(*args):
        reports = reports_of(*args)
        at = [k for k, rep in enumerate(reports) if not isinstance(rep, ArithmeticError)]
        duals = breaks([reports[k].dual_value for k in at])
        for k, dual in zip(at, duals):
            reports[k] = reports[k]._replace(dual_value=dual)
        return reports
    return broken


# The checks of ``run_fuzz(20, 4, 11)`` that catch each broken copy, a sign
# flip of every value or one finite value off by 1: the same checks for
# both breaks.  A broken transform reaches the couple theorem through the
# constructed couple (L, R'), which is built through it.
_CAUGHT_BY = {
    "lagrangian_of": {"transform_identity", "transform_inequality", "roundtrips",
                      "weak_duality", "couple_theorem"},
    "rockafellian_of": {"transform_identity", "transform_inequality", "roundtrips",
                        "couple_theorem"},
    "conjugate": {"conjugacy", "transform_identity"},
    "reverse_conjugate": {"conjugacy", "transform_inequality"},
    "weak_duality_reports": {"weak_duality"},
}


@pytest.mark.parametrize("breaks", [_sign_flip, _one_off], ids=["sign-flip", "one-off"])
@pytest.mark.parametrize("name", list(_CAUGHT_BY))
def test_run_fuzz_catches_broken_transform(monkeypatch, name, breaks):
    from gendual import conjugacy, duality

    module, make = {
        "lagrangian_of": (duality, _broken_table),
        "rockafellian_of": (duality, _broken_table),
        "conjugate": (conjugacy, _broken_function),
        "reverse_conjugate": (conjugacy, _broken_function),
        "weak_duality_reports": (duality, _broken_dual_values),
    }[name]
    monkeypatch.setattr(module, name, make(getattr(module, name), breaks))
    report = run_fuzz(count=20, max_set_size=4, seed=11)
    caught = {check for check, n in report.failures_by_check.items() if n}
    assert caught == _CAUGHT_BY[name]
    assert report.first_failure is not None
    assert report.first_failure.rockafellian is not None
    assert report.first_failure.lagrangian is not None
    assert "seed=11" in report.first_failure.comment


def test_every_draw_is_a_plain_double():
    rng = random.Random(5)
    for draw in VALUE_FAMILIES.values():
        assert all(type(draw(rng)) is float for _ in range(2000))


def test_each_transform_is_built_once_per_instance(monkeypatch):
    # the checks read the instance's L, R' and L'', each built on first
    # read; the transform inequality transforms the instance's own L instead
    from gendual import duality

    built = []
    for name in ("lagrangian_of", "rockafellian_of"):
        def counted(table, c, transform=getattr(duality, name), name=name):
            built.append((name, table))
            return transform(table, c)
        monkeypatch.setattr(duality, name, counted)
    inst = random_instance(random.Random(4), max_set_size=5)
    for check in (check_conjugacy_laws, check_transform_identity, check_roundtrips,
                  check_weak_duality):
        check(inst)
    check_couple_theorem(inst, random.Random(4))
    lag, r2, lag2 = inst.built_lagrangian, inst.rebuilt_rockafellian, inst.rebuilt_lagrangian
    assert built == [("lagrangian_of", inst.rockafellian), ("rockafellian_of", lag),
                     ("lagrangian_of", r2)]
    assert lag2 == duality.lagrangian_of(duality.rockafellian_of(lag, inst.coupling),
                                         inst.coupling)


def test_kernel_calls_of_a_run(count_kernel_calls):
    # 31.2 kernel calls per instance: one L, R' and L'' per instance, and
    # row convexity tested on whole tables
    run_fuzz(300, 5, 42)
    assert len(count_kernel_calls) == 9351
