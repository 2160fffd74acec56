import math
import random

import pytest

from gendual import NEG_INF, POS_INF
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


def test_run_fuzz_catches_broken_transform(monkeypatch):
    from gendual import duality
    from gendual.extreal import neg

    true_transform = duality.lagrangian_of

    def flipped(r, c):
        lag = true_transform(r, c)
        rows = [[neg(v) for v in row] for row in lag.rows]
        return type(lag)(lag.decisions, lag.dual, rows)

    monkeypatch.setattr(duality, "lagrangian_of", flipped)
    report = run_fuzz(count=5, max_set_size=4, seed=11)
    assert not report.passed
    assert report.failures_by_check["transform_identity"] > 0
    assert report.first_failure is not None
    assert report.first_failure.rockafellian is not None
    assert report.first_failure.lagrangian is not None
    assert "seed=11" in report.first_failure.comment
