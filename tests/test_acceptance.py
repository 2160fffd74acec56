"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on the terminal.
"""

import math
import random
import time

import bruteforce as bf
from gendual import (
    ExtReal,
    NEG_INF,
    POS_INF,
    SetFunction,
    biconjugate,
    bilinear_coupling,
    conjugate,
    is_c_convex,
    lagrangian_of,
    low_add,
    rockafellian_of,
    upp_add,
    weak_duality_report,
    dual_function,
    perturbation_function,
)
from gendual.cli import main
from gendual.fuzz import (
    check_conjugacy_laws,
    check_couple_theorem,
    check_transform_identity,
    check_transform_inequality,
    random_instance,
)
from gendual.problems import parse_problem, serialize_problem

INF = math.inf
TOL = 1e-9


def report(number, name, ok):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_moreau_addition_tables():
    pats = (NEG_INF, ExtReal(2.0), POS_INF)
    low_want = [
        [-INF, -INF, -INF],
        [-INF, 4.0, INF],
        [-INF, INF, INF],
    ]
    upp_want = [
        [-INF, -INF, INF],
        [-INF, 4.0, INF],
        [INF, INF, INF],
    ]
    started = time.perf_counter()
    ok = True
    for i, a in enumerate(pats):
        for j, b in enumerate(pats):
            ok &= low_add(a, b) == low_want[i][j]
            ok &= upp_add(a, b) == upp_want[i][j]
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1e-3
    report(1, f"Moreau addition tables ({elapsed * 1e6:.0f}us)", ok)


def test_criterion_2_conjugacy_laws_fuzz():
    rng = random.Random(42)
    started = time.perf_counter()
    failures = 0
    for _ in range(1000):
        inst = random_instance(rng, max_set_size=5)
        if check_conjugacy_laws(inst, TOL):
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 10.0
    report(2, f"conjugacy laws on 1000 instances ({elapsed:.2f}s)", ok)


def test_criterion_3_transform_identity_fuzz():
    rng = random.Random(42)
    failures = sum(
        bool(check_transform_identity(random_instance(rng, max_set_size=5), TOL))
        for _ in range(1000)
    )
    report(3, "dual function equals negated conjugate of the perturbation "
              "function on 1000 instances", failures == 0)


def test_criterion_4_transform_inequality_fuzz():
    rng = random.Random(42)
    failures = 0
    strict_instances = 0
    for _ in range(1000):
        fails, strict = check_transform_inequality(
            random_instance(rng, max_set_size=5), TOL
        )
        failures += bool(fails)
        strict_instances += strict
    ok = failures == 0 and strict_instances >= 1
    report(4, f"perturbation function dominates the reverse conjugate on 1000 "
              f"instances ({strict_instances} strict)", ok)


def test_criterion_5_theorem_equivalence_fuzz():
    rng = random.Random(42)
    disagreements = 0
    for _ in range(1000):
        inst = random_instance(rng, max_set_size=5)
        if check_couple_theorem(inst, rng, TOL):
            disagreements += 1
    report(5, "theorem equivalence on couples and their perturbations",
           disagreements == 0)


def test_criterion_6_e1_regression(e1):
    c_rows = [[0.0, 0.0], [1.0, 2.0]]
    r_rows = [[5.0, 3.0], [0.0, INF]]
    ok = bf.lagrangian(c_rows, r_rows) == [[2.0, 1.0], [0.0, 0.0]]
    ok &= bf.rockafellian(c_rows, [[2.0, 1.0], [0.0, 0.0]]) == [[2.0, 3.0], [0.0, 2.0]]
    ok &= bf.column_minima(r_rows) == [0.0, 3.0]
    ok &= bf.weak_duality(c_rows, r_rows, 0) == (0.0, 0.0)
    ok &= bf.weak_duality(c_rows, r_rows, 1) == (3.0, 2.0)

    lag = lagrangian_of(e1["R"], e1["c"])
    ok &= [[float(v) for v in row] for row in lag.rows] == [[2.0, 1.0], [0.0, 0.0]]
    r2 = rockafellian_of(lag, e1["c"])
    ok &= [[float(v) for v in row] for row in r2.rows] == [[2.0, 3.0], [0.0, 2.0]]
    phi = perturbation_function(e1["R"])
    psi = dual_function(lag)
    ok &= [float(v) for v in phi.values] == [0.0, 3.0]
    ok &= [float(v) for v in psi.values] == [0.0, 0.0]
    rep0 = weak_duality_report(e1["R"], e1["c"], "x0")
    ok &= (rep0.primal_value, rep0.dual_value, rep0.tight) == (
        ExtReal(0.0), ExtReal(0.0), True,
    )
    ok &= rep0.gap == ExtReal(0.0)
    rep1 = weak_duality_report(e1["R"], e1["c"], "x1")
    ok &= (rep1.primal_value, rep1.dual_value, rep1.tight) == (
        ExtReal(3.0), ExtReal(2.0), False,
    )
    ok &= rep1.gap == ExtReal(1.0)
    report(6, "E1 regression against the brute-force oracle", ok)


def test_criterion_7_fenchel_special_case():
    grid = [float(k) for k in range(-3, 4)]
    c = bilinear_coupling(grid, grid)
    f = SetFunction(c.primal, [k * k / 2.0 for k in grid])
    fc = conjugate(f, c)
    ok = [float(v) for v in fc.values] == [k * k / 2.0 for k in grid]
    oracle = bf.conjugate([[x * y for y in grid] for x in grid],
                          [k * k / 2.0 for k in grid])
    ok &= [float(v) for v in fc.values] == oracle
    ok &= is_c_convex(f, c, TOL)

    spike_c = bilinear_coupling([0.0, 1.0, 2.0], [-1.0, 0.0, 1.0])
    spike = SetFunction(spike_c.primal, [0.0, 10.0, 0.0])
    bi = biconjugate(spike, spike_c)
    ok &= [float(v) for v in bi.values] == [0.0, 0.0, 0.0]
    ok &= bf.biconjugate([[x * y for y in (-1.0, 0.0, 1.0)] for x in (0.0, 1.0, 2.0)],
                         [0.0, 10.0, 0.0]) == [0.0, 0.0, 0.0]
    ok &= not is_c_convex(spike, spike_c, TOL)
    report(7, "classic bilinear special case (quadratic and spike)", ok)


def test_criterion_8_cli_contract(problems_dir, tmp_path, capsys):
    ok = True
    # gallery files round-trip byte-identically
    gallery = sorted(problems_dir.glob("*.json"))
    ok &= len(gallery) == 5
    for path in gallery:
        text = path.read_text(encoding="utf-8")
        ok &= serialize_problem(parse_problem(text, allow_both=True)) == text

    # fuzz run: 1000 instances, max size 5, seed 42, exit 0, under 30 s
    started = time.perf_counter()
    code = main(["fuzz", "--count", "1000", "--max-set-size", "5",
                 "--seed", "42", "--output", str(tmp_path)])
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    ok &= code == 0
    ok &= elapsed < 30.0

    # exit-code mapping fixtures
    e1 = str(problems_dir / "e1.json")
    lag = str(problems_dir / "e1_lagrangian.json")
    couple = str(problems_dir / "e1_couple.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"sets": {"U": ["u0"], "X": ["x0"], "Y": ["y0"]}, '
                   '"coupling": [["Inf"]], "rockafellian": [[0]]}')
    checks = [
        (["check-couple", couple], 0),
        (["check-couple", e1, lag], 1),
        (["weak-duality", str(bad)], 2),
        (["conjugate", e1, "--function", "Inf,3"], 2),
        (["weak-duality", e1, "--base-point", "x9"], 3),
        (["to-lagrangian", lag], 4),
        (["to-rockafellian", e1], 4),
    ]
    for argv, want in checks:
        got = main(argv)
        ok &= got == want
    capsys.readouterr()
    report(8, f"CLI contract (fuzz in {elapsed:.2f}s, exit codes, round trip)", ok)
