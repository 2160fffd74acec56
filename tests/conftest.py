import math
from pathlib import Path

import pytest

from gendual import Coupling, FiniteSet, Lagrangian, Rockafellian

REPO_ROOT = Path(__file__).resolve().parent.parent
PROBLEMS_DIR = REPO_ROOT / "problems"

# E1: the 2x2x2 regression instance used throughout the suite.
E1_COUPLING_ROWS = [[0.0, 0.0], [1.0, 2.0]]
E1_ROCKAFELLIAN_ROWS = [[5.0, 3.0], [0.0, math.inf]]
E1_LAGRANGIAN_ROWS = [[2.0, 1.0], [0.0, 0.0]]
E1_COUPLE_ROCKAFELLIAN_ROWS = [[2.0, 3.0], [0.0, 2.0]]


@pytest.fixture
def e1():
    decisions = FiniteSet(["u0", "u1"])
    primal = FiniteSet(["x0", "x1"])
    dual = FiniteSet(["y0", "y1"])
    return {
        "U": decisions,
        "X": primal,
        "Y": dual,
        "c": Coupling(primal, dual, E1_COUPLING_ROWS),
        "R": Rockafellian(decisions, primal, E1_ROCKAFELLIAN_ROWS),
        "L": Lagrangian(decisions, dual, E1_LAGRANGIAN_ROWS),
        "R2": Rockafellian(decisions, primal, E1_COUPLE_ROCKAFELLIAN_ROWS),
    }


@pytest.fixture(scope="session")
def problems_dir():
    return PROBLEMS_DIR


@pytest.fixture
def count_kernel_calls(monkeypatch):
    """Counts the product-kernel calls of ``conjugacy`` and ``duality``, the
    modules that bind ``conjugate_product``, as (kernel name, number of
    rows)."""
    import gendual.conjugacy as conjugacy
    import gendual.duality as duality

    calls = []
    for module in (conjugacy, duality):
        def counted(f_rows, view, kernel=module.conjugate_product):
            calls.append(("conjugate_product", len(f_rows)))
            return kernel(f_rows, view)
        monkeypatch.setattr(module, "conjugate_product", counted)
    return calls
