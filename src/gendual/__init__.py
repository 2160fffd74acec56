"""Generalized conjugate duality on finite sets.

The package computes, by direct enumeration over finite label sets, the
machinery of coupling-based convex duality: Moreau lower/upper additions on
the extended reals, Fenchel-Moreau conjugates and biconjugates for an
arbitrary coupling, the two transforms between Rockafellians and
Lagrangians with their perturbation and dual functions, weak-duality
reports, and an audit of Lagrangian-Rockafellian couples through five
equivalent characterizations, each computing its own transforms and
conjugates.
"""

from .extreal import (
    DEFAULT_TOL,
    NEG_INF,
    POS_INF,
    ExtReal,
    approx_eq,
    approx_le,
    as_extreal,
    low_add,
    neg,
    parse_extreal,
    render_extreal,
    upp_add,
)
from .spaces import (
    Coupling,
    FiniteSet,
    Lagrangian,
    Rockafellian,
    SetFunction,
    bilinear_coupling,
    partial_lagrangian,
    partial_rockafellian,
    pointwise_max,
    pointwise_min,
    reverse_coupling,
)
from .conjugacy import (
    biconjugate,
    conjugate,
    is_c_convex,
    is_cprime_convex,
    reverse_biconjugate,
    reverse_conjugate,
    young_check,
)
from .duality import (
    WeakDualityReport,
    dual_function,
    lagrangian_of,
    perturbation_function,
    rockafellian_of,
    weak_duality_report,
)
from .couple import (
    CoupleAudit,
    Witness,
    audit,
    check_item_ii,
    check_item_iii,
    check_item_iv,
    check_item_v,
    inequality_holds,
    make_couple,
    minimality_probe,
)
from .errors import (
    DomainMismatchError,
    GendualError,
    MissingTableError,
    ProblemFormatError,
    UnknownLabelError,
)
from .problems import Problem, load_problem, parse_problem, save_problem, serialize_problem

__version__ = "0.1.0"

__all__ = [
    "CoupleAudit",
    "Coupling",
    "DEFAULT_TOL",
    "DomainMismatchError",
    "ExtReal",
    "FiniteSet",
    "GendualError",
    "Lagrangian",
    "MissingTableError",
    "NEG_INF",
    "POS_INF",
    "Problem",
    "ProblemFormatError",
    "Rockafellian",
    "SetFunction",
    "UnknownLabelError",
    "WeakDualityReport",
    "Witness",
    "approx_eq",
    "approx_le",
    "as_extreal",
    "audit",
    "biconjugate",
    "bilinear_coupling",
    "check_item_ii",
    "check_item_iii",
    "check_item_iv",
    "check_item_v",
    "conjugate",
    "dual_function",
    "inequality_holds",
    "is_c_convex",
    "is_cprime_convex",
    "lagrangian_of",
    "load_problem",
    "low_add",
    "make_couple",
    "minimality_probe",
    "neg",
    "parse_extreal",
    "parse_problem",
    "partial_lagrangian",
    "partial_rockafellian",
    "perturbation_function",
    "pointwise_max",
    "pointwise_min",
    "render_extreal",
    "reverse_biconjugate",
    "reverse_conjugate",
    "reverse_coupling",
    "rockafellian_of",
    "save_problem",
    "serialize_problem",
    "upp_add",
    "weak_duality_report",
    "young_check",
]
