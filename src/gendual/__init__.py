"""Generalized conjugate duality on finite sets.

The package computes, by direct enumeration over finite label sets, the
machinery of coupling-based convex duality: Moreau lower/upper additions on
the extended reals, Fenchel-Moreau conjugates and biconjugates for an
arbitrary coupling, the two transforms between Rockafellians and
Lagrangians with their perturbation and dual functions, weak-duality
reports, and an audit of Lagrangian-Rockafellian couples through five
equivalent characterizations.

The public names below are resolved on first use (PEP 562): ``import
gendual`` loads no submodule, and ``gendual.audit`` or ``from gendual import
audit`` loads only ``couple`` and the modules it imports, and so does
``gendual.couple``.  Each name is
read from its defining module at every access, so the package namespace
never holds a stale binding.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "defaults": ("DEFAULT_TOL",),
    "extreal": (
        "NEG_INF", "POS_INF", "ExtReal", "approx_eq", "approx_le", "as_extreal",
        "low_add", "neg", "parse_extreal", "render_extreal", "upp_add",
    ),
    "spaces": (
        "Coupling", "FiniteSet", "Lagrangian", "Rockafellian", "SetFunction",
        "bilinear_coupling", "partial_lagrangian", "partial_rockafellian",
        "pointwise_max", "pointwise_min", "reverse_coupling",
    ),
    "conjugacy": (
        "biconjugate", "conjugate", "is_c_convex", "is_cprime_convex",
        "reverse_biconjugate", "reverse_conjugate", "young_check",
    ),
    "duality": (
        "WeakDualityReport", "dual_function", "lagrangian_of",
        "perturbation_function", "rockafellian_of", "weak_duality_report",
    ),
    "couple": (
        "CoupleAudit", "Witness", "audit", "check_item_ii", "check_item_iii",
        "check_item_iv", "check_item_v", "inequality_holds", "make_couple",
        "minimality_probe",
    ),
    "errors": (
        "DomainMismatchError", "GendualError", "MissingTableError",
        "ProblemFormatError", "UnknownLabelError",
    ),
    "problems": (
        "Problem", "load_problem", "parse_problem", "save_problem",
        "serialize_problem",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is not None:
        return getattr(import_module(f"{__name__}.{module}"), name)
    if name in _EXPORTS:  # a submodule that is not loaded yet
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
