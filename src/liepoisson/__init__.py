"""Exact classification and Casimir invariants of Lie-Poisson bracket extensions.

The package works over the Gaussian rationals throughout: extension tensors
are validated against the two bracket laws, reduced to catalog normal forms
with replayable witnesses, and their Casimir invariants are synthesized by
the coextension recursion and verified symbolically.  A small floating-point
module realizes any real tensor on tuples of so(3)* momenta and confirms
the quadratic invariants numerically; it alone needs numpy (the optional
extra ``liepoisson[dynamics]``).

Each layer past the classify core loads on first use of one of its names:
``import liepoisson`` loads scalars, linalg, extension, transform and
classify; the Casimir layer (``casimir``, ``polynomials``) loads with the
first of its names, the conic solver with the first square-class repair,
and the float layer, numpy with it, with the first of its names.
"""

from importlib import import_module

from .scalars import GaussianRational, gr, parse_scalar
from .linalg import (
    BasisChange,
    ExactMatrix,
    eigenvalues_gaussian,
    null_space,
    pseudoinverse,
    simultaneous_triangularize,
)
from .extension import (
    ExtensionTensor,
    abelian,
    append_semisimple,
    crmhd,
    direct_sum,
    leibniz,
    low_beta_rmhd,
    pure_semidirect,
    strip_semisimple,
    validate,
)
from .transform import (
    apply,
    apply_chain,
    normalize_w0_to_identity,
)
from .classify import CaseLabel, Catalog, catalog, classify, equivalence_check

__version__ = "0.1.0"

# the layers that load on first use of one of their names: name -> submodule
_LAZY = {
    **dict.fromkeys(("CasimirFamily", "build_coextension", "casimir_condition_check", "format_family",
                     "leibniz_casimirs_closed_form", "quadratic_casimir_basis", "synthesize_casimirs"),
                    "casimir"),
    **dict.fromkeys(("FieldState", "HamiltonianSpec", "eom_rhs", "simulate"), "dynamics"),
}


def __getattr__(name):
    # not cached in the package namespace, so the name always reads the submodule's binding
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "BasisChange",
    "CaseLabel",
    "Catalog",
    "CasimirFamily",
    "ExactMatrix",
    "ExtensionTensor",
    "FieldState",
    "GaussianRational",
    "HamiltonianSpec",
    "abelian",
    "append_semisimple",
    "apply",
    "apply_chain",
    "build_coextension",
    "casimir_condition_check",
    "catalog",
    "classify",
    "crmhd",
    "direct_sum",
    "eigenvalues_gaussian",
    "eom_rhs",
    "equivalence_check",
    "format_family",
    "gr",
    "leibniz",
    "leibniz_casimirs_closed_form",
    "low_beta_rmhd",
    "normalize_w0_to_identity",
    "null_space",
    "parse_scalar",
    "pseudoinverse",
    "pure_semidirect",
    "quadratic_casimir_basis",
    "simulate",
    "simultaneous_triangularize",
    "strip_semisimple",
    "synthesize_casimirs",
    "validate",
]
