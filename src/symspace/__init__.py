"""Exact geometry of compact simply connected Riemannian symmetric spaces.

Builds restricted root systems and their Cartan polytopes in exact
rational arithmetic, normalizes lengths through the Killing form, and
computes injectivity radii, diameters, curvature constants, and
cut/conjugate predicates for every space in the classification.

The public names are loaded on first use (PEP 562), so ``import
symspace.cli`` compiles only the modules its command runs, while
``symspace.report`` and every other name below work as plain attributes.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    "InvalidParams": "catalog", "MissingSatakeData": "catalog", "SpaceEntry": "catalog",
    "SpaceLabel": "catalog", "enumerate_table": "catalog", "parse_label": "catalog",
    "resolve": "catalog", "restriction_factor_crosscheck": "catalog",
    "CutDetails": "geometry", "cut_classify": "geometry", "cut_details": "geometry",
    "is_conjugate": "geometry",
    "EmptyProduct": "reporting", "GeometryReport": "reporting", "MetricSpec": "reporting",
    "NoCanonicalMetric": "reporting", "kappa_relation_check": "reporting",
    "product": "reporting", "report": "reporting",
    "KillingData": "killing", "NonReducedInput": "killing", "killing_data": "killing",
    "DimensionMismatch": "linalg", "NegativeFactor": "linalg", "PiSqrtValue": "linalg",
    "CartanPolytope": "polytope", "build_polytope": "polytope",
    "InvalidRank": "dynkin", "RootKind": "dynkin", "parse_kind": "dynkin",
    "root_count": "dynkin",
    "RootSystem": "roots", "SliceClass": "roots", "build": "roots",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value           # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
