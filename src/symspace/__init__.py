"""Exact geometry of compact simply connected Riemannian symmetric spaces.

Builds restricted root systems and their Cartan polytopes in exact
rational arithmetic, normalizes lengths through the Killing form, and
computes injectivity radii, diameters, curvature constants, and
cut/conjugate predicates for every space in the classification.
"""

from .catalog import (InvalidParams, MissingSatakeData, SpaceEntry, SpaceLabel,
                      enumerate_table, parse_label, resolve,
                      restriction_factor_crosscheck)
from .geometry import (CutDetails, EmptyProduct, GeometryReport, MetricSpec,
                       NoCanonicalMetric, cut_classify, cut_details,
                       is_conjugate, kappa_relation_check, product, report)
from .killing import KillingData, NonReducedInput, delta_sq_formula, killing_data
from .linalg import DimensionMismatch, NegativeFactor, PiSqrtValue, Rational
from .polytope import (CartanPolytope, SliceClass, build_polytope,
                       classify_point, dominant_representative)
from .roots import (InvalidRank, RootKind, RootSystem, build, parse_kind,
                    root_count)

__version__ = "0.1.0"

__all__ = [
    "CartanPolytope", "CutDetails", "DimensionMismatch", "EmptyProduct",
    "GeometryReport", "InvalidParams", "InvalidRank", "KillingData",
    "MetricSpec", "MissingSatakeData", "NegativeFactor", "NoCanonicalMetric",
    "NonReducedInput", "PiSqrtValue", "Rational", "RootKind",
    "RootSystem", "SliceClass", "SpaceEntry", "SpaceLabel",
    "build", "build_polytope", "classify_point", "cut_classify", "cut_details",
    "delta_sq_formula", "dominant_representative", "enumerate_table",
    "is_conjugate", "kappa_relation_check",
    "killing_data", "parse_kind", "parse_label",
    "product", "report", "resolve", "restriction_factor_crosscheck",
    "root_count",
]
