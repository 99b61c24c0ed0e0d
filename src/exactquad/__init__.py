"""Exact quadrature rules for systems of integrable functions.

For any n continuous functions integrable against a finite positive
measure on a real interval, there is an exact quadrature rule with at most
n nodes and non-negative weights summing to the total mass.  This package
constructs such rules, exposes the underlying convex-curve reduction
(every point of the convex hull of a continuous curve in R^n is a convex
combination of at most n curve points), and applies them to covariance
representations and Gruss-type covariance bounds.
"""

from . import cli, errors  # exactquad.cli resolves after "import exactquad"
from .expr import Expression, parse
from .measure import (
    IntegralVector,
    IntervalSpec,
    MeasureSpec,
    integrate,
    integrate_system,
    measure_from_json,
    total_mass,
)
from .hull import (
    ConvexCombination,
    CurveSystem,
    caratheodory_finite,
    chebyshev_sample_test,
    reduce_on_curve,
)
from .synth import (
    AffineRankReport,
    QuadratureRule,
    VerificationReport,
    affine_rank,
    discretize_hull_point,
    rule_from_json,
    rule_to_json,
    synthesize_rule,
    verify_rule,
)
from .stats import (
    CovarianceWitness,
    GrussReport,
    covariance,
    covariance_witness,
    gruss_check,
    gruss_discrete,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Expression",
    "parse",
    "IntervalSpec",
    "MeasureSpec",
    "IntegralVector",
    "total_mass",
    "integrate",
    "integrate_system",
    "measure_from_json",
    "ConvexCombination",
    "CurveSystem",
    "caratheodory_finite",
    "reduce_on_curve",
    "chebyshev_sample_test",
    "AffineRankReport",
    "QuadratureRule",
    "VerificationReport",
    "affine_rank",
    "discretize_hull_point",
    "synthesize_rule",
    "verify_rule",
    "rule_from_json",
    "rule_to_json",
    "CovarianceWitness",
    "GrussReport",
    "covariance",
    "covariance_witness",
    "gruss_check",
    "gruss_discrete",
]
