"""Quasiarithmetic means: evaluation, convexity classification, envelopes.

A quasiarithmetic mean QA_f averages data through a strictly monotone
generator f and inverts: QA_f(v) = f^{-1}(mean of f(v_i)).  This package
evaluates such means, decides whether they are convex or concave from the
profile f'/f'', computes the convex/concave QA envelopes via 1-D hulls of
that profile, and ships a randomized harness for the inequalities the
construction rests on.
"""

from .errors import (
    CandidateRejected,
    DegenerateSecondDerivative,
    DomainError,
    NonpositiveM,
    NotMonotone,
    QameansError,
    RangeError,
    SignChange,
    UsageError,
)
from .grids import DEFAULT_GRID_POINTS, ScalarGrid, WorkingInterval
from .generators import (
    AffineGenerator,
    ExpGenerator,
    Generator,
    LogGenerator,
    PowerGenerator,
    ReflectedGenerator,
    TabulatedGenerator,
    load_table,
    parse_generator,
    reflect_generator,
    rho,
    tabulate,
)
from .means import (
    ArithmeticMean,
    ComparisonReport,
    MeanHandle,
    QuasiArithmeticMean,
    compare,
    parse_mean,
    power_mean,
    qa_mean,
)
from .convexity import (
    ConvexityClass,
    classify,
    dominates_arithmetic,
    jensen_midpoint_check,
)
from .envelope import (
    EnvelopeResult,
    PiecewiseLinearHull,
    concave_envelope_1d,
    convex_envelope_1d,
    qa_concave_envelope,
    qa_concave_envelope_via_reflection,
    qa_convex_envelope,
    reconstruct_generator,
)
from .verify import (
    TrialReport,
    duality_check,
    ingham_jessen_check,
    ingham_jessen_sweep,
    kedlaya_check,
    maximality_check,
    symmetry_check,
)

__version__ = "0.1.0"

__all__ = [
    "AffineGenerator",
    "ArithmeticMean",
    "CandidateRejected",
    "ComparisonReport",
    "ConvexityClass",
    "DEFAULT_GRID_POINTS",
    "DegenerateSecondDerivative",
    "DomainError",
    "EnvelopeResult",
    "ExpGenerator",
    "Generator",
    "LogGenerator",
    "MeanHandle",
    "NonpositiveM",
    "NotMonotone",
    "PiecewiseLinearHull",
    "PowerGenerator",
    "QameansError",
    "QuasiArithmeticMean",
    "RangeError",
    "ReflectedGenerator",
    "ScalarGrid",
    "SignChange",
    "TabulatedGenerator",
    "TrialReport",
    "UsageError",
    "WorkingInterval",
    "classify",
    "compare",
    "concave_envelope_1d",
    "convex_envelope_1d",
    "dominates_arithmetic",
    "duality_check",
    "ingham_jessen_check",
    "ingham_jessen_sweep",
    "jensen_midpoint_check",
    "kedlaya_check",
    "load_table",
    "maximality_check",
    "parse_generator",
    "parse_mean",
    "power_mean",
    "qa_concave_envelope",
    "qa_concave_envelope_via_reflection",
    "qa_convex_envelope",
    "qa_mean",
    "reconstruct_generator",
    "reflect_generator",
    "rho",
    "symmetry_check",
    "tabulate",
]
