"""First significant digit analysis toolkit.

Exact closed-form first-digit laws over a positional base (logarithmic,
arithmetic-mean, geometric-mean), the extremal-frequency machinery behind
them, and empirical tooling: digit tallying, conformance statistics, and
dataset parsing.  The `digitlaw` console script fronts all of it.
"""

__version__ = "0.1.0"

from .digits import (
    check_base,
    check_digit,
    leading_digit_int,
    leading_digit_real,
    leading_digit_text,
)
from .empirical import SampleSummary, empirical_distribution, empirical_fractions, merge, tally
from .errors import (
    CapacityError,
    DegenerateBaseError,
    DegenerateExpectationError,
    DigitLawError,
    DomainError,
    EmptySampleError,
    ParseError,
    StructuralError,
    UndefinedCorrelationError,
    UsageError,
)
from .fit import CandidateScore, FitReport, chi_square, compare, mad, max_abs_dev, pearson_r
from .ingest import Diagnostic, InputSpec, read_numerals
from .lawtheory import (
    DigitBounds,
    DigitDistribution,
    ExtremalFrequency,
    arithmetic_mean_distribution,
    benford,
    bounds_check,
    exact_frequency,
    extrema_within,
    extremal_frequency,
    extremum_locations,
    frequency_series,
    geometric_mean_distribution,
    leading_digit_count,
    limit_frequency,
)

__all__ = [
    "__version__",
    "check_base",
    "check_digit",
    "leading_digit_int",
    "leading_digit_real",
    "leading_digit_text",
    "DigitDistribution",
    "ExtremalFrequency",
    "DigitBounds",
    "benford",
    "arithmetic_mean_distribution",
    "geometric_mean_distribution",
    "extremal_frequency",
    "limit_frequency",
    "leading_digit_count",
    "exact_frequency",
    "frequency_series",
    "extrema_within",
    "extremum_locations",
    "bounds_check",
    "SampleSummary",
    "tally",
    "merge",
    "empirical_distribution",
    "empirical_fractions",
    "CandidateScore",
    "FitReport",
    "pearson_r",
    "chi_square",
    "mad",
    "max_abs_dev",
    "compare",
    "InputSpec",
    "Diagnostic",
    "read_numerals",
    "DigitLawError",
    "DomainError",
    "ParseError",
    "EmptySampleError",
    "DegenerateBaseError",
    "UndefinedCorrelationError",
    "DegenerateExpectationError",
    "StructuralError",
    "UsageError",
    "CapacityError",
]
