"""Conformance scores between an observed digit sample and candidate laws.

Three statistics per candidate: Pearson correlation r over the paired
first-digit probabilities, the chi-square statistic on counts, and the
mean absolute deviation (with its max).  compare() bundles them into a
FitReport, ranks candidates by r, and screens the empirical distribution
against the universal probability sandwich from lawtheory.bounds_check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .empirical import SampleSummary, empirical_distribution
from .errors import (
    DegenerateBaseError,
    DegenerateExpectationError,
    EmptySampleError,
    UndefinedCorrelationError,
    UsageError,
)
from .lawtheory import DigitBounds, DigitDistribution, bounds_check


@dataclass(frozen=True)
class CandidateScore:
    """One candidate law's statistics against the empirical sample."""

    label: str
    r: float
    chi_square: float
    chi_square_dof: int
    mad: float
    max_abs_dev: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.r <= 1.0:
            raise UsageError(f"correlation {self.r} outside [-1, 1]")
        if not (self.chi_square >= 0.0 and self.mad >= 0.0):
            raise UsageError("chi_square and mad must be non-negative numbers")
        if not self.max_abs_dev >= self.mad:
            raise UsageError("max_abs_dev cannot be below mad")


@dataclass(frozen=True)
class FitReport:
    """Scores for every candidate, plus the sample's bound screening.

    entries preserve candidate order; best_by_r is the label with the
    highest r, ties broken by lower mad, then by candidate order.
    bounds is computed once, on the empirical distribution itself.
    """

    sample: SampleSummary
    empirical: DigitDistribution
    entries: tuple[CandidateScore, ...]
    bounds: tuple[DigitBounds, ...]
    best_by_r: str


def _require_same_base(
    a: DigitDistribution | SampleSummary, b: DigitDistribution
) -> None:
    if a.base != b.base:
        raise UsageError(f"bases differ: {a.base} vs {b.base}")


def pearson_r(emp: DigitDistribution, theo: DigitDistribution) -> float:
    """Sample Pearson correlation over the N-1 paired probabilities.

    Base 2 offers a single point, so correlation is undefined there; a
    constant vector on either side has zero variance and is likewise
    rejected rather than scored.  The arithmetic is written out, as
    statistics.correlation does it in CPython 3.10 and 3.11, so that r has
    the same bits on every Python version.
    """
    _require_same_base(emp, theo)
    if emp.base == 2:
        raise DegenerateBaseError(
            "correlation is undefined in base 2 (one digit, one point)"
        )
    x, y = emp.probabilities, theo.probabilities
    xbar, ybar = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [xi - xbar for xi in x]
    dy = [yi - ybar for yi in y]
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    sxx = math.fsum(a * a for a in dx)
    syy = math.fsum(b * b for b in dy)
    denominator = math.sqrt(sxx * syy)
    if not denominator:
        raise UndefinedCorrelationError(
            "zero variance in probabilities: at least one of the inputs is constant"
        )
    # correlation of x with itself can land a rounding step past 1.0
    return max(-1.0, min(1.0, sxy / denominator))


def chi_square(summary: SampleSummary, theo: DigitDistribution) -> tuple[float, int]:
    """Chi-square statistic of observed counts against expected counts.

    Returns (sum over n of (observed - used*P(n))^2 / (used*P(n)),
    N - 2).  Every expected count must be positive.
    """
    _require_same_base(summary, theo)
    used = summary.used
    if used < 1:
        raise EmptySampleError("chi_square needs at least one usable value")
    statistic = 0.0
    for observed, p in zip(summary.counts, theo.probabilities):
        expected = used * p
        if expected <= 0.0:
            raise DegenerateExpectationError(
                f"expected count {expected} for probability {p} over "
                f"{used} values"
            )
        statistic += (observed - expected) ** 2 / expected
    return statistic, theo.base - 2


def mad(emp: DigitDistribution, theo: DigitDistribution) -> float:
    """Mean absolute deviation between the two probability vectors."""
    _require_same_base(emp, theo)
    deviations = [abs(a - b) for a, b in zip(emp.probabilities, theo.probabilities)]
    return math.fsum(deviations) / len(deviations)


def max_abs_dev(emp: DigitDistribution, theo: DigitDistribution) -> float:
    """Largest single-digit deviation between the two vectors."""
    _require_same_base(emp, theo)
    return max(abs(a - b) for a, b in zip(emp.probabilities, theo.probabilities))


def compare(
    summary: SampleSummary, candidates: Sequence[DigitDistribution]
) -> FitReport:
    """Score every candidate against the sample and rank by correlation.

    Raises EmptySampleError when the sample holds no usable values and
    UsageError for an empty candidate list or a base mismatch.  Errors
    from the individual statistics (degenerate base, zero variance)
    propagate unchanged.
    """
    if not candidates:
        raise UsageError("compare needs at least one candidate distribution")
    if summary.used < 1:
        raise EmptySampleError("cannot compare an empty sample")
    emp = empirical_distribution(summary)
    entries = []
    for cand in candidates:
        r = pearson_r(emp, cand)
        statistic, dof = chi_square(summary, cand)
        entries.append(
            CandidateScore(
                label=cand.label,
                r=r,
                chi_square=statistic,
                chi_square_dof=dof,
                mad=mad(emp, cand),
                max_abs_dev=max_abs_dev(emp, cand),
            )
        )
    best = max(entries, key=lambda e: (e.r, -e.mad))
    return FitReport(
        sample=summary,
        empirical=emp,
        entries=tuple(entries),
        bounds=bounds_check(emp),
        best_by_r=best.label,
    )
