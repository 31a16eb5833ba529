"""Closed-form first-digit frequency theory over initial segments {1..m}.

Among the integers 1..m, the fraction whose base-N representation starts
with digit n oscillates as m grows: it bottoms out just before each block
of integers beginning with n opens, and peaks where that block closes
(_location gives both places).  The k-th successive minimum and maximum
are exact rationals with simple closed forms, and their k -> infinity
limits f_min(n) and f_max(n) (limit_frequency) bracket every admissible
first-digit probability.  Normalizing the arithmetic or geometric mean of
the two limits over the digits gives two closed-form first-digit laws that
sit remarkably close to the logarithmic (Benford) distribution; the
degenerate base 2 collapses all of them to the single certainty P(1) = 1.

Everything indexed by m or k is computed in exact integer and rational
arithmetic of any width; floating point appears only inside
DigitDistribution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .digits import check_base, check_digit
from .errors import DomainError

KIND_MIN = "min"
KIND_MAX = "max"

LABEL_BENFORD = "benford"
LABEL_GEOM = "geom"
LABEL_ARITH = "arith"
LABEL_EMPIRICAL = "empirical"
LABEL_CUSTOM = "custom"

_MONOTONE_LABELS = frozenset({LABEL_BENFORD, LABEL_GEOM, LABEL_ARITH})

PROBABILITY_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DigitDistribution:
    """First-digit probabilities P(1..N-1) for one base, with a label.

    Probabilities are floats in [0, 1] summing to 1 within 1e-12.  The
    three law labels (benford, geom, arith) additionally guarantee a
    strictly decreasing profile whenever the base has more than one digit.
    """

    base: int
    probabilities: tuple[float, ...]
    label: str = LABEL_CUSTOM

    def __post_init__(self) -> None:
        n_digits = check_base(self.base) - 1
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if len(probs) != n_digits:
            raise DomainError(
                f"base {self.base} needs {n_digits} probabilities, "
                f"got {len(probs)}"
            )
        if not all(0.0 <= p <= 1.0 for p in probs):
            raise DomainError("probabilities must lie in [0, 1]")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise DomainError(f"probabilities sum to {total!r}, not 1")
        if self.label in _MONOTONE_LABELS and self.base >= 3:
            if any(a <= b for a, b in zip(probs, probs[1:])):
                raise DomainError(
                    f"{self.label} probabilities must decrease strictly in n"
                )


@dataclass(frozen=True)
class ExtremalFrequency:
    """The k-th successive extremum of the leading-digit frequency.

    Only the digit, k, the kind and the base are stored; location_m and
    value are derived from them, as extremal_frequency describes.
    """

    digit: int
    k: int
    kind: str
    base: int = 10

    def __post_init__(self) -> None:
        check_digit(self.digit, self.base)
        _require_kind(self.kind)
        _require_positive("k", self.k)

    @property
    def location_m(self) -> int:
        return _location(self.digit, self.k, self.kind, self.base)

    @property
    def value(self) -> Fraction:
        width = self.k if self.kind == KIND_MIN else self.k + 1
        return Fraction(self.base**width - 1, (self.base - 1) * self.location_m)


@dataclass(frozen=True)
class DigitBounds:
    """One digit's sandwich: lower <= probability <= upper."""

    digit: int
    lower: Fraction
    probability: float
    upper: Fraction

    @property
    def within(self) -> bool:
        return float(self.lower) <= self.probability <= float(self.upper)


def _location(n: int, k: int, kind: str, radix: int) -> int:
    """Where the k-th extremum of digit n's frequency sits.

    A minimum at m = n*N^k - 1, just before the width-N^k block of
    integers led by n opens; a maximum at m = (n+1)*N^k - 1, where that
    block closes.
    """
    first = n if kind == KIND_MIN else n + 1
    return first * radix**k - 1


def _require_kind(kind: str) -> None:
    if kind not in (KIND_MIN, KIND_MAX):
        raise DomainError(f"kind must be 'min' or 'max', got {kind!r}")


def _require_positive(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")


def benford(base: int = 10) -> DigitDistribution:
    """Logarithmic first-digit law P(n) = log_N(1 + 1/n).

    In base 2 this is the single entry P(1) = 1: every binary numeral
    starts with 1.
    """
    log_radix = math.log(check_base(base))
    probs = tuple(math.log1p(1.0 / n) / log_radix for n in range(1, base))
    return DigitDistribution(base, probs, LABEL_BENFORD)


def limit_frequency(n: int, kind: str, base: int = 10) -> Fraction:
    """Limit of the extremal frequencies as k grows without bound.

    min -> 1/((N-1) n), max -> N/((N-1) (n+1)), in lowest terms.
    """
    check_digit(n, base)
    _require_kind(kind)
    if kind == KIND_MIN:
        return Fraction(1, (base - 1) * n)
    return Fraction(base, (base - 1) * (n + 1))


def extremal_frequency(
    n: int, k: int, kind: str, base: int = 10
) -> ExtremalFrequency:
    """Exact value and location of the k-th successive extremum.

    With m the location from _location, the value is the telescoped
    geometric-series closed form

        min: (N^k - 1) / ((N-1) m)
        max: (N^(k+1) - 1) / ((N-1) m)

    of the ratio of digit-string sums at the location: a width-k run of
    ones over the all-(N-1) tail that precedes the next block of leading
    digit n.  tests/test_lawtheory.py checks that the two forms agree.
    """
    return ExtremalFrequency(n, k, kind, base)


def arithmetic_mean_distribution(base: int = 10) -> DigitDistribution:
    """Normalized arithmetic mean of the two limit frequencies.

    P(n) is proportional to f_min(n) + f_max(n) of limit_frequency;
    weights are kept rational and rounded only on output.
    """
    weights = [
        limit_frequency(n, KIND_MIN, base) + limit_frequency(n, KIND_MAX, base)
        for n in range(1, check_base(base))
    ]
    total = sum(weights)
    probs = tuple(float(w / total) for w in weights)
    return DigitDistribution(base, probs, LABEL_ARITH)


def geometric_mean_distribution(base: int = 10) -> DigitDistribution:
    """Normalized geometric mean of the two limit frequencies.

    P(n) is proportional to 1/sqrt(n (n+1)).
    """
    weights = [1.0 / math.sqrt(n * (n + 1)) for n in range(1, check_base(base))]
    total = math.fsum(weights)
    probs = tuple(w / total for w in weights)
    return DigitDistribution(base, probs, LABEL_GEOM)


def _runs(n: int, radix: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each run [n*N^j, (n+1)*N^j - 1] led by n, j = 0, 1, ..."""
    start, width = n, 1
    while True:
        yield start, start + width
        start, width = start * radix, width * radix


def leading_digit_count(n: int, m: int, base: int = 10) -> int:
    """Exact count of integers in [1, m] whose leading digit is n.

    Sums the complete and partial _runs clipped to [1, m]; equals
    brute-force enumeration of the segment.
    """
    check_digit(n, base)
    _require_positive("m", m)
    count = 0
    for start, stop in _runs(n, base):
        if start > m:
            return count
        count += min(stop, m + 1) - start


def exact_frequency(n: int, m: int, base: int = 10) -> Fraction:
    """Frequency count(n, m) / m as an exact rational in lowest terms."""
    return Fraction(leading_digit_count(n, m, base), m)


def frequency_series(
    n: int, m_max: int, base: int = 10
) -> Iterator[tuple[int, int, int, int, float]]:
    """(m, count, num, den, value) for m = 1..m_max, made one O(1) point at a time.

    count is leading_digit_count(n, m), num/den is count/m in lowest terms and
    value its float.  The arguments are checked at the call; no point is kept.
    """
    check_digit(n, base)
    _require_positive("m_max", m_max)
    return _series(n, base, m_max)


def _series(n: int, radix: int, m_max: int) -> Iterator[tuple]:
    # Over the _runs, count is flat up to a run's start, then climbs by one per
    # m.  Int true division rounds correctly: value == float(Fraction(count, m)).
    gcd = math.gcd
    count, low = 0, 1
    for start, stop in _runs(n, radix):
        for step, end in ((0, start), (1, stop)):
            high = min(end, m_max + 1)
            for m in range(low, high):
                count += step
                g = gcd(count, m)
                yield m, count, count // g, m // g, count / m
            low = high
        if low > m_max:
            return


def extrema_within(
    n: int, m_max: int, base: int = 10
) -> tuple[ExtremalFrequency, ...]:
    """The extremal_frequency values located at m <= m_max, by k, min first.

    Base 2 has a constant frequency of 1, hence no extrema: the result is empty.
    """
    check_digit(n, base)
    _require_positive("m_max", m_max)
    if base == 2:
        return ()
    found = []
    # For N >= 3 the locations rise strictly in this order.
    for k in itertools.count(1):
        for kind in (KIND_MIN, KIND_MAX):
            if _location(n, k, kind, base) > m_max:
                return tuple(found)
            found.append(extremal_frequency(n, k, kind, base))


def extremum_locations(
    n: int, k_max: int, base: int = 10
) -> tuple[tuple[int, int], ...]:
    """Locations (m_min, m_max) of the first k_max successive extrema.

    They are the extrema_within the k_max-th maximum.  Base 2 has none, so it
    returns at once, before that maximum's N^k_max would be built.
    """
    check_digit(n, base)
    _require_positive("k_max", k_max)
    if base == 2:
        return ()
    last = _location(n, k_max, KIND_MAX, base)
    locations = [e.location_m for e in extrema_within(n, last, base)]
    return tuple(zip(locations[::2], locations[1::2]))


def bounds_check(dist: DigitDistribution) -> tuple[DigitBounds, ...]:
    """Sandwich test f_min(n) <= P(n) <= f_max(n) per digit.

    The bounds come from limit_frequency.  Any first-digit probability
    over a restricted range must respect these limits even where the
    logarithmic law itself breaks down.
    Probabilities are floats, so containment (DigitBounds.within) is
    judged against the float-rounded bounds: a probability equal to a
    bound's nearest float counts as within.
    """
    entries = []
    for n, p in enumerate(dist.probabilities, start=1):
        lower = limit_frequency(n, KIND_MIN, dist.base)
        upper = limit_frequency(n, KIND_MAX, dist.base)
        entries.append(DigitBounds(n, lower, p, upper))
    return tuple(entries)
