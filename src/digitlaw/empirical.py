"""Tally leading digits of observed values into an empirical distribution.

A dataset enters as a stream of real values or of the numeral tokens
ingest.read_numerals yields.  Every usable value contributes one leading
digit; exact zeros and non-finite values carry no first digit and are
counted separately so the summary always accounts for the whole stream.
Dividing the per-digit counts by the number of usable values gives the
empirical DigitDistribution that the fit module scores against the
theoretical laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .digits import DECIMAL_INDEX, check_base, float_digit_rule, leading_digit_int
from .errors import EmptySampleError, UsageError
from .lawtheory import LABEL_EMPIRICAL, DigitDistribution


@dataclass(frozen=True)
class SampleSummary:
    """Leading-digit counts plus the bookkeeping of skipped values.

    counts[n-1] is the number of values whose first digit is n.  Every
    value read lands in exactly one bucket:

        total_read = used + skipped_zero + skipped_nonfinite

    where used = sum(counts) is derived, not stored.  Every count is a
    non-negative int.
    """

    base: int
    counts: tuple[int, ...]
    total_read: int
    skipped_zero: int
    skipped_nonfinite: int
    source: str = ""

    def __post_init__(self) -> None:
        n_digits = check_base(self.base) - 1
        counts = tuple(self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) != n_digits:
            raise UsageError(f"base {self.base} needs {n_digits} counts, got {len(counts)}")
        tallies = counts + (self.total_read, self.skipped_zero, self.skipped_nonfinite)
        if not all(type(c) is int and c >= 0 for c in tallies):
            raise UsageError("counts, total_read and skip counts must be non-negative ints")
        if self.total_read != self.used + self.skipped_zero + self.skipped_nonfinite:
            raise UsageError("total_read must equal used + skipped counts")

    @property
    def used(self) -> int:
        return sum(self.counts)


def tally(
    values: Iterable[float | str],
    base: int = 10,
    source: str = "",
) -> SampleSummary:
    """Count leading digits over a finite stream of values.

    Items are reals or numeral strings.  A str item is taken to be a
    numeral as ingest.read_numerals yields it, which is the one place that
    validates numerals; it is not matched again here.  In base 10 its
    digit is read from the text: the first character of
    item.lstrip("+-0."), when that is 1-9, so the counted digit is the
    printed one, even for a numeral beyond double range such as 1e400.  A
    string with no nonzero digit there, and any string in another base, is
    converted with float() once and counted by its value, by
    digits.float_digit_rule as in leading_digit_real.  Integers are read
    exactly, other values as floats.  Sign is ignored.  Zeros and
    non-finite values are skipped and tallied as such.  A value that
    float() rejects, such as the bare string "abc", raises its ValueError
    or TypeError, and whatever the stream raises passes through:
    ingest.read_numerals raises StructuralError for a wrong-shape file
    once it is exhausted.  Items are consumed one at a time and none is
    kept.
    """
    counts = [0] * (check_base(base) - 1)
    decimal_index = DECIMAL_INDEX.get if base == 10 else None
    float_digit = float_digit_rule(base)
    total_read = 0
    skipped_zero = 0
    skipped_nonfinite = 0
    for item in values:
        total_read += 1
        if isinstance(item, str):
            if decimal_index is not None:
                index = decimal_index(item.lstrip("+-0.")[:1])
                if index is not None:
                    counts[index] += 1
                    continue
        elif isinstance(item, int) and not isinstance(item, bool):
            if item == 0:
                skipped_zero += 1
            else:
                counts[leading_digit_int(abs(item), base) - 1] += 1
            continue
        numeric = abs(float(item))
        if not math.isfinite(numeric):
            skipped_nonfinite += 1
        elif numeric == 0.0:
            skipped_zero += 1
        else:
            counts[float_digit(numeric) - 1] += 1
    return SampleSummary(
        base=base,
        counts=tuple(counts),
        total_read=total_read,
        skipped_zero=skipped_zero,
        skipped_nonfinite=skipped_nonfinite,
        source=source,
    )


def merge(summaries: Sequence[SampleSummary]) -> SampleSummary:
    """Combine per-chunk summaries by adding counts (order-independent).

    All summaries must share one base.  Sources are joined with '+'.
    """
    if not summaries:
        raise UsageError("merge needs at least one summary")
    base = summaries[0].base
    if any(s.base != base for s in summaries):
        raise UsageError("cannot merge summaries with different bases")
    counts = [0] * (base - 1)
    for s in summaries:
        for i, c in enumerate(s.counts):
            counts[i] += c
    return SampleSummary(
        base=base,
        counts=tuple(counts),
        total_read=sum(s.total_read for s in summaries),
        skipped_zero=sum(s.skipped_zero for s in summaries),
        skipped_nonfinite=sum(s.skipped_nonfinite for s in summaries),
        source="+".join(s.source for s in summaries if s.source),
    )


def empirical_fractions(summary: SampleSummary) -> tuple[Fraction, ...]:
    """Exact per-digit frequencies count/used, in lowest terms.

    Raises EmptySampleError when no value contributed a digit.
    """
    if summary.used < 1:
        raise EmptySampleError(
            f"no usable values in sample {summary.source!r} "
            f"(read {summary.total_read}, all skipped)"
        )
    return tuple(Fraction(c, summary.used) for c in summary.counts)


def empirical_distribution(summary: SampleSummary) -> DigitDistribution:
    """Observed first-digit probabilities counts/used.

    The fractions of empirical_fractions sum to 1 exactly; the stored
    floats are their nearest doubles.
    """
    probs = tuple(float(f) for f in empirical_fractions(summary))
    return DigitDistribution(summary.base, probs, LABEL_EMPIRICAL)
