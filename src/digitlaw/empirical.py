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
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence

from .digits import DECIMAL_INDEX, RADIX_BITS, check_base, float_digit_rule, int_digit
from .errors import EmptySampleError, UsageError
from .lawtheory import LABEL_EMPIRICAL, DigitDistribution


@dataclass(frozen=True)
class SampleSummary:
    """Leading-digit counts plus the bookkeeping of skipped values.

    counts[n-1] is the number of values whose first digit is n.  Every
    value read lands in exactly one bucket, so neither sum is stored:

        used = sum(counts)
        total_read = used + skipped_zero + skipped_nonfinite

    Every count is a non-negative int.
    """

    base: int
    counts: tuple[int, ...]
    skipped_zero: int
    skipped_nonfinite: int
    source: str = ""

    def __post_init__(self) -> None:
        n_digits = check_base(self.base) - 1
        counts = tuple(self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) != n_digits:
            raise UsageError(f"base {self.base} needs {n_digits} counts, got {len(counts)}")
        tallies = counts + (self.skipped_zero, self.skipped_nonfinite)
        if not all(type(c) is int and c >= 0 for c in tallies):
            raise UsageError("counts and skip counts must be non-negative ints")

    @property
    def used(self) -> int:
        return sum(self.counts)

    @property
    def total_read(self) -> int:
        return self.used + self.skipped_zero + self.skipped_nonfinite


# tally takes its stream this many items at a time.
_CHUNK_ITEMS = 256

# In the bytes of an array of doubles, the 16-bit word of each double that
# holds its sign, 11-bit exponent and top 4 significand bits, and the byte
# that holds its sign and top 7 exponent bits.
if sys.byteorder == "little":
    _TOP_WORDS, _TOP_BYTES = slice(3, None, 4), slice(7, None, 8)
else:
    _TOP_WORDS, _TOP_BYTES = slice(0, None, 4), slice(0, None, 8)


def _count_top_bits(chunk: list, top_bits: Counter) -> bool:
    """Count the top 16 bits of each double of a chunk of floats into top_bits, in C.

    Returns False, counting nothing, for a chunk with any item but a
    float, or when a value is subnormal: a subnormal's digit can lie below
    those bits.
    """
    from array import array  # loaded only by a power-of-two radix

    if list(map(type, chunk)).count(float) != len(chunk):
        return False
    raw = array("d", chunk).tobytes()
    top = raw[_TOP_BYTES]
    # the values whose biased exponent is under 16, every zero and
    # subnormal among them
    tiny = top.count(0) + top.count(0x80)
    if tiny and tiny != chunk.count(0.0):
        return False
    top_bits.update(array("H", raw)[_TOP_WORDS])
    return True


def _digits_of_top_bits(top_bits: Counter, bits: int, counts: list[int]) -> tuple[int, int]:
    """Add the digit of each key of top_bits, in radix 2**bits, to counts.

    With biased exponent E and top significand bits t, a finite nonzero
    double is 1.t... * 2**(E - 1023), whose digit is (16 | t) >> (4 - r)
    for r = (E - 1023) % bits.  E = 2047 is non-finite and, since
    _count_top_bits counts no subnormal, E = 0 is zero.  Returns the
    zero and non-finite counts.
    """
    zero = nonfinite = 0
    for key, n in top_bits.items():
        exponent = key >> 4 & 0x7FF
        if exponent == 0x7FF:
            nonfinite += n
        elif exponent == 0:
            zero += n
        else:
            counts[((16 | key & 15) >> (4 - (exponent - 1023) % bits)) - 1] += n
    return zero, nonfinite


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
    digits.float_digit_rule as in leading_digit_real; so outside base 10 a
    numeral means its nearest double, and 1e400 is non-finite; so too a
    stream of the doubles read_numerals(..., values=True) yields counts
    as the stream of its tokens does.  In a power-of-two base
    (digits.RADIX_BITS) that rule is exact, and a run of floats is counted
    in C: each double's sign, exponent and top 4 significand bits are
    counted as one 16-bit key, and each distinct key gives its digit once
    the stream ends.  Integers are read exactly, other values as floats.
    Sign is ignored.  Zeros and non-finite values are skipped and tallied
    as such.  A value that float() rejects, such as the bare string "abc",
    raises its ValueError or TypeError, and whatever the stream raises
    passes through: ingest.read_numerals raises StructuralError for a
    wrong-shape file once it is exhausted.  Items are taken _CHUNK_ITEMS
    (256) at a time, and no more than that are held; the keys counted
    number at most 2**16 whatever the stream's length.
    """
    counts = [0] * (check_base(base) - 1)
    decimal_index = DECIMAL_INDEX.get if base == 10 else None
    float_digit = float_digit_rule(base)
    skipped_zero = 0
    skipped_nonfinite = 0
    bits = RADIX_BITS.get(base)
    top_bits = Counter()
    items = iter(values)
    while chunk := list(islice(items, _CHUNK_ITEMS)):
        if bits is not None and _count_top_bits(chunk, top_bits):
            continue
        for item in chunk:
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
                    counts[int_digit(abs(item), base) - 1] += 1
                continue
            numeric = abs(float(item))
            if not math.isfinite(numeric):
                skipped_nonfinite += 1
            elif numeric == 0.0:
                skipped_zero += 1
            else:
                counts[float_digit(numeric) - 1] += 1
    if top_bits:
        zero, nonfinite = _digits_of_top_bits(top_bits, bits, counts)
        skipped_zero += zero
        skipped_nonfinite += nonfinite
    return SampleSummary(
        base=base,
        counts=tuple(counts),
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
