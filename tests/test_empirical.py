"""Tallying behavior: counts, skips, merging, and the empirical law."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from digitlaw.digits import leading_digit_real
from digitlaw.empirical import (
    SampleSummary,
    empirical_distribution,
    empirical_fractions,
    merge,
    tally,
)
from digitlaw.errors import DomainError, EmptySampleError, UsageError
from digitlaw.lawtheory import exact_frequency, leading_digit_count


def test_tally_mixed_values_with_skips():
    summary = tally([1.2, 0.004, -19, 0])
    assert summary.counts == (2, 0, 0, 1, 0, 0, 0, 0, 0)
    assert summary.used == 3
    assert summary.skipped_zero == 1
    assert summary.skipped_nonfinite == 0
    assert summary.total_read == 4


def test_tally_empty_stream():
    summary = tally([])
    assert summary.counts == (0,) * 9
    assert summary.total_read == 0
    assert summary.used == 0


def test_tally_full_initial_segment_matches_closed_form_count():
    summary = tally(range(1, 2000))
    assert summary.counts[0] == 1111
    assert summary.counts[0] == leading_digit_count(1, 1999)
    assert summary.counts[1:] == (111,) * 8
    assert summary.used == 1999


def test_tally_skips_nonfinite_and_all_zero_flavors():
    summary = tally([float("nan"), float("inf"), float("-inf"), 0, 0.0, -0.0, 7])
    assert summary.skipped_nonfinite == 3
    assert summary.skipped_zero == 3
    assert summary.used == 1
    assert summary.counts[6] == 1
    assert summary.total_read == 7


def test_tally_prefers_the_printed_token_in_base_ten():
    # a numeral string counts by its printed digit in base 10
    summary = tally(["9.5", "-0.0032E-12", "+.5", "007"])
    assert summary.counts == (0, 0, 1, 0, 1, 0, 1, 0, 1)
    # outside base 10 it counts by its value: 31 is 0x1F
    summary16 = tally(["31", "9.5"], 16)
    assert summary16.counts[0] == 1 and summary16.counts[8] == 1


def test_tally_falls_back_to_numbers_on_useless_tokens():
    # a token with no nonzero digit is decided by its value
    summary = tally(["0.000", "-0e5", ".0", "5"])
    assert summary.skipped_zero == 3
    assert summary.counts[4] == 1 and summary.used == 1


def test_tally_reads_the_printed_digit_beyond_double_range():
    # 1e400 parses to inf and 1e-400 to 0.0, but both are printed with a 1
    tokens = ["1e400", "1e-400", "2", "5", "0.0e-400"]
    summary = tally(tokens)
    assert summary.counts[0] == 2 and summary.used == 4
    assert summary.skipped_zero == 1 and summary.skipped_nonfinite == 0
    # other bases read the value, which overflows or underflows
    summary16 = tally(tokens, 16)
    assert summary16.skipped_nonfinite == 1 and summary16.skipped_zero == 2


def test_tally_reads_integers_beyond_double_range_exactly():
    summary = tally([10**400, -(3 * 10**500), 0])
    assert summary.counts[0] == 1 and summary.counts[2] == 1
    assert summary.skipped_zero == 1
    assert tally([16**300], 16).counts[0] == 1


def test_tally_handles_negative_integers_exactly():
    summary = tally([-(10**17 + 1), -2])
    assert summary.counts[0] == 1 and summary.counts[1] == 1


def test_tally_raises_on_values_float_rejects():
    with pytest.raises(ValueError):
        tally(["abc"])
    with pytest.raises(ValueError):
        tally(["abc"], 16)
    with pytest.raises(TypeError):
        tally([None])


def test_tally_source_label_is_kept():
    assert tally([1], source="run-4").source == "run-4"


def test_tally_is_permutation_invariant():
    rng = random.Random(501)
    values = [rng.uniform(-1000, 1000) for _ in range(500)] + [0.0, float("inf")]
    shuffled = values[:]
    rng.shuffle(shuffled)
    a, b = tally(values), tally(shuffled)
    assert a.counts == b.counts
    assert (a.used, a.skipped_zero, a.skipped_nonfinite) == (
        b.used,
        b.skipped_zero,
        b.skipped_nonfinite,
    )


def test_tally_is_sign_invariant():
    rng = random.Random(502)
    values = [rng.uniform(0.001, 5000) for _ in range(500)]
    assert tally(values).counts == tally([-v for v in values]).counts


def test_tally_is_invariant_under_scaling_by_radix_powers():
    rng = random.Random(503)
    values = [round(rng.uniform(1.05, 9.95), 6) for _ in range(300)]
    baseline = tally(values).counts
    for e in (-6, -2, 3, 8):
        scaled = [v * 10.0**e for v in values]
        assert tally(scaled).counts == baseline


def test_merge_adds_counts_and_is_order_free():
    rng = random.Random(504)
    chunks = [
        tally([rng.randrange(1, 10**6) for _ in range(200)], source=f"c{i}")
        for i in range(4)
    ]
    merged = merge(chunks)
    total = [0] * 9
    for chunk in chunks:
        for i, c in enumerate(chunk.counts):
            total[i] += c
    assert merged.counts == tuple(total)
    assert merged.used == sum(total)
    assert merged.source == "c0+c1+c2+c3"
    reordered = merge(chunks[::-1])
    assert reordered.counts == merged.counts
    pairwise = merge([merge(chunks[:2]), merge(chunks[2:])])
    assert pairwise.counts == merged.counts and pairwise.used == merged.used


def test_merge_rejects_nothing_and_mixed_bases():
    with pytest.raises(UsageError):
        merge([])
    with pytest.raises(UsageError):
        merge([tally([1], 10), tally([1], 16)])


def summary_of(counts, *, skipped_zero=0, skipped_nonfinite=0):
    return SampleSummary(
        base=10,
        counts=counts,
        skipped_zero=skipped_zero,
        skipped_nonfinite=skipped_nonfinite,
    )


def test_summary_invariants_are_enforced():
    with pytest.raises(UsageError):
        summary_of((1, 2))  # wrong width
    with pytest.raises(UsageError):
        summary_of((-1,) + (1,) * 8)


@pytest.mark.parametrize(
    "counts, skipped_zero, skipped_nonfinite",
    [
        ((1.7,) + (1,) * 8, 0, 0),  # was truncated to 1
        ((True,) + (1,) * 8, 0, 0),
        ((1,) * 9, 1.0, 0),
        ((1,) * 9, -1, 0),
        ((1,) * 9, 0, True),
    ],
)
def test_summary_takes_only_non_negative_int_counts(
    counts, skipped_zero, skipped_nonfinite
):
    # only the type or sign check stops each case
    with pytest.raises(UsageError, match="must be non-negative ints"):
        summary_of(
            counts,
            skipped_zero=skipped_zero,
            skipped_nonfinite=skipped_nonfinite,
        )


def test_summary_base_is_a_plain_int():
    summary = SampleSummary(
        base=10, counts=(1,) * 9, skipped_zero=0, skipped_nonfinite=0
    )
    assert summary.base == 10
    assert type(tally([0xA5], 16).base) is int
    with pytest.raises(DomainError, match=r"^base must be in \[2, 36\], got 37$"):
        SampleSummary(base=37, counts=(), skipped_zero=0, skipped_nonfinite=0)
    with pytest.raises(DomainError, match=r"^base must be an integer, got True$"):
        tally([5], True)
    assert merge([summary, tally([5], 10)]).counts == (1, 1, 1, 1, 2, 1, 1, 1, 1)


def test_summary_used_is_derived_from_counts():
    assert summary_of((1,) * 9, skipped_zero=2, skipped_nonfinite=1).used == 9
    with pytest.raises(TypeError):
        SampleSummary(
            base=10,
            counts=(1,) * 9,
            used=9,
            skipped_zero=0,
            skipped_nonfinite=0,
        )


def test_empirical_distribution_reference_fraction():
    counts = (11, 1, 1, 1, 1, 1, 1, 1, 1)
    dist = empirical_distribution(summary_of(counts))
    assert dist.probabilities[0] == float(Fraction(11, 19))
    assert dist.label == "empirical"


def test_empirical_distribution_single_digit_sample():
    dist = empirical_distribution(summary_of((0, 0, 0, 0, 5, 0, 0, 0, 0)))
    assert dist.probabilities == (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def test_empirical_distribution_refuses_empty_samples():
    empty = summary_of((0,) * 9, skipped_zero=2, skipped_nonfinite=1)
    with pytest.raises(EmptySampleError):
        empirical_distribution(empty)
    with pytest.raises(EmptySampleError):
        empirical_fractions(empty)


def test_empirical_fractions_sum_to_one_exactly():
    rng = random.Random(505)
    for _ in range(50):
        values = [rng.randrange(1, 10**9) for _ in range(97)]
        fractions = empirical_fractions(tally(values))
        assert sum(fractions) == 1


def test_tally_of_initial_segment_matches_exact_frequency():
    """Two independent routes to the same frequencies: brute tallying of
    {1..100000} versus the closed-form run count."""
    summary = tally(range(1, 10**5 + 1))
    dist = empirical_distribution(summary)
    for n in range(1, 10):
        expected = exact_frequency(n, 10**5)
        assert Fraction(summary.counts[n - 1], summary.used) == expected
        assert dist.probabilities[n - 1] == float(expected)


def test_tally_in_other_bases():
    summary = tally(range(1, 2001), 16)
    for n in range(1, 16):
        assert summary.counts[n - 1] == leading_digit_count(n, 2000, 16)
    binary = tally(range(1, 101), 2)
    assert binary.counts == (100,)


def float_rule_digit(x: float, radix: int) -> int:
    """The float leading-digit rule, written out here as the oracle.

    Scale |x| into [1, radix) by repeated multiplication or division by
    the radix; a result within 4 ulps under the radix carries to digit 1.
    """
    s, n = abs(x), float(radix)
    while s < 1.0:
        s *= n
    while s >= n:
        s /= n
    return 1 if n - s <= 4 * math.ulp(n) else int(s)


@st.composite
def radix_power_neighbours(draw, radix):
    """A double a few steps from float(radix)**k, often in the carry band."""
    bits = math.log2(radix)
    power = float(radix) ** draw(st.integers(int(-1074 / bits), int(1023 / bits)))
    steps = draw(st.integers(-8, 8))
    x = power
    for _ in range(abs(steps)):
        x = math.nextafter(x, 0.0 if steps < 0 else math.inf)
    assume(0.0 < x < math.inf)
    return -x if draw(st.booleans()) else x


@st.composite
def radix_and_double(draw):
    radix = draw(st.integers(2, 36))
    free = st.floats(allow_nan=False, allow_infinity=False).filter(bool)
    return radix, draw(free | radix_power_neighbours(radix))


@given(radix_and_double())
def test_float_route_of_tally_and_extractor_follow_the_float_rule(case):
    radix, x = case
    expected = float_rule_digit(x, radix)
    one_hot = tuple(int(n == expected) for n in range(1, radix))
    assert leading_digit_real(x, radix) == expected
    assert tally([x], radix).counts == one_hot
    if radix != 10:  # base 10 reads a string's printed digit instead
        assert tally([repr(x)], radix).counts == one_hot
