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


def exact_digit(x: float, radix: int) -> int:
    """The leading digit of the exact value of x, from Fraction."""
    value = abs(Fraction(x))
    whole = value.numerator // value.denominator
    if whole:
        while whole >= radix:
            whole //= radix
        return whole
    while value < 1:
        value *= radix
    return int(value)


def float_rule_digit(x: float, radix: int) -> int:
    """The float leading-digit rule, written out here as the oracle.

    In a power-of-two radix, the exact digit.  In any other, scale |x|
    into [1, radix) by repeated multiplication or division by the radix;
    a result within 4 ulps under the radix carries to digit 1.
    """
    if radix & (radix - 1) == 0:
        return exact_digit(x, radix)
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


POWER_OF_TWO_RADICES = (2, 4, 8, 16, 32)

# Doubles where a scaling rule goes wrong in a power-of-two radix: just
# under a power of 16, the two smallest subnormals and the largest one.
EDGE_DOUBLES = [math.nextafter(16.0**k, 0) for k in range(-20, 20)] + [
    5e-324,
    1e-323,
    2.2250738585072009e-308,
    2.2250738585072014e-308,
    1.7976931348623157e308,
]


def one_hot(digit: int, radix: int) -> tuple[int, ...]:
    return tuple(int(n == digit) for n in range(1, radix))


@pytest.mark.parametrize("radix", POWER_OF_TWO_RADICES)
def test_power_of_two_radices_read_the_exact_digit_at_their_edges(radix):
    for x in EDGE_DOUBLES:
        expected = exact_digit(x, radix)
        assert leading_digit_real(x, radix) == expected
        assert leading_digit_real(-x, radix) == expected
        assert tally([x], radix).counts == one_hot(expected, radix)
        assert tally([repr(-x)], radix).counts == one_hot(expected, radix)
    # all at once, in chunks of str that hold subnormals and of floats
    expected = [0] * (radix - 1)
    for x in EDGE_DOUBLES:
        expected[exact_digit(x, radix) - 1] += 1
    for values in (EDGE_DOUBLES, [repr(x) for x in EDGE_DOUBLES]):
        assert tally(values * 7, radix).counts == tuple(7 * c for c in expected)


def test_nextafter_sixteen_leads_with_fifteen():
    x = math.nextafter(16.0, 0)  # 0xF.FFFFFFFFFFFF8
    assert leading_digit_real(x, 16) == 15
    assert tally([repr(x)], 16).counts[14] == 1


@pytest.mark.parametrize("radix", POWER_OF_TWO_RADICES)
def test_power_of_two_radices_skip_zeros_and_values_out_of_range(radix):
    summary = tally(["-0.0", "1e400", "1e-400", "-1e400", "0e5", "inf", "-nan"], radix)
    assert (summary.used, summary.skipped_zero, summary.skipped_nonfinite) == (0, 3, 4)
    summary = tally([-0.0, 0.0, math.inf, -math.inf, math.nan], radix)
    assert (summary.used, summary.skipped_zero, summary.skipped_nonfinite) == (0, 2, 3)


@given(
    st.sampled_from(POWER_OF_TWO_RADICES),
    st.floats(allow_nan=False, allow_infinity=False).filter(bool),
)
def test_power_of_two_radices_follow_the_exact_digit(radix, x):
    expected = one_hot(exact_digit(x, radix), radix)
    assert leading_digit_real(x, radix) == exact_digit(x, radix)
    assert tally([x], radix).counts == expected
    assert tally([repr(x)], radix).counts == expected


def _exact_counts(tokens, radix):
    counts = [0] * (radix - 1)
    for token in tokens:
        if float(token):
            counts[exact_digit(float(token), radix) - 1] += 1
    return tuple(counts)


@pytest.mark.parametrize("radix", [16, 32])
@pytest.mark.parametrize("size", [255, 256, 257, 513])
def test_tally_counts_str_chunks_of_any_length(radix, size):
    rng = random.Random(size * radix)
    tokens = [f"{rng.lognormvariate(0, 30):.6g}" for _ in range(size)]
    tokens[size // 2] = "0"
    summary = tally(tokens, radix)
    assert summary.counts == _exact_counts(tokens, radix)
    assert (summary.skipped_zero, summary.skipped_nonfinite) == (1, 0)
    assert summary.total_read == size
    assert tally(list(map(float, tokens)), radix) == summary


def test_tally_reads_ints_exactly_in_a_chunk_of_str():
    # 2**60 - 1 is 0xFFFFFFFFFFFFFFF, though float() rounds it to 2**60,
    # and 16**300 is past double range; so too in a chunk of floats
    tokens = ["1.5", "3e3"] * 200
    expected = list(_exact_counts(tokens, 16))
    for digit in (15, 12, 1, 1):  # 0.75 is 0x0.C, and True counts as 1.0
        expected[digit - 1] += 1
    for items in (tokens, list(map(float, tokens))):
        values = items[:100] + [2**60 - 1, 0.75, True, 16**300] + items[100:]
        assert tally(values, 16).counts == tuple(expected)


@pytest.mark.parametrize("at", [0, 255, 256, 300])
def test_a_junk_string_raises_what_float_raises(at):
    tokens = ["1.5"] * 400
    tokens[at] = "abc"
    with pytest.raises(ValueError) as expected:
        float("abc")
    with pytest.raises(ValueError) as raised:
        tally(tokens, 16)
    assert str(raised.value) == str(expected.value)
