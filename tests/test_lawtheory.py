"""Closed-form law theory against brute-force and textbook oracles."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from digitlaw.digits import leading_digit_int
from digitlaw.errors import DigitLawError, DomainError
from digitlaw.lawtheory import (
    KIND_MAX,
    KIND_MIN,
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


# ------------------------------------------------------------- oracles


def brute_count(n: int, m: int, base: int) -> int:
    """Count integers in [1, m] with first digit n by full enumeration."""
    count = 0
    for i in range(1, m + 1):
        while i >= base:
            i //= base
        if i == n:
            count += 1
    return count


def brute_first_digit(i: int, base: int) -> int:
    while i >= base:
        i //= base
    return i


# ------------------------------------------------------------- benford


def test_benford_matches_the_logarithm_directly():
    dist = benford(10)
    for n in range(1, 10):
        assert dist.probabilities[n - 1] == pytest.approx(
            math.log10(1 + 1 / n), rel=1e-15
        )
    assert format(dist.probabilities[0], "#.4g") == "0.3010"
    assert format(dist.probabilities[8], "#.4g") == "0.04576"


def test_benford_generalizes_by_changing_the_log_base():
    for base in (3, 8, 16, 36):
        dist = benford(base)
        for n in range(1, base):
            expected = math.log(1 + 1 / n) / math.log(base)
            assert dist.probabilities[n - 1] == pytest.approx(expected, rel=1e-14)


def test_benford_base_two_is_certain():
    assert benford(2).probabilities == (1.0,)


@pytest.mark.parametrize("base", list(range(2, 37)))
def test_all_three_laws_normalize_and_decrease(base):
    for law in (benford, geometric_mean_distribution, arithmetic_mean_distribution):
        dist = law(base)
        assert len(dist.probabilities) == base - 1
        assert abs(math.fsum(dist.probabilities) - 1.0) <= 1e-12
        if base >= 3:
            pairs = zip(dist.probabilities, dist.probabilities[1:])
            assert all(a > b for a, b in pairs)


# ------------------------------------------------- extremal frequencies


@pytest.mark.parametrize(
    "n, k, kind, expected",
    [
        (1, 2, KIND_MIN, Fraction(11, 99)),
        (5, 3, KIND_MAX, Fraction(1111, 5999)),
        (9, 1, KIND_MIN, Fraction(1, 89)),
        (1, 1, KIND_MIN, Fraction(1, 9)),
        (1, 1, KIND_MAX, Fraction(11, 19)),
        (9, 3, KIND_MAX, Fraction(1111, 9999)),
    ],
)
def test_extremal_frequency_reference_fractions(n, k, kind, expected):
    extremum = extremal_frequency(n, k, kind)
    assert extremum.value == expected
    assert extremum.value.denominator == expected.denominator // math.gcd(
        expected.numerator, expected.denominator
    )


def test_extremal_frequency_equals_brute_force_at_its_location():
    """The k-th extremum must be the literal frequency over {1..m} at the
    m the formula points to; enumeration is the arbiter."""
    for base in (3, 10):
        for n in range(1, base):
            for k in (1, 2, 3):
                for kind in (KIND_MIN, KIND_MAX):
                    extremum = extremal_frequency(n, k, kind, base)
                    count = brute_count(n, extremum.location_m, base)
                    assert extremum.value == Fraction(count, extremum.location_m)


def test_extremal_frequency_locations_follow_the_pattern():
    for n in (1, 4, 9):
        for k in (1, 2, 5):
            assert extremal_frequency(n, k, KIND_MIN).location_m == n * 10**k - 1
            assert (
                extremal_frequency(n, k, KIND_MAX).location_m == (n + 1) * 10**k - 1
            )


def test_extremal_frequency_runs_cleanly_at_high_k_and_other_bases():
    # k = 100 is far past the k at which (n+1)*N^k outgrows 2**63 - 1
    for base in (3, 10, 16, 36):
        for n in (1, base // 2, base - 1):
            for k in range(1, 101):
                low = extremal_frequency(n, k, KIND_MIN, base)
                high = extremal_frequency(n, k, KIND_MAX, base)
                assert low.location_m == n * base**k - 1, (base, n, k)
                assert high.location_m == (n + 1) * base**k - 1, (base, n, k)
                assert 0 < low.value < high.value < 1, (base, n, k)


def test_extremal_frequency_closed_form_equals_digit_sum_form():
    """The closed form is the telescoped ratio of digit-string sums: a
    width-k run of ones (the repunit) over the all-(N-1) tail that
    precedes the next block of leading digit n.  Every base, every digit,
    k up to 200, far past one machine word."""
    checked = 0
    for base in range(3, 37):
        for n in range(1, base):
            for kind in (KIND_MIN, KIND_MAX):
                for k in range(1, 201):
                    extremum = extremal_frequency(n, k, kind, base)
                    power = base**k
                    repunit = (power - 1) // (base - 1)
                    if kind == KIND_MIN:
                        by_digit_sums = Fraction(
                            repunit, (n - 1) * power + (base - 1) * repunit
                        )
                    else:
                        by_digit_sums = Fraction(
                            repunit + power, n * power + (base - 1) * repunit
                        )
                    assert extremum.value == by_digit_sums, (base, n, kind, k)
                    checked += 1
    assert checked == 251_600


@pytest.mark.parametrize(
    "n, k, kind, base",
    [(1, 19, KIND_MAX, 10), (1, 19, KIND_MIN, 10), (1, 64, KIND_MIN, 2), (1, 63, KIND_MAX, 2)],
)
def test_extremal_frequency_is_exact_at_the_first_location_past_one_word(n, k, kind, base):
    extremum = extremal_frequency(n, k, kind, base)
    assert extremum.location_m > 2**63 - 1
    assert extremum.value == exact_frequency(n, extremum.location_m, base)


def test_extremal_frequencies_never_move_away_from_their_limit():
    for base in (3, 10, 16, 36):
        for n in (1, base // 2, base - 1):
            for kind in (KIND_MIN, KIND_MAX):
                limit = limit_frequency(n, kind, base)
                gaps = [
                    abs(extremal_frequency(n, k, kind, base).value - limit)
                    for k in range(1, 201)
                ]
                assert all(a >= b for a, b in zip(gaps, gaps[1:])), (base, n, kind)
                assert gaps[-1] < Fraction(1, 10**50), (base, n, kind)


@pytest.mark.parametrize("bad_k", [0, -1, True, 2.0])
def test_extremal_frequency_rejects_bad_k(bad_k):
    with pytest.raises((DomainError, TypeError)):
        extremal_frequency(1, bad_k, KIND_MIN)


def test_extremal_frequency_rejects_bad_kind():
    with pytest.raises(DomainError):
        extremal_frequency(1, 1, "median")


def test_extremal_record_validates_its_own_consistency():
    # the value and location are derived, so no stored copy can disagree
    with pytest.raises(TypeError):
        ExtremalFrequency(1, 2, KIND_MIN, location_m=5)
    # a bool k lands on the k=1 location, so only the type check stops it
    with pytest.raises(DomainError):
        ExtremalFrequency(1, True, KIND_MIN)
    # the location is derived in the record's own base
    assert ExtremalFrequency(1, 1, KIND_MIN, 16).base == 16
    assert ExtremalFrequency(1, 1, KIND_MIN, 16).location_m == 15
    assert extremal_frequency(1, 1, KIND_MIN, 16).base == 16
    assert type(extremal_frequency(1, 1, KIND_MIN, 16).base) is int
    assert ExtremalFrequency(1, 1, KIND_MIN).base == 10
    with pytest.raises(TypeError):
        ExtremalFrequency(1, 1, KIND_MIN, Fraction(1, 15), 15)
    with pytest.raises(DomainError):
        ExtremalFrequency(10, 1, KIND_MIN)


# ------------------------------------------------------------- limits


def test_limit_frequency_reference_values():
    assert limit_frequency(1, KIND_MIN) == Fraction(1, 9)
    assert limit_frequency(9, KIND_MAX) == Fraction(1, 9)
    assert limit_frequency(1, KIND_MIN, 2) == Fraction(1)
    assert limit_frequency(1, KIND_MAX, 2) == Fraction(1)
    assert limit_frequency(4, KIND_MIN, 16) == Fraction(1, 60)
    assert limit_frequency(4, KIND_MAX, 16) == Fraction(16, 75)
    with pytest.raises(DomainError):
        limit_frequency(1, "median")


def test_a_digit_is_a_plain_int_whatever_base_it_was_read_in():
    # the base argument alone states the radix
    assert limit_frequency(leading_digit_int(0xA5, 16), KIND_MIN, 16) == Fraction(1, 150)
    assert limit_frequency(leading_digit_int(0x35, 16), KIND_MIN) == Fraction(1, 27)
    with pytest.raises(DomainError, match=r"in \[1, 9\] for base 10, got 10"):
        limit_frequency(leading_digit_int(0xA5, 16), KIND_MIN)


def test_extrema_converge_monotonically_to_their_limits():
    """Gap to the limit shrinks with k; the raw minima never decrease and
    the raw maxima never increase (both are constant for the edge digits)."""
    for n in range(1, 10):
        lo = limit_frequency(n, KIND_MIN)
        hi = limit_frequency(n, KIND_MAX)
        assert lo < hi
        mins = [extremal_frequency(n, k, KIND_MIN).value for k in range(1, 13)]
        maxs = [extremal_frequency(n, k, KIND_MAX).value for k in range(1, 13)]
        for a, b in zip(mins, mins[1:]):
            assert a <= b <= lo
        for a, b in zip(maxs, maxs[1:]):
            assert hi <= b <= a
        for seq, limit in ((mins, lo), (maxs, hi)):
            gaps = [abs(value - limit) for value in seq]
            assert all(g1 >= g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert abs(float(mins[-1] - lo)) < 1e-9
        assert abs(float(maxs[-1] - hi)) < 1e-9
        # every finite minimum sits below every finite maximum
        for k in range(1, 13):
            assert mins[k - 1] < maxs[k - 1]


def test_edge_digit_extrema_are_constant():
    assert all(
        extremal_frequency(1, k, KIND_MIN).value == Fraction(1, 9) for k in (1, 3, 7)
    )
    assert all(
        extremal_frequency(9, k, KIND_MAX).value == Fraction(1, 9) for k in (1, 3, 7)
    )


# -------------------------------------------------- mean distributions


def test_arithmetic_mean_formula_and_values():
    dist = arithmetic_mean_distribution(10)
    weights = [10 / (n + 1) + 1 / n for n in range(1, 10)]
    total = sum(weights)
    for n in range(1, 10):
        assert dist.probabilities[n - 1] == pytest.approx(
            weights[n - 1] / total, rel=1e-12
        )
    assert format(dist.probabilities[4], "#.4g") == "0.08439"
    assert arithmetic_mean_distribution(2).probabilities == (1.0,)


def test_geometric_mean_formula_and_values():
    dist = geometric_mean_distribution(10)
    weights = [1 / math.sqrt(n * (n + 1)) for n in range(1, 10)]
    total = math.fsum(weights)
    for n in range(1, 10):
        assert dist.probabilities[n - 1] == pytest.approx(
            weights[n - 1] / total, rel=1e-12
        )
    assert format(dist.probabilities[0], "#.4g") == "0.3046"
    assert format(dist.probabilities[8], "#.4g") == "0.04541"
    assert geometric_mean_distribution(2).probabilities == (1.0,)


def test_mean_distributions_are_means_of_the_limit_frequencies():
    # the names are literal: normalize the per-digit means of the limits
    arith = arithmetic_mean_distribution(10)
    geom = geometric_mean_distribution(10)
    a_weights = [
        (limit_frequency(n, KIND_MIN) + limit_frequency(n, KIND_MAX)) / 2
        for n in range(1, 10)
    ]
    g_weights = [
        math.sqrt(limit_frequency(n, KIND_MIN) * limit_frequency(n, KIND_MAX))
        for n in range(1, 10)
    ]
    a_total = sum(a_weights)
    g_total = math.fsum(g_weights)
    for n in range(1, 10):
        assert arith.probabilities[n - 1] == pytest.approx(
            float(a_weights[n - 1] / a_total), rel=1e-12
        )
        assert geom.probabilities[n - 1] == pytest.approx(
            g_weights[n - 1] / g_total, rel=1e-12
        )


# ------------------------------------------------------ counting exact


@pytest.mark.parametrize(
    "n, m, expected",
    [(1, 19, 11), (9, 9999, 1111), (3, 2, 0), (1, 1, 1), (9, 8, 0), (2, 25, 7)],
)
def test_leading_digit_count_known_values(n, m, expected):
    assert leading_digit_count(n, m) == expected


def test_leading_digit_count_equals_enumeration_for_small_segments():
    for base in (2, 3, 10, 16):
        counts = [0] * base
        for m in range(1, 2001):
            counts[brute_first_digit(m, base)] += 1
            for n in range(1, base):
                assert leading_digit_count(n, m, base) == counts[n]


def test_leading_digit_count_rejects_bad_m():
    for bad in (0, -1, True, 2.0):
        with pytest.raises((DomainError, TypeError)):
            leading_digit_count(1, bad)


def test_exact_frequency_reference_fractions():
    assert exact_frequency(1, 1999) == Fraction(1111, 1999)
    assert exact_frequency(5, 49) == Fraction(1, 49)
    assert exact_frequency(2, 19) == Fraction(1, 19)
    assert exact_frequency(1, 999) == Fraction(1, 9)  # 111/999 in lowest terms


def test_exact_frequency_coheres_with_extremal_formula():
    for n in (1, 2, 5, 9):
        for k in range(1, 7):
            assert (
                exact_frequency(n, n * 10**k - 1)
                == extremal_frequency(n, k, KIND_MIN).value
            )
            assert (
                exact_frequency(n, (n + 1) * 10**k - 1)
                == extremal_frequency(n, k, KIND_MAX).value
            )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_frequency_series_points_equal_the_exact_counts(data):
    radix = data.draw(st.integers(2, 36), label="radix")
    n = data.draw(st.integers(1, radix - 1), label="n")
    m_max = data.draw(st.integers(1, 2000), label="m_max")
    ms = []
    for m, count, num, den, value in frequency_series(n, m_max, radix):
        ms.append(m)
        exact = Fraction(count, m)
        assert count == leading_digit_count(n, m, radix)
        assert (num, den) == (exact.numerator, exact.denominator)
        assert type(value) is float and value == float(exact)
    assert ms == list(range(1, m_max + 1))


def test_frequency_series_starts_right_past_one_word():
    first = list(itertools.islice(frequency_series(1, 10**30), 120))
    assert first == list(frequency_series(1, 120))
    assert first[:3] == [(1, 1, 1, 1, 1.0), (2, 1, 1, 2, 0.5), (3, 1, 1, 3, 1 / 3)]


def test_frequency_series_checks_its_arguments_at_the_call():
    for args in ((0, 10), (10, 10), (1, 0)):
        with pytest.raises(DigitLawError):
            frequency_series(*args)


# -------------------------------------------------- extremum locations


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_extrema_within_are_the_strict_local_extrema_of_the_series(data):
    """Every strict local minimum and maximum of count(m)/m, found by
    enumeration over 1 < m <= m_max, is an extremum in range, and no other.
    The one exception is m = n: for n >= 2 the frequency jumps from 0 to
    1/n there and falls after, a peak the paper's k >= 1 does not count.
    """
    radix = data.draw(st.integers(2, 36), label="radix")
    n = data.draw(st.integers(1, radix - 1), label="n")
    m_max = data.draw(st.integers(1, 2000), label="m_max")
    counts = [0]
    for i in range(1, m_max + 2):
        counts.append(counts[-1] + (brute_first_digit(i, radix) == n))
    f = [None] + [Fraction(counts[m], m) for m in range(1, m_max + 2)]
    expected = {KIND_MIN: [], KIND_MAX: []}
    for m in range(2, m_max + 1):
        if f[m - 1] > f[m] < f[m + 1]:
            expected[KIND_MIN].append(m)
        elif f[m - 1] < f[m] > f[m + 1] and m != n:
            expected[KIND_MAX].append(m)
    extrema = extrema_within(n, m_max, radix)
    for kind in (KIND_MIN, KIND_MAX):
        found = [e for e in extrema if e.kind == kind]
        assert [e.location_m for e in found] == expected[kind]
        assert [e.k for e in found] == list(range(1, len(found) + 1))
        assert all(e.value == f[e.location_m] for e in found)
    assert [e.location_m for e in extrema] == sorted(e.location_m for e in extrema)


def test_extrema_within_base_two_and_bad_arguments():
    assert extrema_within(1, 10**30, 2) == ()
    assert extrema_within(1, 8) == ()
    assert [e.location_m for e in extrema_within(1, 19)] == [9, 19]
    for args in ((0, 10), (1, 0), (1, 10, 37)):
        with pytest.raises(DomainError):
            extrema_within(*args)



def test_extremum_locations_reference_patterns():
    assert extremum_locations(1, 3) == ((9, 19), (99, 199), (999, 1999))
    assert extremum_locations(5, 3) == ((49, 59), (499, 599), (4999, 5999))
    assert extremum_locations(9, 2) == ((89, 99), (899, 999))
    assert extremum_locations(1, 3, 2) == ()
    assert extremum_locations(2, 2, 16) == ((31, 47), (511, 767))


def test_extremum_locations_are_genuine_local_extrema():
    """Neighbour check against enumeration: strictly lower than both
    neighbours at a minimum, strictly higher at a maximum."""
    for base in (10, 16):
        for n in (1, 2, base - 1):
            for m_min, m_max in extremum_locations(n, 2, base):
                for loc, is_min in ((m_min, True), (m_max, False)):
                    here = Fraction(brute_count(n, loc, base), loc)
                    before = Fraction(brute_count(n, loc - 1, base), loc - 1)
                    after = Fraction(brute_count(n, loc + 1, base), loc + 1)
                    if is_min:
                        assert before > here < after
                    else:
                        assert before < here > after


def test_extrema_reach_past_one_word():
    assert extremum_locations(1, 100)[-1] == (10**100 - 1, 2 * 10**100 - 1)
    extrema = extrema_within(1, 10**19)
    assert len(extrema) == 37 and extrema[-1].location_m == 10**19 - 1
    assert extrema[-1].value == Fraction(1, 9)


def test_extremum_locations_in_base_two_build_no_power():
    tracemalloc.start()
    try:
        assert extremum_locations(1, 10**9, 2) == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 2**(10**9) alone would take 125 MB


# ------------------------------------------------------------ word width


def test_leading_digit_count_is_exact_past_one_word():
    """Every width-j block holds N^(j-1) integers led by n, so below N^k
    there are (N^k - 1) / (N - 1), whatever n is."""
    for base in (2, 3, 10, 16, 36):
        for n in sorted({1, base - 1}):
            for k in range(1, 201):
                m = base**k - 1
                assert leading_digit_count(n, m, base) == m // (base - 1), (base, n, k)
    assert leading_digit_count(1, 10**30) == (10**30 - 1) // 9 + 1


# -------------------------------------------------------------- bounds


def test_bounds_pass_for_all_three_laws_in_small_bases():
    for base in range(2, 17):
        for law in (benford, geometric_mean_distribution, arithmetic_mean_distribution):
            assert all(entry.within for entry in bounds_check(law(base)))


def test_bounds_formulas_per_digit():
    report = bounds_check(benford(10))
    for entry in report:
        assert entry.lower == Fraction(1, 9 * entry.digit)
        assert entry.upper == Fraction(10, 9 * (entry.digit + 1))


def test_uniform_distribution_sits_exactly_on_the_digit_one_bound():
    uniform = DigitDistribution(10, tuple([1 / 9] * 9))
    report = bounds_check(uniform)
    assert all(e.within for e in report)
    first = report[0]
    assert first.lower == Fraction(1, 9)
    assert first.probability == 1 / 9
    assert first.within


def test_overweighted_digit_one_violates_the_upper_bound():
    skewed = DigitDistribution(10, (0.8,) + (0.025,) * 8)
    report = bounds_check(skewed)
    assert not all(e.within for e in report)
    assert not report[0].within
    assert report[0].upper == Fraction(10, 18)
    assert any(e.digit == 1 and not e.within for e in report)


def test_within_is_derived_from_the_entry_bounds():
    inside = DigitBounds(1, Fraction(1, 9), 0.3, Fraction(5, 9))
    assert inside.within
    assert not DigitBounds(1, Fraction(1, 9), 0.6, Fraction(5, 9)).within
    # the float-rounded bound itself counts as within
    assert DigitBounds(1, Fraction(1, 9), 1 / 9, Fraction(5, 9)).within
    # no stored flag can contradict the bounds it summarizes
    with pytest.raises(TypeError):
        DigitBounds(1, Fraction(1, 9), 0.6, Fraction(5, 9), True)


def test_base_two_bounds_collapse_to_certainty():
    report = bounds_check(benford(2))
    (entry,) = report
    assert entry.lower == entry.upper == Fraction(1)
    assert entry.within


# ------------------------------------------- DigitDistribution hygiene


def test_distribution_rejects_wrong_shape_and_mass():
    with pytest.raises(DomainError):
        DigitDistribution(10, (0.5, 0.5))
    with pytest.raises(DomainError):
        DigitDistribution(10, (1.2,) + (-0.025,) * 8)
    with pytest.raises(DomainError):
        DigitDistribution(10, tuple([0.1] * 9))  # sums to 0.9


def test_distribution_base_is_a_plain_int():
    assert DigitDistribution(10, tuple([1 / 9] * 9)).base == 10
    assert all(e.within for e in bounds_check(DigitDistribution(3, (0.5, 0.5))))
    for law in (benford, geometric_mean_distribution, arithmetic_mean_distribution):
        assert type(law(16).base) is int
    assert repr(benford(3)).startswith("DigitDistribution(base=3, ")
    with pytest.raises(DomainError, match=r"^base must be an integer, got True$"):
        DigitDistribution(True, (1.0,))
    with pytest.raises(DomainError, match=r"^base must be in \[2, 36\], got 37$"):
        benford(37)


def test_distribution_rejects_nan_probabilities():
    # NaN fails every comparison, so it must be caught by one that passes
    for probs in ((math.nan, 0.5), (0.5, math.nan)):
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
            DigitDistribution(3, probs)


def test_law_labels_enforce_strict_decrease():
    increasing = tuple(n / 45 for n in range(1, 10))
    with pytest.raises(DomainError):
        DigitDistribution(10, increasing, "benford")
    # the same shape is fine without a law label
    DigitDistribution(10, increasing, "custom")
    DigitDistribution(10, increasing, "empirical")
