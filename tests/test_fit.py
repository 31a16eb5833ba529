"""Conformance statistics against hand-rolled textbook evaluations."""

import math
import random
import statistics

import pytest
from hypothesis import assume, given, strategies as st

from digitlaw.empirical import SampleSummary, empirical_distribution, tally
from digitlaw.errors import (
    DegenerateBaseError,
    DegenerateExpectationError,
    EmptySampleError,
    UndefinedCorrelationError,
    UsageError,
)
from digitlaw.fit import (
    CandidateScore,
    chi_square,
    compare,
    mad,
    max_abs_dev,
    pearson_r,
)
from digitlaw.lawtheory import (
    DigitDistribution,
    arithmetic_mean_distribution,
    benford,
    geometric_mean_distribution,
    leading_digit_count,
)


# ------------------------------------------------------------- oracles


def textbook_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def textbook_chi_square(counts, used, probs):
    return sum(
        (obs - used * p) ** 2 / (used * p) for obs, p in zip(counts, probs)
    )


def full_sample(counts):
    """A base-10 summary in which every value read contributed a digit."""
    counts = tuple(counts)
    return SampleSummary(
        base=10,
        counts=counts,
        skipped_zero=0,
        skipped_nonfinite=0,
    )


def random_distribution(rng, base=10):
    weights = [rng.uniform(0.05, 1.0) for _ in range(base - 1)]
    total = math.fsum(weights)
    return DigitDistribution(base, tuple(w / total for w in weights))


# ------------------------------------------------------------- pearson


def test_pearson_self_correlation_is_one():
    assert pearson_r(benford(10), benford(10)) == 1.0


def test_pearson_geometric_mean_tracks_benford_tightly():
    assert pearson_r(geometric_mean_distribution(10), benford(10)) >= 0.9999


def test_pearson_matches_textbook_formula():
    rng = random.Random(601)
    for _ in range(100):
        a, b = random_distribution(rng), random_distribution(rng)
        expected = textbook_pearson(a.probabilities, b.probabilities)
        assert pearson_r(a, b) == pytest.approx(expected, rel=1e-9)


def test_pearson_is_symmetric():
    rng = random.Random(602)
    for _ in range(50):
        a, b = random_distribution(rng), random_distribution(rng)
        assert pearson_r(a, b) == pytest.approx(pearson_r(b, a), rel=1e-12)


def test_pearson_is_permutation_covariant():
    rng = random.Random(603)
    a, b = random_distribution(rng), random_distribution(rng)
    baseline = pearson_r(a, b)
    order = list(range(9))
    for _ in range(10):
        rng.shuffle(order)
        pa = DigitDistribution(10, tuple(a.probabilities[i] for i in order))
        pb = DigitDistribution(10, tuple(b.probabilities[i] for i in order))
        assert pearson_r(pa, pb) == pytest.approx(baseline, rel=1e-12)


def test_pearson_rejects_degenerate_inputs():
    uniform = DigitDistribution(10, tuple([1 / 9] * 9))
    with pytest.raises(UndefinedCorrelationError):
        pearson_r(uniform, benford(10))
    with pytest.raises(UndefinedCorrelationError):
        pearson_r(benford(10), uniform)
    with pytest.raises(DegenerateBaseError):
        pearson_r(benford(2), benford(2))
    with pytest.raises(UsageError):
        pearson_r(benford(10), benford(16))


@st.composite
def distribution_pairs(draw):
    """Two same-base distributions from non-negative weights, zeros included."""
    radix = draw(st.integers(min_value=3, max_value=36))
    pair = []
    for _ in range(2):
        weights = draw(
            st.lists(st.floats(0.0, 1.0), min_size=radix - 1, max_size=radix - 1)
        )
        total = math.fsum(weights)
        assume(total > 0.0)
        pair.append(DigitDistribution(radix, tuple(w / total for w in weights)))
    return pair


@given(distribution_pairs())
def test_pearson_agrees_with_the_statistics_module(pair):
    a, b = pair
    try:
        expected = statistics.correlation(a.probabilities, b.probabilities)
    except statistics.StatisticsError:
        with pytest.raises(UndefinedCorrelationError):
            pearson_r(a, b)
        return
    # statistics.correlation changed its arithmetic across Python versions
    assert abs(pearson_r(a, b) - max(-1.0, min(1.0, expected))) <= 4 * math.ulp(1.0)


def test_pearson_stays_inside_unit_interval():
    rng = random.Random(604)
    for _ in range(200):
        r = pearson_r(random_distribution(rng), random_distribution(rng))
        assert -1.0 <= r <= 1.0


# ---------------------------------------------------------- chi-square


def test_chi_square_is_zero_for_a_perfectly_proportional_sample():
    summary = full_sample((1,) * 9)
    uniform = DigitDistribution(10, tuple([1 / 9] * 9))
    statistic, dof = chi_square(summary, uniform)
    assert statistic == 0.0
    assert dof == 8


def test_chi_square_of_a_sample_against_its_own_distribution():
    summary = tally(range(1, 2000))
    statistic, _ = chi_square(summary, empirical_distribution(summary))
    assert statistic == 0.0


def test_chi_square_self_fit_residue_is_negligible_in_general():
    # float rounding can leave a speck when counts/used is not exactly
    # representable; it must stay many orders below any usable signal
    rng = random.Random(605)
    for _ in range(100):
        counts = tuple(rng.randrange(1, 500) for _ in range(9))
        summary = full_sample(counts)
        statistic, _ = chi_square(summary, empirical_distribution(summary))
        assert statistic < 1e-20


def test_chi_square_matches_textbook_evaluation():
    counts = tuple(leading_digit_count(n, 999) for n in range(1, 10))
    summary = full_sample(counts)
    for candidate in (benford(10), geometric_mean_distribution(10)):
        statistic, dof = chi_square(summary, candidate)
        expected = textbook_chi_square(counts, 999, candidate.probabilities)
        assert statistic == pytest.approx(expected, rel=1e-12)
        assert dof == 8


def test_chi_square_rejects_empty_samples_and_zero_expectations():
    empty = full_sample((0,) * 9)
    with pytest.raises(EmptySampleError):
        chi_square(empty, benford(10))
    summary = full_sample((1,) * 9)
    with_zero = DigitDistribution(10, (0.2, 0.2, 0.2, 0.2, 0.2, 0, 0, 0, 0))
    with pytest.raises(DegenerateExpectationError):
        chi_square(summary, with_zero)
    with pytest.raises(UsageError):
        chi_square(summary, benford(16))


def test_chi_square_base_two_degenerates_to_zero():
    summary = tally([3, 5, 9], 2)
    statistic, dof = chi_square(summary, benford(2))
    assert statistic == 0.0
    assert dof == 0


# --------------------------------------------------------- deviations


def test_mad_of_identical_distributions_is_zero():
    assert mad(benford(10), benford(10)) == 0.0
    assert max_abs_dev(benford(10), benford(10)) == 0.0


def test_mad_reference_gaps_between_the_laws():
    geom, arith, b = (
        geometric_mean_distribution(10),
        arithmetic_mean_distribution(10),
        benford(10),
    )
    assert mad(geom, b) <= 0.002
    assert max_abs_dev(geom, b) <= 0.004
    assert max_abs_dev(arith, b) == pytest.approx(0.0298, abs=5e-4)


def test_mad_matches_direct_means_and_never_exceeds_max():
    rng = random.Random(606)
    for _ in range(100):
        a, b = random_distribution(rng), random_distribution(rng)
        gaps = [abs(x - y) for x, y in zip(a.probabilities, b.probabilities)]
        assert mad(a, b) == pytest.approx(sum(gaps) / 9, rel=1e-12)
        assert max_abs_dev(a, b) == pytest.approx(max(gaps), rel=1e-15)
        assert max_abs_dev(a, b) >= mad(a, b)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("r", math.nan),
        ("r", 1.5),
        ("chi_square", math.nan),
        ("chi_square", -1.0),
        ("mad", math.nan),
        ("max_abs_dev", math.nan),
        ("max_abs_dev", 0.001),
    ],
)
def test_candidate_score_rejects_nan_and_out_of_range_statistics(field, bad):
    fields = dict(
        label="benford", r=0.5, chi_square=1.0, chi_square_dof=8, mad=0.01, max_abs_dev=0.02
    )
    CandidateScore(**fields)
    fields[field] = bad
    with pytest.raises(UsageError):
        CandidateScore(**fields)


def test_mad_requires_matching_bases():
    with pytest.raises(UsageError):
        mad(benford(10), benford(16))
    with pytest.raises(UsageError):
        max_abs_dev(benford(10), benford(16))


# -------------------------------------------------------------- compare


def _standard_candidates():
    return [benford(10), geometric_mean_distribution(10), arithmetic_mean_distribution(10)]


def test_compare_full_segment_report():
    summary = tally(range(1, 2000))
    report = compare(summary, _standard_candidates())
    assert [e.label for e in report.entries] == ["benford", "geom", "arith"]
    assert report.empirical.probabilities[0] == 1111 / 1999
    assert report.sample is summary
    assert all(e.within for e in report.bounds) is False  # extremal segment pokes past limits
    assert report.best_by_r in {"benford", "geom", "arith"}
    for entry in report.entries:
        assert -1.0 <= entry.r <= 1.0
        assert entry.chi_square >= 0.0
        assert entry.max_abs_dev >= entry.mad >= 0.0
        assert entry.chi_square_dof == 8


def test_compare_identical_candidate_wins_outright():
    summary = tally(range(1, 2000))
    twin = DigitDistribution(
        10, empirical_distribution(summary).probabilities, "custom"
    )
    report = compare(summary, [benford(10), twin])
    twin_entry = report.entries[1]
    assert twin_entry.r == 1.0
    assert twin_entry.chi_square == 0.0
    assert twin_entry.mad == 0.0
    assert report.best_by_r == "custom"


def test_compare_breaks_ties_by_candidate_order():
    summary = tally(range(1, 2000))
    emp = empirical_distribution(summary).probabilities
    first = DigitDistribution(10, emp, "alpha")
    second = DigitDistribution(10, emp, "beta")
    report = compare(summary, [first, second])
    assert report.best_by_r == "alpha"


def test_compare_rejects_bad_inputs():
    summary = tally(range(1, 2000))
    with pytest.raises(UsageError):
        compare(summary, [])
    with pytest.raises(UsageError):
        compare(summary, [benford(16)])
    empty = full_sample((0,) * 9)
    with pytest.raises(EmptySampleError):
        compare(empty, [benford(10)])


def test_compare_propagates_degenerate_statistics():
    # a perfectly uniform sample has zero variance across digits
    uniform_sample = full_sample((7,) * 9)
    with pytest.raises(UndefinedCorrelationError):
        compare(uniform_sample, [benford(10)])
    base2 = tally([1, 2, 3], 2)
    with pytest.raises(DegenerateBaseError):
        compare(base2, [benford(2)])


def test_compare_statistics_are_permutation_covariant():
    rng = random.Random(607)
    counts = tuple(rng.randrange(5, 300) for _ in range(9))
    summary = full_sample(counts)
    candidate = random_distribution(rng)
    baseline = compare(summary, [candidate]).entries[0]
    order = list(range(9))
    rng.shuffle(order)
    permuted_summary = full_sample(counts[i] for i in order)
    permuted_candidate = DigitDistribution(
        10, tuple(candidate.probabilities[i] for i in order)
    )
    permuted = compare(permuted_summary, [permuted_candidate]).entries[0]
    assert permuted.r == pytest.approx(baseline.r, rel=1e-12)
    assert permuted.chi_square == pytest.approx(baseline.chi_square, rel=1e-12)
    assert permuted.mad == pytest.approx(baseline.mad, rel=1e-12)
    assert permuted.max_abs_dev == pytest.approx(baseline.max_abs_dev, rel=1e-12)
