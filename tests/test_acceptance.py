"""Acceptance gate: ten end-to-end checks, one verdict line each.

Every test prints `criterion N: PASS ...` or `criterion N: FAIL ...` so
the gate can be read off a `pytest -v -s tests/test_acceptance.py` run at
a glance.  Reference values are pinned as module constants; stated
runtime budgets are asserted, not aspirational.
"""

import json
import math
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import digitlaw as dl


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {label}")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS - {label} ({elapsed:.2f}s)")


# ----------------------------------------------------------- constants

# Reference 4-significant-digit values for base 10.  One value (arith,
# n=1) reads 0.2712 where rounding would give 0.2713, so each comparison
# accepts either rounding mode at the displayed precision.
PRINTED_BENFORD = ["0.3010", "0.1761", "0.1249", "0.09691", "0.07918",
                   "0.06695", "0.05799", "0.05115", "0.04576"]
PRINTED_GEOM = ["0.3046", "0.1759", "0.1244", "0.09632", "0.07865",
                "0.06647", "0.05756", "0.05077", "0.04541"]
PRINTED_ARITH = ["0.2712", "0.1733", "0.1281", "0.1017", "0.08439",
                 "0.07212", "0.06297", "0.05589", "0.05023"]

# (digit n, segment limit m, count p, frequency p/m, extremum index k, kind)
REFERENCE_ROWS = [
    (1, 9, 1, Fraction(1, 9), 1, "min"),
    (1, 19, 11, Fraction(11, 19), 1, "max"),
    (1, 99, 11, Fraction(11, 99), 2, "min"),
    (1, 199, 111, Fraction(111, 199), 2, "max"),
    (1, 999, 111, Fraction(111, 999), 3, "min"),
    (1, 1999, 1111, Fraction(1111, 1999), 3, "max"),
    (5, 49, 1, Fraction(1, 49), 1, "min"),
    (5, 59, 11, Fraction(11, 59), 1, "max"),
    (5, 499, 11, Fraction(11, 499), 2, "min"),
    (5, 599, 111, Fraction(111, 599), 2, "max"),
    (5, 4999, 111, Fraction(111, 4999), 3, "min"),
    (5, 5999, 1111, Fraction(1111, 5999), 3, "max"),
    (9, 89, 1, Fraction(1, 89), 1, "min"),
    (9, 99, 11, Fraction(11, 99), 1, "max"),
    (9, 899, 11, Fraction(11, 899), 2, "min"),
    (9, 999, 111, Fraction(111, 999), 2, "max"),
    (9, 8999, 111, Fraction(111, 8999), 3, "min"),
    (9, 9999, 1111, Fraction(1111, 9999), 3, "max"),
]

LOGNORMAL_SEED = 20160309
LOGNORMAL_DRAWS = 10**5
UNIFORM_SEED = 777
UNIFORM_DRAWS = 10**5


def sig4_round(x: float) -> float:
    exponent = math.floor(math.log10(abs(x)))
    quantum = 10.0 ** (exponent - 3)
    return round(x / quantum) * quantum


def sig4_truncate(x: float) -> float:
    exponent = math.floor(math.log10(abs(x)))
    quantum = 10.0 ** (exponent - 3)
    return math.floor(x / quantum) * quantum


def oracle_first_digit(m: int, base: int) -> int:
    if base == 10:
        return int(str(m)[0])
    if base == 2:
        return 1
    if base == 8:
        return int(oct(m)[2])
    if base == 16:
        return int(hex(m)[2], 16)
    digits = []
    while m:
        m, r = divmod(m, base)
        digits.append(r)
    return digits[-1]


def test_criterion_01_reference_law_values_reproduced():
    with criterion(1, "all 27 reference 4-digit law values reproduced"):
        started = time.perf_counter()
        computed = {
            "benford": dl.benford(10).probabilities,
            "geom": dl.geometric_mean_distribution(10).probabilities,
            "arith": dl.arithmetic_mean_distribution(10).probabilities,
        }
        printed = {"benford": PRINTED_BENFORD, "geom": PRINTED_GEOM,
                   "arith": PRINTED_ARITH}
        for label, values in computed.items():
            for n, value in enumerate(values, start=1):
                shown = float(printed[label][n - 1])
                quantum = 10.0 ** (math.floor(math.log10(value)) - 3)
                matches_round = abs(shown - sig4_round(value)) < quantum * 1e-6
                matches_trunc = abs(shown - sig4_truncate(value)) < quantum * 1e-6
                assert matches_round or matches_trunc, (label, n, shown, value)
        assert time.perf_counter() - started < 1.0


def test_criterion_02_reference_segment_rows_exact():
    with criterion(2, "all 18 reference (n, m, p, p/m) rows exact"):
        started = time.perf_counter()
        for n, m, p, frequency, k, kind in REFERENCE_ROWS:
            assert dl.leading_digit_count(n, m) == p, (n, m)
            exact = dl.exact_frequency(n, m)
            assert exact == frequency, (n, m)
            extremum = dl.extremal_frequency(n, k, kind)
            assert extremum.value == frequency
            assert extremum.location_m == m
        # the rows printed with a reduction note really do reduce
        assert dl.exact_frequency(1, 99) == Fraction(1, 9)
        assert dl.exact_frequency(1, 999) == Fraction(1, 9)
        assert time.perf_counter() - started < 1.0


def test_criterion_03_count_equals_enumeration():
    with criterion(3, "closed-form counts equal brute enumeration"):
        started = time.perf_counter()
        counts = [0] * 10
        for m in range(1, 10**5 + 1):
            counts[oracle_first_digit(m, 10)] += 1
            for n in range(1, 10):
                assert dl.leading_digit_count(n, m) == counts[n], (n, m)
        for base in (2, 3, 8, 16):
            per_digit = [0] * base
            for m in range(1, 10**4 + 1):
                per_digit[oracle_first_digit(m, base)] += 1
                for n in range(1, base):
                    assert dl.leading_digit_count(n, m, base) == per_digit[n], (
                        base,
                        n,
                        m,
                    )
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0


def test_criterion_04_extrema_found_by_exhaustive_scan():
    with criterion(4, "scan of m <= 2000 finds exactly the predicted extrema"):
        # For n >= 2 the digit's first appearance at m = n is itself a
        # local maximum (the frequency jumps from 0 to 1/n); it is the
        # k=0 member of the (n+1)*10^k - 1 family since (n+1)*10^0 - 1 = n.
        predicted = {
            1: ({9, 99, 999}, {19, 199, 1999}),
            2: ({19, 199, 1999}, {2, 29, 299}),
            3: ({29, 299}, {3, 39, 399}),
        }
        # frequencies from the independent string oracle
        running = {n: 0 for n in range(1, 10)}
        freq = {n: [None] for n in (1, 2, 3)}  # index by m
        for m in range(1, 2001):
            d = oracle_first_digit(m, 10)
            running[d] += 1
            for n in (1, 2, 3):
                freq[n].append(Fraction(running[n], m))
        for n in (1, 2, 3):
            minima = set()
            maxima = set()
            series = freq[n]
            for m in range(2, 2000):
                if series[m - 1] > series[m] < series[m + 1]:
                    minima.add(m)
                if series[m - 1] < series[m] > series[m + 1]:
                    maxima.add(m)
            expected_minima, expected_maxima = predicted[n]
            assert minima == expected_minima, (n, sorted(minima))
            assert maxima == expected_maxima, (n, sorted(maxima))
            if n >= 2:
                assert series[n] == Fraction(1, n)
            # package predictions agree with the scan, location and value
            for k, (m_min, m_max) in enumerate(dl.extremum_locations(n, 3), 1):
                if m_min <= 1999:
                    assert dl.extremal_frequency(n, k, "min").value == series[m_min]
                if m_max <= 1999:
                    assert dl.extremal_frequency(n, k, "max").value == series[m_max]
        assert all(freq[1][m] == Fraction(1, 9) for m in (9, 99, 999))


def test_criterion_05_limits_reached_monotonically():
    with criterion(5, "k=12 extrema within 1e-9 of limits, approach monotone"):
        for n in range(1, 10):
            lo = Fraction(1, 9 * n)
            hi = Fraction(10, 9 * (n + 1))
            mins = [dl.extremal_frequency(n, k, "min").value for k in range(1, 13)]
            maxs = [dl.extremal_frequency(n, k, "max").value for k in range(1, 13)]
            assert abs(float(mins[-1] - lo)) < 1e-9, n
            assert abs(float(maxs[-1] - hi)) < 1e-9, n
            min_gaps = [abs(v - lo) for v in mins]
            max_gaps = [abs(v - hi) for v in maxs]
            assert all(a >= b for a, b in zip(min_gaps, min_gaps[1:])), n
            assert all(a >= b for a, b in zip(max_gaps, max_gaps[1:])), n
            assert all(a <= b for a, b in zip(mins, mins[1:])), n
            assert all(a >= b for a, b in zip(maxs, maxs[1:])), n


def test_criterion_06_probability_sandwich():
    with criterion(6, "laws pass the per-digit sandwich for bases 2..16"):
        laws = (
            dl.benford,
            dl.geometric_mean_distribution,
            dl.arithmetic_mean_distribution,
        )
        for base in range(2, 17):
            for law in laws:
                report = dl.bounds_check(law(base))
                assert all(e.within for e in report), (law.__name__, base)
        skewed = dl.DigitDistribution(10, (0.8,) + (0.025,) * 8)
        report = dl.bounds_check(skewed)
        assert not all(e.within for e in report)
        assert not report[0].within
        assert all(entry.within for entry in report[4:])


def test_criterion_07_binary_degeneracy():
    with criterion(7, "base 2 collapses every law and extremum to certainty"):
        assert dl.benford(2).probabilities == (1.0,)
        assert dl.geometric_mean_distribution(2).probabilities == (1.0,)
        assert dl.arithmetic_mean_distribution(2).probabilities == (1.0,)
        for k in (1, 2, 5, 9):
            assert dl.extremal_frequency(1, k, "min", 2).value == 1
            assert dl.extremal_frequency(1, k, "max", 2).value == 1
        assert dl.limit_frequency(1, "min", 2) == 1
        assert dl.limit_frequency(1, "max", 2) == 1
        assert dl.extremum_locations(1, 5, 2) == ()


def test_criterion_08_mean_laws_hug_the_logarithmic_one():
    with criterion(8, "geom within 0.004 of benford; arith peak gap 0.0298"):
        b = dl.benford(10)
        g = dl.geometric_mean_distribution(10)
        a = dl.arithmetic_mean_distribution(10)
        assert dl.max_abs_dev(g, b) <= 0.004
        assert dl.max_abs_dev(a, b) == pytest.approx(0.0298, abs=5e-4)
        gaps = [abs(x - y) for x, y in zip(a.probabilities, b.probabilities)]
        assert gaps.index(max(gaps)) == 0  # the n=1 cell carries the peak gap


def test_criterion_09a_lognormal_sample_conforms():
    with criterion(9, "(a) seeded lognormal: r >= 0.99, sandwich passes"):
        started = time.perf_counter()
        rng = random.Random(LOGNORMAL_SEED)
        normal = statistics.NormalDist()
        values = [
            math.exp(2.0 * normal.inv_cdf(rng.random()))
            for _ in range(LOGNORMAL_DRAWS)
        ]
        summary = dl.tally(values)
        assert summary.used == LOGNORMAL_DRAWS
        report = dl.compare(
            summary, [dl.benford(10), dl.geometric_mean_distribution(10)]
        )
        for entry in report.entries:
            assert entry.r >= 0.99, (entry.label, entry.r)
        assert all(e.within for e in report.bounds)
        assert time.perf_counter() - started < 5.0


def test_criterion_09b_restricted_uniform_sample_violates():
    with criterion(9, "(b) uniform over 1..999 puts P(1) near 1/9, not 0.30"):
        started = time.perf_counter()
        rng = random.Random(UNIFORM_SEED)
        draws = [rng.randrange(1, 1000) for _ in range(UNIFORM_DRAWS)]
        dist = dl.empirical_distribution(dl.tally(draws))
        assert abs(dist.probabilities[0] - 1 / 9) < 0.01
        # nowhere near the unrestricted logarithmic prediction
        assert abs(dist.probabilities[0] - 0.3010) > 0.15
        assert time.perf_counter() - started < 5.0


def test_criterion_10_cli_end_to_end_deterministic(tmp_path):
    with criterion(10, "CLI analyze reproduces 1111/1999 with identical bytes"):
        data = tmp_path / "segment.txt"
        data.write_text("\n".join(str(i) for i in range(1, 2000)) + "\n")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        argv = [
            sys.executable,
            "-m",
            "digitlaw",
            "analyze",
            "--input",
            str(data),
            "--format",
            "plain",
            "--output",
            "json",
        ]
        run_a = subprocess.run(
            argv + ["--out", str(out_a)], capture_output=True, text=True
        )
        run_b = subprocess.run(
            argv + ["--out", str(out_b)], capture_output=True, text=True
        )
        assert run_a.returncode == 0, run_a.stderr
        assert run_b.returncode == 0, run_b.stderr
        doc_a = json.loads(out_a.read_text())
        doc_b = json.loads(out_b.read_text())
        assert doc_a["result"]["empirical"]["fractions"][0] == {
            "num": 1111,
            "den": 1999,
        }
        assert doc_a["result"]["best_by_r"] == doc_b["result"]["best_by_r"]
        ranked_a = [c["label"] for c in doc_a["result"]["candidates"]]
        ranked_b = [c["label"] for c in doc_b["result"]["candidates"]]
        assert ranked_a == ranked_b == ["benford", "geom", "arith"]
        # byte identity is judged with the meta block removed: it holds
        # the only timing field the interface exempts from determinism
        doc_a.pop("meta")
        doc_b.pop("meta")
        bytes_a = json.dumps(doc_a, sort_keys=True).encode()
        bytes_b = json.dumps(doc_b, sort_keys=True).encode()
        assert bytes_a == bytes_b
