"""Leading-digit extraction checked against string-render oracles."""

import itertools
import math
import random
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from digitlaw.digits import (
    NUMERAL_RE,
    check_base,
    check_digit,
    leading_digit_int,
    leading_digit_real,
    leading_digit_text,
)
from digitlaw.errors import DomainError, ParseError


# ------------------------------------------------------------- oracles


def first_digit_by_rendering(m: int, base: int) -> int:
    """Independent reference: render m in the base, read the first digit.

    Uses CPython's own base renderers where they exist so the oracle
    shares no code with the implementation under test.
    """
    if base == 10:
        return int(str(m)[0])
    if base == 2:
        return int(bin(m)[2])
    if base == 8:
        return int(oct(m)[2])
    if base == 16:
        return int(hex(m)[2], 16)
    digits = []
    while m:
        m, r = divmod(m, base)
        digits.append(r)
    return digits[-1]


def safe_significand(rng: random.Random, base: int) -> float:
    """A value in [1, base) that no reasonable float scaling can push
    across a power-of-base boundary (its significand is rounded to a few
    digits, so it sits far from both 1 and base)."""
    while True:
        s = round(rng.uniform(1.05, base - 0.05), 6)
        if s >= 1.05 and int(s) != s:
            return s


# ----------------------------------------- check_base and check_digit


def test_base_accepts_the_full_range():
    for base in range(2, 37):
        checked = check_base(base)
        assert checked == base and type(checked) is int


@pytest.mark.parametrize("bad", [1, 0, -2, 37, 100, True, False, 10.0, "10"])
def test_base_rejects_out_of_range_and_non_int(bad):
    if type(bad) is int:
        message = f"base must be in [2, 36], got {bad}"
    else:
        message = f"base must be an integer, got {bad!r}"
    with pytest.raises(DomainError) as info:
        check_base(bad)
    assert str(info.value) == message


def test_digit_range_is_one_to_base_minus_one():
    assert check_digit(1, 10) == 1
    assert check_digit(9, 10) == 9
    assert check_digit(35, 36) == 35
    for bad in (0, 10, -1, True, 1.0, "1"):
        with pytest.raises(DomainError):
            check_digit(bad, 10)
    message = r"^digit must be in \[1, 9\] for base 10, got 12$"
    with pytest.raises(DomainError, match=message):
        check_digit(12, 10)


def test_the_radix_has_one_public_form():
    import digitlaw

    assert "check_base" in digitlaw.__all__
    assert digitlaw.check_base is check_base
    for gone in ("Base", "as_base"):
        assert gone not in digitlaw.__all__
        assert not hasattr(digitlaw, gone)


def test_checkers_accept_ints_and_reject_mismatched_bases():
    assert check_digit(3, 10) == 3
    # a digit is a plain int, checked only against the base it is given
    assert check_digit(leading_digit_int(0xA5, 16), 16) == 10
    with pytest.raises(DomainError):
        check_digit(leading_digit_int(0xA5, 16), 10)
    with pytest.raises(DomainError):
        check_digit(3, 37)


# ------------------------------------------------------------ integers


@pytest.mark.parametrize(
    "m, base, expected",
    [(199, 10, 1), (89, 10, 8), (5, 2, 1), (1, 10, 1), (9, 10, 9), (255, 16, 15), (0xA5, 16, 10)],
)
def test_leading_digit_int_known_values(m, base, expected):
    assert leading_digit_int(m, base) == expected


@pytest.mark.parametrize("bad", [0, -1, -199, True, False, 1.0, "9"])
def test_leading_digit_int_rejects_nonpositive_and_non_int(bad):
    with pytest.raises(DomainError):
        leading_digit_int(bad)


def test_leading_digit_int_matches_rendering_exhaustively():
    # cheap string oracles allow a dense sweep in these bases
    for m in range(1, 10**5 + 1):
        assert leading_digit_int(m, 10) == first_digit_by_rendering(m, 10)
    for base in (2, 8, 16):
        for m in range(1, 10**4 + 1):
            assert leading_digit_int(m, base) == first_digit_by_rendering(m, base)
    for m in range(1, 10**4 + 1):
        assert leading_digit_int(m, 3) == first_digit_by_rendering(m, 3)


def test_leading_digit_int_matches_rendering_sampled_high():
    rng = random.Random(401)
    for _ in range(20000):
        base = rng.choice((2, 3, 8, 10, 16, 36))
        m = rng.randrange(1, 10**6 + 1)
        assert leading_digit_int(m, base) == first_digit_by_rendering(m, base)


# --------------------------------------------------------------- reals


@pytest.mark.parametrize(
    "x, base, expected",
    [
        (0.00456, 10, 4),
        (0.125, 2, 1),
        (999.9999999, 10, 9),
        (123.456, 10, 1),
        (-0.07, 10, 7),
        (1.0, 10, 1),
        (0.3, 10, 3),
    ],
)
def test_leading_digit_real_known_values(x, base, expected):
    assert leading_digit_real(x, base) == expected


def test_leading_digit_real_boundary_guard():
    # products that float arithmetic leaves a hair under a power of ten
    assert leading_digit_real(1000 * 0.001) == 1
    assert leading_digit_real(0.1 + 0.1 + 0.1) == 3


@pytest.mark.parametrize("bad", [0.0, -0.0, float("nan"), float("inf"), float("-inf")])
def test_leading_digit_real_rejects_zero_and_nonfinite(bad):
    with pytest.raises(DomainError):
        leading_digit_real(bad)


def test_leading_digit_real_sign_invariance():
    rng = random.Random(402)
    for _ in range(2000):
        x = safe_significand(rng, 10) * 10.0 ** rng.randrange(-12, 13)
        assert leading_digit_real(x) == leading_digit_real(-x)


def test_leading_digit_real_scale_by_radix_invariance():
    rng = random.Random(403)
    for _ in range(2000):
        x = safe_significand(rng, 10)
        expected = leading_digit_real(x)
        for e in (-8, -3, -1, 1, 4, 9):
            assert leading_digit_real(x * 10.0**e) == expected


def test_leading_digit_real_scale_invariance_is_exact_in_base_two():
    # ldexp scaling is lossless, so every exponent must agree
    rng = random.Random(404)
    for _ in range(2000):
        mantissa = rng.uniform(1.0, 2.0)
        expected = leading_digit_real(mantissa, 2)
        assert expected == 1
        for e in range(-60, 61, 7):
            assert leading_digit_real(math.ldexp(mantissa, e), 2) == expected


def test_leading_digit_real_agrees_with_int_extractor():
    rng = random.Random(405)
    for _ in range(3000):
        m = rng.randrange(1, 10**8)
        assert leading_digit_real(float(m)) == leading_digit_int(m)


# ---------------------------------------------------------------- text


@pytest.mark.parametrize(
    "token, expected",
    [
        ("-19", 1),
        ("0.00456e+7", 4),
        ("+.5", 5),
        ("1.", 1),
        ("1e5", 1),
        ("007", 7),
        ("-0.0032E-12", 3),
        ("999999", 9),
    ],
)
def test_leading_digit_text_reads_the_printed_digit(token, expected):
    digit = leading_digit_text(token)
    assert digit is not None and digit == expected


@pytest.mark.parametrize("token", ["0", "0.000", "0e9", "+0.0", "-0"])
def test_leading_digit_text_all_zero_tokens_have_no_digit(token):
    assert leading_digit_text(token) is None


@pytest.mark.parametrize(
    "token", ["", "abc", "1.2.3", "0x10", "1_000", "nan", "inf", "1e", "--1", "1 2"]
)
def test_leading_digit_text_rejects_malformed_tokens(token):
    with pytest.raises(ParseError):
        leading_digit_text(token)


# An ambiguous spelling of the numeral grammar, [0-9]+\.?[0-9]* splitting
# a digit run anywhere: the same language as NUMERAL_RE, matched slowly.
AMBIGUOUS_NUMERAL_RE = re.compile(
    r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
)


def test_numeral_grammar_accepts_the_language_of_its_ambiguous_form():
    strings = [
        "".join(chars)
        for length in range(7)
        for chars in itertools.product("01.e+-", repeat=length)
    ]
    assert len(strings) == 55_987
    for text in strings:
        assert bool(NUMERAL_RE.fullmatch(text)) == bool(
            AMBIGUOUS_NUMERAL_RE.fullmatch(text)
        ), text


def test_a_long_junk_token_is_rejected_in_linear_time():
    # 200,000 digits and a stray letter: the ambiguous grammar needs time
    # quadratic in the length to give up on it
    token = "1" * 200_000 + "x"
    started = time.perf_counter()
    with pytest.raises(ParseError):
        leading_digit_text(token)
    assert time.perf_counter() - started < 2.0


def test_text_and_real_extractors_agree_on_clean_tokens():
    """Tokens with short significands parse to floats without rounding at
    the first digit, so both extraction routes must give the same answer."""
    rng = random.Random(406)
    for _ in range(3000):
        sig = round(rng.uniform(1.0000001, 9.9999), 6)
        e = rng.randrange(-15, 16)
        token = f"{sig:.6f}e{e}"
        expected = int(str(sig)[0])
        digit = leading_digit_text(token)
        assert digit is not None and digit == expected
        assert leading_digit_real(float(token)) == expected


# ------------------------------------------------- shared digit table


@given(
    m=st.integers(min_value=1, max_value=10**60),
    k=st.integers(min_value=-400, max_value=400),
    zeros=st.integers(min_value=0, max_value=20),
)
def test_text_route_matches_int_route(m, k, zeros):
    expected = leading_digit_int(m)
    assert leading_digit_text(str(m)) == expected
    assert leading_digit_text(f"{m}e{k}") == expected
    assert leading_digit_text(f"-0.{'0' * zeros}{m}") == expected


@st.composite
def digit_runs(draw):
    """(n, N, k, r) with n*N**k + r in the run of base-N integers led by n."""
    radix = draw(st.integers(min_value=2, max_value=36))
    n = draw(st.integers(min_value=1, max_value=radix - 1))
    k = draw(st.integers(min_value=0, max_value=80))
    r = draw(st.integers(min_value=0, max_value=radix**k - 1))
    return n, radix, k, r


@given(digit_runs())
def test_int_route_reads_the_leading_digit_of_every_run(run):
    n, radix, k, r = run
    assert leading_digit_int(n * radix**k + r, radix) == n


@pytest.mark.parametrize("radix", [10, 16])
def test_int_route_at_twenty_thousand_digits(radix):
    power = radix**20000
    for n in range(1, radix):
        for r in (0, 1, power // 2, power - 1):
            assert leading_digit_int(n * power + r, radix) == n
