"""Radix-aware extraction of the first significant digit.

Three extractors cover the three ways numbers arrive: exact integers,
binary floating-point values, and decimal text tokens.  The integer path
is exact at any width.  The float path is exact in a power-of-two radix,
where the digit is read from the binary exponent and significand; in any
other radix it scales by the radix and therefore inherits ordinary
rounding fuzz right at digit boundaries.  The text path reads the digit
as printed and is the preferred route for base-10 data, since it cannot
be shifted by parse-time rounding.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Callable

from .errors import DomainError, ParseError

MIN_BASE = 2
# Capped so that every digit of every base has one character in 0-9A-Z.
MAX_BASE = 36

# Optional sign, ASCII digits 0-9 with at most one decimal point (digits
# required on at least one side), optional e/E exponent with optional
# sign.  No other Unicode digits, thousands separators or locale forms.
# Under this grammar only sign, zeros and the point can precede the first
# nonzero digit of the significand, so it is the first character of
# token.lstrip("+-0.") when that character is 1-9.  Over the characters
# of this grammar, float() accepts exactly the strings the pattern
# fullmatches, which ingest relies on to check clean text in C.  The
# pattern must stay unambiguous, matching a string in at most one way: a
# form such as [0-9]+\.?[0-9]* can split a run of digits at any point, so
# rejecting a long junk token, alone or inside the line pattern that
# ingest builds from this one, takes time quadratic in its length.
NUMERAL_RE = re.compile(
    r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
)

# The index into a base-10 count list of each nonzero ASCII digit.
DECIMAL_INDEX = {c: i for i, c in enumerate("123456789")}


def check_base(base: int) -> int:
    """base, once checked to be a radix: an int in [MIN_BASE, MAX_BASE]."""
    if not isinstance(base, int) or isinstance(base, bool):
        raise DomainError(f"base must be an integer, got {base!r}")
    if not MIN_BASE <= base <= MAX_BASE:
        raise DomainError(f"base must be in [{MIN_BASE}, {MAX_BASE}], got {base}")
    return base


def check_digit(n: int, base: int) -> int:
    """n, once checked to be a leading digit of the base: an int in [1, base - 1]."""
    check_base(base)
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"digit must be an integer, got {n!r}")
    if not 1 <= n <= base - 1:
        raise DomainError(
            f"digit must be in [1, {base - 1}] for base {base}, got {n}"
        )
    return n


def leading_digit_int(m: int, base: int = 10) -> int:
    """Most significant digit of a positive integer written in the base.

    Integer arithmetic only, so the result is exact at any width.
    """
    radix = check_base(base)
    if not isinstance(m, int) or isinstance(m, bool) or m <= 0:
        raise DomainError(f"need a positive integer, got {m!r}")
    if m >= radix:
        # One division by radix**e, with e at most log_radix(m) and a step
        # or two short of it, leaves a quotient of a few digits; dividing
        # digit by digit would cost time quadratic in the width.
        e = max(0, int((m.bit_length() - 1) / math.log2(radix)) - 1)
        m //= radix**e
        while m >= radix:
            m //= radix
    return m


# Each power-of-two radix 2**j, with its j: the radices whose digits are
# read from a double's binary exponent and top significand bits exactly.
RADIX_BITS = {2**j: j for j in range(1, 6)}


@functools.cache
def float_digit_rule(radix: int) -> Callable[[float], int]:
    """The float leading-digit rule of a radix, built once per radix.

    The function returned maps a positive finite float, unchecked, to its
    first digit's value.  In a radix 2**j (RADIX_BITS) the digit is exact:
    with m, e = math.frexp(s), s is 2m * 2**(e - 1) with 2m in [1, 2), so
    its digit is int(m * 2**((e - 1) % j + 1)), and scaling by a power of
    two loses nothing.  In any other radix s is scaled into [1, radix) by
    repeated multiplication or division by the radix, then floored; a
    result within 4 ulps under the radix is taken to be the radix itself,
    reached through float rounding (1000 * 0.001 lands a hair below 1),
    and carries to digit 1.
    """
    bits = RADIX_BITS.get(radix)
    if bits is not None:
        frexp = math.frexp

        def exact_digit(s: float) -> int:
            m, e = frexp(s)
            return int(m * (2 << (e - 1) % bits))

        return exact_digit

    n = float(radix)
    carry = n - 4.0 * math.ulp(n)

    def digit(s: float) -> int:
        while s < 1.0:
            s *= n
        while s >= n:
            s /= n
        return 1 if s >= carry else int(s)

    return digit


def leading_digit_real(x: float, base: int = 10) -> int:
    """First significant digit of a nonzero finite real in the base.

    |x| is read by float_digit_rule(base): exactly in a power-of-two
    base; in any other, scaled into [1, base) by the radix and carried to
    digit 1 within a few ulps under the radix.
    """
    radix = check_base(base)
    try:
        s = abs(float(x))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"not a real number: {x!r}") from exc
    if s == 0.0 or not math.isfinite(s):
        raise DomainError(f"leading digit undefined for {x!r}")
    return float_digit_rule(radix)(s)


def leading_digit_text(token: str) -> int | None:
    """First nonzero digit of a decimal numeral, read from the text itself.

    Sign, leading zeros, and any exponent are ignored; the digit returned
    is the one that appears in print: the first character of
    token.lstrip("+-0.") when it is 1-9 (see NUMERAL_RE).  Returns None
    when the significand has no nonzero digit at all ("0", "0.000",
    "0e5").  Raises ParseError for text that is not a decimal numeral.
    """
    if not isinstance(token, str):
        raise ParseError(f"not a decimal numeral: {token!r}")
    text = token.strip()
    if not NUMERAL_RE.fullmatch(text):
        raise ParseError(f"not a decimal numeral: {token!r}")
    index = DECIMAL_INDEX.get(text.lstrip("+-0.")[:1])
    return None if index is None else index + 1
