"""Exception types shared across the toolkit."""


class DigitLawError(Exception):
    """Base class for all toolkit errors."""


class DomainError(DigitLawError, ValueError):
    """Input outside an operation's mathematical domain (zero, NaN, bad digit)."""


class ParseError(DigitLawError, ValueError):
    """Text does not match the accepted decimal numeral grammar."""


class CapacityError(DigitLawError, OverflowError):
    """A `sweep --m-max` past the width the CLI indexes; the library has no limit."""


class EmptySampleError(DigitLawError, ValueError):
    """A sample with zero usable values cannot yield a distribution."""


class DegenerateBaseError(DigitLawError, ValueError):
    """Base 2 leaves a single digit, so the requested statistic is undefined."""


class UndefinedCorrelationError(DigitLawError, ValueError):
    """Zero variance on one side makes Pearson correlation undefined."""


class DegenerateExpectationError(DigitLawError, ValueError):
    """A zero expected count makes the chi-square statistic undefined."""


class StructuralError(DigitLawError, ValueError):
    """Input structure is unusable, such as a selected column missing everywhere."""


class UsageError(DigitLawError, ValueError):
    """Operation called with inconsistent arguments, such as mismatched bases."""
