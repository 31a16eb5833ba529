"""Line-oriented numeric dataset parsing into a stream of numeral tokens.

Three layouts cover the usual exports:

  plain        every whitespace-separated numeral on every line
  delimited    one chosen column of delimiter-separated lines
  spectrum2col the second field of two-column instrument dumps
               (abscissa ordinate, separated by whitespace or commas)

read_numerals is a generator: it takes one line at a time from the
stream and keeps nothing per value, so a tally fed from it runs in memory that does not
grow with the number of values.  Malformed content never raises: each
bad field becomes one diagnostic carrying its line number, appended to a
list the caller owns.  Each numeral is yielded as the exact text slice it
was printed as, so downstream tallying reads the printed digit instead of
re-deriving it from a float.

The accepted numeral grammar (digits.NUMERAL_RE) is deliberately narrow:
optional sign, ASCII digits 0-9 with at most one point, optional e/E
exponent.  No other Unicode digits, no thousands separators, no locale
decimal commas, no inf/nan words.  Numerals are validated here and nowhere
else.  plain and spectrum2col match each data line once by a whole-line
pattern built from that grammar (plain only up to _PLAIN_LINE_CAP
characters); a delimited line, and a line the pattern rejects, is split
into fields and matched field by field, the one route that produces
diagnostics.  spectrum2col is a minimal stand-in for real instrument
formats (JCAMP-DX and friends are out of scope) and ignores any third or
later field.
"""

from __future__ import annotations

import functools
import io
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .digits import NUMERAL_RE
from .errors import DomainError, StructuralError

FORMAT_PLAIN = "plain"
FORMAT_DELIMITED = "delimited"
FORMAT_SPECTRUM2COL = "spectrum2col"

FORMATS = (FORMAT_PLAIN, FORMAT_DELIMITED, FORMAT_SPECTRUM2COL)

COMMENT_PREFIX = "#"

_DELIMITER_FORBIDDEN = set("0123456789+-.eE")


@dataclass(frozen=True)
class InputSpec:
    """How to slice a text stream into numeral tokens."""

    format: str = FORMAT_PLAIN
    delimiter: str = ","
    column: int = 1

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise DomainError(
                f"format must be one of {', '.join(FORMATS)}, got {self.format!r}"
            )
        delimiter = self.delimiter
        one_char = isinstance(delimiter, str) and len(delimiter) == 1
        if not one_char or not delimiter.isprintable():
            raise DomainError(
                f"delimiter must be a single printable character, "
                f"got {delimiter!r}"
            )
        if delimiter in _DELIMITER_FORBIDDEN:
            raise DomainError(
                "delimiter cannot be a digit, sign, decimal point or exponent marker"
            )
        column = self.column
        if not isinstance(column, int) or isinstance(column, bool) or column < 1:
            raise DomainError(f"column index is a 1-based int, got {column!r}")


@dataclass(frozen=True)
class Diagnostic:
    """A skipped field, with enough context to find it in the file."""

    line: int
    message: str


# The plain pattern's repeated group keeps matcher state for every token,
# about 1 KB each, so a longer line takes split() instead.
_PLAIN_LINE_CAP = 4096


@functools.cache
def _line_pattern(format: str) -> re.Pattern[str]:
    """The whole-line pattern of plain or spectrum2col, compiled on first use.

    A raw line it fullmatches is one the per-field route reads without a
    diagnostic: for plain, blank-separated numerals, the line's split();
    for spectrum2col, one whose second field, group 1, is a numeral.  Its
    only blanks are ASCII space and tab, so a line with other whitespace,
    a CR, a comment or a missing field misses and is left to that route.
    """
    num = f"(?:{NUMERAL_RE.pattern})"
    if format == FORMAT_PLAIN:
        return re.compile(rf"[ \t]*{num}(?:[ \t]+{num})*[ \t]*\n?")
    return re.compile(rf"[ \t]*[^\s,#][^\s,]*[ \t,]+({num})(?:[\s,].*)?", re.S)


def read_numerals(
    spec: InputSpec, stream: str | Iterable[str], diagnostics: list[Diagnostic]
) -> Iterator[str]:
    """Yield the token of each numeral of a text stream, in order.

    Every token yielded fullmatches NUMERAL_RE; it is not converted.  The
    stream is any iterable of lines (an open text file works) or a string,
    which is split as a text file is read: at LF, CR and CRLF only.
    Lines are read only as values are asked for, and each is held whole,
    so memory grows with the longest line.  A plain line of at most
    _PLAIN_LINE_CAP characters, and any spectrum2col line, is matched once
    by its format's line pattern, and a hit yields its token(s) at once.
    Every other line, and every delimited line, is split into fields,
    each matched on its own.  Lines whose first non-blank characters are
    COMMENT_PREFIX are skipped outright.
    Every malformed or missing field appends one Diagnostic to the
    caller's list instead of raising.  A delimited stream whose requested
    column is absent from every data line raises StructuralError once the
    stream is exhausted, since that is a wrong-shape file rather than
    scattered bad fields.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline=None)
    plain = spec.format == FORMAT_PLAIN
    spectrum = spec.format == FORMAT_SPECTRUM2COL
    if plain or spectrum:
        whole_line = _line_pattern(spec.format).fullmatch
    data_lines = 0
    column_hits = 0
    for line_no, raw in enumerate(stream, start=1):
        if plain:
            if len(raw) <= _PLAIN_LINE_CAP and whole_line(raw):
                yield from raw.split()
                continue
        elif spectrum:
            hit = whole_line(raw)
            if hit:
                yield hit[1]
                continue
        stripped = raw.strip()
        if not stripped or stripped.startswith(COMMENT_PREFIX):
            continue
        data_lines += 1

        if plain:
            tokens = stripped.split()
        elif spec.format == FORMAT_DELIMITED:
            fields = raw.split(spec.delimiter)
            if len(fields) < spec.column:
                diagnostics.append(
                    Diagnostic(
                        line_no,
                        f"line has {len(fields)} field(s), column "
                        f"{spec.column} missing",
                    )
                )
                continue
            column_hits += 1
            tokens = [fields[spec.column - 1].strip()]
        else:  # spectrum2col
            fields = stripped.replace(",", " ").split()
            if len(fields) < 2:
                diagnostics.append(Diagnostic(line_no, "expected two fields, got one"))
                continue
            tokens = [fields[1]]

        for token in tokens:
            if NUMERAL_RE.fullmatch(token):
                yield token
            else:
                diagnostics.append(Diagnostic(line_no, f"not a numeral: {token!r}"))

    if spec.format == FORMAT_DELIMITED and data_lines > 0 and column_hits == 0:
        raise StructuralError(
            f"column {spec.column} missing from every one of the "
            f"{data_lines} data line(s)"
        )
