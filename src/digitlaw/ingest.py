"""Line-oriented numeric dataset parsing into a stream of numeral tokens.

Three layouts cover the usual exports:

  plain        every whitespace-separated numeral on every line
  delimited    one chosen column of delimiter-separated lines
  spectrum2col the second field of two-column instrument dumps
               (abscissa ordinate, separated by whitespace or commas)

read_numerals is lazy: it takes the stream in pieces of whole lines,
about _PIECE_CHARS characters each, and keeps nothing per value, so a
tally fed from it runs in memory that does not grow with the number of
values.  A text file is read up to one piece ahead of the values yielded,
and lines end at LF as the stream returns them, so open text files in the
default newline mode, which turns CR and CRLF into LF.  Malformed content
never raises: each bad field becomes one diagnostic carrying its line
number, appended to a list the caller owns.  Each numeral is yielded as
the exact text slice it was printed as, so downstream tallying reads the
printed digit instead of re-deriving it from a float.

The accepted numeral grammar (digits.NUMERAL_RE) is deliberately narrow:
optional sign, ASCII digits 0-9 with at most one point, optional e/E
exponent.  No other Unicode digits, no thousands separators, no locale
decimal commas, no inf/nan words.  Numerals are validated here and nowhere
else.  plain and spectrum2col read each piece with one findall of a line
pattern built from that grammar, which takes every line it can (plain only
up to _PLAIN_LINE_CAP characters); a delimited line, and a line the
pattern misses, is split into fields and matched field by field, the one
route that produces diagnostics.  spectrum2col is a minimal stand-in for
real instrument formats (JCAMP-DX and friends are out of scope) and
ignores any third or later field.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

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


# A stream is read this many characters at a time, each piece carried on
# to the end of its last line.  The findall list of a piece grows with it.
# With pieces of 384 to 1,024 characters the analyze-spectra benchmark's
# peak RSS rose by about 0.12 MB in some builds of this module and not in
# others; with 256 it stayed flat in every build measured.
_PIECE_CHARS = 256

# The plain pattern's repeated group keeps matcher state for every token,
# about 1 KB each, so a longer line takes split() instead.
_PLAIN_LINE_CAP = 4096


@functools.cache
def _piece_pattern(format: str) -> re.Pattern[str]:
    """The line pattern of plain or spectrum2col, compiled on first use.

    It matches one LF-terminated line, so findall over a piece of whole
    lines returns one str per line: group 1 when the line is one the
    per-field route reads without a diagnostic, and "" when it is not.
    Group 1 is, for plain, the line's blank-separated numerals; for
    spectrum2col, its second field.  The only blanks a hit takes are
    ASCII space and tab (and for spectrum2col, any whitespace but LF
    after the second field), so a line with other whitespace, a comment
    or a missing field misses and is left to that route.
    """
    num = f"(?:{NUMERAL_RE.pattern})"
    if format == FORMAT_PLAIN:
        hit = (
            rf"(?=[^\n]{{0,{_PLAIN_LINE_CAP}}}\n)"
            rf"[ \t]*({num}(?:[ \t]+{num})*)[ \t]*"
        )
    else:
        hit = rf"[ \t]*[^\s,#][^\s,]*[ \t,]+({num})(?:(?:[^\S\n]|,)[^\n]*)?"
    return re.compile(rf"(?:{hit}|[^\n]*)\n")


_LINE_END = re.compile(r"\r\n?|\n")


def _text_pieces(text: str) -> Iterator[str]:
    """Slice a string into pieces of whole lines, turning CR and CRLF
    into LF in each piece as a text file is read."""
    start, size = 0, len(text)
    while start < size:
        end = start + _PIECE_CHARS
        stop = max(text.rfind("\n", start, end), text.rfind("\r", start, end)) + 1
        if not stop:
            found = _LINE_END.search(text, end)
            stop = found.end() if found else size
        elif text.startswith("\r\n", stop - 1):
            stop += 1  # never part a CRLF
        yield text[start:stop].replace("\r\n", "\n").replace("\r", "\n")
        start = stop


def _read_pieces(stream: TextIO) -> Iterator[str]:
    """Read a text stream in pieces, each carried on to its line's end."""
    read, readline = stream.read, stream.readline
    while piece := read(_PIECE_CHARS):
        if piece[-1] != "\n":
            piece += readline()
        yield piece


def _pieces(stream: str | Iterable[str], drop_bom: bool) -> Iterator[str]:
    """The pieces of a stream, the first without a byte-order mark if drop_bom.

    A string is sliced and a text stream read, about _PIECE_CHARS at a
    time; any other iterable gives each of its items as a piece.
    """
    if isinstance(stream, str):
        pieces = _text_pieces(stream)
    elif hasattr(stream, "read"):
        pieces = _read_pieces(stream)
    else:
        pieces = iter(stream)
    first = next(pieces, None)
    if first is not None:
        yield first.removeprefix("\ufeff") if drop_bom else first
        yield from pieces


def _read_matched(
    format: str, pieces: Iterator[str], diagnostics: list[Diagnostic]
) -> Iterator[str]:
    """read_numerals for plain and spectrum2col: one findall per piece."""
    match_lines = _piece_pattern(format).findall
    plain = format == FORMAT_PLAIN
    next_line = 1
    for piece in pieces:
        hits = match_lines(piece, 0, piece.rfind("\n") + 1)
        if not piece.endswith("\n"):
            hits.append("")  # an unterminated last line takes the per-field route
        first_line, next_line = next_line, next_line + len(hits)
        if "" not in hits:
            # every line a hit: a plain piece is blank-separated numerals
            yield from piece.split() if plain else hits
            continue
        # a miss: each hit as it is, each missed line field by field
        lines = zip(hits, piece.split("\n"))
        for line_no, (hit, raw) in enumerate(lines, first_line):
            if hit:
                if plain:
                    yield from hit.split()
                else:
                    yield hit
                continue
            stripped = raw.strip()
            if not stripped or stripped.startswith(COMMENT_PREFIX):
                continue
            if plain:
                tokens = stripped.split()
            else:
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


def _read_delimited(
    spec: InputSpec, pieces: Iterator[str], diagnostics: list[Diagnostic]
) -> Iterator[str]:
    """read_numerals for delimited: every line field by field."""
    delimiter, column = spec.delimiter, spec.column
    data_lines = column_hits = 0
    line_no = 0
    for piece in pieces:
        lines = piece.split("\n")
        if piece.endswith("\n"):
            lines.pop()
        for line_no, raw in enumerate(lines, line_no + 1):
            stripped = raw.strip()
            if not stripped or stripped.startswith(COMMENT_PREFIX):
                continue
            data_lines += 1
            fields = raw.split(delimiter)
            if len(fields) < column:
                diagnostics.append(
                    Diagnostic(
                        line_no,
                        f"line has {len(fields)} field(s), column {column} missing",
                    )
                )
                continue
            column_hits += 1
            token = fields[column - 1].strip()
            if NUMERAL_RE.fullmatch(token):
                yield token
            else:
                diagnostics.append(Diagnostic(line_no, f"not a numeral: {token!r}"))
    if data_lines > 0 and column_hits == 0:
        raise StructuralError(
            f"column {column} missing from every one of the "
            f"{data_lines} data line(s)"
        )


def read_numerals(
    spec: InputSpec,
    stream: str | Iterable[str],
    diagnostics: list[Diagnostic],
    drop_bom: bool = True,
) -> Iterator[str]:
    """Yield the token of each numeral of a text stream, in order.

    Every token yielded fullmatches NUMERAL_RE; it is not converted.  The
    stream is a string, a text stream (anything with read and readline,
    such as an open text file) or any other iterable of lines.  It is
    taken in pieces of whole lines: a string is sliced about _PIECE_CHARS
    characters at a time, a text stream is read that many characters at
    a time and on to the end of the line, and each item of any other
    iterable is one piece, which ends a line even without an LF.  So a
    text stream is read up to one piece ahead of the values yielded, an
    iterable only as values are asked for, and a line longer than a
    piece is held whole: memory grows with the longest line, not with
    the number of values.

    Lines end at LF as the stream returns them, so open a text file in
    the default newline mode, which turns CR and CRLF into LF; a string
    has CR and CRLF turned into LF here.  One leading byte-order mark
    (U+FEFF) is dropped, unless drop_bom is false, as for a stream that
    starts past a file's first byte: a U+FEFF there starts a line, which
    keeps it.  Lines whose first non-blank characters are
    COMMENT_PREFIX are skipped outright.

    For plain and spectrum2col, one findall of the format's pattern per
    piece reads every line it can (plain only up to _PLAIN_LINE_CAP
    characters).  Every other line, and every delimited line, is split
    into fields, each matched on its own.  Every malformed or missing
    field appends one Diagnostic to the caller's list instead of raising.
    A delimited stream whose requested column is absent from every data
    line raises StructuralError once the stream is exhausted, since that
    is a wrong-shape file rather than scattered bad fields.
    """
    pieces = _pieces(stream, drop_bom)
    if spec.format == FORMAT_DELIMITED:
        return _read_delimited(spec, pieces, diagnostics)
    return _read_matched(spec.format, pieces, diagnostics)
