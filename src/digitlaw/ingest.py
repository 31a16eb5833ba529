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
printed digit instead of re-deriving it from a float; a caller that
counts values, as a base other than 10 does, asks for each as its double
instead, converted once.

The accepted numeral grammar (digits.NUMERAL_RE) is deliberately narrow:
optional sign, ASCII digits 0-9 with at most one point, optional e/E
exponent.  No other Unicode digits, no thousands separators, no locale
decimal commas, no inf/nan words.  Numerals are validated here and nowhere
else.  plain takes a clean piece, one of only numeral characters, blanks
and LFs whose every token float() accepts, whole with one split(), and
otherwise each clean line whole; spectrum2col reads each piece with one
findall of a line pattern built from that grammar, which takes every line
it can.  A delimited line, and a line those miss, is split into fields
and matched field by field, the one route that produces diagnostics.
spectrum2col is a minimal stand-in for real instrument formats (JCAMP-DX
and friends are out of scope) and ignores any third or later field.
"""

from __future__ import annotations

import functools
import re
from collections import deque
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
# to the end of its last line.  The list of tokens or of findall hits made
# from a piece grows with it.  With pieces of 384 to 1,024 characters the
# analyze-spectra benchmark's peak RSS rose by about 0.12 MB in some builds
# of this module and not in others; with 256 it stayed flat in every build
# measured.
_PIECE_CHARS = 256

# The characters of numerals and of the blanks and line ends between them
# in a clean plain piece.  Over them float() accepts exactly the strings
# NUMERAL_RE fullmatches, so a text of only these characters whose
# blank-separated tokens all convert is a run of numerals.
_CLEAN_BYTES = b"0123456789eE+-. \t\n"


def _clean_numerals(text: str, values: bool) -> list[str] | list[float] | None:
    """The numerals of text, when its every blank-separated token is one.

    They are float(token) for each token if values, else the tokens, and
    then no double is kept.  None when text has a character outside
    _CLEAN_BYTES or a token float() rejects.  Both checks run in C: an
    ASCII text whose bytes translate() deletes to nothing, and float() over
    every token.
    """
    if not text.isascii() or text.encode().translate(None, _CLEAN_BYTES):
        return None
    tokens = text.split()
    try:
        if values:
            return list(map(float, tokens))
        deque(map(float, tokens), 0)
    except ValueError:
        return None
    return tokens


@functools.cache
def _spectrum_pattern() -> re.Pattern[str]:
    """The spectrum2col line pattern, compiled on first use.

    It matches one LF-terminated line, so findall over a piece of whole
    lines returns one str per line: the line's second field when the line
    is one the per-field route reads without a diagnostic, and "" when it
    is not.  The only blanks a hit takes before the second field are
    ASCII space and tab, and after it any whitespace but LF, so a line
    with other whitespace, a comment or a missing field misses and is
    left to that route.
    """
    num = f"(?:{NUMERAL_RE.pattern})"
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


def _field_numerals(
    plain: bool, line_no: int, raw: str, diagnostics: list[Diagnostic]
) -> Iterator[str]:
    """The per-field route for one plain or spectrum2col line.

    Each field is matched on its own, and each malformed or missing one
    appends a Diagnostic; blank and comment lines yield nothing.
    """
    stripped = raw.strip()
    if not stripped or stripped.startswith(COMMENT_PREFIX):
        return
    if plain:
        tokens = stripped.split()
    else:
        fields = stripped.replace(",", " ").split()
        if len(fields) < 2:
            diagnostics.append(Diagnostic(line_no, "expected two fields, got one"))
            return
        tokens = [fields[1]]
    for token in tokens:
        if NUMERAL_RE.fullmatch(token):
            yield token
        else:
            diagnostics.append(Diagnostic(line_no, f"not a numeral: {token!r}"))


def _lines(piece: str) -> list[str]:
    """The lines of a piece, without their LFs; an unterminated last line
    is a line, so an empty piece is one empty line."""
    lines = piece.split("\n")
    if piece.endswith("\n"):
        lines.pop()
    return lines


def _read_plain(
    pieces: Iterator[str], diagnostics: list[Diagnostic], values: bool
) -> Iterator[str] | Iterator[float]:
    """read_numerals for plain: a clean piece whole, else line by line."""
    line_no = 0
    for piece in pieces:
        numerals = _clean_numerals(piece, values)
        if numerals is not None:
            line_no += piece.count("\n") + (not piece.endswith("\n"))
            yield from numerals
            continue
        for line_no, raw in enumerate(_lines(piece), line_no + 1):
            numerals = _clean_numerals(raw, values)
            if numerals is None:
                numerals = _field_numerals(True, line_no, raw, diagnostics)
                if values:
                    numerals = map(float, numerals)
            yield from numerals


def _read_spectrum(pieces: Iterator[str], diagnostics: list[Diagnostic]) -> Iterator[str]:
    """read_numerals for spectrum2col: one findall per piece."""
    match_lines = _spectrum_pattern().findall
    line_no = 0
    for piece in pieces:
        hits = match_lines(piece, 0, piece.rfind("\n") + 1)
        if not piece.endswith("\n"):
            hits.append("")  # an unterminated last line takes the per-field route
        if "" not in hits:
            line_no += len(hits)
            yield from hits
            continue
        # a miss: each hit as it is, each missed line field by field
        for line_no, (hit, raw) in enumerate(zip(hits, piece.split("\n")), line_no + 1):
            if hit:
                yield hit
            else:
                yield from _field_numerals(False, line_no, raw, diagnostics)


def _read_delimited(
    spec: InputSpec, pieces: Iterator[str], diagnostics: list[Diagnostic]
) -> Iterator[str]:
    """read_numerals for delimited: every line field by field."""
    delimiter, column = spec.delimiter, spec.column
    data_lines = column_hits = 0
    line_no = 0
    for piece in pieces:
        for line_no, raw in enumerate(_lines(piece), line_no + 1):
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
    *,
    values: bool = False,
) -> Iterator[str] | Iterator[float]:
    """Yield each numeral of a text stream, in order.

    Every numeral is yielded as the token printed, which fullmatches
    NUMERAL_RE, or if values is true as float(token), the one conversion
    of that token.  Either way the stream is read, checked and diagnosed
    alike, and a StructuralError is raised at the same point.  The
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

    For plain, a piece of only numeral characters, ASCII blanks and LFs
    (_CLEAN_BYTES) is split once, and its tokens are checked by float()
    in C: over those characters float() accepts exactly NUMERAL_RE's
    numerals, and the values route yields the doubles that check made.
    A piece that fails is taken line by line under the same
    check.  For spectrum2col, one findall of the format's pattern per
    piece reads every line it can.  Every other line, and every
    delimited line, is split into fields, each matched on its own.
    Every malformed or missing field appends one Diagnostic to the
    caller's list instead of raising.
    A delimited stream whose requested column is absent from every data
    line raises StructuralError once the stream is exhausted, since that
    is a wrong-shape file rather than scattered bad fields.
    """
    pieces = _pieces(stream, drop_bom)
    if spec.format == FORMAT_PLAIN:
        return _read_plain(pieces, diagnostics, values)
    if spec.format == FORMAT_DELIMITED:
        numerals = _read_delimited(spec, pieces, diagnostics)
    else:
        numerals = _read_spectrum(pieces, diagnostics)
    return map(float, numerals) if values else numerals
