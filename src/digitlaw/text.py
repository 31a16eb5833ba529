"""Text primitives that the CLI's renderers (cli.py) and the sweep's (sweep.py) share."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Sequence

# A table cell's %-conversion, with {} where its width flag goes.
TEXT_CELL = "%{}s"
SIG4_CELL = "%#{}.4g"
sig4 = SIG4_CELL.format("").__mod__

# Lines per written piece, each line a table row or a JSON point (about 6
# or 21 KB a piece).  At 1024 lines sweep-json's peak RSS read about 16.6 MB
# against 15.75 MB at 128, and no run was faster.
LINES_PER_WRITE = 128


def fraction_doc(fr: Fraction) -> dict:
    return {"num": fr.numerator, "den": fr.denominator}


def fraction_cell(fr: dict) -> str:
    return f"{fr['num']}/{fr['den']} = {sig4(fr['num'] / fr['den'])}"


def table(
    indent: str, columns: Sequence[tuple], rows: Iterable[tuple], head: bool = True
) -> Iterator[str]:
    """A header line (unless head is false) plus one line per row, each cell left-aligned.

    columns holds (header, width) pairs, or (header, width, conversion)
    for a cell not printed by TEXT_CELL.  Every column but the last is
    padded to its width; the last is not, so no line ends in blanks.
    Each row is one % operation, and the lines come LINES_PER_WRITE to
    a newline-terminated piece.
    """
    pads = [f"-{column[1]}" for column in columns[:-1]] + [""]
    conversions = [column[2] if len(column) > 2 else TEXT_CELL for column in columns]
    header = indent + "".join(TEXT_CELL.format(pad) for pad in pads) + "\n"
    fmt = indent + "".join(map(str.format, conversions, pads)) + "\n"
    if head:
        yield header % tuple(column[0] for column in columns)
    lines = map(fmt.__mod__, rows)
    while piece := "".join(islice(lines, LINES_PER_WRITE)):
        yield piece
