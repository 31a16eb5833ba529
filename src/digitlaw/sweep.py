"""The sweep command: its report, and its table and JSON text rendered on every usable CPU.

Part of the command-line front end: cli.py imports this module for a
sweep alone, as it imports parallel.py for analyze alone.

A sweep's points, all its series taken together in output order, are cut
into contiguous segments.  A segment is a list of pieces (i, lo, hi), the
points m = lo..hi of series i, and either renderer renders any segment
byte for byte as a whole run would: a series' heading goes with its point
m = 1 and its closing text with its point m_max.

The segments are rendered in rounds of at most one per usable CPU
(cli.fork_cpus).  A forked child renders each segment of a round but the
first into an anonymous memory file (os.memfd_create), while this process
writes the first to the output; then it copies each child's file in
order, _COPY_BYTES at a time.  A segment is rendered here unless its child
exits 0 after writing it whole: one that got no memory file or no child,
or whose child failed.  So the output is the same bytes in every case,
and without os.memfd_create the whole sweep is rendered here.

A segment holds at most _MAX_POINTS points, so the text that waits in
memory files at once is bounded whatever m_max is, and unless the sweep
is one segment, at least _MIN_POINTS, so that no fork costs more time
than it saves.
"""

from __future__ import annotations

import json
import os
from itertools import islice
from typing import Callable, Iterable, Iterator

from .cli import (
    EXIT_OK,
    SIGKILL,
    _LINES_PER_WRITE,
    _SIG4_CELL,
    _fraction_cell,
    _fraction_doc,
    _table,
    fork_cpus,
)
from .digits import check_digit
from .errors import CapacityError, DomainError, UsageError
from .lawtheory import KIND_MIN, extrema_within, frequency_series

# The fewest points a segment must have to get a process of its own.  Timed
# in process on 2 CPUs (medians of 41, CPython 3.11), one CPU against two: a
# table of 3,000 points took 5.07 and 5.00 ms (JSON 5.83 and 5.57), 4,000
# points 5.81 and 5.44 ms (6.94 and 6.24), 8,000 points 8.90 and 7.07 ms
# (11.03 and 8.46).  So a share of 1,500 points about pays for its fork.
_MIN_POINTS = 2000
# The most points a segment holds: about 1.5 MB of table text or 5.5 MB of
# JSON, which is what may wait in one memory file.  Both benchmark sweeps,
# up to about 40,300 points, fit in two segments.
_MAX_POINTS = 1 << 15
# Bytes of a memory file read and written at a time.  Copied in 64 KB
# blocks, sweep-table's peak RSS rose 15.67 -> 15.88 MB; in 8 KB, not at all.
_COPY_BYTES = 8192

# One sweep point as json.dumps(indent=2, sort_keys=True) lays it out in a
# report, comma first: points sit 10 spaces deep, their keys 12.  %d and
# %r print ints and floats exactly as the encoder does.
_JSON_POINT = (
    ",\n          {"
    '\n            "count": %d,'
    '\n            "den": %d,'
    '\n            "m": %d,'
    '\n            "num": %d,'
    '\n            "value": %r'
    "\n          }"
)
_EMPTY_POINTS = '"points": []'
_COLUMNS = [("m", 10), ("count", 10), ("exact", 16), ("value", 0, _SIG4_CELL)]


def handle(args, report: dict) -> int:
    """Fill report with the sweep's params and result.

    Each series holds its extrema and, as points, a frequency_series
    iterator that nothing consumes: the renderers make the points of each
    segment afresh.
    """
    digits = range(1, args.base)
    if not args.all_digits:
        try:
            digits = [check_digit(args.digit, args.base)]
        except DomainError as exc:
            raise UsageError(str(exc)) from None
    if args.m_max > 2**63 - 1:  # the one limit on a report: m past one machine word
        raise CapacityError(f"sweep --m-max: {args.m_max} exceeds 2**63 - 1")
    report["params"] = {
        "digit": None if args.all_digits else args.digit,
        "all_digits": bool(args.all_digits),
        "m_max": args.m_max,
    }
    report["result"] = {
        "m_max": args.m_max,
        "series": [_series(n, args.m_max, args.base) for n in digits],
    }
    return EXIT_OK


def _series(n: int, m_max: int, radix: int) -> dict:
    minima, maxima = [], []
    for e in extrema_within(n, m_max, radix):
        value = e.value
        doc = {"k": e.k, "m": e.location_m, "value": float(value), **_fraction_doc(value)}
        (minima if e.kind == KIND_MIN else maxima).append(doc)
    points = frequency_series(n, m_max, radix)
    return {"digit": n, "points": points, "minima": minima, "maxima": maxima}


# ------------------------------------------------------------- rendering


def render_table(report: dict) -> Iterator[str]:
    """The sweep's table, each series' points in rows of m, count, exact and value."""
    result, base = report["result"], report["base"]
    m_max, series = result["m_max"], result["series"]
    title = f"leading-digit frequency over {{1..m}}, base {base}, m up to {m_max}\n"

    def render(segment: list[tuple]) -> Iterator[str]:
        for i, lo, hi in segment:
            n = series[i]["digit"]
            if lo == 1:
                yield "\n" if i else title
                yield f"digit {n}:\n"
            rows = (
                (m, count, f"{num}/{den}", value)
                for m, count, num, den, value in frequency_series(n, hi, base, lo)
            )
            yield from _table("  ", _COLUMNS, rows, head=lo == 1)
            if hi == m_max:
                yield from _extrema_lines(series[i])

    return _render_on_cpus(report, render)


def _extrema_lines(series: dict) -> Iterator[str]:
    for kind in ("minima", "maxima"):
        yield f"  {kind}:\n"
        if not series[kind]:
            yield "    (none in range)\n"
        for e in series[kind]:
            yield f"    k={e['k']}  m={e['m']}  {_fraction_cell(e)}\n"


def render_json(report: dict) -> Iterator[str]:
    """json.dumps(report, indent=2, sort_keys=True) + "\\n", in pieces.

    The points are not handed to the encoder: the rest of the report is
    encoded with an empty list in each series' place, and each segment's
    points are spliced in there in the encoder's layout.  The key "points"
    appears nowhere else in a sweep report, and never inside an encoded
    string, whose quotes are escaped.
    """
    result, base = report["result"], report["base"]
    m_max, series = result["m_max"], result["series"]
    hollow = [{**s, "points": []} for s in series]
    text = json.dumps(
        {**report, "result": {**result, "series": hollow}}, indent=2, sort_keys=True
    )
    head, *tails = text.split(_EMPTY_POINTS, len(series))
    tails[-1] += "\n"

    def render(segment: list[tuple]) -> Iterator[str]:
        for i, lo, hi in segment:
            if lo == 1 and not i:
                yield head
            points = frequency_series(series[i]["digit"], hi, base, lo)
            yield from _json_points(points, lo == 1, hi == m_max)
            if hi == m_max:
                yield tails[i]

    return _render_on_cpus(report, render)


def _json_points(
    points: Iterable[tuple], first: bool = True, last: bool = True
) -> Iterator[str]:
    """Points of a series in the encoder's layout, _LINES_PER_WRITE a piece.

    With first they start the series' `"points": [` member, with last they
    end it, so a whole series, both true, is the member itself.
    """
    lines = (
        _JSON_POINT % (count, den, m, num, value)
        for m, count, num, den, value in points
    )
    head = "".join(islice(lines, _LINES_PER_WRITE))
    yield '"points": [' + head[1:] if first else head  # the first point has no comma before it
    while piece := "".join(islice(lines, _LINES_PER_WRITE)):
        yield piece
    if last:
        yield "\n        ]" if head else "]"


# ---------------------------------------------------- rendering on every CPU


def _render_on_cpus(report: dict, render: Callable) -> Iterator[str]:
    """The text of every segment in order, render(segment) giving one segment's.

    Every child still running when this generator is closed, as when the
    output's reader has gone, is killed and reaped.
    """
    result = report["result"]
    cpus = fork_cpus() if hasattr(os, "memfd_create") else 1
    for segments in _rounds(len(result["series"]), result["m_max"], cpus):
        children: list = [None]  # (pid, fd) of each segment's child until it is taken, or None
        try:
            for segment in segments[1:]:
                children.append(_fork(render, segment))
            for i, segment in enumerate(segments):
                child, children[i] = children[i], None
                yield from _take(child, render, segment) if child else render(segment)
        finally:
            for pid, fd in filter(None, children):
                os.kill(pid, SIGKILL)
                os.close(fd)
            for pid, _ in filter(None, children):
                os.waitpid(pid, 0)


def _rounds(series: int, m_max: int, cpus: int) -> Iterator[list[list[tuple]]]:
    """The segments of series series of m_max points each, up to cpus in a round.

    The segments hold equal shares of the points, to within one: at most
    _MAX_POINTS each and, when there are two or more, at least _MIN_POINTS
    (_MAX_POINTS is at least twice _MIN_POINTS, so rounds past the first
    keep that too).  A round has cpus segments, or fewer in a sweep of
    one round.
    """
    total = series * m_max
    rounds = -(-total // (cpus * _MAX_POINTS))
    count = rounds * cpus if rounds > 1 else max(1, min(cpus, total // _MIN_POINTS))
    for first in range(0, count, cpus):
        yield [
            _pieces(total * j // count, total * (j + 1) // count, m_max)
            for j in range(first, min(first + cpus, count))
        ]


def _pieces(start: int, stop: int, m_max: int) -> list[tuple]:
    """The points start..stop - 1, numbered from 0 across the series, as pieces (i, lo, hi)."""
    pieces = []
    while start < stop:
        i, m = divmod(start, m_max)
        hi = min(m_max, m + stop - start)
        pieces.append((i, m + 1, hi))
        start += hi - m
    return pieces


def _fork(render: Callable, segment: list[tuple]) -> tuple | None:
    """(pid, fd) of a child forked to write segment's text to the memory file fd, or None."""
    fd = None
    try:
        fd = os.memfd_create("digitlaw-sweep")
        pid = os.fork()
    except OSError:  # no memory file, or no process: the segment is rendered in this one
        if fd is not None:
            os.close(fd)
        return None
    if pid == 0:  # never returns; exits 0 only once the whole text is written
        code = 1
        try:
            with open(fd, "w", encoding="ascii", newline="", closefd=False) as out:
                out.writelines(render(segment))
            code = 0
        finally:
            os._exit(code)
    return pid, fd


def _take(child: tuple, render: Callable, segment: list[tuple]) -> Iterator[str]:
    """The text of segment: its child's memory file if the child exited 0, else rendered here.

    The sweep's text is ASCII (the encoder escapes the rest), so each block
    of the file decodes on its own.
    """
    pid, fd = child
    try:
        if os.waitpid(pid, 0)[1]:
            yield from render(segment)
            return
        offset = 0
        while block := os.pread(fd, _COPY_BYTES, offset):
            offset += len(block)
            yield block.decode("ascii")
    finally:
        os.close(fd)
