"""Read analyze's input files in forked shares of byte windows, merged exactly.

`analyze` pools its inputs into one sample, and every --input read, one
file or several, goes through read_in_shares.  When the inputs are regular
files, plan cuts their bytes, taken together, at line starts into as many
shares as children.processes gives: one per usable CPU, but no more than
one per _MIN_SHARE_BYTES, so that one large file is split as well as
several and a small input is read in this process alone.  A share is a
list of byte windows (path, start, stop) in input order, and open_window
reads a window as open() reads the whole file: a cut just past a CR or LF
byte is a UTF-8 character boundary, so decoding is unchanged.  The lines
before a window are counted in small blocks (lines_before), so that its
diagnostics carry the file's line numbers.  A delimited file is never
cut: a column missing from every data line is a fault of the whole file.

read_in_shares reads each share but the first in a forked child, by the
routine of children.py.  A fork, a short reply through a memory file and
a waitpid took about 1.1 ms in a process that had imported the CLI
(medians of 50, CPython 3.11 on 2 shared CPUs).  A child writes its
share's sample and diagnostics to its memory file as marshal records,
which the parent, the same interpreter, reads one at a time.  A share
whose child gives no reply is read in this process, so it fails as a
read in one process does.  Digit counts add exactly (empirical.merge), so
the shares merged in input order give what a read in one process gives.
Standard input is read in one process and never comes here.
"""

from __future__ import annotations

import contextlib
import io
import marshal
import os
import sys
from typing import Callable

from .children import in_children, processes
from .empirical import SampleSummary, merge

# A reply is marshal records: (counts, skipped_zero, skipped_nonfinite, source)
# of the share's sample, then (place, line, message) of each diagnostic, place
# being where its window stands in the share.  Naming the source by place lets
# every diagnostic share the label string that a read in this process would
# give it.  marshal is loaded at interpreter start, so this imports nothing.

# The fewest bytes a share must have to get a process of its own.  Timed in
# process on 2 CPUs (cli.execute of analyze --output json on one plain file
# of 8 values a line, medians of 41, one share against two alternated,
# CPython 3.11): 16 KB took 6.41 and 7.94 ms, 64 KB 9.01 and 9.31 ms, 128 KB
# 11.93 and 11.43 ms, 192 KB 15.19 and 13.71 ms, 256 KB 17.25 and 15.12 ms.
# In a second run 128 KB took 11.66 and 12.13 ms, 192 KB 14.71 and 15.50 ms,
# 256 KB 17.89 and 17.20 ms.  So a second share pays from about 256 KB.
_MIN_SHARE_BYTES = 1 << 17

# Bytes read at a time where a cut is placed and where the lines before a
# window are counted, so that neither holds more than one small block.
_BLOCK = 4096


def plan(inputs: list[str], *, split_files: bool = True) -> list[list[tuple]]:
    """The inputs cut into shares of byte windows (path, start, stop), at most k of them.

    k is children.processes(total, _MIN_SHARE_BYTES) for the inputs' total
    bytes.  Share j + 1 starts at the first line start at or after the mark
    j/k of the way through the inputs' bytes taken together: a file's first
    byte, or the byte past an LF, a CRLF or a CR not followed by LF.  With
    split_files false only a file's first byte counts as a line start, so
    no file is cut.  A window's stop is None when it runs to the end of its
    file.  One share of whole files, read in this process, unless every
    input is a regular file or absent (its read then fails in any process
    alike) and k is two or more.
    """
    whole = [[(label, 0, None) for label in inputs]]
    sizes = []
    for label in inputs:
        if os.path.isfile(label):
            sizes.append(os.path.getsize(label))
        elif os.path.exists(label):  # a FIFO, say, whose data a second read would miss
            return whole
        else:
            sizes.append(0)
    total = sum(sizes)
    count = processes(total, _MIN_SHARE_BYTES)
    if count < 2:
        return whole
    starts = [0]  # where each share starts in the inputs' bytes taken together
    i = offset = 0  # the input holding the mark, and where that input starts
    for j in range(1, count):
        mark = max(total * j // count, starts[-1])
        while i < len(inputs) and offset + sizes[i] <= mark:
            offset += sizes[i]
            i += 1
        if i == len(inputs):
            break
        at = mark - offset
        if at:
            at = _line_start(inputs[i], at) if split_files else sizes[i]
        if starts[-1] < offset + at < total:
            starts.append(offset + at)
    shares: list[list[tuple]] = [[] for _ in starts]
    s = offset = 0
    for label, size in zip(inputs, sizes):
        while s + 1 < len(starts) and starts[s + 1] <= offset:
            s += 1
        start = 0
        while s + 1 < len(starts) and starts[s + 1] < offset + size:
            shares[s].append((label, start, starts[s + 1] - offset))
            start = starts[s + 1] - offset
            s += 1
        shares[s].append((label, start, None))
        offset += size
    return shares


def _line_start(path: str, at: int) -> int:
    """The first byte at or after at (at > 0) of the file at path that starts a line, or its size."""
    with open(path, "rb", buffering=0) as file:
        at -= 1
        file.seek(at)
        while block := file.read(_BLOCK):
            ends = [end for end in (block.find(b"\n"), block.find(b"\r")) if end >= 0]
            if ends:
                end = min(ends)
                if block.startswith(b"\r", end) and (block[end + 1 : end + 2] or file.read(1)) == b"\n":
                    end += 1  # never part a CRLF
                return at + end + 1
            at += len(block)
    return at


def lines_before(path: str, start: int) -> int:
    """How many lines end, at LF, CR or CRLF, in the first start bytes of the file at path.

    The count is of line ends before a window of the file that starts at
    start, and plan never starts one between a CR and its LF.
    """
    lines, after_cr = 0, False
    with open(path, "rb", buffering=0) as file:
        while start > 0 and (block := file.read(min(start, _BLOCK))):
            start -= len(block)
            lines += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
            lines -= after_cr and block.startswith(b"\n")  # a CRLF across two blocks
            after_cr = block.endswith(b"\r")
    return lines


class _Window(io.RawIOBase):
    """The bytes start to stop of an open binary file, or start to its end with stop None."""

    def __init__(self, file: io.FileIO, start: int, stop: int | None) -> None:
        self._file = file  # first, so that close() closes it whatever fails next
        if start:
            file.seek(start)
        self._left = sys.maxsize if stop is None else stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        read = self._file.readinto(memoryview(buffer)[: self._left])
        self._left -= read
        return read

    def close(self) -> None:
        self._file.close()
        super().close()


def open_window(path: str, start: int, stop: int | None) -> io.TextIOWrapper:
    """A window of the file at path as text: UTF-8 with errors replaced, lines ended at LF.

    That is what open(path, "r", encoding="utf-8", errors="replace") gives,
    CR and CRLF turned into LF, for the bytes start to stop (to the file's
    end with stop None).  A missing or unreadable file raises the OSError
    that open() raises.
    """
    if not start and stop is None:  # a whole file, FIFOs too: no bound to keep
        return open(path, "r", encoding="utf-8", errors="replace")
    window = _Window(open(path, "rb", buffering=0), start, stop)
    return io.TextIOWrapper(io.BufferedReader(window), encoding="utf-8", errors="replace")


def _reply(read_share: Callable, share: list[tuple], file) -> None:
    """Read share by read_share; write its sample and diagnostics to file as marshal records."""
    diagnostics: list[dict] = []
    s = read_share(share, diagnostics)
    place = {window[0]: i for i, window in enumerate(share)}
    marshal.dump((s.counts, s.skipped_zero, s.skipped_nonfinite, s.source), file)
    for d in diagnostics:
        marshal.dump((place[d["source"]], d["line"], d["message"]), file)


def _take(file, share: list[tuple], diagnostics: list[dict]) -> SampleSummary:
    """The sample of the reply in file; its diagnostics go to diagnostics.

    The records are read one at a time, to the end of the file.
    """
    counts, *skips, source = marshal.load(file)
    while True:
        try:
            place, line, message = marshal.load(file)
        except EOFError:
            return SampleSummary(len(counts) + 1, counts, *skips, source)
        diagnostics.append({"source": share[place][0], "line": line, "message": message})


def read_in_shares(
    inputs: list[str],
    read_share: Callable,
    diagnostics: list[dict],
    *,
    split_files: bool = True,
) -> SampleSummary:
    """The inputs tallied into one sample, share by share in input order.

    The shares are plan(inputs, split_files=split_files).  A share is read
    here by read_share(share, diagnostics) unless in_children gives its
    child's reply: the first share, one with no child, one whose child failed.
    """
    shares = plan(inputs, split_files=split_files)
    replies = in_children(shares, lambda share, file: _reply(read_share, share, file))
    with contextlib.closing(replies):
        summaries = [
            read_share(share, diagnostics) if reply is None else _take(reply, share, diagnostics)
            for share, reply in zip(shares, replies)
        ]
    return merge(summaries)
