"""Read analyze's inputs, files in forked shares of byte windows, merged exactly.

`analyze` pools its inputs into one sample, and read_inputs reads every
one of them: standard input when no --input is named, the --input files
otherwise.  When the inputs are regular files, plan cuts their bytes,
taken together, at line starts into as many shares as
children.processes gives: one per usable CPU, but no more than one per
_MIN_SHARE_BYTES, so that one large file is split as well as several
and a small input is read in this process alone.  A share is a list of
byte windows (path, start, stop) in input order, and open_window reads a
window as open() reads the whole file: a cut just past a CR or LF byte
is a UTF-8 character boundary, so decoding is unchanged.  The lines
before a window are counted in small blocks (lines_before), so that its
diagnostics carry the file's line numbers.  A delimited file is never
cut: a column missing from every data line is a fault of the whole file.

read_inputs reads each share but the first in a forked child, by the
routine of children.py.  A fork, a short reply through a memory file and
a waitpid took about 1.1 ms in a process that had imported the CLI
(medians of 50, CPython 3.11 on 2 shared CPUs).  A child writes its
share's sample and diagnostics to its memory file as marshal records,
which the parent, the same interpreter, reads one at a time.  A share
whose child gives no reply is read in this process, so it fails as a
read in one process does.  Digit counts add exactly (empirical.merge), so
the shares merged in input order give what a read in one process gives.
Standard input is one window, read whole in this process by the routine
that reads a share (_read_share); children.py is loaded only where files
are planned or forked for.
"""

from __future__ import annotations

import contextlib
import io
import marshal
import os
import sys

from .empirical import SampleSummary, merge, tally
from .ingest import FORMAT_DELIMITED, InputSpec, read_numerals

# The label of standard input, in the report's inputs, the sample's source
# and each of its diagnostics.
STDIN_LABEL = "<stdin>"

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
    from .children import processes

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


def read_inputs(
    inputs: list[str] | None, spec: InputSpec, base: int, diagnostics: list[dict]
) -> SampleSummary:
    """Every input tallied into one sample; each input's diagnostics go to diagnostics.

    With no inputs (no --input) standard input is read, in this process;
    a file named <stdin> is a file like any other.  The inputs are cut
    into the shares of plan, each file of a delimited spec whole, and read
    in input order: a share by _read_share unless in_children gives its
    child's reply, so the first share, one with no child and one whose
    child failed are read here.
    """
    if not inputs:
        if sys.stdin is None:  # closed, as by `<&-`
            raise OSError("standard input is closed; name the input with --input")
        if hasattr(sys.stdin, "reconfigure"):  # decode and end lines as a file does
            sys.stdin.reconfigure(encoding="utf-8", errors="replace", newline=None)
        return _read_share([(STDIN_LABEL, 0, None)], spec, base, diagnostics, sys.stdin)
    from .children import in_children

    shares = plan(inputs, split_files=spec.format != FORMAT_DELIMITED)
    replies = in_children(shares, lambda share, file: _reply(share, spec, base, file))
    with contextlib.closing(replies):
        summaries = [
            _read_share(share, spec, base, diagnostics)
            if reply is None
            else _take(reply, share, diagnostics)
            for share, reply in zip(shares, replies)
        ]
    return merge(summaries)


def _read_share(
    share: list[tuple], spec: InputSpec, base: int, diagnostics: list[dict], stdin=None
) -> SampleSummary:
    """The byte windows (label, start, stop) of share tallied into one sample.

    Their diagnostics go to diagnostics.  A window is read as its whole
    file would be, but one that starts past the file's first byte keeps a
    leading U+FEFF, numbers its lines on from the lines before it and adds
    no second copy of the file's label to the sample's source.  Given
    stdin, the share is standard input's one window, read from stdin and
    left open.  In base 10 tally reads each numeral's printed digit; in
    any other base it counts the numeral's double, so the reader hands it
    that double, converted once.
    """
    summaries = []
    for label, start, stop in share:
        diags = []
        stream = contextlib.nullcontext(stdin)
        if stdin is None:
            stream = open_window(label, start, stop)
        with stream as lines:
            numerals = read_numerals(spec, lines, diags, drop_bom=not start, values=base != 10)
            summaries.append(tally(numerals, base, source="" if start else label))
        first = lines_before(label, start) if start and diags else 0
        diagnostics.extend(
            {"source": label, "line": first + d.line, "message": d.message} for d in diags
        )
    return merge(summaries)


def _reply(share: list[tuple], spec: InputSpec, base: int, file) -> None:
    """Read share by _read_share; write its sample and diagnostics to file as marshal records."""
    diagnostics: list[dict] = []
    s = _read_share(share, spec, base, diagnostics)
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
