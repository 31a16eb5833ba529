"""Read analyze's input files in forked shares of byte windows, merged exactly.

`analyze` pools its inputs into one sample, and every --input read, one
file or several, goes through read_in_shares.  When the inputs are regular
files and the process may run on two or more CPUs (its CPU affinity), plan
cuts their bytes, taken together, into one share per CPU at line starts, so
that one large file is split as well as several.  A share is a list of byte
windows (path, start, stop) in input order, and open_window reads a window
as open() reads the whole file: a cut just past a CR or LF byte is a UTF-8
character boundary, so decoding is unchanged.  The lines before a window
are counted in small blocks (lines_before), so that its diagnostics carry
the file's line numbers.  A delimited file is never cut: a column missing
from every data line is a fault of the whole file.

read_in_shares forks a child for each share but the first.  A fork, a
short reply over a pipe and a waitpid took 1.5 to 2 ms in the CLI process
(medians of 50, CPython 3.11 on 2 shared CPUs).  A child sends its share's
sample and diagnostics back over a pipe as marshal records, which the
parent, the same interpreter, reads one at a time.  Every share is read in
this process unless its child exits 0 after a whole reply, so a share that
got no child or whose child failed fails as a read in one process does.
Digit counts add exactly (empirical.merge), so the shares merged in input
order give what a read in one process gives.  Standard input is read in
one process and never comes here.
"""

from __future__ import annotations

import io
import marshal
import os
import sys
from typing import Callable

from .cli import SIGKILL, fork_cpus
from .empirical import SampleSummary, merge

# A reply is marshal records: (counts, skipped_zero, skipped_nonfinite, source)
# of the share's sample, then (place, line, message) of each diagnostic, place
# being where its window stands in the share.  Naming the source by place lets
# every diagnostic share the label string that a read in this process would
# give it.  marshal is loaded at interpreter start, so this imports nothing.

# Bytes read at a time where a cut is placed and where the lines before a
# window are counted, so that neither holds more than one small block.
_BLOCK = 4096


def plan(inputs: list[str], *, split_files: bool = True) -> list[list[tuple]]:
    """The inputs cut into shares of byte windows (path, start, stop), one per usable CPU.

    Share j + 1 starts at the first line start at or after the mark j/k of
    the way through the inputs' bytes taken together, k being the number
    of CPUs: a file's first byte, or the byte past an LF, a CRLF or a CR
    not followed by LF.  With split_files false only a file's first byte
    counts as a line start, so no file is cut.  A window's stop is None
    when it runs to the end of its file.  One share of whole files, read in
    this process, unless every input is a regular file or absent (its read
    then fails in any process alike) and cli.fork_cpus gives two or more.
    """
    whole = [[(label, 0, None) for label in inputs]]
    cpus = fork_cpus()
    if cpus < 2:
        return whole
    sizes = []
    for label in inputs:
        if os.path.isfile(label):
            sizes.append(os.path.getsize(label))
        elif os.path.exists(label):  # a FIFO, say, whose data a second read would miss
            return whole
        else:
            sizes.append(0)
    total = sum(sizes)
    starts = [0]  # where each share starts in the inputs' bytes taken together
    i = offset = 0  # the input holding the mark, and where that input starts
    for j in range(1, cpus):
        mark = max(total * j // cpus, starts[-1])
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


def _fork(read_share: Callable, share: list[tuple]) -> tuple | None:
    """(pid, pipe) of a child forked to write the reply for share to pipe, or None."""
    fds: tuple = ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:  # no pipe, or no process: the share is read in this one
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:  # never returns; exits 0 only once the whole reply is written
        code = 1
        try:
            diagnostics: list[dict] = []
            s = read_share(share, diagnostics)
            place = {window[0]: i for i, window in enumerate(share)}
            with open(write_fd, "wb") as pipe:
                marshal.dump((s.counts, s.skipped_zero, s.skipped_nonfinite, s.source), pipe)
                for d in diagnostics:
                    marshal.dump((place[d["source"]], d["line"], d["message"]), pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _take(pid: int, pipe, share: list[tuple], diagnostics: list[dict]) -> SampleSummary | None:
    """The sample of the reply on pipe once child pid is reaped; None if the child failed.

    The records are read one at a time, to the end of the pipe.  Only a
    child that exited 0 sent a whole reply, whose diagnostics go to diagnostics.
    """
    summary, taken = None, []
    with pipe:
        try:
            counts, *skips, source = marshal.load(pipe)
            summary = SampleSummary(len(counts) + 1, counts, *skips, source)
            while True:
                place, line, message = marshal.load(pipe)
                taken.append({"source": share[place][0], "line": line, "message": message})
        except EOFError:  # the end of the reply, whole or cut short
            pass
    if os.waitpid(pid, 0)[1]:
        return None
    diagnostics.extend(taken)
    return summary


def read_in_shares(
    inputs: list[str],
    read_share: Callable,
    diagnostics: list[dict],
    *,
    split_files: bool = True,
) -> SampleSummary:
    """The inputs tallied into one sample, share by share in input order.

    The shares are plan(inputs, split_files=split_files).  A share is read
    here by read_share(share, diagnostics) unless its child sends a whole
    reply: the first share, one with no child, one whose child failed.
    """
    shares = plan(inputs, split_files=split_files)
    children: list = [None]  # (pid, pipe) of each share's child until it is reaped, or None
    try:
        for share in shares[1:]:
            children.append(_fork(read_share, share))
        summaries = []
        for i, share in enumerate(shares):
            summary = children[i] and _take(*children[i], share, diagnostics)
            children[i] = None
            summaries.append(summary or read_share(share, diagnostics))
    finally:  # children are left here only after an error: end them, not wait for them
        for pid, pipe in filter(None, children):
            os.kill(pid, SIGKILL)
            pipe.close()
        for pid, _ in filter(None, children):
            os.waitpid(pid, 0)
    return merge(summaries)
