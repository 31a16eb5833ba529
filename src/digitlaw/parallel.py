"""Read several inputs in forked shares, one per usable CPU, merged exactly.

`analyze` pools its inputs into one sample.  When they are regular files and
the process may run on two or more CPUs, read_in_shares cuts the input list
into contiguous shares of about equal size, one per CPU, and forks a child
for each share but the first.  A fork, a short reply over a pipe and a
waitpid took 1.5 to 2 ms in the CLI process (medians of 50, CPython 3.11 on
2 shared CPUs).  A child sends its share's sample and diagnostics back over
a pipe as marshal records, which the parent, the same interpreter, reads one
at a time.  Every share is read in this process unless its child exits 0
after a whole reply, so a share that got no child or whose child failed
fails as a read in one process does.  Digit counts add exactly
(empirical.merge), so the shares merged in input order give what a read in
one process gives.  Only an `analyze` of several inputs imports this module.
"""

from __future__ import annotations

import marshal
import os
import sys
from typing import Callable

from .empirical import SampleSummary, merge

# A reply is marshal records: (counts, skipped_zero, skipped_nonfinite, source)
# of the share's sample, then (place, line, message) of each diagnostic, place
# being where its source stands in the share.  Naming the source by place lets
# every diagnostic share the label string that a read in this process would
# give it.  marshal is loaded at interpreter start, so this imports nothing.
_SIGKILL = 9  # signal.SIGKILL on every POSIX system: no handler of the caller runs in the child


def plan(inputs: list[str]) -> list[list[str]]:
    """The inputs cut into contiguous shares of about equal size, one per usable CPU.

    One share, read in this process, unless every input is a regular file
    or absent (its read then fails in any process alike) and there are
    os.fork and two CPUs to use.  A process running other threads does not
    fork: a lock one of them holds would stay held in the child.
    """
    if not hasattr(os, "fork") or len(sys._current_frames()) > 1:
        return [inputs]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    sizes = []
    for label in inputs:
        if os.path.isfile(label):
            sizes.append(os.path.getsize(label))
        elif os.path.exists(label):  # a FIFO, say, whose data a second read would miss
            return [inputs]
        else:
            sizes.append(0)
    k, total = min(cpus, len(inputs)), sum(sizes)
    shares: list[list[str]] = []
    done = 0
    for label, size in zip(inputs, sizes):
        past = (2 * done + size) * k >= 2 * total * len(shares)  # its midpoint, past 1/k more
        if not shares or size and past and len(shares) < k:
            shares.append([])
        shares[-1].append(label)
        done += size
    return shares


def _fork(read_share: Callable, share: list[str]) -> tuple | None:
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
            place = {label: i for i, label in enumerate(share)}
            with open(write_fd, "wb") as pipe:
                marshal.dump((s.counts, s.skipped_zero, s.skipped_nonfinite, s.source), pipe)
                for d in diagnostics:
                    marshal.dump((place[d["source"]], d["line"], d["message"]), pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _take(pid: int, pipe, share: list[str], diagnostics: list[dict]) -> SampleSummary | None:
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
                taken.append({"source": share[place], "line": line, "message": message})
        except EOFError:  # the end of the reply, whole or cut short
            pass
    if os.waitpid(pid, 0)[1]:
        return None
    diagnostics.extend(taken)
    return summary


def read_in_shares(
    inputs: list[str], read_share: Callable, diagnostics: list[dict]
) -> SampleSummary:
    """The inputs tallied into one sample, share by share in input order.

    A share is read here by read_share(share, diagnostics) unless its child
    sends a whole reply: the first share, one with no child, one whose child failed.
    """
    shares = plan(inputs)
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
            os.kill(pid, _SIGKILL)
            pipe.close()
        for pid, _ in filter(None, children):
            os.waitpid(pid, 0)
    return merge(summaries)
