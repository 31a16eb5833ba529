"""Read several inputs in forked shares, one per usable CPU, merged exactly.

`analyze` pools its inputs into one sample.  When they are regular files
and the process may run on two or more CPUs, read_in_shares cuts the
input list into contiguous shares of about equal size, one per CPU, forks
a child for each share but the first and reads the first itself.  A fork,
a short reply over a pipe and a waitpid took 1.5 to 2 ms in the CLI
process (medians of 50, CPython 3.11 on 2 shared CPUs).  A child sends its
share's sample and diagnostics back over a pipe as marshal records, which
the parent, the same interpreter, reads one at a time.  Digit counts
add exactly (empirical.merge), so the shares merged in input order give
the sample, the diagnostics and their line numbers of a read in one
process.  A share whose child fails is read again in this process, so
that it fails as a read in one process does.  The CLI imports this module
only for an `analyze` of several inputs.
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


def _fork(read_share: Callable, share: list[str]) -> tuple:
    """(pid, pipe) of a child forked to write the reply for share to pipe."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
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


def _take(pipe, share: list[str], diagnostics: list[dict]) -> SampleSummary:
    """The sample of a reply; its diagnostics go to diagnostics.

    The records are read one at a time, to the end of the pipe.  A failed
    child's reply is cut short, and raises EOFError here if it has no sample.
    """
    counts, *skips, source = marshal.load(pipe)
    summary = SampleSummary(len(counts) + 1, counts, *skips, source)
    while True:
        try:
            place, line, message = marshal.load(pipe)
        except EOFError:
            return summary
        diagnostics.append({"source": share[place], "line": line, "message": message})


def read_in_shares(
    inputs: list[str], read_share: Callable, diagnostics: list[dict]
) -> SampleSummary:
    """The inputs tallied into one sample, share by share, by read_share(share, diagnostics)."""
    first, *rest = plan(inputs)
    children = []  # (pid, pipe, share) of each child not yet reaped, in input order
    try:
        for share in rest:
            children.append((*_fork(read_share, share), share))
        summaries = [read_share(first, diagnostics)]
        while children:
            pid, pipe, share = children[0]
            taken: list[dict] = []
            with pipe:
                try:
                    summary = _take(pipe, share, taken)
                except EOFError:
                    summary = None
            failed = os.waitpid(pid, 0)[1]
            del children[0]
            if failed or summary is None:
                summary = read_share(share, diagnostics)
            else:
                diagnostics += taken
            summaries.append(summary)
    finally:  # children are left here only after an error: end them, not wait for them
        for pid, pipe, _ in children:
            os.kill(pid, _SIGKILL)
            pipe.close()
        for pid, _, _ in children:
            os.waitpid(pid, 0)
    return merge(summaries)
