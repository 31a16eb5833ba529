"""Jobs done in forked children: the one routine that runs a child process.

in_children runs analyze's shares (parallel.py) and a sweep's segments
(sweep.py), and processes decides for both how many there are: one per
usable CPU, but none smaller than the smallest share worth a fork, in
bytes or points as each caller measures it.  A child's memory file
counts only if the child exits 0 after writing all of it; otherwise the
caller does the job itself, so the output is the same bytes as from one
process.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterator

SIGKILL = 9  # signal.SIGKILL on every POSIX system: no handler of the caller runs in the child


def processes(size: int, smallest: int) -> int:
    """How many processes a job of size size runs in, given the smallest share worth a fork.

    One per usable CPU, but no more than size // smallest, so that each of
    two or more shares holds at least smallest, and never fewer than 1.
    The usable CPUs are the process's CPU affinity
    (os.cpu_count() where there is none), or 1 where it may not fork: not
    without os.memfd_create, which in_children needs (every system that has
    it has os.fork), nor while another thread runs, since a lock that thread
    holds would stay held in the child.
    """
    if not hasattr(os, "memfd_create") or len(sys._current_frames()) > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, size // smallest))


def in_children(jobs: list, write: Callable) -> Iterator:
    """For each job in order, None or the binary file its forked child wrote, at offset 0.

    Each job but the first gets a child that runs write(job, file) on an
    anonymous memory file and exits 0 only once that returns.  On None the
    caller does the job itself: the first job, and one whose child got no
    memory file or process or did not exit 0.  A file is closed when the
    next job is asked for.  Closing this generator kills and reaps every
    child still running, without waiting for its work.
    """
    children: list = [None]  # (pid, fd) of each job's child until it is reaped, or None
    try:
        for job in jobs[1:]:
            fd = None
            try:
                fd = os.memfd_create("digitlaw")
                pid = os.fork()
            except OSError:  # no memory file, or no process: the job is done here
                if fd is not None:
                    os.close(fd)
                children.append(None)
                continue
            if pid == 0:  # never returns; exits 0 only once the whole file is written
                code = 1
                try:
                    with open(fd, "wb") as file:
                        write(job, file)
                    code = 0
                finally:
                    os._exit(code)
            children.append((pid, fd))
        for i in range(len(jobs)):
            if children[i] is None:
                yield None
                continue
            pid, fd = children[i]
            status = os.waitpid(pid, 0)[1]
            children[i] = None
            with open(fd, "rb") as file:
                file.seek(0)  # the child's writes moved the offset it shares with this process
                yield None if status else file
    finally:
        for pid, fd in filter(None, children):
            os.kill(pid, SIGKILL)
            os.close(fd)
        for pid, _ in filter(None, children):
            os.waitpid(pid, 0)
