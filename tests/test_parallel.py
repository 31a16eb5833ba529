"""Inputs read in forked shares give what a read in one process gives.

The CLI's own tests run analyze through the forked path; these call
parallel.read_inputs with a stand-in for its share reader, _read_share,
which forked children inherit, to carry diagnostics whose text a reply
must keep exactly, and to fail in one child.
"""

import errno
import os
import time

import pytest

from digitlaw import parallel
from digitlaw.empirical import SampleSummary, merge
from digitlaw.ingest import InputSpec

SPEC = InputSpec()

MESSAGES = [
    "not a numeral: 'x'", "tab\there", "line\nbreak\r\nand\r", "ünïcödé ✓", "", "nul\0inside"
]


def whole(*paths):
    """The byte windows of whole files, each from byte 0 to its end."""
    return [(path, 0, None) for path in paths]


def labels(share):
    return [label for label, _, _ in share]


def use_cpus(monkeypatch, cpus):
    """The process may run on cpus CPUs, and a share of one byte is worth a fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(parallel, "_MIN_SHARE_BYTES", 1)


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """Six equal files, and three CPUs to read them with."""
    use_cpus(monkeypatch, 3)
    paths = [str(tmp_path / str(i)) for i in range(6)]
    for path in paths:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("1 2 3\n")
    return paths


def test_plan_cuts_contiguous_shares_of_equal_size(inputs, tmp_path):
    assert parallel.plan(inputs) == [whole(*inputs[0:2]), whole(*inputs[2:4]), whole(*inputs[4:6])]
    assert parallel.plan(inputs[:2]) == [whole(inputs[0]), whole(inputs[1])]
    # one file of six 6-byte lines, cut at bytes 12 and 24
    one = tmp_path / "one"
    one.write_bytes(b"1 2 3\n" * 6)
    assert parallel.plan([str(one)]) == [[(str(one), 0, 12)], [(str(one), 12, 24)], [(str(one), 24, None)]]
    # a cut in a file that may not be cut falls at the end of that file
    assert parallel.plan([str(one), *inputs[:2]], split_files=False) == [
        whole(str(one)), whole(*inputs[:2])
    ]


@pytest.mark.parametrize(
    "text, cpus, shares",
    [
        (b"123\r\n4\r\n", 2, [(0, 5), (5, None)]),  # the mark between CR and LF
        (b"12\r34\r56\r", 3, [(0, 3), (3, 6), (6, None)]),  # CR-only lines
        (b"1234567\r\n8\n", 2, [(0, 9), (9, None)]),  # the first line end past the mark
        (b"1 " * 5000 + b"\r", 2, [(0, None)]),  # no line end past the mark but the last byte
        (b"1\r" + b"2 " * 5000 + b"\r\n3\n", 3, [(0, 10004), (10004, None)]),  # past two marks
        (b"1" * 9094 + b"\r\n" + b"2" * 904, 2, [(0, 9096), (9096, None)]),  # CR ends a block
        (b"1" * 4095 + b"\r\n" + b"3\n" * 2100, 2, [(0, 4149), (4149, None)]),  # CRLF across blocks
    ],
    ids=["crlf-at-mark", "cr", "crlf-past-mark", "no-line-end", "long-line", "cr-at-block-end",
         "crlf-across-blocks"],
)
def test_plan_cuts_one_file_at_line_starts(text, cpus, shares, tmp_path, monkeypatch):
    use_cpus(monkeypatch, cpus)
    path = tmp_path / "one"
    path.write_bytes(text)
    assert parallel.plan([str(path)]) == [[(str(path), start, stop)] for start, stop in shares]
    for start, _ in shares[1:]:  # a line start, never between CR and LF
        assert text[start - 1 : start + 1] != b"\r\n" and text[start - 1] in b"\r\n"
        head = text[:start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        assert parallel.lines_before(str(path), start) == head.count(b"\n")


def test_plan_keeps_an_empty_last_input_in_the_last_share(inputs, tmp_path):
    empty = tmp_path / "empty"
    empty.write_text("")
    assert parallel.plan([*inputs[:2], str(empty)]) == [whole(inputs[0]), whole(inputs[1], str(empty))]


def test_one_cpu_reads_in_one_share(inputs, monkeypatch, tmp_path):
    use_cpus(monkeypatch, 1)
    assert parallel.plan(inputs) == [whole(*inputs)]
    one = tmp_path / "one"
    one.write_bytes(b"1 2 3\n" * 6)
    assert parallel.plan([str(one)]) == [whole(str(one))]


def test_a_small_input_is_read_in_one_share_and_a_large_one_on_every_cpu(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    small = tmp_path / "small"
    small.write_bytes(b"12.5 3e2 0.07 41\n" * 160)  # 2,720 bytes
    assert parallel.plan([str(small)]) == [whole(str(small))]
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    read_here = []
    empty = SampleSummary(10, [0] * 9, 0, 0)
    monkeypatch.setattr(parallel, "_read_share", lambda share, *_: read_here.append(share) or empty)
    parallel.read_inputs([str(small)], SPEC, 10, [])
    assert read_here == [whole(str(small))]
    large = tmp_path / "large"
    large.write_bytes(b"1\n" * (8 * parallel._MIN_SHARE_BYTES))  # 16 shares' worth
    shares = parallel.plan([str(large)])
    assert [start for (_, start, _), in shares] == [
        j * parallel._MIN_SHARE_BYTES for j in range(16)
    ]


def test_a_reply_carries_every_field_and_a_failed_child_makes_the_share_read_here(
    inputs, monkeypatch
):
    read_here = []
    pid = os.getpid()

    def read_share(share, spec, base, diagnostics):
        if os.getpid() == pid:
            read_here.append(labels(share))
        elif labels(share) == inputs[2:4]:
            raise OSError("this child fails")
        summaries = []
        for label in labels(share):
            i = int(os.path.basename(label))
            diagnostics.append({"source": label, "line": i + 1, "message": MESSAGES[i]})
            summaries.append(SampleSummary(10, [i] * 9, i, 2 * i, label))
        return merge(summaries)

    serial_diagnostics, forked_diagnostics = [], []
    serial = read_share(whole(*inputs), SPEC, 10, serial_diagnostics)
    read_here.clear()
    monkeypatch.setattr(parallel, "_read_share", read_share)
    forked = parallel.read_inputs(inputs, SPEC, 10, forked_diagnostics)
    assert (forked, forked_diagnostics) == (serial, serial_diagnostics)
    # the first share is read here, and the share whose child failed again;
    # the share whose message holds a NUL comes back from its child
    assert read_here == [inputs[0:2], inputs[2:4]]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("per_input", [3, 8192])
def test_a_reply_carries_every_field_and_a_nul_makes_the_share_read_here(
    per_input, inputs, monkeypatch
):
    """A child that refuses a message holding NUL leaves its share to be read
    here.  At 8,192 diagnostics an input a reply spans many 8 KB reads of its file."""
    read_here = []
    pid = os.getpid()

    def read_share(share, spec, base, diagnostics):
        if os.getpid() == pid:
            read_here.append(labels(share))
        summaries = []
        for label in labels(share):
            i = int(os.path.basename(label))
            if os.getpid() != pid and "\0" in MESSAGES[i]:
                raise ValueError(f"a message holds NUL: {MESSAGES[i]!r}")
            for line in range(i * per_input + 1, (i + 1) * per_input + 1):
                diagnostics.append({"source": label, "line": line, "message": MESSAGES[i]})
            summaries.append(SampleSummary(10, [i] * 9, i, 2 * i, label))
        return merge(summaries)

    serial_diagnostics, forked_diagnostics = [], []
    serial = read_share(whole(*inputs), SPEC, 10, serial_diagnostics)
    read_here.clear()
    monkeypatch.setattr(parallel, "_read_share", read_share)
    forked = parallel.read_inputs(inputs, SPEC, 10, forked_diagnostics)
    assert len(serial_diagnostics) == 6 * per_input
    assert (forked, forked_diagnostics) == (serial, serial_diagnostics)
    # the first share is read here, and the share whose message holds a NUL again
    assert read_here == [inputs[0:2], inputs[4:6]]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_share_whose_fork_fails_is_read_here_and_the_other_comes_from_its_child(
    inputs, monkeypatch
):
    read_here, forks = [], []
    pid, real_fork = os.getpid(), os.fork

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    def read_share(share, spec, base, diagnostics):
        if os.getpid() == pid:
            read_here.append(labels(share))
        summaries = []
        for label in labels(share):
            i = int(os.path.basename(label))
            diagnostics.append({"source": label, "line": i + 1, "message": MESSAGES[i]})
            summaries.append(SampleSummary(10, [i] * 9, i, 2 * i, label))
        return merge(summaries)

    serial_diagnostics, forked_diagnostics = [], []
    serial = read_share(whole(*inputs), SPEC, 10, serial_diagnostics)
    read_here.clear()
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(parallel, "_read_share", read_share)
    forked = parallel.read_inputs(inputs, SPEC, 10, forked_diagnostics)
    assert len(forks) == 2
    assert (forked, forked_diagnostics) == (serial, serial_diagnostics)
    # the first share and the share whose fork failed are read here; the middle one is not
    assert read_here == [inputs[0:2], inputs[4:6]]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_error_here_stops_the_children_without_waiting_for_them(inputs, monkeypatch):
    pid = os.getpid()

    def read_share(share, spec, base, diagnostics):
        if os.getpid() == pid:
            raise OSError("the first share is unreadable")
        time.sleep(60)
        return SampleSummary(10, [0] * 9, 0, 0, share[0][0])

    monkeypatch.setattr(parallel, "_read_share", read_share)
    started = time.monotonic()
    with pytest.raises(OSError, match="first share"):
        parallel.read_inputs(inputs, SPEC, 10, [])
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
