"""Every golden CLI case prints the stored bytes, exit code and stderr.

The cases, the runner and the regeneration script are in
tests/golden/regenerate.py.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from digitlaw import parallel, sweep
from digitlaw.cli import EXIT_USAGE

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
from regenerate import CASES, HERE, run_case  # noqa: E402

STATUS = json.loads((HERE / "status.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "name, argv, stdin", CASES, ids=[name for name, _, _ in CASES]
)
def test_golden_output(name, argv, stdin):
    exit_code, stdout, stderr = run_case(argv, stdin)
    expected = (HERE / f"{name}.stdout").read_bytes()
    assert stdout.encode("utf-8") == expected
    assert (exit_code, stderr) == (
        STATUS[name]["exit_code"],
        STATUS[name]["stderr"],
    )


@pytest.mark.parametrize(
    "name, argv, stdin", CASES, ids=[name for name, _, _ in CASES]
)
def test_golden_output_with_forked_shares(name, argv, stdin, monkeypatch):
    """The same bytes when the input files of every analyze are cut into forked
    shares, and every sweep of two points or more into forked segments."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(parallel, "_MIN_SHARE_BYTES", 1)
    monkeypatch.setattr(sweep, "_MIN_POINTS", 1)
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    test_golden_output(name, argv, stdin)
    # not a second pass in one process, as where forking is off
    assert len(forks) == _forks_on_two_cpus(argv, STATUS[name]["exit_code"])


def _forks_on_two_cpus(argv: list[str], exit_code: int) -> int:
    """1 where a case has two shares or segments to fork for on two CPUs, both floors at 1.

    A usage error is refused before any input is read or point rendered.
    """
    if exit_code == EXIT_USAGE:
        return 0
    option = dict(zip(argv, argv[1:]))
    if argv[0] == "sweep":
        series = int(option.get("--base", 10)) - 1 if "--all-digits" in argv else 1
        return int(series * int(option["--m-max"]) > 1)
    inputs = [str(HERE / value) for flag, value in zip(argv, argv[1:]) if flag == "--input"]
    if argv[0] != "analyze" or not inputs:
        return 0
    return int(len(parallel.plan(inputs, split_files="delimited" not in argv)) > 1)


@pytest.mark.parametrize(
    "name, argv, stdin", CASES, ids=[name for name, _, _ in CASES]
)
def test_golden_output_in_one_process(name, argv, stdin, monkeypatch):
    """The same bytes when every analyze is read in one process, as on one CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    test_golden_output(name, argv, stdin)


def test_every_golden_file_has_a_case():
    names = {name for name, _, _ in CASES}
    assert len(names) == len(CASES)
    assert {path.stem for path in HERE.glob("*.stdout")} == names
    assert set(STATUS) == names


def test_the_golden_corpus_stays_under_its_budget():
    files = [
        path
        for path in HERE.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    ]
    assert sum(path.stat().st_size for path in files) < 200_000
