"""Every golden CLI case prints the stored bytes, exit code and stderr.

The cases, the runner and the regeneration script are in
tests/golden/regenerate.py.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from digitlaw import sweep

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
    monkeypatch.setattr(sweep, "_MIN_POINTS", 1)
    test_golden_output(name, argv, stdin)


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
