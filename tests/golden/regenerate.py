"""Golden CLI outputs: the cases, how one is run, and how to rewrite them.

    PYTHONPATH=src python tests/golden/regenerate.py

runs every case in CASES through `digitlaw.cli.execute` in this process,
with the working directory set to this folder so that input paths (and
the source labels printed from them) stay relative, and rewrites
`<name>.stdout` plus `status.json` (exit code and stderr per case).  The
one line that varies between runs, the JSON `"elapsed_s":` line of `meta`,
is removed from stdout.  `tests/test_golden.py` compares every case byte
for byte.  Rewrite the files only for a deliberate output change, and name
each file that changed in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

PROBS_WITH_VIOLATIONS = "0.8," + ",".join(["0.025"] * 8)


def _both(name: str, argv: list[str], stdin: str | None = None) -> list[tuple]:
    """One case per output mode."""
    return [
        (f"{name}.table", argv, stdin),
        (f"{name}.json", argv + ["--output", "json"], stdin),
    ]


# (name, argv, stdin or None); names are file stems, unique.
CASES: list[tuple[str, list[str], str | None]] = [
    *_both("sweep-d1-b10-m1", ["sweep", "--digit", "1", "--m-max", "1"]),
    *_both("sweep-all-b10-m1", ["sweep", "--all-digits", "--m-max", "1"]),
    # at and one past the first maximum of digit 1 (m = 19)
    *_both("sweep-d1-b10-m19", ["sweep", "--digit", "1", "--m-max", "19"]),
    *_both("sweep-d1-b10-m20", ["sweep", "--digit", "1", "--m-max", "20"]),
    *_both("sweep-d3-b10-m40", ["sweep", "--digit", "3", "--m-max", "40"]),
    *_both("sweep-all-b10-m12", ["sweep", "--all-digits", "--m-max", "12"]),
    *_both("sweep-d1-b2-m9", ["sweep", "--digit", "1", "--m-max", "9", "--base", "2"]),
    *_both("sweep-all-b2-m6", ["sweep", "--all-digits", "--m-max", "6", "--base", "2"]),
    # at and one past the first minimum of digit 1 in base 16 (m = 15)
    *_both("sweep-d1-b16-m15", ["sweep", "--digit", "1", "--m-max", "15", "--base", "16"]),
    *_both("sweep-d1-b16-m16", ["sweep", "--digit", "1", "--m-max", "16", "--base", "16"]),
    *_both("sweep-all-b16-m4", ["sweep", "--all-digits", "--m-max", "4", "--base", "16"]),
    # at and one past the first minimum of digit 1 in base 36 (m = 35)
    *_both("sweep-d1-b36-m35", ["sweep", "--digit", "1", "--m-max", "35", "--base", "36"]),
    *_both("sweep-d1-b36-m36", ["sweep", "--digit", "1", "--m-max", "36", "--base", "36"]),
    *_both("sweep-all-b36-m2", ["sweep", "--all-digits", "--m-max", "2", "--base", "36"]),
    *_both("sweep-digit-12", ["sweep", "--digit", "12", "--m-max", "9"]),
    *_both("theory-b2", ["theory", "--base", "2"]),
    *_both("theory-b10", ["theory"]),
    *_both("theory-b36", ["theory", "--base", "36"]),
    *_both("bounds-benford", ["bounds", "--dist", "benford"]),
    *_both("bounds-probs", ["bounds", "--probs", PROBS_WITH_VIOLATIONS]),
    *_both("analyze-diag-b10", ["analyze", "--input", "inputs/diag.txt"]),
    *_both(
        "analyze-diag-b16", ["analyze", "--input", "inputs/diag.txt", "--base", "16"]
    ),
    *_both(
        "analyze-ledger",
        [
            "analyze", "--input", "inputs/ledger.csv", "--format", "delimited",
            "--column", "2", "--candidates", "geom,benford", "--require-bounds",
        ],
    ),
    *_both("analyze-stdin", ["analyze"], "15 25 0 95\n0.31 x 2e5\n"),
    # The cases below print the table only, except the pooled one, to keep
    # the corpus small; the table shows every count and diagnostic.
    ("analyze-stdin-crlf.table", ["analyze"], "15 25\r\n0.31 x\r\n\r\n2e5\r\n"),
    # two inputs pooled into one sample, the second with CRLF line endings
    *_both(
        "analyze-pooled",
        ["analyze", "--input", "inputs/diag.txt", "--input", "inputs/crlf.txt"],
    ),
    # comma, tab and space separators, a one-field row and a `--` row
    (
        "analyze-spectrum2col.table",
        ["analyze", "--input", "inputs/spectrum.txt", "--format", "spectrum2col"],
        None,
    ),
    (
        "analyze-short-rows.table",
        [
            "analyze", "--input", "inputs/short-rows.csv", "--format", "delimited",
            "--delimiter", ";", "--column", "2",
        ],
        None,
    ),
    # zero spellings with no nonzero digit, and 1e999 beyond double range
    ("analyze-zeros-b10.table", ["analyze", "--input", "inputs/zeros.txt"], None),
    (
        "analyze-zeros-b16.table",
        ["analyze", "--input", "inputs/zeros.txt", "--base", "16"],
        None,
    ),
    # doubles just under radix powers, which the float rule carries to
    # digit 1, in two bases whose division is inexact
    (
        "analyze-radix7.table",
        ["analyze", "--input", "inputs/radix7.txt", "--base", "7"],
        None,
    ),
    (
        "analyze-radix36.table",
        ["analyze", "--input", "inputs/radix36.txt", "--base", "36"],
        None,
    ),
    ("bounds-probs-count", ["bounds", "--probs", "0.5,0.5"], None),
    # nine well-formed values that are not a distribution: they sum to 1.1
    ("bounds-probs-sum", ["bounds", "--probs", "0.3,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1"], None),
    ("analyze-missing-input", ["analyze", "--input", "inputs/no-such-file.txt"], None),
    (
        "analyze-missing-column",
        ["analyze", "--input", "inputs/ledger.csv", "--format", "delimited", "--column", "9"],
        None,
    ),
    ("analyze-unknown-candidate", ["analyze", "--candidates", "zipf"], ""),
    # refused before the input is opened: every base-2 numeral leads with 1
    ("analyze-base2", ["analyze", "--input", "inputs/diag.txt", "--base", "2"], None),
]

_ELAPSED_LINE = re.compile(r'^ *"elapsed_s": .*\n', re.MULTILINE)


@contextlib.contextmanager
def _in_golden_dir(stdin: str | None):
    cwd = os.getcwd()
    saved_stdin = sys.stdin
    os.chdir(HERE)
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        yield
    finally:
        sys.stdin = saved_stdin
        os.chdir(cwd)


def run_case(argv: list[str], stdin: str | None) -> tuple[int, str, str]:
    """(exit code, stdout without the elapsed_s line, stderr) of one run."""
    from digitlaw.cli import execute

    out, err = io.StringIO(), io.StringIO()
    with _in_golden_dir(stdin), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        exit_code = execute(argv).exit_code
    return exit_code, _ELAPSED_LINE.sub("", out.getvalue()), err.getvalue()


def main() -> int:
    for stale in HERE.glob("*.stdout"):
        stale.unlink()
    status = {}
    for name, argv, stdin in CASES:
        exit_code, stdout, stderr = run_case(argv, stdin)
        (HERE / f"{name}.stdout").write_text(stdout, encoding="utf-8")
        status[name] = {"exit_code": exit_code, "stderr": stderr}
    text = json.dumps(status, indent=2, sort_keys=True) + "\n"
    (HERE / "status.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
