"""Command-line front end for the first-digit law toolkit.

Four subcommands:

  theory    the three closed-form laws for a base, side by side
  sweep     exact frequency of a digit over {1..m} with its extremum map
  analyze   tally a dataset's leading digits and score candidate laws
  bounds    screen a distribution against the universal per-digit limits

Every command renders either a human table (default) or a single JSON
document (--output json) with the fixed key set command / base / params /
result / diagnostics / meta.  Everything outside meta is a deterministic
function of argv and the input bytes; meta carries tool version and
timing and is exempt from that guarantee.  Exact rationals appear as
num/den pairs next to their decimal value.

Exit codes: 0 success; 1 runtime failure (unreadable input, empty
sample, a `sweep --m-max` too large to index); 2 usage error (bad flags,
or `--probs` values that are not a distribution); 3 bound violation
under `analyze --require-bounds`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from . import __version__
from .digits import MAX_BASE, MIN_BASE
from .empirical import SampleSummary, empirical_fractions, merge, tally
from .errors import DigitLawError, DomainError, UsageError
from .fit import compare
from .ingest import FORMAT_DELIMITED, FORMATS, InputSpec, read_numerals
from .lawtheory import (
    DigitBounds,
    DigitDistribution,
    LABEL_CUSTOM,
    arithmetic_mean_distribution,
    benford,
    bounds_check,
    geometric_mean_distribution,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BOUNDS = 3

_LAWS: dict[str, Callable[[int], DigitDistribution]] = {
    "benford": benford,
    "geom": geometric_mean_distribution,
    "arith": arithmetic_mean_distribution,
}

_STDIN_LABEL = "<stdin>"
_BASE_RANGE = f"{MIN_BASE}..{MAX_BASE}"
SIGKILL = 9  # signal.SIGKILL on every POSIX system: no handler of the caller runs in the child


@dataclass(frozen=True)
class CommandOutcome:
    """Exit code plus the structured report the command produced.

    A sweep report does not hold its points: each series' `points` is an
    unconsumed iterator of its (m, count, num, den, value) tuples, made
    one at a time.  Emitting the report made each segment's points afresh
    (sweep.py), so a caller may still read them.
    """

    exit_code: int
    report: dict | None


def main(argv: Sequence[str] | None = None) -> int:
    outcome = execute(sys.argv[1:] if argv is None else argv)
    return outcome.exit_code


def execute(argv: Sequence[str]) -> CommandOutcome:
    """Run one command line and emit its report to --out or stdout."""
    started = time.perf_counter()
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return CommandOutcome(code, None)
    # The parser's objects, about 40 KB, hold reference cycles that only the
    # cycle collector frees.  Freed now, their memory is reused by the command.
    gc.collect()

    report: dict = {
        "command": args.command,
        "base": args.base,
        "params": {},
        "result": None,
        "diagnostics": [],
        "meta": {},
    }
    try:
        exit_code = args.handle(args, report)
        report["meta"] = {
            "tool": "digitlaw",
            "version": __version__,
            "elapsed_s": time.perf_counter() - started,
        }
        if args.output == "json":
            chunks = _render_json(report)
        else:
            chunks = args.render(report)
        _emit(chunks, args.out)
    except (DigitLawError, OSError, ArithmeticError) as exc:
        if isinstance(exc, BrokenPipeError) and args.out is None:
            # The reader has gone: say nothing, and let the flush at exit
            # write what is still buffered to devnull.
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
        else:
            print(f"digitlaw: {exc}", file=sys.stderr)
        report["diagnostics"].append({"message": str(exc)})
        code = EXIT_USAGE if isinstance(exc, UsageError) else EXIT_FAILURE
        return CommandOutcome(code, report)
    return CommandOutcome(exit_code, report)


# ---------------------------------------------------------------- parsing


def _base_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"base must be an integer, got {text!r}")
    if not MIN_BASE <= value <= MAX_BASE:
        raise argparse.ArgumentTypeError(f"base must be in {_BASE_RANGE}, got {value}")
    return value


def _positive_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--base", type=_base_flag, default=10, help=f"radix, {_BASE_RANGE} (default 10)"
    )
    common.add_argument(
        "--output",
        choices=("table", "json"),
        default="table",
        help="human table or machine JSON (default table)",
    )
    common.add_argument(
        "--out", default=None, metavar="PATH", help="write to PATH instead of stdout"
    )

    parser = argparse.ArgumentParser(
        prog="digitlaw",
        description="First significant digit analysis: exact law tables, "
        "frequency sweeps, and dataset conformance scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    theory = sub.add_parser(
        "theory",
        parents=[common],
        help="print the benford / geom / arith first-digit laws",
    )
    theory.set_defaults(handle=_handle_theory, render=_render_theory)

    sweep = sub.add_parser(
        "sweep",
        parents=[common],
        help="exact leading-digit frequency over {1..m} with extremum locations",
    )
    sweep.set_defaults(handle=_handle_sweep, render=_render_sweep)
    which = sweep.add_mutually_exclusive_group(required=True)
    which.add_argument("--digit", type=_positive_flag, help="single first digit")
    which.add_argument(
        "--all-digits", action="store_true", help="every digit of the base"
    )
    sweep.add_argument(
        "--m-max",
        type=_positive_flag,
        required=True,
        metavar="M",
        help="sweep upper limits m = 1..M",
    )

    analyze = sub.add_parser(
        "analyze",
        parents=[common],
        help="tally a dataset's leading digits and score candidate laws",
    )
    analyze.set_defaults(handle=_handle_analyze, render=_render_analyze)
    analyze.add_argument(
        "--input",
        action="append",
        metavar="PATH",
        help="input file (repeatable; default: standard input)",
    )
    analyze.add_argument("--format", choices=FORMATS, default="plain")
    analyze.add_argument(
        "--delimiter", default=",", help="field separator for --format delimited"
    )
    analyze.add_argument(
        "--column",
        type=_positive_flag,
        default=1,
        help="1-based column for --format delimited",
    )
    analyze.add_argument(
        "--candidates",
        default=",".join(_LAWS),
        help=f"comma list from {', '.join(_LAWS)}",
    )
    analyze.add_argument(
        "--require-bounds",
        action="store_true",
        help="exit 3 if the sample violates the per-digit probability limits",
    )

    bounds = sub.add_parser(
        "bounds",
        parents=[common],
        help="check a distribution against the per-digit probability limits",
    )
    bounds.set_defaults(handle=_handle_bounds, render=_render_bounds)
    source = bounds.add_mutually_exclusive_group(required=True)
    source.add_argument("--dist", choices=sorted(_LAWS))
    source.add_argument(
        "--probs", metavar="P1,P2,...", help="explicit probabilities, one per digit"
    )
    return parser


# ------------------------------------------------- report fields and handlers

# A table cell's %-conversion, with {} where its width flag goes.
_TEXT_CELL = "%{}s"
_SIG4_CELL = "%#{}.4g"
_sig4 = _SIG4_CELL.format("").__mod__

# The columns of a table of docs: (header, doc key, width[, conversion]).
# Each doc holds the keys its table prints, read from the record's
# attributes of the same names, as _SAMPLE_KEYS and _LAW_KEYS are.
_CANDIDATE_COLUMNS = (
    ("label", "label", 10), ("r", "r", 12, _SIG4_CELL),
    ("chi_square", "chi_square", 14, _SIG4_CELL), ("dof", "chi_square_dof", 6),
    ("mad", "mad", 12, _SIG4_CELL), ("max_abs_dev", "max_abs_dev", 0, _SIG4_CELL),
)
_BOUNDS_COLUMNS = (
    ("n", "digit", 4), ("lower", "lower", 18), ("p", "probability", 12, _SIG4_CELL),
    ("upper", "upper", 18), ("within", "within", 0),
)
_CANDIDATE_KEYS = tuple(column[1] for column in _CANDIDATE_COLUMNS)
_BOUNDS_KEYS = tuple(column[1] for column in _BOUNDS_COLUMNS)
_SAMPLE_KEYS = ("source", "counts", "total_read", "used", "skipped_zero", "skipped_nonfinite")
_LAW_KEYS = ("label", "probabilities")


def _fraction_doc(fr: Fraction) -> dict:
    return {"num": fr.numerator, "den": fr.denominator}


def _doc(record, keys: Iterable[str]) -> dict:
    """The record's attributes named by keys: a Fraction as num/den, a tuple as a list."""
    doc = {}
    for key in keys:
        value = getattr(record, key)
        if isinstance(value, Fraction):
            value = _fraction_doc(value)
        elif isinstance(value, tuple):
            value = list(value)
        doc[key] = value
    return doc


def _handle_theory(args, report: dict) -> int:
    report["result"] = {
        "digits": list(range(1, args.base)),
        "laws": [_doc(law(args.base), _LAW_KEYS) for law in _LAWS.values()],
    }
    return EXIT_OK


# The sweep command's code is in sweep.py, which only a sweep loads, as only
# analyze loads parallel.py.


def _handle_sweep(args, report: dict) -> int:
    from .sweep import handle

    return handle(args, report)


def _render_sweep(report: dict) -> Iterator[str]:
    from .sweep import render_table

    return render_table(report)


def fork_cpus() -> int:
    """How many processes a command may run in: its usable CPUs, or 1 where it may not fork.

    The usable CPUs are the process's CPU affinity (os.cpu_count() where
    there is none).  It may not fork without os.fork, nor while another
    thread runs: a lock that thread holds would stay held in the child.
    """
    if not hasattr(os, "fork") or len(sys._current_frames()) > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_candidates(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise UsageError("--candidates needs at least one name")
    unknown = [name for name in names if name not in _LAWS]
    if unknown:
        raise UsageError(
            f"unknown candidates {', '.join(sorted(unknown))}; "
            f"choose from {', '.join(sorted(_LAWS))}"
        )
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise UsageError(f"candidates named more than once: {', '.join(repeated)}")
    return names


def _read_inputs(args, spec: InputSpec, diagnostics: list[dict]) -> SampleSummary:
    """Every input tallied into one sample; each input's diagnostics go to diagnostics.

    Standard input is read in this process.  The --input files, one or
    several, go to parallel.read_in_shares, imported only for them, which
    may cut them into byte windows read in forked shares, each share by
    _read_share.  A delimited file is never cut: a column missing from
    every data line is a fault of the whole file.
    """
    if args.input:
        from .parallel import read_in_shares

        def read_share(share, diags):
            return _read_share(args, spec, share, diags)

        split_files = spec.format != FORMAT_DELIMITED
        return read_in_shares(args.input, read_share, diagnostics, split_files=split_files)
    if sys.stdin is None:  # closed, as by `<&-`
        raise OSError("standard input is closed; name the input with --input")
    if hasattr(sys.stdin, "reconfigure"):  # decode and end lines as a file does
        sys.stdin.reconfigure(encoding="utf-8", errors="replace", newline=None)
    return _read_share(args, spec, [(_STDIN_LABEL, 0, None)], diagnostics)


def _read_share(
    args, spec: InputSpec, share: list[tuple], diagnostics: list[dict]
) -> SampleSummary:
    """The byte windows (label, start, stop) of share tallied into one sample.

    Their diagnostics go to diagnostics.  A window is read as its whole
    file would be, but one that starts past the file's first byte keeps a
    leading U+FEFF, numbers its lines on from the lines before it and adds
    no second copy of the file's label to the sample's source.  Standard
    input, read whole, is left open.
    """
    summaries = []
    for label, start, stop in share:
        diags = []
        stream = contextlib.nullcontext(sys.stdin)
        if args.input:
            from .parallel import lines_before, open_window

            stream = open_window(label, start, stop)
        with stream as lines:
            numerals = read_numerals(spec, lines, diags, drop_bom=not start)
            summaries.append(tally(numerals, args.base, source="" if start else label))
        first = lines_before(label, start) if start and diags else 0
        diagnostics.extend(
            {"source": label, "line": first + d.line, "message": d.message} for d in diags
        )
    return merge(summaries)


def _bounds_doc(entries: Sequence[DigitBounds]) -> dict:
    docs = [_doc(entry, _BOUNDS_KEYS) for entry in entries]
    return {"all_within": all(doc["within"] for doc in docs), "entries": docs}


def _handle_analyze(args, report: dict) -> int:
    if args.base == 2:
        raise UsageError("analyze needs base 3 or more: in base 2 every numeral leads with 1")
    names = _parse_candidates(args.candidates)
    try:
        spec = InputSpec(
            format=args.format, delimiter=args.delimiter, column=args.column
        )
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    report["params"] = {
        "inputs": list(args.input) if args.input else [_STDIN_LABEL],
        "format": args.format,
        "delimiter": args.delimiter,
        "column": args.column,
        "candidates": names,
        "require_bounds": bool(args.require_bounds),
    }
    summary = _read_inputs(args, spec, report["diagnostics"])
    fit = compare(summary, [_LAWS[name](args.base) for name in names])
    bounds = _bounds_doc(fit.bounds)
    report["result"] = {
        "sample": _doc(fit.sample, _SAMPLE_KEYS),
        "empirical": {
            "probabilities": list(fit.empirical.probabilities),
            "fractions": [_fraction_doc(fr) for fr in empirical_fractions(fit.sample)],
        },
        "candidates": [_doc(entry, _CANDIDATE_KEYS) for entry in fit.entries],
        "best_by_r": fit.best_by_r,
        "bounds": bounds,
    }
    return EXIT_BOUNDS if args.require_bounds and not bounds["all_within"] else EXIT_OK


def _handle_bounds(args, report: dict) -> int:
    if args.dist is not None:
        dist = _LAWS[args.dist](args.base)
    else:
        pieces = [part.strip() for part in args.probs.split(",") if part.strip()]
        try:
            dist = DigitDistribution(args.base, tuple(map(float, pieces)), LABEL_CUSTOM)
        except DomainError as exc:  # values that are not a distribution
            raise UsageError(str(exc)) from None
        except ValueError as exc:
            raise UsageError(f"--probs: {exc}") from None
    probs = None if args.probs is None else list(dist.probabilities)
    report["params"] = {"dist": args.dist, "probs": probs}
    report["result"] = {**_doc(dist, _LAW_KEYS), "bounds": _bounds_doc(bounds_check(dist))}
    return EXIT_OK


# ------------------------------------------------------------- rendering


def _emit(chunks: Iterator[str], out_path: str | None) -> None:
    """Write the text pieces as they come, to out_path or stdout.

    The generator chunks is closed even when a write fails, so that it can
    end what it started (a sweep's forked renderers) at once.
    """
    with contextlib.closing(chunks):
        if out_path is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)


# Lines per written piece, each line a table row or a JSON point (about 6
# or 21 KB a piece).  At 1024 lines sweep-json's peak RSS read about 16.6 MB
# against 15.75 MB at 128, and no run was faster.
_LINES_PER_WRITE = 128

def _render_json(report: dict) -> Iterator[str]:
    """json.dumps(report, indent=2, sort_keys=True) + "\n", in pieces."""
    if report["command"] == "sweep":  # its points are made segment by segment
        from .sweep import render_json

        yield from render_json(report)
        return
    yield json.dumps(report, indent=2, sort_keys=True)
    yield "\n"


def _table(
    indent: str, columns: Sequence[tuple], rows: Iterable[tuple], head: bool = True
) -> Iterator[str]:
    """A header line (unless head is false) plus one line per row, each cell left-aligned.

    columns holds (header, width) pairs, or (header, width, conversion)
    for a cell not printed by _TEXT_CELL.  Every column but the last is
    padded to its width; the last is not, so no line ends in blanks.
    Each row is one % operation, and the lines come _LINES_PER_WRITE to
    a newline-terminated piece.
    """
    pads = [f"-{column[1]}" for column in columns[:-1]] + [""]
    conversions = [column[2] if len(column) > 2 else _TEXT_CELL for column in columns]
    header = indent + "".join(_TEXT_CELL.format(pad) for pad in pads) + "\n"
    fmt = indent + "".join(map(str.format, conversions, pads)) + "\n"
    if head:
        yield header % tuple(column[0] for column in columns)
    lines = map(fmt.__mod__, rows)
    while piece := "".join(islice(lines, _LINES_PER_WRITE)):
        yield piece


def _render_theory(report: dict) -> Iterator[str]:
    laws = report["result"]["laws"]
    columns = [("n", 4)] + [(law["label"], 12, _SIG4_CELL) for law in laws]
    rows = (
        (n, *(law["probabilities"][n - 1] for law in laws))
        for n in report["result"]["digits"]
    )
    yield f"first-digit laws, base {report['base']}\n"
    yield from _table("", columns, rows)


def _fraction_cell(fr: dict) -> str:
    return f"{fr['num']}/{fr['den']} = {_sig4(fr['num'] / fr['den'])}"


def _cell(value):
    """A doc value as a table prints it: num/den with its value, a bool as yes or NO."""
    if isinstance(value, dict):
        return _fraction_cell(value)
    if isinstance(value, bool):
        return "yes" if value else "NO"
    return value


def _doc_table(columns: Sequence[tuple], docs: Iterable[dict]) -> Iterator[str]:
    """A two-space-indented _table of (header, key, width[, conversion]) columns."""
    keys = [column[1] for column in columns]
    rows = (tuple(_cell(doc[key]) for key in keys) for doc in docs)
    return _table("  ", [(column[0], *column[2:]) for column in columns], rows)


def _render_bounds_block(doc: dict) -> Iterator[str]:
    verdict = "all digits within limits" if doc["all_within"] else "limit violations present"
    yield from _doc_table(_BOUNDS_COLUMNS, doc["entries"])
    yield f"  {verdict}\n"


def _render_analyze(report: dict) -> Iterator[str]:
    result = report["result"]
    sample = result["sample"]
    empirical = result["empirical"]
    per_digit = zip(sample["counts"], empirical["fractions"], empirical["probabilities"])
    digit_rows = (
        (n, count, f"{fr['num']}/{fr['den']}", p)
        for n, (count, fr, p) in enumerate(per_digit, start=1)
    )
    yield (
        "sample {source}: read {total_read}, used {used}, skipped {skipped_zero} "
        "zero and {skipped_nonfinite} non-finite\n"
    ).format_map(sample)
    yield "empirical first-digit frequencies:\n"
    digit_columns = [("n", 4), ("count", 10), ("exact", 16), ("p", 0, _SIG4_CELL)]
    yield from _table("  ", digit_columns, digit_rows)
    yield "candidates:\n"
    yield from _doc_table(_CANDIDATE_COLUMNS, result["candidates"])
    yield f"best by r: {result['best_by_r']}\n"
    yield "bound check of the sample:\n"
    yield from _render_bounds_block(result["bounds"])
    diagnostics = report["diagnostics"]
    if diagnostics:
        yield f"diagnostics ({len(diagnostics)}):\n"
        for d in diagnostics:
            yield f"  {d['source']} line {d['line']}: {d['message']}\n"


def _render_bounds(report: dict) -> Iterator[str]:
    result = report["result"]
    yield (
        f"per-digit probability limits, base {report['base']}, "
        f"distribution {result['label']}\n"
    )
    yield from _render_bounds_block(result["bounds"])


if __name__ == "__main__":
    sys.exit(main())
