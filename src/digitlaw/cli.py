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
sample, capacity overflow); 2 usage error; 3 bound violation under
`analyze --require-bounds`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from . import __version__
from .digits import MAX_BASE, MIN_BASE, check_digit
from .empirical import SampleSummary, empirical_fractions, merge, tally
from .errors import CapacityError, DigitLawError, DomainError, UsageError
from .fit import FitReport, compare
from .ingest import FORMATS, InputSpec, read_numerals
from .lawtheory import (
    DigitBounds,
    DigitDistribution,
    INT_CAPACITY,
    KIND_MIN,
    LABEL_CUSTOM,
    arithmetic_mean_distribution,
    benford,
    bounds_check,
    extrema_within,
    frequency_series,
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


@dataclass(frozen=True)
class CommandOutcome:
    """Exit code plus the structured report the command produced.

    A sweep report is streamed, not held: each series' `points` is an
    iterator of (m, count, num, den, value) tuples, which emitting the
    report has consumed by the time the outcome is returned.
    """

    exit_code: int
    report: dict | None


def main(argv: Sequence[str] | None = None) -> int:
    outcome = execute(sys.argv[1:] if argv is None else argv)
    return outcome.exit_code


def execute(argv: Sequence[str]) -> CommandOutcome:
    """Run one command line and emit its report to --out or stdout."""
    started = time.perf_counter()
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return CommandOutcome(code, None)

    report: dict = {
        "command": args.command,
        "base": args.base,
        "params": {},
        "result": None,
        "diagnostics": [],
        "meta": {},
    }
    try:
        params, result, diagnostics, exit_code = args.handle(args)
        report.update(params=params, result=result, diagnostics=diagnostics)
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
        report["diagnostics"] = [{"message": str(exc)}]
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


# ------------------------------------------------------------- handlers


def _handle_theory(args) -> tuple[dict, dict, list, int]:
    laws = [
        {"label": name, "probabilities": list(law(args.base).probabilities)}
        for name, law in _LAWS.items()
    ]
    result = {"digits": list(range(1, args.base)), "laws": laws}
    return {}, result, [], EXIT_OK


def _sweep_digit(n: int, m_max: int, radix: int) -> dict:
    minima, maxima = [], []
    for e in extrema_within(n, m_max, radix):
        value = e.value
        doc = {"k": e.k, "m": e.location_m, "value": float(value), **_fraction_doc(value)}
        (minima if e.kind == KIND_MIN else maxima).append(doc)
    points = frequency_series(n, m_max, radix)
    return {"digit": n, "points": points, "minima": minima, "maxima": maxima}


def _handle_sweep(args) -> tuple[dict, dict, list, int]:
    digits = range(1, args.base)
    if not args.all_digits:
        try:
            digits = [check_digit(args.digit, args.base)]
        except DomainError as exc:
            raise UsageError(str(exc)) from None
    if args.m_max > INT_CAPACITY:
        raise CapacityError(f"sweep --m-max: {args.m_max} exceeds 2**63 - 1")
    params = {
        "digit": None if args.all_digits else args.digit,
        "all_digits": bool(args.all_digits),
        "m_max": args.m_max,
    }
    result = {
        "m_max": args.m_max,
        "series": [_sweep_digit(n, args.m_max, args.base) for n in digits],
    }
    return params, result, [], EXIT_OK


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


def _read_inputs(args, spec: InputSpec, base: int):
    summaries = []
    diagnostics: list[dict] = []
    for label in args.input or [_STDIN_LABEL]:
        diags = []
        if args.input:
            stream = open(label, "r", encoding="utf-8", errors="replace")
        else:
            # Decode as a file is decoded; a stand-in stream is left as it is.
            if hasattr(sys.stdin, "reconfigure"):
                sys.stdin.reconfigure(encoding="utf-8", errors="replace")
            stream = contextlib.nullcontext(sys.stdin)
        with stream as lines:
            summaries.append(tally(read_numerals(spec, lines, diags), base, source=label))
        diagnostics.extend(
            {"source": label, "line": d.line, "message": d.message} for d in diags
        )
    return merge(summaries), diagnostics


def _fraction_doc(fr: Fraction) -> dict:
    return {"num": fr.numerator, "den": fr.denominator}


def _bounds_doc(entries: Sequence[DigitBounds]) -> dict:
    docs = [
        {
            "digit": entry.digit,
            "lower": _fraction_doc(entry.lower),
            "probability": entry.probability,
            "upper": _fraction_doc(entry.upper),
            "within": entry.within,
        }
        for entry in entries
    ]
    return {"all_within": all(doc["within"] for doc in docs), "entries": docs}


def _sample_doc(summary: SampleSummary) -> dict:
    return {
        "source": summary.source,
        "counts": list(summary.counts),
        "total_read": summary.total_read,
        "used": summary.used,
        "skipped_zero": summary.skipped_zero,
        "skipped_nonfinite": summary.skipped_nonfinite,
    }


def _fit_doc(fit: FitReport) -> dict:
    return {
        "sample": _sample_doc(fit.sample),
        "empirical": {
            "probabilities": list(fit.empirical.probabilities),
            "fractions": [_fraction_doc(fr) for fr in empirical_fractions(fit.sample)],
        },
        "candidates": [
            {
                "label": entry.label,
                "r": entry.r,
                "chi_square": entry.chi_square,
                "chi_square_dof": entry.chi_square_dof,
                "mad": entry.mad,
                "max_abs_dev": entry.max_abs_dev,
            }
            for entry in fit.entries
        ],
        "best_by_r": fit.best_by_r,
        "bounds": _bounds_doc(fit.bounds),
    }


def _handle_analyze(args) -> tuple[dict, dict, list, int]:
    if args.base == 2:
        raise UsageError("analyze needs base 3 or more: in base 2 every numeral leads with 1")
    names = _parse_candidates(args.candidates)
    try:
        spec = InputSpec(
            format=args.format, delimiter=args.delimiter, column=args.column
        )
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    summary, diagnostics = _read_inputs(args, spec, args.base)
    fit = compare(summary, [_LAWS[name](args.base) for name in names])
    params = {
        "inputs": list(args.input) if args.input else [_STDIN_LABEL],
        "format": args.format,
        "delimiter": args.delimiter,
        "column": args.column,
        "candidates": names,
        "require_bounds": bool(args.require_bounds),
    }
    result = _fit_doc(fit)
    exit_code = EXIT_OK
    if args.require_bounds and not result["bounds"]["all_within"]:
        exit_code = EXIT_BOUNDS
    return params, result, diagnostics, exit_code


def _handle_bounds(args) -> tuple[dict, dict, list, int]:
    if args.dist is not None:
        dist = _LAWS[args.dist](args.base)
    else:
        pieces = [part.strip() for part in args.probs.split(",") if part.strip()]
        if len(pieces) != args.base - 1:
            raise UsageError(
                f"--probs needs {args.base - 1} values for base {args.base}, "
                f"got {len(pieces)}"
            )
        try:
            probs = tuple(float(part) for part in pieces)
        except ValueError as exc:
            raise UsageError(f"--probs: {exc}") from None
        dist = DigitDistribution(args.base, probs, LABEL_CUSTOM)
    params = {"dist": args.dist, "probs": None if args.probs is None else list(dist.probabilities)}
    result = {
        "label": dist.label,
        "probabilities": list(dist.probabilities),
        "bounds": _bounds_doc(bounds_check(dist)),
    }
    return params, result, [], EXIT_OK


# ------------------------------------------------------------- rendering


def _sig4(x: float) -> str:
    return format(x, "#.4g")


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the text pieces as they come, to out_path or stdout."""
    if out_path is None:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)


# One sweep point as json.dumps(indent=2, sort_keys=True) lays it out in a
# report: items of a series' points list sit 10 spaces deep, their keys 12.
# %d and %r print ints and floats exactly as the encoder does.
_JSON_POINT = (
    "\n          {"
    '\n            "count": %d,'
    '\n            "den": %d,'
    '\n            "m": %d,'
    '\n            "num": %d,'
    '\n            "value": %r'
    "\n          }"
)
_EMPTY_POINTS = '"points": []'
_POINTS_PER_WRITE = 1024


def _render_json(report: dict) -> Iterator[str]:
    """json.dumps(report, indent=2, sort_keys=True) + "\n", in pieces.

    A sweep's point series are not handed to the encoder: the rest of the
    report is encoded with an empty list in each series' place, and the
    points are spliced in there a batch at a time, in the encoder's layout.
    The key "points" appears nowhere else in a sweep report, and never
    inside an encoded string, whose quotes are escaped.
    """
    streams = []
    if report["command"] == "sweep":
        result = report["result"]
        streams = [s["points"] for s in result["series"]]
        hollow = [{**s, "points": []} for s in result["series"]]
        report = {**report, "result": {**result, "series": hollow}}
    text = json.dumps(report, indent=2, sort_keys=True)
    head, *tails = text.split(_EMPTY_POINTS, len(streams))
    yield head
    for points, tail in zip(streams, tails):
        yield from _json_points(points)
        yield tail
    yield "\n"


def _json_points(points: Iterable[tuple]) -> Iterator[str]:
    """A series' `"points": [...]` member, a batch of points per piece."""
    points = iter(points)
    yield '"points": ['
    separator = ""
    while batch := list(islice(points, _POINTS_PER_WRITE)):
        yield separator + ",".join(
            _JSON_POINT % (count, den, m, num, value)
            for m, count, num, den, value in batch
        )
        separator = ","
    yield "\n        ]" if separator else "]"


# A table cell's %-conversion, with {} where its width flag goes.
# _SIG4_CELL prints a float as _sig4 does.
_TEXT_CELL = "%{}s"
_SIG4_CELL = "%#{}.4g"
# Rows per written piece.  A few KB of text at most: much larger pieces
# lift the peak resident set of a long sweep.
_ROWS_PER_WRITE = 128


def _table(
    indent: str, columns: Sequence[tuple], rows: Iterable[tuple]
) -> Iterator[str]:
    """A header line plus one line per row, each cell left-aligned.

    columns holds (header, width) pairs, or (header, width, conversion)
    for a cell not printed by _TEXT_CELL.  Every column but the last is
    padded to its width; the last is not, so no line ends in blanks.
    Each row is one % operation, and the lines come _ROWS_PER_WRITE to
    a newline-terminated piece.
    """
    pads = [f"-{column[1]}" for column in columns[:-1]] + [""]
    conversions = [column[2] if len(column) > 2 else _TEXT_CELL for column in columns]
    head = indent + "".join(_TEXT_CELL.format(pad) for pad in pads) + "\n"
    fmt = indent + "".join(map(str.format, conversions, pads)) + "\n"
    yield head % tuple(column[0] for column in columns)
    lines = map(fmt.__mod__, rows)
    while piece := "".join(islice(lines, _ROWS_PER_WRITE)):
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


def _render_sweep(report: dict) -> Iterator[str]:
    result = report["result"]
    yield (
        f"leading-digit frequency over {{1..m}}, base {report['base']}, "
        f"m up to {result['m_max']}\n"
    )
    columns = [("m", 10), ("count", 10), ("exact", 16), ("value", 0, _SIG4_CELL)]
    for i, series in enumerate(result["series"]):
        if i:
            yield "\n"
        yield f"digit {series['digit']}:\n"
        rows = (
            (m, count, f"{num}/{den}", value)
            for m, count, num, den, value in series["points"]
        )
        yield from _table("  ", columns, rows)
        for kind in ("minima", "maxima"):
            yield f"  {kind}:\n"
            if not series[kind]:
                yield "    (none in range)\n"
            for e in series[kind]:
                yield (
                    f"    k={e['k']}  m={e['m']}  "
                    f"{e['num']}/{e['den']} = {_sig4(e['value'])}\n"
                )


def _fraction_cell(fr: dict) -> str:
    return f"{fr['num']}/{fr['den']} = {_sig4(fr['num'] / fr['den'])}"


def _render_bounds_block(doc: dict) -> Iterator[str]:
    columns = [
        ("n", 4), ("lower", 18), ("p", 12, _SIG4_CELL), ("upper", 18), ("within", 0)
    ]
    rows = (
        (
            entry["digit"],
            _fraction_cell(entry["lower"]),
            entry["probability"],
            _fraction_cell(entry["upper"]),
            "yes" if entry["within"] else "NO",
        )
        for entry in doc["entries"]
    )
    verdict = "all digits within limits" if doc["all_within"] else "limit violations present"
    yield from _table("  ", columns, rows)
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
    candidate_columns = [
        ("label", 10), ("r", 12, _SIG4_CELL), ("chi_square", 14, _SIG4_CELL),
        ("dof", 6), ("mad", 12, _SIG4_CELL), ("max_abs_dev", 0, _SIG4_CELL),
    ]
    candidate_rows = (
        (
            entry["label"],
            entry["r"],
            entry["chi_square"],
            entry["chi_square_dof"],
            entry["mad"],
            entry["max_abs_dev"],
        )
        for entry in result["candidates"]
    )
    yield (
        f"sample {sample['source']}: read {sample['total_read']}, "
        f"used {sample['used']}, skipped {sample['skipped_zero']} zero "
        f"and {sample['skipped_nonfinite']} non-finite\n"
    )
    yield "empirical first-digit frequencies:\n"
    digit_columns = [("n", 4), ("count", 10), ("exact", 16), ("p", 0, _SIG4_CELL)]
    yield from _table("  ", digit_columns, digit_rows)
    yield "candidates:\n"
    yield from _table("  ", candidate_columns, candidate_rows)
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
