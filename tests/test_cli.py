"""Command-line behavior: reports, rendering, exit codes, determinism."""

import ast
import contextlib
import errno
import io
import json
import math
import operator
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from digitlaw import parallel, sweep
from digitlaw.children import processes
from digitlaw.cli import (
    EXIT_BOUNDS,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    execute,
    main,
)
from digitlaw.lawtheory import (
    arithmetic_mean_distribution,
    benford,
    geometric_mean_distribution,
    leading_digit_count,
)
from digitlaw.parallel import plan
from digitlaw.sweep import _json_points
from digitlaw.text import SIG4_CELL, table


def run_json(argv, capsys):
    outcome = execute(argv + ["--output", "json"])
    captured = capsys.readouterr()
    assert outcome.exit_code == EXIT_OK, captured.err
    return json.loads(captured.out)


REPORT_KEYS = {"command", "base", "params", "result", "diagnostics", "meta"}


# ------------------------------------------------------------- theory


def test_theory_json_report_shape_and_values(capsys):
    doc = run_json(["theory", "--base", "10"], capsys)
    assert set(doc) == REPORT_KEYS
    assert doc["command"] == "theory" and doc["base"] == 10
    labels = [law["label"] for law in doc["result"]["laws"]]
    assert labels == ["benford", "geom", "arith"]
    expected = {
        "benford": benford(10),
        "geom": geometric_mean_distribution(10),
        "arith": arithmetic_mean_distribution(10),
    }
    for law in doc["result"]["laws"]:
        assert law["probabilities"] == list(expected[law["label"]].probabilities)
    assert doc["result"]["digits"] == list(range(1, 10))
    assert set(doc["meta"]) == {"tool", "version", "elapsed_s"}


def test_theory_table_prints_four_significant_digits(capsys):
    outcome = execute(["theory", "--base", "10"])
    out = capsys.readouterr().out
    assert outcome.exit_code == EXIT_OK
    assert "0.3010" in out and "0.04576" in out and "0.3046" in out
    assert out.startswith("first-digit laws, base 10")


def test_theory_base_two_prints_the_single_entry(capsys):
    outcome = execute(["theory", "--base", "2"])
    out = capsys.readouterr().out
    assert outcome.exit_code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[-1].split() == ["1", "1.000", "1.000", "1.000"]


# -------------------------------------------------------------- sweep


def test_sweep_single_digit_series_and_extrema(capsys):
    doc = run_json(["sweep", "--digit", "1", "--m-max", "2000"], capsys)
    (series,) = doc["result"]["series"]
    assert series["digit"] == 1
    assert len(series["points"]) == 2000
    first, last = series["points"][0], series["points"][-1]
    assert first == {"m": 1, "count": 1, "num": 1, "den": 1, "value": 1.0}
    assert last["m"] == 2000 and last["count"] == 1111  # 2000 starts with 2
    minima = [(e["m"], e["num"], e["den"]) for e in series["minima"]]
    maxima = [(e["m"], e["num"], e["den"]) for e in series["maxima"]]
    assert minima == [(9, 1, 9), (99, 1, 9), (999, 1, 9)]
    assert maxima == [(19, 11, 19), (199, 111, 199), (1999, 1111, 1999)]
    assert [e["k"] for e in series["minima"]] == [1, 2, 3]


def test_sweep_points_are_reduced_fractions(capsys):
    doc = run_json(["sweep", "--digit", "2", "--m-max", "60"], capsys)
    (series,) = doc["result"]["series"]
    for point in series["points"]:
        fraction = Fraction(point["count"], point["m"])
        assert (point["num"], point["den"]) == (
            fraction.numerator,
            fraction.denominator,
        )
        assert point["value"] == float(fraction)


def test_sweep_all_digits_emits_one_series_per_digit(capsys):
    doc = run_json(["sweep", "--all-digits", "--m-max", "50", "--base", "8"], capsys)
    assert [s["digit"] for s in doc["result"]["series"]] == list(range(1, 8))
    assert doc["params"] == {"digit": None, "all_digits": True, "m_max": 50}


def test_sweep_base_two_has_no_extrema(capsys):
    doc = run_json(["sweep", "--digit", "1", "--m-max", "40", "--base", "2"], capsys)
    (series,) = doc["result"]["series"]
    assert series["minima"] == [] and series["maxima"] == []
    assert all(p["value"] == 1.0 for p in series["points"])


def test_sweep_table_lists_extrema(capsys):
    outcome = execute(["sweep", "--digit", "1", "--m-max", "25"])
    out = capsys.readouterr().out
    assert outcome.exit_code == EXIT_OK
    assert "minima:" in out and "k=1  m=9  1/9" in out
    assert "maxima:" in out and "k=1  m=19  11/19" in out


def test_sweep_usage_errors(capsys):
    assert execute(["sweep", "--m-max", "10"]).exit_code == EXIT_USAGE
    assert (
        execute(["sweep", "--digit", "1", "--all-digits", "--m-max", "9"]).exit_code
        == EXIT_USAGE
    )
    assert execute(["sweep", "--digit", "1"]).exit_code == EXIT_USAGE
    assert execute(["sweep", "--digit", "1", "--m-max", "0"]).exit_code == EXIT_USAGE
    assert (
        execute(["sweep", "--digit", "12", "--m-max", "9"]).exit_code == EXIT_USAGE
    )
    capsys.readouterr()


def test_sweep_m_max_beyond_capacity_fails_before_any_output(capsys):
    for which in (["--digit", "1"], ["--all-digits"]):
        for output in ("table", "json"):
            argv = ["sweep", *which, "--m-max", str(2**63), "--output", output]
            outcome = execute(argv)
            captured = capsys.readouterr()
            assert outcome.exit_code == EXIT_FAILURE
            assert "9223372036854775808 exceeds 2**63 - 1" in captured.err
            assert captured.out == ""


def exact_point(n, m, radix):
    """A sweep point built from the per-m count, as a dict."""
    count = leading_digit_count(n, m, radix)
    exact = Fraction(count, m)
    return {
        "m": m,
        "count": count,
        "num": exact.numerator,
        "den": exact.denominator,
        "value": float(exact),
    }


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_streamed_sweep_json_is_the_encoder_text_of_the_whole_report(data):
    radix = data.draw(st.integers(2, 36), label="radix")
    all_digits = data.draw(st.booleans(), label="all_digits")
    which = ["--all-digits"]
    if not all_digits:
        which = ["--digit", str(data.draw(st.integers(1, radix - 1), label="n"))]
    limit = 2000 // (radix - 1) if all_digits else 2000
    m_max = data.draw(st.integers(1, limit), label="m_max")
    argv = ["sweep", *which, "--m-max", str(m_max), "--base", str(radix)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outcome = execute(argv + ["--output", "json"])
    assert outcome.exit_code == EXIT_OK
    report = outcome.report
    series = report["result"]["series"]
    assert all(iter(s["points"]) is s["points"] for s in series)  # an iterator, not a list
    materialised = {
        **report,
        "result": {
            **report["result"],
            "series": [
                {
                    **s,
                    "points": [
                        exact_point(s["digit"], m, radix) for m in range(1, m_max + 1)
                    ],
                }
                for s in series
            ],
        },
    }
    expected = json.dumps(materialised, indent=2, sort_keys=True) + "\n"
    assert out.getvalue() == expected
    # emission made each segment's points afresh, so every iterator still gives them all
    assert [list(s["points"]) for s in series] == [
        [(p["m"], p["count"], p["num"], p["den"], p["value"]) for p in s["points"]]
        for s in materialised["result"]["series"]
    ]


def brute_counts(n, radix, m_top):
    """counts[m] = how many of 1..m lead with digit n, for m = 0..m_top.

    Leading digits come from repeated integer division, with nothing
    taken from digitlaw.
    """
    counts = [0]
    for i in range(1, m_top + 1):
        while i >= radix:
            i //= radix
        counts.append(counts[-1] + (i == n))
    return counts


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sweep_json_agrees_with_brute_force_enumeration(data):
    radix = data.draw(st.integers(2, 36), label="radix")
    n = data.draw(st.integers(1, radix - 1), label="n")
    m_max = data.draw(st.integers(1, 1500), label="m_max")
    argv = ["sweep", "--digit", str(n), "--m-max", str(m_max), "--base", str(radix)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outcome = execute(argv + ["--output", "json"])
    assert outcome.exit_code == EXIT_OK
    (series,) = json.loads(out.getvalue())["result"]["series"]
    counts = brute_counts(n, radix, m_max + 1)

    def ratio(m):
        g = math.gcd(counts[m], m)
        return {"num": counts[m] // g, "den": m // g, "value": counts[m] / m}

    assert series["points"] == [
        {"m": m, "count": counts[m], **ratio(m)} for m in range(1, m_max + 1)
    ]
    extrema = (("minima", n, operator.lt), ("maxima", n + 1, operator.gt))
    for kind, first, beats in extrema:
        # the paper's locations first*N^k - 1, k >= 1; base 2 has none
        expected = []
        k = 1
        while radix > 2 and first * radix**k - 1 <= m_max:
            expected.append((k, first * radix**k - 1))
            k += 1
        assert [(e["k"], e["m"]) for e in series[kind]] == expected
        for entry in series[kind]:
            m = entry["m"]
            assert {key: entry[key] for key in ("num", "den", "value")} == ratio(m)
            here = Fraction(counts[m], m)
            assert beats(here, Fraction(counts[m - 1], m - 1))
            assert beats(here, Fraction(counts[m + 1], m + 1))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sweep_table_agrees_with_brute_force_enumeration(data):
    radix = data.draw(st.integers(2, 36), label="radix")
    if data.draw(st.booleans(), label="all_digits"):
        digits, which = range(1, radix), ["--all-digits"]
    else:
        n = data.draw(st.integers(1, radix - 1), label="n")
        digits, which = [n], ["--digit", str(n)]
    m_max = data.draw(st.integers(1, 1500), label="m_max")
    argv = ["sweep", *which, "--m-max", str(m_max), "--base", str(radix)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert execute(argv).exit_code == EXIT_OK
    lines = out.getvalue().splitlines()
    assert [line for line in lines if line.endswith(" ")] == []
    assert lines.count("  m         count     exact           value") == len(digits)
    tables = []
    for line in lines:
        if line.startswith("digit "):
            tables.append((line, []))
        elif line[2:3].isdigit():  # a data row; extremum lines are indented 4
            tables[-1][1].append(tuple(line.split()))

    def rows(n):
        counts = brute_counts(n, radix, m_max)
        for m in range(1, m_max + 1):
            g = math.gcd(counts[m], m)
            value = format(counts[m] / m, "#.4g")
            yield str(m), str(counts[m]), f"{counts[m] // g}/{m // g}", value

    assert tables == [(f"digit {n}:", list(rows(n))) for n in digits]


def reference_table(indent, columns, rows):
    """A table as it was printed a line at a time, with format(x, "#.4g")
    for the cells of a column that names a conversion."""
    fmt = indent + "".join(f"%-{column[1]}s" for column in columns[:-1]) + "%s"
    yield fmt % tuple(column[0] for column in columns)
    for row in rows:
        yield fmt % tuple(
            format(cell, "#.4g") if len(column) > 2 else cell
            for cell, column in zip(row, columns)
        )


@pytest.mark.parametrize("n_rows", [0, 1, 127, 128, 129, 257])
def test_table_pieces_match_line_at_a_time_rendering(n_rows):
    columns = [
        ("n", 6), ("ratio", 12, SIG4_CELL), ("exact", 10), ("scaled", 0, SIG4_CELL)
    ]
    specials = [0.0, -0.0, math.inf, -math.nan, 5e-324, 1.7976931348623157e308]
    scaled = specials + [-(10.0 ** (i % 60 - 30)) for i in range(len(specials), n_rows)]
    rows = [(i, i / 7, f"{i}/7", scaled[i]) for i in range(n_rows)]
    pieces = list(table("  ", columns, iter(rows)))
    expected = "".join(line + "\n" for line in reference_table("  ", columns, rows))
    assert "".join(pieces) == expected
    assert all(piece.endswith("\n") for piece in pieces)
    # the header, then the rows 128 to a piece
    full, rest = divmod(n_rows, 128)
    sizes = [1] + [128] * full + ([rest] if rest else [])
    assert [piece.count("\n") for piece in pieces] == sizes


def test_an_empty_point_series_prints_as_the_encoder_prints_it():
    assert "".join(_json_points([])) == json.dumps({"points": []})[1:-1]


@pytest.mark.parametrize("n_points", [0, 1, 127, 128, 129, 257])
def test_json_pieces_match_the_encoder_text_of_the_points(n_points):
    docs = [exact_point(1, m, 10) for m in range(1, n_points + 1)]
    points = [(p["m"], p["count"], p["num"], p["den"], p["value"]) for p in docs]
    pieces = list(_json_points(iter(points)))
    # the points member at its depth in a report: items 10 deep, keys 12
    report = {"result": {"series": [{"points": docs}]}}
    text = json.dumps(report, indent=2, sort_keys=True)
    head = '{\n  "result": {\n    "series": [\n      {\n        '
    tail = "\n      }\n    ]\n  }\n}"
    assert text.startswith(head) and text.endswith(tail)
    assert "".join(pieces) == text[len(head) : -len(tail)]
    # the points 128 to a piece, then the closing bracket
    full, rest = divmod(n_points, 128)
    sizes = [128] * full + ([rest] if rest else [])
    assert [piece.count('"m": ') for piece in pieces] == (sizes or [0]) + [0]


@pytest.mark.parametrize(
    "output, bound", [("json", 400_000), ("table", 400_000)], ids=["json", "table"]
)
def test_sweep_holds_no_per_point_memory(output, bound):
    argv = ["sweep", "--digit", "1", "--m-max", "200000", "--output", output]
    tracemalloc.start()
    try:
        outcome = execute(argv + ["--out", os.devnull])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.exit_code == EXIT_OK
    assert peak < bound


# ------------------------------------------------------------- analyze


@pytest.fixture
def segment_file(tmp_path):
    path = tmp_path / "segment.txt"
    path.write_text("\n".join(str(i) for i in range(1, 2000)) + "\n")
    return path


def test_analyze_full_segment_report(segment_file, capsys):
    doc = run_json(["analyze", "--input", str(segment_file)], capsys)
    result = doc["result"]
    assert result["sample"]["used"] == 1999
    assert result["sample"]["counts"][0] == 1111
    assert result["empirical"]["fractions"][0] == {"num": 1111, "den": 1999}
    assert [c["label"] for c in result["candidates"]] == ["benford", "geom", "arith"]
    assert result["best_by_r"] in {"benford", "geom", "arith"}
    assert result["bounds"]["all_within"] is False
    assert doc["diagnostics"] == []
    assert doc["params"]["inputs"] == [str(segment_file)]


def test_analyze_pools_multiple_inputs(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("\n".join(str(i) for i in range(1, 1000)))
    b.write_text("\n".join(str(i) for i in range(1000, 2000)))
    doc = run_json(
        ["analyze", "--input", str(a), "--input", str(b)], capsys
    )
    assert doc["result"]["sample"]["counts"][0] == 1111
    assert doc["result"]["sample"]["used"] == 1999
    assert doc["result"]["sample"]["source"] == f"{a}+{b}"


def test_analyze_reads_stdin_when_no_input_given(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("15 25 0 95\n"))
    doc = run_json(["analyze"], capsys)
    assert doc["result"]["sample"]["counts"][0] == 1
    assert doc["result"]["sample"]["skipped_zero"] == 1
    assert doc["params"]["inputs"] == ["<stdin>"]
    assert doc["result"]["sample"]["source"] == "<stdin>"


def test_analyze_counts_numerals_beyond_double_range(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1e400 1e-400 2 5\n"))
    sample = run_json(["analyze"], capsys)["result"]["sample"]
    assert sample["used"] == 4 and sample["counts"][0] == 2
    assert sample["skipped_zero"] == 0 and sample["skipped_nonfinite"] == 0


def test_analyze_delimited_with_diagnostics(tmp_path, capsys):
    path = tmp_path / "ledger.csv"
    path.write_text("id,amount\nA,19\nB,x\nC,0.00456\n")
    doc = run_json(
        [
            "analyze",
            "--input",
            str(path),
            "--format",
            "delimited",
            "--column",
            "2",
            "--candidates",
            "benford",
        ],
        capsys,
    )
    assert doc["result"]["sample"]["used"] == 2
    assert [d["line"] for d in doc["diagnostics"]] == [1, 3]
    assert all(d["source"] == str(path) for d in doc["diagnostics"])
    assert doc["params"]["candidates"] == ["benford"]


@pytest.mark.parametrize("delimiter", ["e", "E"])
def test_analyze_rejects_an_exponent_marker_as_delimiter(delimiter, capsys):
    argv = ["analyze", "--format", "delimited", "--delimiter", delimiter]
    outcome = execute(argv + ["--base", "16"])
    captured = capsys.readouterr()
    assert outcome.exit_code == EXIT_USAGE
    assert captured.out == ""
    assert "exponent marker" in captured.err


def test_analyze_spectrum_format(tmp_path, capsys):
    path = tmp_path / "spectrum.dat"
    path.write_text("# wavenumber absorbance\n400.0 0.123\n401.0,0.456\n")
    doc = run_json(
        ["analyze", "--input", str(path), "--format", "spectrum2col"], capsys
    )
    assert doc["result"]["sample"]["counts"][0] == 1  # 0.123
    assert doc["result"]["sample"]["counts"][3] == 1  # 0.456


def test_analyze_candidate_subset_and_order(segment_file, capsys):
    doc = run_json(
        ["analyze", "--input", str(segment_file), "--candidates", "geom,benford"],
        capsys,
    )
    assert [c["label"] for c in doc["result"]["candidates"]] == ["geom", "benford"]


def test_analyze_require_bounds_gates_the_exit_code(segment_file, tmp_path, capsys):
    # the initial segment 1..1999 pokes past the digit-1 upper limit
    outcome = execute(
        ["analyze", "--input", str(segment_file), "--require-bounds"]
    )
    capsys.readouterr()
    assert outcome.exit_code == EXIT_BOUNDS
    assert outcome.report["result"]["bounds"]["all_within"] is False
    # a gentler sample stays inside every limit and exits 0
    tame = tmp_path / "tame.txt"
    counts = [30, 18, 12, 10, 8, 7, 6, 5, 4]
    tokens = [str(n) for n, c in zip(range(1, 10), counts) for _ in range(c)]
    tame.write_text("\n".join(tokens))
    outcome = execute(["analyze", "--input", str(tame), "--require-bounds"])
    capsys.readouterr()
    assert outcome.exit_code == EXIT_OK
    assert outcome.report["result"]["bounds"]["all_within"] is True


def test_analyze_empty_sample_exits_one(tmp_path, capsys):
    path = tmp_path / "zeros.txt"
    path.write_text("0 0.0 -0\n")
    outcome = execute(["analyze", "--input", str(path)])
    err = capsys.readouterr().err
    assert outcome.exit_code == EXIT_FAILURE
    assert "empty sample" in err


def test_a_failed_report_keeps_the_diagnostics_read_before_the_failure(
    monkeypatch, capsys
):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0x10 1_000 abc\n"))
    outcome = execute(["analyze"])
    assert capsys.readouterr().err == "digitlaw: cannot compare an empty sample\n"
    assert outcome.exit_code == EXIT_FAILURE
    diagnostics = outcome.report["diagnostics"]
    assert [d.get("source") for d in diagnostics] == ["<stdin>"] * 3 + [None]
    assert all(d.get("line") == 1 for d in diagnostics[:3])
    assert diagnostics[-1] == {"message": "cannot compare an empty sample"}


def test_analyze_missing_file_exits_one(capsys):
    outcome = execute(["analyze", "--input", "/nonexistent/nowhere.txt"])
    err = capsys.readouterr().err
    assert outcome.exit_code == EXIT_FAILURE
    assert "nowhere.txt" in err


def test_analyze_unknown_candidate_is_a_usage_error(segment_file, capsys):
    outcome = execute(
        ["analyze", "--input", str(segment_file), "--candidates", "zipf"]
    )
    err = capsys.readouterr().err
    assert outcome.exit_code == EXIT_USAGE
    assert "zipf" in err


def test_analyze_repeated_candidate_is_a_usage_error(segment_file, capsys):
    outcome = execute(
        ["analyze", "--input", str(segment_file), "--candidates", "benford,geom,benford"]
    )
    err = capsys.readouterr().err
    assert outcome.exit_code == EXIT_USAGE
    assert "candidates named more than once: benford" in err


def test_stdin_bytes_are_decoded_as_file_bytes_are():
    # a strict UTF-8 standard input would raise on the stray byte
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "digitlaw", "analyze"],
        input=b"1 \xff 2\n",
        capture_output=True,
        env=env,
    )
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")
    assert "not a numeral: '\ufffd'" in done.stdout.decode("utf-8")


def test_table_output_escapes_what_stdout_cannot_encode(tmp_path):
    # a label and a token that ASCII lacks print as backslash escapes, not a traceback
    path = tmp_path / "\u00e4.txt"
    path.write_text("x\u4e00 12\n", encoding="utf-8")
    argv = [sys.executable, "-m", "digitlaw", "analyze", "--input", str(path)]
    outputs = {}
    for encoding in ("ascii", "utf-8"):
        env = dict(os.environ, PYTHONIOENCODING=encoding)
        done = subprocess.run(argv, capture_output=True, env=env)
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        outputs[encoding] = done.stdout
    assert b"not a numeral: 'x\\u4e00'" in outputs["ascii"]
    assert outputs["ascii"] == outputs["utf-8"].decode("utf-8").encode("ascii", "backslashreplace")


def test_table_output_to_a_file_escapes_what_utf8_cannot_encode(tmp_path, capsys):
    # a file name that is not UTF-8 gives a label holding the lone surrogate \udcff
    path = os.path.join(os.fsencode(tmp_path), b"\xff.txt")
    with open(path, "wb") as handle:
        handle.write(b"12 x\n")
    out = tmp_path / "o.txt"
    argv = ["analyze", "--input", os.fsdecode(path), "--out", str(out)]
    assert execute(argv).exit_code == EXIT_OK
    assert capsys.readouterr() == ("", "")
    assert "\\udcff.txt" in out.read_text(encoding="utf-8")


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_a_byte_order_mark_does_not_hide_the_first_value(via, tmp_path):
    data = b"\xef\xbb\xbf1.5 2.5\n"
    path = tmp_path / "bom.txt"
    path.write_bytes(data)
    argv = [sys.executable, "-m", "digitlaw", "analyze", "--output", "json"]
    if via == "file":
        argv += ["--input", str(path)]
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    done = subprocess.run(
        argv, input=data if via == "stdin" else b"", capture_output=True, env=env
    )
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")
    doc = json.loads(done.stdout)
    assert doc["diagnostics"] == []
    assert doc["result"]["sample"]["counts"][:3] == [1, 1, 0]


@pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["CR", "CRLF"])
def test_stdin_ends_lines_as_a_file_does(end, tmp_path):
    # a stray CR ends a line in a file, and so on standard input too
    data = f"1 x{end}2 y{end}3\r4 z{end}# note{end}{end}5 w{end}".encode()
    path = tmp_path / "lines.txt"
    path.write_bytes(data)
    argv = [sys.executable, "-m", "digitlaw", "analyze", "--output", "json"]
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    lines = {}
    for via, extra in [("file", ["--input", str(path)]), ("stdin", [])]:
        done = subprocess.run(argv + extra, input=data, capture_output=True, env=env)
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        lines[via] = [(d["line"], d["message"]) for d in json.loads(done.stdout)["diagnostics"]]
    assert lines["stdin"] == lines["file"] == [
        (1, "not a numeral: 'x'"),
        (2, "not a numeral: 'y'"),
        (4, "not a numeral: 'z'"),
        (7, "not a numeral: 'w'"),
    ]


def test_a_closed_stdin_is_refused_as_unreadable_input(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", None)  # as `digitlaw analyze <&-` leaves it
    outcome = execute(["analyze"])
    assert outcome.exit_code == EXIT_FAILURE
    assert capsys.readouterr().err == (
        "digitlaw: standard input is closed; name the input with --input\n"
    )


def test_analyze_structural_error_exits_one(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("1,2\n3,4\n")
    outcome = execute(
        ["analyze", "--input", str(path), "--format", "delimited", "--column", "7"]
    )
    err = capsys.readouterr().err
    assert outcome.exit_code == EXIT_FAILURE
    assert "column 7" in err


@pytest.mark.parametrize("column", ["3", "4294967296"])
def test_analyze_column_past_every_line_is_structural_at_any_size(
    column, tmp_path, capsys
):
    path = tmp_path / "short.csv"
    path.write_text("1,2\n3,4\n")
    argv = ["analyze", "--input", str(path), "--format", "delimited"]
    outcome = execute(argv + ["--column", column])
    assert outcome.exit_code == EXIT_FAILURE
    assert capsys.readouterr().err == (
        f"digitlaw: column {column} missing from every one of the 2 data line(s)\n"
    )


def use_cpus(monkeypatch, cpus):
    """The process may run on cpus CPUs: one reads in one process, more in forked shares.

    A share of one byte is worth a fork, so that small inputs are cut too."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(parallel, "_MIN_SHARE_BYTES", 1)


def count_forks(monkeypatch):
    """The list that each child's pid is appended to as os.fork makes it."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def without_meta(outcome):
    return outcome.exit_code, {k: v for k, v in outcome.report.items() if k != "meta"}


def test_forked_and_serial_reports_are_equal(tmp_path, monkeypatch, capsys):
    paths = []
    for i in range(6):
        lines = [str(17 * i + j) for j in range(1, 40)]
        if i in (1, 4):
            lines[i + 2] = f"x{i}"  # a bad token on line i + 3
        paths.append(tmp_path / f"part{i}.txt")
        paths[-1].write_text("\n".join(lines) + "\n")
    argv = ["analyze", "--output", "json"] + [a for p in paths for a in ("--input", str(p))]
    use_cpus(monkeypatch, 1)
    serial = execute(argv)
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    forked = execute(argv)
    capsys.readouterr()
    assert len(forks) == 2
    assert without_meta(forked) == without_meta(serial)
    assert [(d["source"], d["line"]) for d in forked.report["diagnostics"]] == [
        (str(paths[1]), 4),
        (str(paths[4]), 7),
    ]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Fields of the one-file property test: numerals, bad tokens, invalid UTF-8
# (a lone byte and a cut-short sequence), a U+FEFF that does not start the
# file and a comment marker.
SPLIT_FIELDS = [
    b"12", b"-0.5", b"3.5e2", b"7e-3", b"0", b"x", b"1.2.3", b"nan", b"\xff9", b"4\xe2\x82",
    b"\xef\xbb\xbf5", b"#c",
]
SPLIT_LINES = st.tuples(
    st.lists(st.sampled_from(SPLIT_FIELDS), max_size=4),
    st.sampled_from([b" ", b",", b"\t", b", "]),
    st.sampled_from([b"\n", b"\r", b"\r\n"]),
).map(lambda line: line[1].join(line[0]) + line[2])


@st.composite
def split_inputs(draw):
    """Bytes of one input with a CRLF across its middle, the mark of the
    cut on two CPUs, which falls past it.  The file starts with U+FEFF, a
    later line starts with one, and the one line longer than a window on
    three or four CPUs holds more than a 4 KB block."""
    head = b"\xef\xbb\xbf" + b"".join(draw(st.lists(SPLIT_LINES, max_size=12)))
    field = draw(st.sampled_from(SPLIT_FIELDS))
    head += b" ".join([field] * (4500 // len(field) + 1))
    tail = b"\xef\xbb\xbf" + b"".join(draw(st.lists(SPLIT_LINES, min_size=1, max_size=12)))
    end = draw(st.sampled_from([b"\n", b"\r"]))
    # blanks at the end of the long line, or a last blank line, move the CRLF onto the mark
    if len(tail) < len(head):
        tail += b" " * (len(head) - len(tail))
    else:
        head += b" " * (len(tail) - len(head))
    return head + b"\r\n" + tail + end


@pytest.mark.parametrize(
    "fmt", [["plain"], ["spectrum2col"], ["delimited", "--column", "2"]], ids=lambda f: f[0]
)
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=split_inputs())
def test_one_input_read_on_several_cpus_reports_as_on_one(fmt, text, tmp_path, monkeypatch):
    path = tmp_path / "one.txt"
    path.write_bytes(text)
    argv = ["analyze", "--output", "json", "--input", str(path), "--format", *fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        use_cpus(monkeypatch, 1)
        serial = execute(argv)
        forks = count_forks(monkeypatch)
        for cpus in (2, 3, 4):
            use_cpus(monkeypatch, cpus)
            if cpus == 2 and fmt[0] != "delimited":
                mark = len(text) // 2
                assert text[mark - 1 : mark + 1] == b"\r\n"
                assert plan([str(path)])[1][0][1] == mark + 1
            shares = len(plan([str(path)], split_files=fmt[0] != "delimited"))
            forks.clear()
            assert without_meta(execute(argv)) == without_meta(serial)
            assert len(forks) == shares - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", ["missing-first", "missing-later", "column-later"])
def test_a_failing_share_fails_as_a_serial_read_does(case, tmp_path, monkeypatch, capsys):
    good = []
    for i in range(3):
        good.append(str(tmp_path / f"good{i}.csv"))
        Path(good[-1]).write_text(f"1,2\n3,x{i}\n5,6\n")
    short = tmp_path / "short.csv"
    short.write_text("1\n2\n")
    missing = str(tmp_path / "missing.csv")
    inputs, shares = {
        "missing-first": ([missing, *good[:2]], [[missing, good[0]], [good[1]]]),
        "missing-later": ([*good[:2], missing, good[2]], [good[:2], [missing, good[2]]]),
        "column-later": ([*good[:2], str(short)], [good[:2], [str(short)]]),
    }[case]
    argv = ["analyze", "--format", "delimited", "--column", "2"]
    argv += [a for path in inputs for a in ("--input", path)]
    use_cpus(monkeypatch, 1)
    serial = execute(argv)
    serial_err = capsys.readouterr().err
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    # a delimited file is never cut, so each share holds whole files
    assert plan(inputs, split_files=False) == [[(path, 0, None) for path in share] for share in shares]
    forked = execute(argv)
    assert capsys.readouterr().err == serial_err
    assert len(forks) == 1
    assert forked.exit_code == serial.exit_code == EXIT_FAILURE
    assert forked.report["diagnostics"] == serial.report["diagnostics"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_stdin_one_input_and_a_fifo_are_read_without_forking(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a.txt"
    path.write_text("12 13 24\n")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.setattr(sys, "stdin", io.StringIO("12 13 24\n"))
    assert run_json(["analyze"], capsys)["result"]["sample"]["used"] == 3
    # one input of one line: no line starts past its middle, so it is not cut
    assert run_json(["analyze", "--input", str(path)], capsys)["result"]["sample"]["used"] == 3
    # a writer process, not a thread: a process running threads does not fork at all
    script = "import sys; open(sys.argv[1], 'w').write('31 41\\n')"
    with subprocess.Popen([sys.executable, "-c", script, str(fifo)]) as writer:
        try:
            doc = run_json(["analyze", "--input", str(fifo), "--input", str(path)], capsys)
        finally:  # a writer left waiting for a reader is ended, not waited for
            with contextlib.suppress(subprocess.TimeoutExpired):
                writer.wait(timeout=60)
            writer.kill()
    assert writer.returncode == 0
    assert doc["result"]["sample"]["used"] == 5


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_input_named_stdin_is_read_as_a_file(cpus, tmp_path, monkeypatch, capsys):
    """--input '<stdin>' names the file of that name; only no --input reads standard input."""
    (tmp_path / "<stdin>").write_text("31 32 33\n41 42 x\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO("95 96\n"))
    use_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    doc = run_json(["analyze", "--input", "<stdin>"], capsys)
    assert len(forks) == cpus - 1  # on two CPUs the file is cut into two windows
    assert doc["params"]["inputs"] == ["<stdin>"]
    assert doc["result"]["sample"]["source"] == "<stdin>"
    assert doc["result"]["sample"]["counts"] == [0, 0, 3, 2, 0, 0, 0, 0, 0]
    assert [(d["source"], d["line"]) for d in doc["diagnostics"]] == [("<stdin>", 2)]
    assert sys.stdin.read() == "95 96\n"  # left unread


def test_a_process_running_threads_does_not_fork(tmp_path, monkeypatch, capsys):
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path in paths:
        path.write_text("12 13 24\n")
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(60,))
    other.start()
    try:
        doc = run_json(["analyze", "--input", str(paths[0]), "--input", str(paths[1])], capsys)
    finally:
        done.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert doc["result"]["sample"]["used"] == 6


def test_analyze_base_two_fails_loudly_not_silently(segment_file, capsys):
    # correlation has no meaning over a single digit; the report says so
    outcome = execute(["analyze", "--input", str(segment_file), "--base", "2"])
    err = capsys.readouterr().err
    assert outcome.exit_code == EXIT_USAGE
    assert "base 2" in err
    # refused before any input is opened
    outcome = execute(["analyze", "--base", "2", "--input", "/nonexistent"])
    assert outcome.exit_code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "digitlaw: analyze needs base 3 or more: in base 2 every numeral leads with 1\n"
    )


# ----------------------------------------------- sweeps on several CPUs


def without_elapsed(text: str) -> str:
    return "".join(line for line in text.splitlines(True) if '"elapsed_s": ' not in line)


def command_text(argv, out_path=None):
    """What execute(argv) writes, to stdout or to out_path, without its elapsed_s line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outcome = execute(argv + (["--out", str(out_path)] if out_path else []))
    assert outcome.exit_code == EXIT_OK
    text = out_path.read_text(encoding="utf-8") if out_path else out.getvalue()
    return without_elapsed(text)


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_a_sweep_cut_into_segments_prints_as_one_process_does(data, tmp_path):
    radix = data.draw(st.integers(2, 36), label="radix")
    which = ["--all-digits"]
    if not data.draw(st.booleans(), label="all_digits"):
        which = ["--digit", str(data.draw(st.integers(1, radix - 1), label="n"))]
    limit = 120 // (radix - 1) if which == ["--all-digits"] else 120
    m_max = data.draw(st.integers(1, limit), label="m_max")
    output = data.draw(st.sampled_from(["table", "json"]), label="output")
    argv = ["sweep", *which, "--m-max", str(m_max), "--base", str(radix), "--output", output]
    with pytest.MonkeyPatch.context() as patch:
        use_cpus(patch, 1)
        expected = command_text(argv)
        # segments of one point or more, and of at most 16, so in rounds too
        patch.setattr(sweep, "_MIN_POINTS", 1)
        patch.setattr(sweep, "_MAX_POINTS", 16)
        forks = count_forks(patch)
        for cpus in (1, 2, 3, 4):
            use_cpus(patch, cpus)
            assert command_text(argv) == expected
            assert command_text(argv, tmp_path / "out.txt") == expected
    points = m_max * (radix - 1 if which == ["--all-digits"] else 1)
    assert bool(forks) == (points > 1)
    no_children_left()


def test_a_segment_whose_child_fails_is_rendered_here(monkeypatch):
    argv = ["sweep", "--all-digits", "--m-max", "3000", "--output", "json"]
    use_cpus(monkeypatch, 1)
    expected = command_text(argv)
    parent, real_series = os.getpid(), sweep.frequency_series

    def fails_part_way_in_a_child(*args):
        for i, point in enumerate(real_series(*args)):
            if i == 500 and os.getpid() != parent:
                raise RuntimeError("a child fails after writing some of its text")
            yield point

    monkeypatch.setattr(sweep, "frequency_series", fails_part_way_in_a_child)
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    assert command_text(argv) == expected
    assert len(forks) == 2
    no_children_left()


@pytest.mark.parametrize(
    "call, code", [("fork", errno.EAGAIN), ("memfd_create", errno.EMFILE)], ids=["fork", "memfd"]
)
@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_shares_and_segments_that_get_no_process_are_done_here(
    command, call, code, tmp_path, monkeypatch
):
    argv = ["sweep", "--digit", "1", "--m-max", "9000"]
    if command == "analyze":  # four inputs, each with a bad token on line 2
        argv = ["analyze", "--output", "json"]
        for i in range(4):
            path = tmp_path / f"part{i}.txt"
            path.write_text(f"{i + 1}1 {i + 2}2\nx{i}\n")
            argv += ["--input", str(path)]
    use_cpus(monkeypatch, 1)
    expected = command_text(argv)
    use_cpus(monkeypatch, 3)
    refused = []

    def refuse(*args):
        refused.append(args)
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, call, refuse, raising=False)
    open_fds = len(os.listdir("/dev/fd"))
    assert command_text(argv) == expected
    assert len(refused) == 2  # a process asked for each share or segment but the first
    assert len(os.listdir("/dev/fd")) == open_fds  # a memory file made for a refused fork is closed
    no_children_left()


def test_without_memory_files_nothing_forks(tmp_path, monkeypatch):
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path in paths:
        path.write_text("12 13 24\n")
    commands = [
        ["sweep", "--digit", "1", "--m-max", "9000"],
        ["analyze", "--output", "json", "--input", str(paths[0]), "--input", str(paths[1])],
    ]
    use_cpus(monkeypatch, 1)
    expected = [command_text(argv) for argv in commands]
    use_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "memfd_create", raising=False)
    forks = count_forks(monkeypatch)
    assert [command_text(argv) for argv in commands] == expected
    assert forks == []


def test_small_sweeps_stay_in_one_process_and_no_segment_is_below_the_floor(monkeypatch):
    use_cpus(monkeypatch, 16)
    forks = count_forks(monkeypatch)
    command_text(["sweep", "--all-digits", "--m-max", "40"])
    assert forks == []
    segments = [segment for round_ in sweep._rounds(1, 40_138, 16) for segment in round_]
    sizes = [sum(hi - lo + 1 for _, lo, hi in segment) for segment in segments]
    assert len(sizes) > 2 and sum(sizes) == 40_138
    assert min(sizes) >= sweep._MIN_POINTS
    argv = ["sweep", "--digit", "1", "--m-max", "40138"]
    text = command_text(argv)
    assert len(forks) == len(sizes) - 1
    use_cpus(monkeypatch, 1)
    assert command_text(argv) == text
    no_children_left()


@pytest.mark.parametrize("series, m_max", [(1, 40_000), (1, 40_320), (9, 3_000), (9, 3_024)])
def test_both_benchmark_sweeps_split_into_halves_in_one_round(series, m_max):
    (segments,) = sweep._rounds(series, m_max, 2)
    sizes = [sum(hi - lo + 1 for _, lo, hi in segment) for segment in segments]
    assert sizes == [series * m_max // 2] * 2


@settings(max_examples=200, deadline=None)
@given(
    series=st.integers(1, 35),
    m_max=st.integers(1, 40_000),
    cpus=st.integers(1, 16),
    floor=st.sampled_from([1, 7, 2000]),
)
def test_segments_cover_every_point_once_in_order_within_their_bounds(
    series, m_max, cpus, floor
):
    points, segments = [], []
    with pytest.MonkeyPatch.context() as patch:
        use_cpus(patch, cpus)
        for round_ in sweep._rounds(series, m_max, processes(series * m_max, floor)):
            assert 1 <= len(round_) <= cpus
            segments += round_
    for segment in segments:
        size = 0
        for i, lo, hi in segment:
            assert 0 <= i < series and 1 <= lo <= hi <= m_max
            points.append((i, lo, hi))
            size += hi - lo + 1
        assert size <= sweep._MAX_POINTS
        assert len(segments) == 1 or size >= floor
    # the pieces, joined, run through every series from m = 1 to m_max
    flat = [(i, m) for i, lo, hi in points for m in (lo, hi)]
    assert flat[0] == (0, 1) and flat[-1] == (series - 1, m_max)
    for (i, hi), (j, lo) in zip(flat[1::2], flat[2::2]):
        assert (j, lo) in {(i, hi + 1), (i + 1, 1)} and (j > i) == (hi == m_max)


def test_a_sweep_to_the_largest_m_max_plans_its_first_round_at_once():
    first = next(sweep._rounds(35, 2**63 - 1, 16))
    assert len(first) == 16 and first[0][0][:2] == (0, 1)
    assert all(sweep._MAX_POINTS // 2 < hi - lo + 1 <= sweep._MAX_POINTS for (_, lo, hi), in first)


def test_what_waits_in_memory_files_is_bounded_whatever_m_max(monkeypatch):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(sweep, "_MAX_POINTS", 50_000)
    sizes, real_pread = [], os.pread

    def pread(fd, size, offset):
        if offset == 0:  # the child has exited: its file is whole
            sizes.append(os.fstat(fd).st_size)
        return real_pread(fd, size, offset)

    monkeypatch.setattr(os, "pread", pread)
    outcome = execute(["sweep", "--digit", "1", "--m-max", "1000000", "--out", os.devnull])
    assert outcome.exit_code == EXIT_OK
    assert len(sizes) == 10  # 20 segments of 50,000 points, 2 to a round
    # a row holds at most 45 characters here (2 + 10 + 10 + 16 + 6 and its newline),
    # and the last segment ends with the extrema's few lines
    assert 0 < max(sizes) <= 50_000 * 45 + 1000
    no_children_left()


def test_a_closed_pipe_ends_and_reaps_every_child_of_a_sweep(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    use_cpus(monkeypatch, 4)
    forks = count_forks(monkeypatch)
    with open(write_end, "w", encoding="utf-8") as stdout, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        before = _open_fds()
        code = main(["sweep", "--digit", "1", "--m-max", "200000"])
        after = _open_fds()
    assert code == EXIT_FAILURE
    assert after == before
    assert len(forks) == 3
    no_children_left()


# -------------------------------------------------------------- bounds


def test_bounds_named_distribution(capsys):
    doc = run_json(["bounds", "--dist", "benford"], capsys)
    assert doc["result"]["label"] == "benford"
    entries = doc["result"]["bounds"]["entries"]
    assert entries[0]["lower"] == {"num": 1, "den": 9}
    assert entries[0]["upper"] == {"num": 5, "den": 9}
    assert doc["result"]["bounds"]["all_within"] is True
    assert all(e["within"] for e in entries)


def test_bounds_explicit_probabilities_with_violation(capsys):
    probs = "0.8," + ",".join(["0.025"] * 8)
    doc = run_json(["bounds", "--probs", probs], capsys)
    assert doc["result"]["label"] == "custom"
    entries = doc["result"]["bounds"]["entries"]
    assert entries[0]["within"] is False
    assert doc["result"]["bounds"]["all_within"] is False
    # violations are reported, not fatal: the command still exits 0
    outcome = execute(["bounds", "--probs", probs])
    capsys.readouterr()
    assert outcome.exit_code == EXIT_OK


def test_bounds_table_marks_violations(capsys):
    probs = "0.8," + ",".join(["0.025"] * 8)
    outcome = execute(["bounds", "--probs", probs])
    out = capsys.readouterr().out
    assert outcome.exit_code == EXIT_OK
    assert "NO" in out and "limit violations present" in out


def test_bounds_usage_errors(capsys):
    # wrong count for the base
    assert execute(["bounds", "--probs", "0.5,0.5"]).exit_code == EXIT_USAGE
    # unparseable number
    bad = "x," + ",".join(["0.1"] * 8)
    assert execute(["bounds", "--probs", bad]).exit_code == EXIT_USAGE
    # both sources at once / neither source
    assert (
        execute(["bounds", "--dist", "benford", "--probs", "0.5"]).exit_code
        == EXIT_USAGE
    )
    assert execute(["bounds"]).exit_code == EXIT_USAGE
    capsys.readouterr()


def test_bounds_mass_violation_is_a_usage_error(capsys):
    # parses fine, but the probabilities do not form a distribution
    probs = ",".join(["0.5"] * 9)
    outcome = execute(["bounds", "--probs", probs])
    err = capsys.readouterr().err
    assert outcome.exit_code == EXIT_USAGE
    assert "sum" in err


@pytest.mark.parametrize("output", ["table", "json"])
def test_bounds_nan_probability_is_a_usage_error(output, capsys):
    argv = ["bounds", "--base", "3", "--probs", "nan,0.5", "--output", output]
    outcome = execute(argv)
    captured = capsys.readouterr()
    assert outcome.exit_code == EXIT_USAGE
    assert captured.err == "digitlaw: probabilities must lie in [0, 1]\n"
    assert captured.out == ""


def test_bounds_base_two(capsys):
    doc = run_json(["bounds", "--dist", "geom", "--base", "2"], capsys)
    (entry,) = doc["result"]["bounds"]["entries"]
    assert entry["lower"] == {"num": 1, "den": 1}
    assert entry["upper"] == {"num": 1, "den": 1}
    assert entry["within"] is True


# -------------------------------------------------------- table layout

# Exact table text of small cases, pinned so that a change to the renderers
# shows up as a diff of the whole layout, not just of a substring.

THEORY_BASE_10 = """\
first-digit laws, base 10
n   benford     geom        arith
1   0.3010      0.3046      0.2713
2   0.1761      0.1759      0.1733
3   0.1249      0.1244      0.1281
4   0.09691     0.09632     0.1017
5   0.07918     0.07865     0.08439
6   0.06695     0.06647     0.07212
7   0.05799     0.05756     0.06297
8   0.05115     0.05077     0.05589
9   0.04576     0.04541     0.05023
"""


THEORY_BASE_2 = """\
first-digit laws, base 2
n   benford     geom        arith
1   1.000       1.000       1.000
"""


SWEEP_DIGIT_1 = """\
leading-digit frequency over {1..m}, base 10, m up to 25
digit 1:
  m         count     exact           value
  1         1         1/1             1.000
  2         1         1/2             0.5000
  3         1         1/3             0.3333
  4         1         1/4             0.2500
  5         1         1/5             0.2000
  6         1         1/6             0.1667
  7         1         1/7             0.1429
  8         1         1/8             0.1250
  9         1         1/9             0.1111
  10        2         1/5             0.2000
  11        3         3/11            0.2727
  12        4         1/3             0.3333
  13        5         5/13            0.3846
  14        6         3/7             0.4286
  15        7         7/15            0.4667
  16        8         1/2             0.5000
  17        9         9/17            0.5294
  18        10        5/9             0.5556
  19        11        11/19           0.5789
  20        11        11/20           0.5500
  21        11        11/21           0.5238
  22        11        1/2             0.5000
  23        11        11/23           0.4783
  24        11        11/24           0.4583
  25        11        11/25           0.4400
  minima:
    k=1  m=9  1/9 = 0.1111
  maxima:
    k=1  m=19  11/19 = 0.5789
"""


SWEEP_ALL_DIGITS_BASE_3 = """\
leading-digit frequency over {1..m}, base 3, m up to 12
digit 1:
  m         count     exact           value
  1         1         1/1             1.000
  2         1         1/2             0.5000
  3         2         2/3             0.6667
  4         3         3/4             0.7500
  5         4         4/5             0.8000
  6         4         2/3             0.6667
  7         4         4/7             0.5714
  8         4         1/2             0.5000
  9         5         5/9             0.5556
  10        6         3/5             0.6000
  11        7         7/11            0.6364
  12        8         2/3             0.6667
  minima:
    k=1  m=2  1/2 = 0.5000
    k=2  m=8  1/2 = 0.5000
  maxima:
    k=1  m=5  4/5 = 0.8000

digit 2:
  m         count     exact           value
  1         0         0/1             0.000
  2         1         1/2             0.5000
  3         1         1/3             0.3333
  4         1         1/4             0.2500
  5         1         1/5             0.2000
  6         2         1/3             0.3333
  7         3         3/7             0.4286
  8         4         1/2             0.5000
  9         4         4/9             0.4444
  10        4         2/5             0.4000
  11        4         4/11            0.3636
  12        4         1/3             0.3333
  minima:
    k=1  m=5  1/5 = 0.2000
  maxima:
    k=1  m=8  1/2 = 0.5000
"""


ANALYZE_WITH_DIAGNOSTICS = """\
sample <stdin>: read 5, used 4, skipped 1 zero and 0 non-finite
empirical first-digit frequencies:
  n   count     exact           p
  1   2         1/2             0.5000
  2   1         1/4             0.2500
  3   1         1/4             0.2500
  4   0         0/1             0.000
  5   0         0/1             0.000
  6   0         0/1             0.000
  7   0         0/1             0.000
  8   0         0/1             0.000
  9   0         0/1             0.000
candidates:
  label     r           chi_square    dof   mad         max_abs_dev
  benford   0.9575      2.743         8     0.08843     0.1990
  geom      0.9571      2.715         8     0.08782     0.1954
  arith     0.9578      3.081         8     0.09496     0.2287
best by r: arith
bound check of the sample:
  n   lower             p           upper             within
  1   1/9 = 0.1111      0.5000      5/9 = 0.5556      yes
  2   1/18 = 0.05556    0.2500      10/27 = 0.3704    yes
  3   1/27 = 0.03704    0.2500      5/18 = 0.2778     yes
  4   1/36 = 0.02778    0.000       2/9 = 0.2222      NO
  5   1/45 = 0.02222    0.000       5/27 = 0.1852     NO
  6   1/54 = 0.01852    0.000       10/63 = 0.1587    NO
  7   1/63 = 0.01587    0.000       5/36 = 0.1389     NO
  8   1/72 = 0.01389    0.000       10/81 = 0.1235    NO
  9   1/81 = 0.01235    0.000       1/9 = 0.1111      NO
  limit violations present
diagnostics (2):
  <stdin> line 1: not a numeral: 'x7'
  <stdin> line 2: not a numeral: 'abc'
"""


BOUNDS_WITH_VIOLATION = """\
per-digit probability limits, base 10, distribution custom
  n   lower             p           upper             within
  1   1/9 = 0.1111      0.8000      5/9 = 0.5556      NO
  2   1/18 = 0.05556    0.02500     10/27 = 0.3704    NO
  3   1/27 = 0.03704    0.02500     5/18 = 0.2778     NO
  4   1/36 = 0.02778    0.02500     2/9 = 0.2222      NO
  5   1/45 = 0.02222    0.02500     5/27 = 0.1852     yes
  6   1/54 = 0.01852    0.02500     10/63 = 0.1587    yes
  7   1/63 = 0.01587    0.02500     5/36 = 0.1389     yes
  8   1/72 = 0.01389    0.02500     10/81 = 0.1235    yes
  9   1/81 = 0.01235    0.02500     1/9 = 0.1111      yes
  limit violations present
"""


LAYOUT_PROBS = "0.8," + ",".join(["0.025"] * 8)


@pytest.mark.parametrize(
    "argv, stdin, expected",
    [
        (["theory", "--base", "10"], None, THEORY_BASE_10),
        (["theory", "--base", "2"], None, THEORY_BASE_2),
        (["sweep", "--digit", "1", "--m-max", "25"], None, SWEEP_DIGIT_1),
        (
            ["sweep", "--all-digits", "--m-max", "12", "--base", "3"],
            None,
            SWEEP_ALL_DIGITS_BASE_3,
        ),
        (["analyze"], "12 x7 0 3.5\n19 0.25 abc\n", ANALYZE_WITH_DIAGNOSTICS),
        (["bounds", "--probs", LAYOUT_PROBS], None, BOUNDS_WITH_VIOLATION),
    ],
    ids=["theory-10", "theory-2", "sweep-digit", "sweep-all-3", "analyze", "bounds"],
)
def test_table_text_is_pinned(argv, stdin, expected, monkeypatch, capsys):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    outcome = execute(argv)
    assert outcome.exit_code == EXIT_OK
    assert capsys.readouterr().out == expected


# ------------------------------------------------------ shared surface


def test_unknown_subcommand_and_flags_exit_two(capsys):
    assert execute(["frobnicate"]).exit_code == EXIT_USAGE
    assert execute(["theory", "--frequency"]).exit_code == EXIT_USAGE
    assert execute(["theory", "--base", "37"]).exit_code == EXIT_USAGE
    assert execute(["theory", "--base", "1"]).exit_code == EXIT_USAGE
    assert execute([]).exit_code == EXIT_USAGE
    capsys.readouterr()


def test_out_flag_writes_the_same_text_as_stdout(tmp_path, capsys):
    for argv in (
        ["theory", "--base", "8"],
        ["sweep", "--all-digits", "--m-max", "30"],
        ["sweep", "--all-digits", "--base", "3", "--m-max", "400"],  # pieces of rows
    ):
        outcome = execute(argv)
        stdout_text = capsys.readouterr().out
        assert outcome.exit_code == EXIT_OK
        target = tmp_path / f"{argv[0]}.txt"
        outcome = execute(argv + ["--out", str(target)])
        assert outcome.exit_code == EXIT_OK
        assert capsys.readouterr().out == ""
        assert target.read_text() == stdout_text


def test_unwritable_out_path_exits_one(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.json"
    outcome = execute(["theory", "--out", str(target)])
    assert outcome.exit_code == EXIT_FAILURE
    assert "report.json" in capsys.readouterr().err


# The program's entry, which ends without interpreter teardown, and the body
# of a script that returns cli.main's code and so tears the interpreter down:
# only then does an unclosed file or an unreaped child warn at exit.
PROGRAM = ["-m", "digitlaw"]
TEARDOWN = ["-c", "import sys; from digitlaw.cli import main; sys.exit(main())"]
DEV_FLAGS = ["-X", "dev", "-W", "error::ResourceWarning"]


def test_a_reader_that_closes_the_pipe_ends_the_run_quietly():
    argv = ["sweep", "--digit", "1", "--m-max", "200000"]
    for entry in (PROGRAM, TEARDOWN):
        with subprocess.Popen(
            [sys.executable, *DEV_FLAGS, *entry, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as child:
            assert child.stdout.readline().startswith(b"leading-digit frequency")
            child.stdout.close()  # the table is megabytes, far past a pipe's buffer
            err = child.stderr.read()
        assert err == b""
        assert child.returncode == EXIT_FAILURE


def assert_no_process_left_in_group(pgid):
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)


@pytest.mark.parametrize("command", ["sweep", "analyze"])
def test_no_child_outlives_the_program(command, tmp_path):
    """A child of the program is reaped before it ends, at a closed pipe too.

    The program runs as the leader of its own process group, so that any
    child it left behind would still be found in that group."""
    if command == "sweep":
        argv = ["sweep", "--digit", "1", "--m-max", "200000"]
    else:  # inputs of a share's worth each, so cut into two or more
        lines = parallel._MIN_SHARE_BYTES // len("12 13 24\n") + 1
        argv = ["analyze"]
        for name in ("a.txt", "b.txt"):
            (tmp_path / name).write_text("12 13 24\n" * lines)
            argv += ["--input", str(tmp_path / name)]
    with subprocess.Popen(
        [sys.executable, *PROGRAM, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    ) as child:
        if command == "sweep":
            assert child.stdout.readline().startswith(b"leading-digit frequency")
            child.stdout.close()
        else:
            assert b"used %d" % (6 * lines) in child.stdout.read()
        err = child.stderr.read()
    assert err == b""
    assert child.returncode == (EXIT_FAILURE if command == "sweep" else EXIT_OK)
    assert_no_process_left_in_group(child.pid)


def test_a_closed_stdout_is_refused_unless_the_report_goes_to_a_file(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(sys, "stdout", None)  # as `digitlaw theory >&-` leaves it
    for argv in (["theory"], ["sweep", "--digit", "1", "--m-max", "200000"]):
        outcome = execute(argv)
        assert outcome.exit_code == EXIT_FAILURE
        assert capsys.readouterr().err == (
            "digitlaw: standard output is closed; name a file with --out\n"
        )
    target = tmp_path / "theory.txt"
    assert execute(["theory", "--out", str(target)]).exit_code == EXIT_OK
    assert target.read_text().startswith("first-digit laws, base 10\n")
    assert capsys.readouterr().err == ""


def test_the_program_with_stdout_closed_exits_one_with_one_line(tmp_path):
    def closed_stdout(*argv):
        return subprocess.run(
            ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, *PROGRAM, *argv],
            capture_output=True,
            text=True,
        )

    done = closed_stdout("theory")
    assert done.returncode == EXIT_FAILURE
    assert done.stderr == "digitlaw: standard output is closed; name a file with --out\n"
    target = tmp_path / "theory.txt"
    done = closed_stdout("theory", "--out", str(target))
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert target.read_text().startswith("first-digit laws, base 10\n")


def _open_fds() -> set[int]:
    fds = set()
    for fd in range(1024):
        try:
            os.fstat(fd)
        except OSError:
            continue
        fds.add(fd)
    return fds


def test_a_closed_pipe_on_stdout_leaves_no_descriptor_open(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as stdout, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        before = _open_fds()
        code = main(["sweep", "--digit", "1", "--m-max", "20000"])
        after = _open_fds()
    assert code == EXIT_FAILURE
    assert after == before


# Every module digitlaw imports adds to each command's start-up time and
# peak memory, which the benchmark measures per command; adding or dropping
# one is a deliberate change to this set.  Read from the source, so that
# what a given Python version's stdlib imports in turn does not matter.
PACKAGE_IMPORTS = {
    "__future__",
    "argparse",
    "array",
    "atexit",
    "collections",
    "contextlib",
    "dataclasses",
    "fractions",
    "functools",
    "gc",
    "io",
    "itertools",
    "json",
    "marshal",
    "math",
    "os",
    "re",
    "sys",
    "time",
    "typing",
}


# array is loaded only where a power-of-two radix is counted in C,
# digitlaw.parallel by every analyze, whose inputs it reads, and
# digitlaw.children only where a command may fork.
@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["--help"], []),
        (["theory"], []),
        (["bounds", "--dist", "geom"], []),
        (["sweep", "--digit", "1", "--m-max", "5000"], ["digitlaw.children", "digitlaw.sweep"]),
        (
            ["analyze", "--input", "a.txt", "--input", "b.txt"],
            ["digitlaw.children", "digitlaw.parallel"],
        ),
        (
            ["analyze", "--base", "16", "--input", "a.txt"],
            ["digitlaw.children", "digitlaw.parallel", "array"],
        ),
        (["analyze"], ["digitlaw.parallel"]),
    ],
    ids=["help", "theory", "bounds", "sweep", "analyze", "analyze-base-16", "analyze-stdin"],
)
def test_a_command_loads_no_other_command_s_module(argv, loaded, tmp_path):
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_text("12 13 24\n")
    argv = [str(tmp_path / arg) if arg.endswith(".txt") else arg for arg in argv]
    script = (
        "import sys; from digitlaw.cli import main; main(sys.argv[1:]); "
        "print([m for m in ('digitlaw.children', 'digitlaw.parallel', 'digitlaw.sweep', "
        "'array') if m in sys.modules], file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        input="12 13 24\n",
        capture_output=True,
        text=True,
    )
    assert done.stderr == f"{loaded}\n"


def test_the_package_imports_a_pinned_set_of_modules():
    import digitlaw

    imported = set()
    for path in Path(digitlaw.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported == PACKAGE_IMPORTS


# The calls that start, wait for, end and hear back from a child process.
PROCESS_CALLS = {"fork", "memfd_create", "waitpid", "kill", "_exit"}


def test_one_function_forks_waits_kills_and_makes_memory_files():
    """Every child process is run by children.in_children, and nothing else uses
    these calls (or os.pipe), so that one rule decides when a child's work counts.

    The one other os._exit is cli.run's, which ends the program: a child
    must not flush the buffers of standard output it shares with its parent."""
    import digitlaw

    used = {}
    for path in Path(digitlaw.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id == "os" and node.attr in PROCESS_CALLS | {"pipe"}:
                        used.setdefault(node.attr, set()).add(where)
    expected = {name: {("children.py", "in_children")} for name in PROCESS_CALLS}
    expected["_exit"].add(("cli.py", "run"))
    assert used == expected


def package_imports():
    """(file name, import node) for every import statement of the package's modules."""
    import digitlaw

    for path in sorted(Path(digitlaw.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path.name, node


def test_no_module_imports_a_private_name_of_another_module():
    names = []
    for where, node in package_imports():
        names += [(where, alias.name) for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.module:
            names.append((where, node.module))
    private = [
        (where, name)
        for where, name in names
        for part in name.split(".")
        if part.startswith("_") and not part.endswith("__")
    ]
    assert private == []


def test_only_the_package_entry_imports_cli():
    """The imports form a DAG with cli at the top: no module but __main__.py imports it."""
    importers = []
    for where, node in package_imports():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:  # `from digitlaw.cli import`, `from .cli import`, `from . import cli`
            package = node.module or ""
            if node.level:
                package = f"digitlaw.{package}".rstrip(".")
            modules = [package] + [f"{package}.{alias.name}" for alias in node.names]
        importers += [where for module in modules if module == "digitlaw.cli"]
    assert importers == ["__main__.py"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--digit", "1", "--m-max", "10"],
        ["analyze", "--input", "a.txt", "--input", "b.txt"],
    ],
    ids=["sweep", "analyze-inputs"],
)
def test_the_cli_module_run_as_main_is_not_imported_again(argv, tmp_path):
    """`python -m digitlaw.cli` runs cli.py once, as __main__: no module imports digitlaw.cli."""
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_text("12 13 24\n")
    argv = [str(tmp_path / arg) if arg.endswith(".txt") else arg for arg in argv]
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "digitlaw.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert done.returncode == EXIT_OK
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
    assert "digitlaw.cli" not in imported
    assert "digitlaw.children" in imported  # the lines name what the command imported


def test_json_reports_are_deterministic_modulo_meta(segment_file, tmp_path, capsys):
    argv = ["analyze", "--input", str(segment_file), "--output", "json"]
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert execute(argv + ["--out", str(first)]).exit_code == EXIT_OK
    assert execute(argv + ["--out", str(second)]).exit_code == EXIT_OK
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    a.pop("meta")
    b.pop("meta")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_module_theory():
    return subprocess.run(
        [sys.executable, "-m", "digitlaw", "theory", "--base", "10"],
        capture_output=True,
        text=True,
    )


def console_script():
    """The body an installer writes into the `digitlaw` console script.

    Built from the repo's own [project.scripts] declaration, so a test
    needs no install yet still breaks if the declaration or its target does.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["digitlaw"]
    module_name, attr = target.split(":")
    return [
        "-c",
        f"import sys; from {module_name} import {attr}; "
        f"sys.argv[0] = 'digitlaw'; sys.exit({attr}())",
    ]


def test_console_script_and_module_entry_points():
    script = subprocess.run(
        [sys.executable, *console_script(), "theory", "--base", "10"],
        capture_output=True,
        text=True,
    )
    assert script.returncode == 0, script.stderr
    assert "0.3010" in script.stdout
    module = run_module_theory()
    assert module.returncode == 0, module.stderr
    assert module.stdout == script.stdout


# The environment of a child whose standard output is block-buffered unless
# it is a terminal, so that what is still buffered at exit must be flushed.
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sweep", "--all-digits", "--m-max", "1000", "--output", "json"], EXIT_OK),
        (["analyze", "--input", "no-such-input.txt"], EXIT_FAILURE),
        (["theory", "--base", "99"], EXIT_USAGE),
        (["analyze", "--input", "segment.txt", "--require-bounds"], EXIT_BOUNDS),
    ],
    ids=["ok", "failure", "usage", "bounds"],
)
@pytest.mark.parametrize("entry", ["module", "cli-module", "script"])
def test_the_program_exits_and_prints_as_execute_does(
    entry, argv, code, segment_file, tmp_path, capsys
):
    """Each way in to the program gives execute's exit code, and its bytes
    outside meta on stdout written to a file, so block-buffered."""
    argv = [str(segment_file) if arg == "segment.txt" else arg for arg in argv]
    outcome = execute(argv)
    expected = capsys.readouterr()
    assert outcome.exit_code == code
    if entry == "script":
        prefix = console_script()
    else:
        prefix = {"module": PROGRAM, "cli-module": ["-m", "digitlaw.cli"]}[entry]
    stdout = tmp_path / "stdout"
    with stdout.open("wb") as file:
        done = subprocess.run(
            [sys.executable, *prefix, *argv],
            stdout=file,
            stderr=subprocess.PIPE,
            text=True,
            env=BUFFERED_ENV,
        )
    assert done.returncode == code
    assert done.stderr == expected.err
    assert without_elapsed(stdout.read_bytes().decode()) == without_elapsed(expected.out)


def test_the_program_runs_at_exit_handlers_before_its_last_flush():
    body = (
        "import atexit, sys; atexit.register(sys.stdout.write, 'handler ran\\n'); "
        "from digitlaw.cli import run; run()"
    )
    done = subprocess.run(
        [sys.executable, "-c", body, "theory", "--base", "3"],
        capture_output=True,
        text=True,
        env=BUFFERED_ENV,
    )
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert done.stdout.startswith("first-digit laws, base 3\n")
    assert done.stdout.endswith("\nhandler ran\n")


@pytest.mark.skipif(
    shutil.which("digitlaw") is None,
    reason="no installed `digitlaw` console script on PATH",
)
def test_installed_console_script_matches_module():
    script = subprocess.run(
        ["digitlaw", "theory", "--base", "10"], capture_output=True, text=True
    )
    assert script.returncode == 0, script.stderr
    assert "0.3010" in script.stdout
    module = run_module_theory()
    assert module.returncode == 0, module.stderr
    assert module.stdout == script.stdout


def test_help_exits_zero(capsys):
    assert execute(["--help"]).exit_code == 0
    assert execute(["analyze", "--help"]).exit_code == 0
    capsys.readouterr()
