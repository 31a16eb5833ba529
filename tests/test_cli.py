"""Command-line behavior: reports, rendering, exit codes, determinism."""

import ast
import contextlib
import io
import json
import math
import operator
import os
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from digitlaw.cli import (
    EXIT_BOUNDS,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    _SIG4_CELL,
    _json_points,
    _table,
    execute,
    main,
)
from digitlaw.lawtheory import (
    arithmetic_mean_distribution,
    benford,
    geometric_mean_distribution,
    leading_digit_count,
)


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
    assert all(list(s["points"]) == [] for s in series)  # consumed by emission
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
        ("n", 6), ("ratio", 12, _SIG4_CELL), ("exact", 10), ("scaled", 0, _SIG4_CELL)
    ]
    specials = [0.0, -0.0, math.inf, -math.nan, 5e-324, 1.7976931348623157e308]
    scaled = specials + [-(10.0 ** (i % 60 - 30)) for i in range(len(specials), n_rows)]
    rows = [(i, i / 7, f"{i}/7", scaled[i]) for i in range(n_rows)]
    pieces = list(_table("  ", columns, iter(rows)))
    expected = "".join(line + "\n" for line in reference_table("  ", columns, rows))
    assert "".join(pieces) == expected
    assert all(piece.endswith("\n") for piece in pieces)
    # the header, then the rows 128 to a piece
    full, rest = divmod(n_rows, 128)
    sizes = [1] + [128] * full + ([rest] if rest else [])
    assert [piece.count("\n") for piece in pieces] == sizes


def test_an_empty_point_series_prints_as_the_encoder_prints_it():
    assert "".join(_json_points([])) == json.dumps({"points": []})[1:-1]


@pytest.mark.parametrize(
    "output, bound", [("json", 2_000_000), ("table", 400_000)], ids=["json", "table"]
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


def test_bounds_mass_violation_is_a_runtime_error(capsys):
    # parses fine, but the probabilities do not form a distribution
    probs = ",".join(["0.5"] * 9)
    outcome = execute(["bounds", "--probs", probs])
    err = capsys.readouterr().err
    assert outcome.exit_code == EXIT_FAILURE
    assert "sum" in err


@pytest.mark.parametrize("output", ["table", "json"])
def test_bounds_nan_probability_is_a_runtime_error(output, capsys):
    argv = ["bounds", "--base", "3", "--probs", "nan,0.5", "--output", output]
    outcome = execute(argv)
    captured = capsys.readouterr()
    assert outcome.exit_code == EXIT_FAILURE
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


def test_a_reader_that_closes_the_pipe_ends_the_run_quietly():
    argv = ["-m", "digitlaw", "sweep", "--digit", "1", "--m-max", "200000"]
    flags = ["-X", "dev", "-W", "error::ResourceWarning"]
    with subprocess.Popen(
        [sys.executable, *flags, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as child:
        assert child.stdout.readline().startswith(b"leading-digit frequency")
        child.stdout.close()  # the table is megabytes, far past a pipe's buffer
        err = child.stderr.read()
    assert err == b""
    assert child.returncode == EXIT_FAILURE


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
    "contextlib",
    "dataclasses",
    "fractions",
    "functools",
    "itertools",
    "json",
    "math",
    "os",
    "re",
    "sys",
    "time",
    "typing",
}


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


def test_cli_imports_no_private_name_of_another_module():
    import digitlaw.cli

    tree = ast.parse(Path(digitlaw.cli.__file__).read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    names += [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    ]
    private = [
        name
        for name in names
        for part in name.split(".")
        if part.startswith("_") and not part.endswith("__")
    ]
    assert private == []


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


def test_console_script_and_module_entry_points():
    # Run the body an installer writes into the `digitlaw` console script,
    # built from the repo's own [project.scripts] declaration, so the test
    # needs no install yet still breaks if the declaration or cli.main does.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["digitlaw"]
    module_name, attr = target.split(":")
    wrapper = (
        f"import sys; from {module_name} import {attr}; "
        f"sys.argv[0] = 'digitlaw'; sys.exit({attr}())"
    )
    script = subprocess.run(
        [sys.executable, "-c", wrapper, "theory", "--base", "10"],
        capture_output=True,
        text=True,
    )
    assert script.returncode == 0, script.stderr
    assert "0.3010" in script.stdout
    module = run_module_theory()
    assert module.returncode == 0, module.stderr
    assert module.stdout == script.stdout


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
