"""Dataset parsing: formats, diagnostics, and refusal to crash."""

import io
import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from digitlaw import empirical, ingest, parallel
from digitlaw.digits import NUMERAL_RE, leading_digit_real, leading_digit_text
from digitlaw.errors import DomainError, StructuralError
from digitlaw.empirical import tally
from digitlaw.ingest import COMMENT_PREFIX, Diagnostic, InputSpec, read_numerals


def parse(spec, text):
    """Drain read_numerals: (float(token), token) pairs and the diagnostics."""
    diagnostics = []
    pairs = [(float(token), token) for token in read_numerals(spec, text, diagnostics)]
    return pairs, diagnostics


def values_of(pairs):
    return [value for value, _ in pairs]


# ----------------------------------------------------------- InputSpec


def test_input_spec_defaults():
    spec = InputSpec()
    assert spec.format == "plain"
    assert spec.delimiter == ","
    assert spec.column == 1
    assert COMMENT_PREFIX == "#"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"format": "xml"},
        {"delimiter": ";;"},
        {"delimiter": ""},
        {"delimiter": "7"},
        {"delimiter": "+"},
        {"delimiter": "-"},
        {"delimiter": "."},
        {"delimiter": "e"},
        {"delimiter": "E"},
        {"delimiter": "\t"},
        {"format": "delimited", "column": 0},
        {"format": "delimited", "column": 2.0},
        {"format": "delimited", "column": "2"},
        {"format": "delimited", "column": True},
        {"delimiter": 5},
        {"delimiter": None},
    ],
)
def test_input_spec_rejects_bad_configuration(kwargs):
    with pytest.raises(DomainError):
        InputSpec(**kwargs)


# --------------------------------------------------------------- plain


def test_plain_takes_every_numeral_token():
    records, diagnostics = parse(InputSpec(), "1 2 3\n4.5 -6e2")
    assert values_of(records) == [1.0, 2.0, 3.0, 4.5, -600.0]
    assert diagnostics == []


def test_plain_trailing_comment_tokens_become_diagnostics():
    # the comment marker only counts at line start, so trailing chatter
    # is just three unparseable tokens
    records, diagnostics = parse(InputSpec(), "1 2 3 # trailing comment")
    assert values_of(records) == [1.0, 2.0, 3.0]
    assert len(diagnostics) == 3
    assert all(d.line == 1 for d in diagnostics)


def test_comment_lines_and_blank_lines_are_skipped():
    text = "# header\n   # indented comment\n\n   \n42\n"
    records, diagnostics = parse(InputSpec(), text)
    assert values_of(records) == [42.0]
    assert diagnostics == []


def test_tokens_keep_their_exact_text():
    records, _ = parse(InputSpec(), "007 +.5 1.0e-3")
    assert [(token, value) for value, token in records] == [
        ("007", 7.0),
        ("+.5", 0.5),
        ("1.0e-3", 0.001),
    ]


# ----------------------------------------------------------- delimited


def test_delimited_selects_the_requested_column():
    text = "id,amount\nA,19\nB,x\nC,0.00456"
    records, diagnostics = parse(
        InputSpec(format="delimited", column=2), text
    )
    assert values_of(records) == [19.0, 0.00456]
    assert [d.line for d in diagnostics] == [1, 3]  # header, then "x"


def test_delimited_strips_field_padding_and_honors_delimiter():
    records, diagnostics = parse(
        InputSpec(format="delimited", delimiter=";", column=2),
        "a; 19 ;c\nb;0.5;d",
    )
    assert values_of(records) == [19.0, 0.5]
    assert diagnostics == []


def test_delimited_missing_column_on_some_lines_is_diagnosed():
    text = "1,2\n3\n4,5"
    records, diagnostics = parse(InputSpec(format="delimited", column=2), text)
    assert values_of(records) == [2.0, 5.0]
    assert len(diagnostics) == 1 and diagnostics[0].line == 2
    assert "column 2 missing" in diagnostics[0].message


def test_delimited_short_line_among_whole_line_hits_is_diagnosed():
    # only the third line lacks column 2
    text = "a,1\nb, 2 ,x\nshort\nc,3.5\n"
    records, diagnostics = parse(InputSpec(format="delimited", column=2), text)
    assert values_of(records) == [1.0, 2.0, 3.5]
    assert [(d.line, d.message) for d in diagnostics] == [
        (3, "line has 1 field(s), column 2 missing")
    ]


def test_delimited_structural_error_counts_every_data_line():
    text = "1,2\n# comment\n\n \xa0# comment\n3,4\r\n5\n"
    with pytest.raises(StructuralError) as caught:
        parse(InputSpec(format="delimited", column=3), text)
    assert str(caught.value) == (
        "column 3 missing from every one of the 3 data line(s)"
    )


@pytest.mark.parametrize("column", [3, 2**32 - 1, 2**32, 2**64])
def test_a_column_past_every_line_is_structural_at_any_size(column):
    # 2**32 and up are repeat counts that Python's re cannot compile
    with pytest.raises(StructuralError) as caught:
        parse(InputSpec(format="delimited", column=column), "1,2\n3,4\n")
    assert str(caught.value) == (
        f"column {column} missing from every one of the 2 data line(s)"
    )


def test_delimited_column_absent_everywhere_is_structural():
    with pytest.raises(StructuralError):
        parse(InputSpec(format="delimited", column=5), "1,2\n3,4\n")
    # comments alone do not trigger the structural check
    records, diagnostics = parse(
        InputSpec(format="delimited", column=5), "# nothing here\n"
    )
    assert records == [] and diagnostics == []


# -------------------------------------------------------- spectrum2col


def test_spectrum_takes_the_second_field():
    records, diagnostics = parse(
        InputSpec(format="spectrum2col"), "400.0 0.123\n401.0 0.456"
    )
    assert values_of(records) == [0.123, 0.456]
    assert diagnostics == []


def test_spectrum_accepts_commas_and_mixed_separators():
    text = "400.0,0.123\n401.0, 0.456\n402.0 0.789"
    records, diagnostics = parse(InputSpec(format="spectrum2col"), text)
    assert values_of(records) == [0.123, 0.456, 0.789]
    assert diagnostics == []


def test_spectrum_ignores_extra_fields_silently():
    records, diagnostics = parse(
        InputSpec(format="spectrum2col"), "402.0 0.00789 saturated flag9"
    )
    assert values_of(records) == [0.00789]
    assert diagnostics == []


def test_spectrum_single_field_lines_are_diagnosed():
    records, diagnostics = parse(InputSpec(format="spectrum2col"), "400.0\n")
    assert records == []
    assert len(diagnostics) == 1 and "two fields" in diagnostics[0].message


# ------------------------------------------------------ shared behavior


def test_crlf_line_endings_leave_no_residue_in_tokens():
    records, _ = parse(InputSpec(), "1\r\n2\r\n")
    assert records == [(1.0, "1"), (2.0, "2")]


def test_stream_and_string_inputs_agree():
    text = "1 2\n# c\n3"
    spec = InputSpec()
    assert parse(spec, text) == parse(spec, io.StringIO(text))
    assert parse(spec, text) == parse(spec, ["1 2\n", "# c\n", "3"])


@pytest.mark.parametrize(
    "spec, tokens",
    [(InputSpec(), ["1", "2", "3", "4", "5"]), (InputSpec(format="spectrum2col"), ["2", "4"])],
)
def test_each_item_of_an_iterable_is_a_line_even_without_an_lf(spec, tokens):
    diagnostics = []
    assert list(read_numerals(spec, ["1 2", "", "3 4", "5 x\n"], diagnostics)) == tokens
    assert [(d.line, d.message) for d in diagnostics] == [(4, "not a numeral: 'x'")]


@pytest.mark.parametrize(
    "spec",
    [
        InputSpec(),
        InputSpec(format="delimited", column=2),
        InputSpec(format="spectrum2col"),
    ],
)
def test_string_lines_break_where_file_lines_do(spec, tmp_path):
    # \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029 end a line for
    # str.splitlines() but not for a text file; \r and \r\n end both
    text = (
        "1,2\x0b3,4\x0c5,6\n7,8\x1c9,1\x1d2,3\r4,5\x1e6,7\x85x,y\r\n"
        "8 9\u20281 2\u20293,4\n1,2\x0c3,4\n5,6\nz\n"
    )
    path = tmp_path / "lines.txt"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    with open(path, encoding="utf-8") as handle:
        from_file = parse(spec, handle)
    assert parse(spec, text) == from_file


def test_parsing_is_deterministic():
    text = "1 x 3\n4,bad\n0.5"
    spec = InputSpec()
    assert parse(spec, text) == parse(spec, text)


@pytest.mark.parametrize(
    "token",
    ["1.5", "-0.25", "+3e8", ".5", "5.", "0.0001", "12345678901234567890"],
)
def test_numeral_grammar_accepts(token):
    records, diagnostics = parse(InputSpec(), token)
    assert len(records) == 1 and diagnostics == []


@pytest.mark.parametrize(
    "token",
    ["0x10", "1_000", "nan", "inf", "1e", "e5", "--1", "1.2.3", "1,5", "½"],
)
def test_numeral_grammar_rejects(token):
    records, diagnostics = parse(InputSpec(), token)
    assert records == []
    assert len(diagnostics) >= 1


def test_numeral_grammar_takes_ascii_digits_only():
    # Arabic-Indic and fullwidth digits are decimal digits to float(), but
    # the grammar is ASCII 0-9, so they are diagnosed, not counted
    records, diagnostics = parse(InputSpec(), "\u0660\u0665 \uff15 3\n\u0665e2")
    assert records == [(3.0, "3")]
    assert [(d.line, d.message) for d in diagnostics] == [
        (1, "not a numeral: '\u0660\u0665'"),
        (1, "not a numeral: '\uff15'"),
        (2, "not a numeral: '\u0665e2'"),
    ]


def test_overflowing_exponent_becomes_an_infinite_record():
    # the grammar accepts it; the float overflows; tallying will skip it
    records, diagnostics = parse(InputSpec(), "1e999")
    assert len(records) == 1 and math.isinf(records[0][0])
    assert diagnostics == []


def test_garbage_bytes_never_crash_the_parser():
    rng = random.Random(701)
    for _ in range(50):
        raw = bytes(rng.randrange(0, 256) for _ in range(300))
        text = raw.decode("utf-8", errors="replace")
        records, diagnostics = parse(InputSpec(), text)
        for value, token in records:
            assert float(token) == value
        for diagnostic in diagnostics:
            assert isinstance(diagnostic, Diagnostic)
            assert diagnostic.line >= 1


def test_token_round_trip_matches_both_extractors():
    """Whatever the parser hands over, reading the digit off the token
    and off the parsed float must agree for exactly-parsing tokens."""
    text = "400.0 0.123\n401.0 0.456\n402.5 78.9\n403 0.002"
    records, _ = parse(InputSpec(format="spectrum2col"), text)
    for value, token in records:
        token_digit = leading_digit_text(token)
        assert token_digit is not None
        assert token_digit == leading_digit_real(value, 10)


def test_record_token_reparses_to_the_stored_value():
    rng = random.Random(702)
    tokens = [f"{rng.uniform(-1000, 1000):.6f}" for _ in range(200)]
    records, _ = parse(InputSpec(), " ".join(tokens))
    assert len(records) == 200
    for value, token in records:
        assert float(token) == value


def test_lines_are_read_only_as_values_are_asked_for():
    def lines():
        yield "1\n"
        raise AssertionError("read past the first line")

    assert next(read_numerals(InputSpec(), lines(), [])) == "1"


def test_diagnostics_arrive_as_the_stream_is_read():
    diagnostics = []
    numerals = read_numerals(InputSpec(), ["x 1\n", "2 y\n"], diagnostics)
    assert next(numerals) == "1"
    assert [d.line for d in diagnostics] == [1]
    assert list(numerals) == ["2"]
    assert [d.line for d in diagnostics] == [1, 2]


def test_structural_error_arrives_once_the_stream_is_exhausted():
    spec = InputSpec(format="delimited", column=5)
    numerals = read_numerals(spec, "1,2\n3,4\n", [])
    with pytest.raises(StructuralError):
        tally(numerals)
    # after more lines than tally takes at a time, in a base counted in C too
    for base in (10, 16):
        diagnostics = []
        with pytest.raises(StructuralError):
            tally(read_numerals(spec, "1,2\n" * 600, diagnostics), base)
        assert len(diagnostics) == 600


def test_a_byte_order_mark_is_dropped_once():
    for stream in ("\ufeff1 2\n\ufeff3\n", io.StringIO("\ufeff1 2\n\ufeff3\n")):
        records, diagnostics = parse(InputSpec(), stream)
        assert values_of(records) == [1.0, 2.0]
        assert [(d.line, d.message) for d in diagnostics] == [
            (2, "not a numeral: '\\ufeff3'")
        ]
    # a stream that starts past a file's first byte keeps it
    diagnostics = []
    assert list(read_numerals(InputSpec(), "\ufeff1 2\n", diagnostics, drop_bom=False)) == ["2"]
    assert [(d.line, d.message) for d in diagnostics] == [(1, "not a numeral: '\\ufeff1'")]


def test_tally_over_a_stream_holds_no_per_value_memory():
    rng = random.Random(703)
    text = "".join(f"{rng.lognormvariate(0, 3):.6g}\n" for _ in range(50_000))
    tally(["1"], 16)  # load the modules of the base-16 route first
    # base 16 counts one key per distinct sign, exponent and top 4 bits
    for base in (10, 16):
        stream = io.StringIO(text)
        tracemalloc.start()
        try:
            summary = tally(read_numerals(InputSpec(), stream, []), base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.total_read == 50_000
        assert peak < 1_000_000


def test_a_long_plain_line_holds_no_per_token_matcher_state():
    # a clean line is split once and its tokens checked by float(), so it
    # holds one str per token; a line pattern repeated over its tokens
    # would keep matcher state for every one, about 1 KB each
    rng = random.Random(704)
    line = " ".join(f"{rng.lognormvariate(0, 3):.6g}" for _ in range(50_000))
    tracemalloc.start()
    try:
        summary = tally(read_numerals(InputSpec(), line + "\n", []))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.total_read == 50_000
    assert peak < 10_000_000


def test_a_long_clean_line_keeps_no_doubles_at_base_10():
    # a clean piece is checked by float() over its tokens; at base 10 tally
    # reads the tokens' text, so the check keeps none of the doubles it
    # makes, and only a base that counts values holds one per token
    rng = random.Random(708)
    line = " ".join(f"{rng.lognormvariate(0, 3):.6g}" for _ in range(200_000)) + "\n"
    tally(read_numerals(InputSpec(), "1\n", [], values=True), 16)  # load the base-16 route first
    peaks = {}
    for base in (10, 16):
        tracemalloc.start()
        try:
            summary = tally(read_numerals(InputSpec(), line, [], values=base != 10), base)
            _, peaks[base] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.total_read == 200_000
    # a double takes 24 bytes, and 8 more in a list
    assert peaks[10] + 200_000 * 24 < peaks[16]


def test_a_string_is_sliced_not_copied():
    # an io.StringIO holds 4 bytes per character; a str passed in must
    # not be copied into one, so it costs what the same line in a list does
    rng = random.Random(705)
    line = " ".join(f"{rng.lognormvariate(0, 3):.6g}" for _ in range(50_000))
    peaks = []
    for stream in (line, [line]):
        tracemalloc.start()
        try:
            summary = tally(read_numerals(InputSpec(), stream, []))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.total_read == 50_000
        peaks.append(peak)
    as_str, as_list = peaks
    assert as_str <= 1.05 * as_list
    assert as_str < 5_000_000


@pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_string_with_cr_line_ends_is_not_copied(line_end):
    # CR and CRLF are turned into LF one piece at a time: a translated copy
    # of the whole text would hold about 441 KB for these 50,000 lines
    rng = random.Random(707)
    text = "".join(f"{rng.lognormvariate(0, 3):.6g}{line_end}" for _ in range(50_000))
    tally(read_numerals(InputSpec(), "1\n", []))  # compile the pattern first
    tracemalloc.start()
    try:
        summary = tally(read_numerals(InputSpec(), text, []))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.total_read == 50_000
    assert peak < 50_000


def test_a_stream_is_read_one_small_piece_at_a_time():
    # Read in pieces, a stream peaks above the same lines given one at a
    # time by what a piece holds, its findall list the most: 3.0 KB at
    # 256-character pieces, 4.2 KB at 384 (the smallest size measured to
    # raise the benchmark's peak RSS), 10.6 KB at 1 KB and 41 KB at 4 KB.
    rng = random.Random(706)
    text = "".join(
        f"{4000 - i * 0.15:.3f},{rng.lognormvariate(0, 2):.6g}\n" for i in range(24_000)
    )
    spec = InputSpec(format="spectrum2col")
    tally(read_numerals(spec, "400.0 1.5\n", []))  # compile the pattern first
    peaks = []
    for stream in (io.StringIO(text), iter(text.splitlines(keepends=True))):
        tracemalloc.start()
        try:
            summary = tally(read_numerals(spec, stream, []))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.total_read == 24_000
        peaks.append(peak)
    in_pieces, line_by_line = peaks
    assert in_pieces - line_by_line < 3_600


def test_a_long_junk_token_is_rejected_in_linear_time():
    diagnostics = []
    started = time.perf_counter()
    assert list(read_numerals(InputSpec(), "1" * 200_000 + "x", diagnostics)) == []
    assert time.perf_counter() - started < 2.0
    assert len(diagnostics) == 1


@pytest.mark.parametrize(
    "spec",
    [
        InputSpec(),
        InputSpec(format="delimited", delimiter=" ", column=3),
        InputSpec(format="spectrum2col"),
    ],
)
def test_a_line_of_long_numerals_ending_in_junk_is_read_in_linear_time(spec):
    # the junk fails each line's float() check, so every field is matched
    # on its own; a numeral grammar that could split a digit run would make
    # those matches, and the spectrum2col line pattern, try every split of
    # a numeral before giving up
    line = "1234567890 " * 40 + "x\n"
    diagnostics = []
    started = time.perf_counter()
    tokens = list(read_numerals(spec, line * 3, diagnostics))
    assert time.perf_counter() - started < 2.0
    assert len(tokens) == (120 if spec.format == "plain" else 3)


# --------------------------------------- differential properties

_SIGNS = st.sampled_from(["", "+", "-"])
_RUNS = st.text(alphabet="0123456789", max_size=5)


@st.composite
def grammar_numerals(draw):
    """A numeral of the grammar, built from its parts."""
    whole, fraction = draw(_RUNS), draw(_RUNS)
    if not whole and not fraction:
        whole = "0"
    point = "." if fraction or draw(st.booleans()) else ""
    exponent = ""
    if draw(st.booleans()):
        exponent = draw(st.sampled_from("eE")) + draw(_SIGNS) + draw(_RUNS.filter(bool))
    return draw(_SIGNS) + whole + point + fraction + exponent


# Junk holds at least one character no numeral has: letters, other
# Unicode digits and punctuation.  No "#", which would start a comment.
_JUNK = st.tuples(
    st.text(alphabet="0123456789+-.eE", max_size=3),
    st.sampled_from("x_,/*n\u0665\uff15\u00bd"),
    st.text(alphabet="0123456789+-.eEx", max_size=3),
).map("".join)

_FIELDS = st.one_of(
    grammar_numerals().map(lambda token: (True, token)),
    _JUNK.map(lambda token: (False, token)),
)


def oracle_first_digit(token):
    """The first ASCII 1-9 of the significand, 0 when there is none."""
    for ch in token:
        if ch in "eE":
            break
        if ch in "123456789":
            return ord(ch) - ord("0")
    return 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_FIELDS, max_size=6), max_size=8))
def test_tally_of_read_numerals_matches_a_text_oracle(lines):
    text = "\n".join(" ".join(token for _, token in fields) for fields in lines)
    counts = [0] * 9
    zeros = 0
    for fields in lines:
        for is_numeral, token in fields:
            if is_numeral:
                digit = oracle_first_digit(token)
                if digit:
                    counts[digit - 1] += 1
                else:
                    zeros += 1
    summary = tally(read_numerals(InputSpec(), text, []))
    assert list(summary.counts) == counts
    assert summary.skipped_zero == zeros and summary.skipped_nonfinite == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_FIELDS, max_size=6), max_size=8))
def test_read_numerals_accounts_for_every_field(lines):
    text = "\n".join(" ".join(token for _, token in fields) for fields in lines)
    diagnostics = []
    tokens = list(read_numerals(InputSpec(), text, diagnostics))
    assert all(NUMERAL_RE.fullmatch(token) for token in tokens)
    assert tokens == [token for fields in lines for ok, token in fields if ok]
    assert [(d.line, d.message) for d in diagnostics] == [
        (line_no, f"not a numeral: {token!r}")
        for line_no, fields in enumerate(lines, start=1)
        for ok, token in fields
        if not ok
    ]


def per_field_oracle(spec, stream):
    """Read a stream field by field only, the route read_numerals takes
    for a line its pattern misses: (tokens, (line, message) pairs,
    StructuralError text or None)."""
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline=None)
    tokens, diagnostics = [], []
    data_lines = column_hits = 0
    for line_no, raw in enumerate(stream, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data_lines += 1
        if spec.format == "plain":
            fields = stripped.split()
        elif spec.format == "delimited":
            fields = raw.split(spec.delimiter)
            if len(fields) < spec.column:
                diagnostics.append(
                    (
                        line_no,
                        f"line has {len(fields)} field(s), column "
                        f"{spec.column} missing",
                    )
                )
                continue
            column_hits += 1
            fields = [fields[spec.column - 1].strip()]
        else:
            fields = stripped.replace(",", " ").split()
            if len(fields) < 2:
                diagnostics.append((line_no, "expected two fields, got one"))
                continue
            fields = [fields[1]]
        for token in fields:
            if NUMERAL_RE.fullmatch(token):
                tokens.append(token)
            else:
                diagnostics.append((line_no, f"not a numeral: {token!r}"))
    error = None
    if spec.format == "delimited" and data_lines > 0 and column_hits == 0:
        error = (
            f"column {spec.column} missing from every one of the "
            f"{data_lines} data line(s)"
        )
    return tokens, diagnostics, error


def read_all(spec, stream, values=False):
    """read_numerals drained into the oracle's shape."""
    diagnostics = []
    tokens = []
    error = None
    try:
        tokens.extend(read_numerals(spec, stream, diagnostics, values=values))
    except StructuralError as exc:
        error = str(exc)
    return tokens, [(d.line, d.message) for d in diagnostics], error


def as_values(read):
    """A read's numerals as float.hex() texts, which tell -0.0 from 0.0 and
    raise TypeError for anything but a float; tokens are converted first."""
    numerals, diagnostics, error = read
    floats = [float(n) if isinstance(n, str) else n for n in numerals]
    return list(map(float.hex, floats)), diagnostics, error


# Mostly no blank or ASCII ones, so that many lines take the line
# pattern; the other Unicode blanks do not end a line in a text file.
_BLANKS = st.one_of(
    st.just(""),
    st.sampled_from([" ", "\t", "  "]),
    st.text(alphabet=" \t\xa0\x0b\x0c\x1c\x1f\x85\u2028\u3000", max_size=2),
)
_LINE_DELIMITERS = " ,;#|"
_SPECS = st.one_of(
    st.just(InputSpec()),
    st.just(InputSpec(format="spectrum2col")),
    st.builds(
        InputSpec,
        format=st.just("delimited"),
        delimiter=st.sampled_from(_LINE_DELIMITERS),
        column=st.integers(1, 3),
    ),
)


@st.composite
def whole_line_streams(draw):
    """A spec and lines for it.  A body is either numerals joined by the
    spec's separator or junk, empty and numeral fields joined by any
    separator; a frame is either a plain LF line or any blanks, comment
    marker and line end."""
    spec = draw(_SPECS)
    natural = {"plain": " ", "spectrum2col": draw(st.sampled_from(" ,\t"))}
    separator = natural.get(spec.format, spec.delimiter)
    noisy_separators = st.one_of(
        st.just(separator),
        st.sampled_from(list(_LINE_DELIMITERS) + ["e", "\t", ", ", " ,", ",,", " \t"]),
        _BLANKS,
    )
    noisy_fields = st.one_of(grammar_numerals(), _JUNK, st.just(""))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            parts = draw(st.lists(grammar_numerals(), min_size=1, max_size=5))
            body = separator.join(parts)
        else:
            parts = draw(st.lists(noisy_fields, min_size=1, max_size=5))
            body = parts[0]
            for part in parts[1:]:
                body += draw(noisy_separators) + part
        if draw(st.booleans()):
            lead, comment, trail, end = draw(st.sampled_from(["", " ", "\t"])), "", "", "\n"
        else:
            lead, trail = draw(_BLANKS), draw(_BLANKS)
            comment = draw(st.sampled_from(["", "", "#", "# "]))
            end = draw(st.sampled_from(["\n", "\r\n", "\r", ""]))
        lines.append(lead + comment + body + trail + end)
    return spec, "".join(lines)


@settings(max_examples=500, deadline=None)
@given(whole_line_streams())
# a space delimiter is not field padding: column 2 is empty
@example((InputSpec(format="delimited", delimiter=" ", column=2), "1  2\n"))
# a comment behind a blank that is not ASCII is still a comment
@example((InputSpec(format="delimited", column=2), "\xa0# x,5\n"))
# leading commas do not make a spectrum field
@example((InputSpec(format="spectrum2col"), ",,5\n"))
# signed zeros, values past double range and a subnormal read as doubles
@example((InputSpec(), "-0 0.0 1e400 -1e-400 5e-324\n7 x\n"))
def test_line_patterns_read_whole_lines_as_the_per_field_route_does(stream):
    spec, text = stream
    # the same text cut by str.splitlines: CR and CRLF stay on the line,
    # and \x0c, \x1c, \x85 and \u2028 end one too
    for lines in (text, text.splitlines(keepends=True)):
        expected = per_field_oracle(spec, lines)
        assert read_all(spec, lines) == expected
        # the values route: float(token) for each token, the same diagnostics
        assert as_values(read_all(spec, lines, values=True)) == as_values(expected)


@pytest.mark.parametrize("piece_chars", [1, 2, 3, 7])
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(stream=whole_line_streams())
def test_pieces_cut_anywhere_read_as_whole_lines_do(piece_chars, monkeypatch, stream):
    monkeypatch.setattr(ingest, "_PIECE_CHARS", piece_chars)
    spec, text = stream
    expected = per_field_oracle(spec, text)
    assert read_all(spec, text) == expected
    assert read_all(spec, io.StringIO(text, newline=None)) == expected
    assert as_values(read_all(spec, text, values=True)) == as_values(expected)


def test_line_numbers_carry_across_pieces():
    lines = [f"{n % 97 + 1}.5 {n}" for n in range(1, 20_001)]
    for line_no in (1, 1_000, 19_999):
        lines[line_no - 1] += " junk"
    # a comment longer than a piece straddles a cut wherever pieces fall
    lines[5_000 - 1] = "# " + "x" * (3 * ingest._PIECE_CHARS)
    text = "\n".join(lines) + "\n"
    for stream in (text, io.StringIO(text)):
        diagnostics = []
        tokens = list(read_numerals(InputSpec(), stream, diagnostics))
        assert len(tokens) == 2 * 19_999
        assert [(d.line, d.message) for d in diagnostics] == [
            (line_no, "not a numeral: 'junk'") for line_no in (1, 1_000, 19_999)
        ]


def test_the_float_check_accepts_exactly_the_numeral_grammar():
    # every string of 1 to 7 characters over an alphabet of each character
    # class the grammar has: 960,799 strings
    check = ingest._clean_numerals
    fullmatch = NUMERAL_RE.fullmatch
    strings = 0
    for size in range(1, 8):
        for chars in itertools.product("07.eE+-", repeat=size):
            text = "".join(chars)
            assert (check(text, False) == [text]) == bool(fullmatch(text)), text
            strings += 1
    assert strings == 960_799


def _mixed_plain_text():
    """Plain lines of lognormal numerals in clean runs, then lines that mix
    them with zeros, subnormals, values past double range and junk."""
    rng = random.Random(33)
    odd = ["0", "-0.0", "0e7", "5e-324", "-2.5e-310", "1e400", "-1e-400", "x", "1.2.3"]
    lines = []
    for n in range(400):
        k = rng.randint(1, 8)
        tokens = [f"{rng.lognormvariate(0, 20):.{rng.randint(1, 9)}g}" for _ in range(k)]
        if n >= 300:
            tokens[rng.randrange(k)] = rng.choice(odd)
        lines.append(" ".join(tokens) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("base", [3, 7, 8, 16, 32, 36])
def test_tally_of_the_values_read_equals_tally_of_the_tokens(base):
    text = _mixed_plain_text()
    by_tokens, by_values = [], []
    summary = tally(read_numerals(InputSpec(), text, by_tokens), base)
    assert tally(read_numerals(InputSpec(), text, by_values, values=True), base) == summary
    assert by_values == by_tokens != []
    assert summary.skipped_zero and summary.skipped_nonfinite


def test_a_clean_plain_token_is_converted_once(monkeypatch):
    # ingest converts each token once; every chunk reaches tally as floats
    # and is counted in C, which converts nothing
    rng = random.Random(1)
    tokens = [f"{rng.lognormvariate(0, 20):.6g}" for _ in range(5_000)]
    text = "".join(" ".join(tokens[i : i + 7]) + "\n" for i in range(0, len(tokens), 7))
    expected = tally(tokens, 16)
    calls, chunks = 0, []

    def counted_float(x):
        nonlocal calls
        calls += 1
        return float(x)

    count_top_bits = empirical._count_top_bits

    def counted_top_bits(chunk, top_bits):
        chunks.append((set(map(type, chunk)), count_top_bits(chunk, top_bits)))
        return chunks[-1][1]

    monkeypatch.setattr(ingest, "float", counted_float, raising=False)
    monkeypatch.setattr(empirical, "_count_top_bits", counted_top_bits)
    assert tally(read_numerals(InputSpec(), text, [], values=True), 16) == expected
    assert calls == len(tokens)
    assert chunks == [({float}, True)] * math.ceil(len(tokens) / 256)
    # and so through the command's reader at a base other than 10
    calls = 0
    chunks.clear()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    summary = parallel.read_inputs(None, InputSpec(), 16, [])
    assert summary.counts == expected.counts
    assert calls == len(tokens)
    assert chunks == [({float}, True)] * math.ceil(len(tokens) / 256)
