"""Output checks for the benchmark, computed apart from the program.

Nothing here imports digitlaw.  Expectations come from the generator's
token lists (see workloads.py) and from brute force over 1..m_max:

analyze
  - per-digit counts equal a first-nonzero-character scan of the valid
    tokens (base 10) or the exact leading digit of Fraction(float(token))
    (any other base);
  - read == used + skipped == tokens - malformed, and one diagnostic per
    malformed token;
  - each exact fraction is count/used in lowest terms and each
    probability is its value;
  - the Benford chi-square equals one recomputed from the counts and
    log(1 + 1/n) / log N.
sweep
  - every point's count, num/den and value equal a brute-force tally of
    the leading digit of 1..m over 1..m_max;
  - the listed minima and maxima are exactly those at n*N^k - 1 and
    (n+1)*N^k - 1 inside the range, with the brute-force frequency there;
    for digit 1 in base 10 every minimum is exactly 1/9.

Table output prints 4 significant digits; a printed number is accepted
when it is the correct 4-digit rounding of the expected value.

    python3 bench/check.py --workload sweep-json --seed 7 --output out.json

exits 0 when the output passes and 1, listing what differs, when not.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from workloads import WORKLOADS, Inputs, make

# ------------------------------------------------------------ expectations


def _text_digit(token: str) -> int:
    """First nonzero digit of a decimal token's significand, 0 if none."""
    for ch in token:
        if ch in "eE":
            break
        if ch in "123456789":
            return int(ch)
    return 0


def _exact_digit(token: str, base: int) -> int:
    """Leading base-N digit of the exact binary value of float(token)."""
    value = abs(Fraction(float(token)))
    if value == 0:
        return 0
    p, q = value.numerator, value.denominator
    if p >= q:
        whole = p // q
        while whole >= base:
            whole //= base
        return whole
    while p < q:
        p *= base
    return p // q


def expected_counts(inputs: Inputs) -> tuple[list[int], int]:
    """Per-digit counts and the number of zero tokens."""
    counts = [0] * inputs.base
    for token in inputs.tokens:
        if inputs.base == 10:
            counts[_text_digit(token)] += 1
        else:
            counts[_exact_digit(token, inputs.base)] += 1
    return counts[1:], counts[0]


def benford_chi_square(counts: list[int], base: int) -> float:
    used = sum(counts)
    total = 0.0
    for n, observed in enumerate(counts, start=1):
        expected = used * math.log(1 + 1 / n) / math.log(base)
        total += (observed - expected) ** 2 / expected
    return total


def brute_counts(m_max: int, base: int) -> list[list[int]]:
    """counts[d][m] = how many of 1..m start with digit d in the base."""
    counts = [[0] * (m_max + 1) for _ in range(base)]
    running = [0] * base
    for m in range(1, m_max + 1):
        if base == 10:
            lead = ord(str(m)[0]) - 48
        else:
            lead = m
            while lead >= base:
                lead //= base
        running[lead] += 1
        for d in range(1, base):
            counts[d][m] = running[d]
    return counts


def _lowest(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def _printed_ok(text: str, expected: float) -> bool:
    """True when `text` is the 4-significant-digit rounding of `expected`."""
    try:
        shown = float(text)
    except ValueError:
        return False
    if expected == 0:
        return shown == 0
    unit = 10.0 ** (math.floor(math.log10(abs(expected))) - 3)
    return abs(shown - expected) <= 0.5 * unit * (1 + 1e-9) + 1e-15 * abs(expected)


# --------------------------------------------------------------- analyze


def _check_sample(inputs: Inputs, sample: dict, errors: list[str]) -> None:
    counts, zeros = expected_counts(inputs)
    read = len(inputs.tokens)
    if sample["counts"] != counts:
        errors.append(f"counts {sample['counts']} != expected {counts}")
    if sample["used"] != sum(counts):
        errors.append(f"used {sample['used']} != {sum(counts)}")
    if sample["skipped_zero"] != zeros or sample["skipped_nonfinite"] != 0:
        errors.append(
            f"skipped {sample['skipped_zero']} zero, {sample['skipped_nonfinite']} "
            f"non-finite != expected {zeros}, 0"
        )
    skipped = sample["skipped_zero"] + sample["skipped_nonfinite"]
    if sample["used"] + skipped != read or sample["total_read"] != read:
        errors.append(
            f"read {sample['total_read']}, used {sample['used']} + skipped "
            f"{skipped} != tokens - malformed = {read}"
        )


def _check_fractions(counts, used, fractions, errors: list[str]) -> None:
    for n, (count, (num, den)) in enumerate(zip(counts, fractions), start=1):
        if (num, den) != _lowest(count, used):
            errors.append(f"digit {n}: fraction {num}/{den} != {count}/{used} reduced")


def check_analyze_json(inputs: Inputs, text: str) -> list[str]:
    errors: list[str] = []
    doc = json.loads(text)
    result = doc["result"]
    sample = result["sample"]
    _check_sample(inputs, sample, errors)
    counts, used = sample["counts"], sample["used"]
    fractions = [(f["num"], f["den"]) for f in result["empirical"]["fractions"]]
    _check_fractions(counts, used, fractions, errors)
    for n, (count, p) in enumerate(zip(counts, result["empirical"]["probabilities"]), 1):
        if p != count / used:
            errors.append(f"digit {n}: probability {p} != {count}/{used}")
    benford = [c for c in result["candidates"] if c["label"] == "benford"]
    want = benford_chi_square(counts, inputs.base)
    if not benford or not math.isclose(benford[0]["chi_square"], want, rel_tol=1e-9):
        errors.append(f"benford chi_square {benford and benford[0]['chi_square']} != {want}")
    if len(doc["diagnostics"]) != inputs.malformed:
        errors.append(f"{len(doc['diagnostics'])} diagnostics != {inputs.malformed} malformed")
    return errors


_SAMPLE_RE = re.compile(
    r"^sample .*: read (\d+), used (\d+), skipped (\d+) zero and (\d+) non-finite$"
)
_DIGIT_ROW_RE = re.compile(r"^  (\d+)\s+(\d+)\s+(\d+)/(\d+)\s+(\S+)$")
_CANDIDATE_ROW_RE = re.compile(r"^  (benford|geom|arith)\s+(\S+)\s+(\S+)\s+(\d+)\s+(\S+)\s+(\S+)$")
_DIAGNOSTICS_RE = re.compile(r"^diagnostics \((\d+)\):$")


def check_analyze_table(inputs: Inputs, text: str) -> list[str]:
    errors: list[str] = []
    lines = text.splitlines()
    head = _SAMPLE_RE.match(lines[0]) if lines else None
    if head is None:
        return ["first line is not the sample summary"]
    read, used, zero, nonfinite = map(int, head.groups())
    end = lines.index("candidates:")
    rows = [_DIGIT_ROW_RE.match(line) for line in lines[3:end]]
    if None in rows or [int(r.group(1)) for r in rows] != list(range(1, inputs.base)):
        return ["digit rows are not 1..N-1"]
    counts = [int(r.group(2)) for r in rows]
    sample = {"counts": counts, "total_read": read, "used": used,
              "skipped_zero": zero, "skipped_nonfinite": nonfinite}
    _check_sample(inputs, sample, errors)
    fractions = [(int(r.group(3)), int(r.group(4))) for r in rows]
    _check_fractions(counts, used, fractions, errors)
    for n, (count, row) in enumerate(zip(counts, rows), 1):
        if not _printed_ok(row.group(5), count / used):
            errors.append(f"digit {n}: printed p {row.group(5)} != {count}/{used}")
    candidates = {m.group(1): m for m in map(_CANDIDATE_ROW_RE.match, lines) if m}
    want = benford_chi_square(counts, inputs.base)
    if "benford" not in candidates or not _printed_ok(candidates["benford"].group(3), want):
        errors.append(f"benford chi_square row does not show {want:.6g}")
    diagnostics = [m for m in map(_DIAGNOSTICS_RE.match, lines) if m]
    shown = int(diagnostics[0].group(1)) if diagnostics else 0
    if shown != inputs.malformed:
        errors.append(f"{shown} diagnostics != {inputs.malformed} malformed")
    return errors


# ----------------------------------------------------------------- sweep


def _check_extrema(inputs, digit, minima, maxima, counts, errors) -> None:
    base = inputs.base
    for kind, entries, first in (("min", minima, digit), ("max", maxima, digit + 1)):
        want = []
        k = 1
        while digit * base**k - 1 <= inputs.m_max:
            location = first * base**k - 1
            if location <= inputs.m_max:
                want.append((k, location))
            k += 1
        got = [(e["k"], e["m"]) for e in entries]
        if got != want:
            errors.append(f"digit {digit} {kind}: locations {got} != {want}")
            continue
        for e in entries:
            m = e["m"]
            num, den = _lowest(counts[digit][m], m)
            if (e["num"], e["den"]) != (num, den) or not e["value_ok"](num / den):
                errors.append(f"digit {digit} {kind} k={e['k']}: {e['num']}/{e['den']} != {num}/{den}")
            if digit == 1 and kind == "min" and (e["num"], e["den"]) != (1, 9):
                errors.append(f"digit 1 minimum at m={m} is {e['num']}/{e['den']}, not 1/9")


def _check_points(inputs, digit, points, counts, errors) -> None:
    if [p[0] for p in points] != list(range(1, inputs.m_max + 1)):
        errors.append(f"digit {digit}: points are not m = 1..{inputs.m_max}")
        return
    for m, count, num, den, value_ok in points:
        want = counts[digit][m]
        if count != want or (num, den) != _lowest(want, m) or not value_ok(want / m):
            errors.append(f"digit {digit} m={m}: {count} {num}/{den} != {want}/{m}")
            if len(errors) > 20:
                return


def check_sweep_json(inputs: Inputs, text: str) -> list[str]:
    errors: list[str] = []
    result = json.loads(text)["result"]
    if result["m_max"] != inputs.m_max:
        errors.append(f"m_max {result['m_max']} != {inputs.m_max}")
    series = result["series"]
    if [s["digit"] for s in series] != inputs.digits:
        return errors + [f"series digits {[s['digit'] for s in series]} != {inputs.digits}"]
    counts = brute_counts(inputs.m_max, inputs.base)

    def exact(value):
        return lambda want: value == want

    for s in series:
        points = [(p["m"], p["count"], p["num"], p["den"], exact(p["value"]))
                  for p in s["points"]]
        _check_points(inputs, s["digit"], points, counts, errors)
        for entry in s["minima"] + s["maxima"]:
            entry["value_ok"] = exact(entry["value"])
        _check_extrema(inputs, s["digit"], s["minima"], s["maxima"], counts, errors)
    return errors


_POINT_ROW_RE = re.compile(r"^  (\d+)\s+(\d+)\s+(\d+)/(\d+)\s+(\S+)$")
_EXTREMUM_RE = re.compile(r"^    k=(\d+)  m=(\d+)  (\d+)/(\d+) = (\S+)$")


def check_sweep_table(inputs: Inputs, text: str) -> list[str]:
    errors: list[str] = []
    lines = text.splitlines()
    if not lines or not lines[0].endswith(f"m up to {inputs.m_max}"):
        errors.append(f"header does not name m_max {inputs.m_max}")
    counts = brute_counts(inputs.m_max, inputs.base)
    blocks: dict[int, dict[str, list]] = {}
    current: dict[str, list] = {}
    section = "points"
    for line in lines[1:]:
        if line.startswith("digit "):
            current = blocks.setdefault(int(line[6:-1]), {"points": [], "min": [], "max": []})
            section = "points"
        elif line.strip() in ("minima:", "maxima:"):
            section = line.strip()[:3]
        elif section == "points" and (m := _POINT_ROW_RE.match(line)):
            value = m.group(5)
            current["points"].append(
                (int(m.group(1)), int(m.group(2)), int(m.group(3)), int(m.group(4)),
                 lambda want, shown=value: _printed_ok(shown, want))
            )
        elif section != "points" and (m := _EXTREMUM_RE.match(line)):
            value = m.group(5)
            current[section].append(
                {"k": int(m.group(1)), "m": int(m.group(2)), "num": int(m.group(3)),
                 "den": int(m.group(4)),
                 "value_ok": lambda want, shown=value: _printed_ok(shown, want)}
            )
    if sorted(blocks) != inputs.digits:
        return errors + [f"digit blocks {sorted(blocks)} != {inputs.digits}"]
    for digit, block in blocks.items():
        _check_points(inputs, digit, block["points"], counts, errors)
        _check_extrema(inputs, digit, block["min"], block["max"], counts, errors)
    return errors


CHECKERS = {
    ("analyze", "json"): check_analyze_json,
    ("analyze", "table"): check_analyze_table,
    ("sweep", "json"): check_sweep_json,
    ("sweep", "table"): check_sweep_table,
}


def check(inputs: Inputs, text: str) -> list[str]:
    """Every way `text` differs from the expectations; empty if none."""
    try:
        return CHECKERS[inputs.subcommand, inputs.output](inputs, text)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"output does not have the expected shape: {exc!r}"]


def main() -> int:
    parser = argparse.ArgumentParser(description="Check one digitlaw output.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--output", required=True, help="file holding the output")
    args = parser.parse_args()
    with open(args.output, encoding="utf-8") as handle:
        text = handle.read()
    errors = check(make(args.workload, args.seed), text)
    for error in errors[:20]:
        print(f"check {args.workload}: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
