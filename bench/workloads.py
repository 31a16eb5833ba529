"""The benchmark's workloads and their seeded input generator.

Each workload is one digitlaw command line plus the inputs it reads.  The
inputs are a pure function of (workload, seed): the same seed gives
byte-identical files, and the checker regenerates the same token lists to
compute its expectations without reading the program's output first.

Run as a script to write one workload's inputs:

    python3 bench/workloads.py --workload analyze-spectra --seed 7 --dir .bench_work/x

It writes the input files, `tokens.txt` (the valid numeric tokens, used
only by the traced run to time the digit extractors alone) and
`manifest.json` (the command line and the work it represents).  The
program is handed the input files and nothing else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
from dataclasses import dataclass, field

# Sizes of the timed runs.  Each command takes 0.3 to 0.45 s on the 2-CPU
# machine described in bench/README.md, so one 30-second run gets a few
# dozen samples to take a median of.
FULL = {
    "spectra_files": 24,
    "spectra_rows": 3000,
    "plain_values": 100_000,
    "sweep_json_m": 3000,
    "sweep_table_m": 40_000,
}
# Sizes for the checker self-test: small, but still with several files,
# every token kind and extrema inside the swept range.
TINY = {
    "spectra_files": 3,
    "spectra_rows": 60,
    "plain_values": 600,
    "sweep_json_m": 250,
    "sweep_table_m": 1200,
}

# Seeded m_max jitter, as a share of the base horizon.  Small enough that
# the work per seed varies by under 1%.
_SWEEP_JITTER = 0.008


@dataclass
class Inputs:
    """One workload instance: CLI arguments, input files and expectations."""

    workload: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    tokens: list[str] = field(default_factory=list)
    malformed: int = 0
    base: int = 10
    m_max: int = 0
    digits: list[int] = field(default_factory=list)
    output: str = "table"
    routes: tuple[str, ...] = ()

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def items(self) -> int:
        """Work units: tokens read by analyze, points swept by sweep."""
        if self.subcommand == "analyze":
            return len(self.tokens)
        return self.m_max * len(self.digits)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"digitlaw-bench:{workload}:{seed}")


# ------------------------------------------------------------ IR spectra

# Band centres (1/cm), half widths and relative heights of common polymers'
# mid-infrared absorption, enough to give each file a realistic profile.
_POLYMER_BANDS = {
    "polyethylene": [(2915, 18, 1.4), (2848, 14, 1.1), (1472, 6, 0.5),
                     (1462, 6, 0.45), (730, 4, 0.3), (719, 4, 0.35)],
    "polypropylene": [(2950, 16, 1.0), (2917, 16, 0.9), (2838, 12, 0.5),
                      (1455, 9, 0.5), (1375, 7, 0.45), (1167, 6, 0.2),
                      (973, 6, 0.25)],
    "polystyrene": [(3026, 9, 0.4), (2920, 15, 0.6), (1601, 5, 0.25),
                    (1493, 5, 0.5), (1452, 6, 0.5), (756, 6, 0.8),
                    (698, 6, 1.2)],
    "pet": [(1715, 12, 1.3), (1240, 15, 1.2), (1095, 12, 0.9),
            (1018, 6, 0.4), (723, 6, 0.7)],
    "pmma": [(2950, 18, 0.5), (1722, 12, 1.5), (1435, 9, 0.4),
             (1145, 15, 1.1), (985, 6, 0.3), (750, 6, 0.25)],
    "nylon-6": [(3298, 40, 0.7), (2932, 18, 0.6), (1637, 15, 1.2),
                (1539, 15, 1.0), (1200, 12, 0.3)],
}
# Absorbance columns as instruments print them, including detector overflow.
_SPECTRUM_FORMATS = ("{:.5f}", "{:.6f}", "{:.4e}", "{:.6g}")
_SPECTRUM_BAD = ("nan", "--", "*****", "n/a", "OVRNG")


def _spectrum(rng: random.Random, index: int, rows: int) -> tuple[str, list[str], int]:
    polymer = rng.choice(sorted(_POLYMER_BANDS))
    scale = rng.uniform(0.3, 1.6)
    bands = [(c + rng.uniform(-4, 4), w * rng.uniform(0.8, 1.3), h * scale)
             for c, w, h in _POLYMER_BANDS[polymer]]
    offset = rng.uniform(-0.01, 0.04)
    slope = rng.uniform(-0.02, 0.06)
    noise = rng.uniform(0.0005, 0.004)
    fmt = rng.choice(_SPECTRUM_FORMATS)
    sep = rng.choice((",", "\t", " "))
    clip = rng.random() < 0.5  # some instruments print negative absorbance as 0
    bad_rows = set(rng.sample(range(rows), max(1, round(rows * 0.002))))
    lines = [
        f"# TITLE={polymer} film, sample {index}",
        "# DATA TYPE=INFRARED SPECTRUM",
        "# XUNITS=1/CM",
        "# YUNITS=ABSORBANCE",
        f"# wavenumber{sep}absorbance",
    ]
    tokens: list[str] = []
    malformed = 0
    step = 3600.0 / rows
    for i in range(rows):
        wn = 4000.0 - i * step
        a = offset + slope * (wn - 400.0) / 3600.0 + rng.gauss(0.0, noise)
        for centre, width, height in bands:
            x = (wn - centre) / width
            a += height / (1.0 + x * x)
        if i in bad_rows:
            token = rng.choice(_SPECTRUM_BAD)
            malformed += 1
        else:
            token = fmt.format(max(a, 0.0) if clip else a)
            tokens.append(token)
        lines.append(f"{wn:.3f}{sep}{token}")
    return "\n".join(lines) + "\n", tokens, malformed


def _analyze_spectra(seed: int, size: dict) -> Inputs:
    rng = _rng("analyze-spectra", seed)
    inputs = Inputs("analyze-spectra", [], routes=("text",))
    paths = []
    for index in range(size["spectra_files"]):
        text, tokens, malformed = _spectrum(rng, index, size["spectra_rows"])
        name = f"spectrum_{index:03d}.csv"
        inputs.files[name] = text
        inputs.tokens.extend(tokens)
        inputs.malformed += malformed
        paths.append(name)
    inputs.argv = ["analyze", "--format", "spectrum2col"]
    for name in paths:
        inputs.argv += ["--input", name]
    return inputs


# ------------------------------------------------------- lognormal values

_ZERO_TOKENS = ("0", "0.000", "-0.0", "0e0", "+0.00", ".0", "0E-7")
_BAD_TOKENS = ("1.2.3", "abc", "--7", "1e", "e5", "0x1F", "1,5", "NaN",
               "inf", "12a", "+-3", ".", "7..", "1e+")


def _real_token(rng: random.Random) -> str:
    value = math.exp(rng.gauss(0.0, 5.0))
    if rng.random() < 0.1:
        value *= 10.0 ** rng.randint(-40, 40)  # 6.02e23-style magnitudes
    precision = rng.randint(1, 9)
    style = rng.random()
    if style < 0.45:
        token = f"{value:.{precision}g}"
    elif style < 0.6:
        token = f"{value:.{precision}e}"
    elif style < 0.7:
        token = f"{value:.{precision}E}"
    elif 1e-3 < value < 1e9:
        token = f"{value:.{precision}f}"
        if token.startswith("0.") and rng.random() < 0.3:
            token = token[1:]  # ".0042"
    else:
        token = f"{value:.{precision}g}"
    if rng.random() < 0.25:
        token = "-" + token
    elif rng.random() < 0.05:
        token = "+" + token
    return token


def _analyze_radix16(seed: int, size: dict) -> Inputs:
    rng = _rng("analyze-radix16", seed)
    inputs = Inputs("analyze-radix16", [], base=16, output="json", routes=("real",))
    lines = [f"# lognormal sample, {size['plain_values']} fields", "#"]
    row: list[str] = []
    for _ in range(size["plain_values"]):
        roll = rng.random()
        if roll < 0.005:
            token = rng.choice(_BAD_TOKENS)
            inputs.malformed += 1
        else:
            token = rng.choice(_ZERO_TOKENS) if roll < 0.015 else _real_token(rng)
            inputs.tokens.append(token)
        row.append(token)
        if len(row) >= rng.randint(4, 14):
            lines.append(" ".join(row))
            row = []
    if row:
        lines.append(" ".join(row))
    inputs.files["values.txt"] = "\n".join(lines) + "\n"
    inputs.argv = ["analyze", "--base", "16", "--output", "json", "--input", "values.txt"]
    return inputs


# ----------------------------------------------------------------- sweeps


def _horizon(workload: str, seed: int, m: int) -> int:
    return m + _rng(workload, seed).randrange(int(m * _SWEEP_JITTER) + 1)


def _sweep_json(seed: int, size: dict) -> Inputs:
    m_max = _horizon("sweep-json", seed, size["sweep_json_m"])
    return Inputs(
        "sweep-json",
        ["sweep", "--all-digits", "--m-max", str(m_max), "--output", "json"],
        m_max=m_max,
        digits=list(range(1, 10)),
        output="json",
    )


def _sweep_table(seed: int, size: dict) -> Inputs:
    m_max = _horizon("sweep-table", seed, size["sweep_table_m"])
    return Inputs(
        "sweep-table",
        ["sweep", "--digit", "1", "--m-max", str(m_max)],
        m_max=m_max,
        digits=[1],
    )


# name -> (generator, why it is in the benchmark)
WORKLOADS = {
    "analyze-spectra": (
        _analyze_spectra,
        "the paper's own use: many IR spectra pooled at base 10; stresses "
        "per-file parse, the text digit route and merge",
    ),
    "analyze-radix16": (
        _analyze_radix16,
        "one large mixed-format file at base 16 with JSON output; the float "
        "digit route, which no base-10 run takes",
    ),
    "sweep-json": (
        _sweep_json,
        "sweep --all-digits as JSON; exact counting plus a document of many "
        "points, the largest resident set",
    ),
    "sweep-table": (
        _sweep_table,
        "sweep --digit 1 to a long horizon as a table; counting and the "
        "table renderer without the JSON encoder",
    ),
}


def make(workload: str, seed: int, size: dict = FULL) -> Inputs:
    """Generate one workload's inputs; relative file names in argv."""
    generate, _ = WORKLOADS[workload]
    return generate(seed, size)


def write(inputs: Inputs, directory: str) -> dict:
    """Write the inputs under `directory`; return the manifest."""
    os.makedirs(directory, exist_ok=True)
    for name, text in inputs.files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    with open(os.path.join(directory, "tokens.txt"), "w", encoding="utf-8") as handle:
        handle.write("".join(token + "\n" for token in inputs.tokens))
    argv = [
        os.path.join(directory, arg) if arg in inputs.files else arg
        for arg in inputs.argv
    ]
    manifest = {
        "workload": inputs.workload,
        "argv": argv,
        "subcommand": inputs.subcommand,
        "items": inputs.items,
        "base": inputs.base,
        "routes": list(inputs.routes),
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    write(make(args.workload, args.seed), args.dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
