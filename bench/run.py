"""digitlaw benchmark: run the CLI as a user does and report what it costs.

    python3 bench/run.py --workload sweep-json --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  Each run generates the workload's inputs
from the seed under .bench_work/, then repeats whole rounds until
--seconds have passed (at least three rounds).

--trace 0: a round is `python -m digitlaw <subcommand> --help` (set-up
cost) and then the workload's command, each a fresh process spawned from
here and reaped with os.wait4.  It reports the medians of wall_s (spawn to
exit), peak_rss_mb (that process's ru_maxrss) and setup_s (the --help
run).

--trace 1: a round runs the command once untraced and once traced through
bench/layers.py, and reports the medians of the per-layer metrics.

Either way every output is checked: the first against independent
computations (bench/check.py), the rest for being identical to it outside
`meta`.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the per-metric spread goes to
standard error.  With --workload all it is one object mapping each
workload to such an object, after one summary line per workload.  The exit
code is 0 only when every output was correct and no operation failed.

On Linux a spawned child's ru_maxrss starts from its parent's peak
resident set, so this process keeps its own memory small: input generation
and checking run in child processes.  If its own peak still reaches the
smallest peak_rss_mb sample, that figure shows this process and not the
command, and the run is marked not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from itertools import zip_longest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".bench_work"
WORKLOADS = ("analyze-spectra", "analyze-radix16", "sweep-json", "sweep-table")
MIN_ROUNDS = 3
# Nominal duration of bench/reference.py.  Times are reported as their
# ratio to the mean of the reference runs just before and after them, in
# units of this many seconds, so that the machine's changing speed cancels.
REFERENCE_S = 0.1

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "proc.import_s": "s",
    "proc.cpu_s": "s",
    "proc.items_per_s": "1/s",
    "ingest.parse_s": "s",
    "ingest.records": "count",
    "ingest.diagnostics": "count",
    "ingest.maxrss_mb": "MB",
    "digits.text_us_per_call": "us",
    "digits.real_us_per_call": "us",
    "empirical.tally_s": "s",
    "empirical.values": "count",
    "empirical.merge_s": "s",
    "empirical.maxrss_mb": "MB",
    "fit.compare_s": "s",
    "lawtheory.count_s": "s",
    "lawtheory.count_calls": "count",
    "lawtheory.extrema_s": "s",
    "cli.json_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "cli.maxrss_mb": "MB",
    "trace.overhead_s": "s",
}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Byte-compiled modules are cached as for an installed package, and
    # hashing is fixed so that memory layout repeats from run to run.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Spawns children with their output in files and records their cost."""

    def __init__(self, work: str) -> None:
        self.env = child_env()
        self.stderr_path = os.path.join(work, "stderr.txt")

    def spawn(self, args: list[str], stdout: str = os.devnull) -> tuple[float, float, float, int]:
        """Run `python3 args...`; return wall s, peak RSS MB, CPU s, exit code."""
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, self.stderr_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
        ]
        argv = [sys.executable, *args]
        started = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - started
        cpu = usage.ru_utime + usage.ru_stime
        return wall, usage.ru_maxrss / 1024.0, cpu, os.waitstatus_to_exitcode(status)


class OutputLog:
    """Keeps the first good output and compares every later one with it."""

    def __init__(self, work: str) -> None:
        self.first = os.path.join(work, "first_output")
        self.kept = False
        self.mismatches = 0

    @staticmethod
    def _lines(handle):
        # meta.elapsed_s is the one field allowed to differ between runs.
        return (line for line in handle if b'"elapsed_s":' not in line)

    def add(self, path: str) -> None:
        if not self.kept:
            os.replace(path, self.first)
            self.kept = True
            return
        with open(self.first, "rb") as first, open(path, "rb") as other:
            if any(a != b for a, b in zip_longest(self._lines(first), self._lines(other))):
                self.mismatches += 1


def _own_peak_mb() -> float:
    """This process's own peak resident set (VmHWM), not counting its parent's."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _spread(name: str, values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{name}: median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} n={len(values)}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK_ROOT, f"{workload}-{seed}-{'traced' if trace else 'plain'}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(work)
    gen = [os.path.join(BENCH_DIR, "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--dir", work]
    if runner.spawn(gen)[3] != 0:
        raise SystemExit(f"input generation failed; see {runner.stderr_path}")
    with open(os.path.join(work, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    cli = ["-m", "digitlaw"]
    out_path = os.path.join(work, "output")
    log = OutputLog(work)
    attempted = failed = 0
    samples: dict[str, list[float]] = {}

    def record(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    def command(args: list[str], output: bool = True) -> tuple[float, float, float, bool]:
        """One operation; its output, if any, is compared with the first."""
        nonlocal attempted, failed
        attempted += 1
        wall, rss, cpu, code = runner.spawn(args, out_path if output else os.devnull)
        if code != 0:
            failed += 1
            return wall, rss, cpu, False
        if output:
            log.add(out_path)
        return wall, rss, cpu, True

    # Warm-up: byte-compile the package and fill the page cache.
    runner.spawn(cli + [manifest["subcommand"], "--help"])
    layers = os.path.join(BENCH_DIR, "layers.py")
    traced_args = [layers, "--mode", "traced", "--result", os.path.join(work, "traced.json"),
                   "--tokens", os.path.join(work, "tokens.txt"),
                   "--routes", ",".join(manifest["routes"]), "--base", str(manifest["base"]),
                   "--", *manifest["argv"]]
    plain_args = [layers, "--mode", "plain", "--result", os.path.join(work, "plain.json"),
                  "--", *manifest["argv"]]
    reference = [os.path.join(BENCH_DIR, "reference.py")]

    def reference_run() -> float:
        wall, _, _, code = runner.spawn(reference)
        if code != 0:
            raise SystemExit(f"reference run failed; see {runner.stderr_path}")
        record("reference_s", wall)
        return wall

    rounds = 0
    started = time.perf_counter()
    before = 0.0 if trace else reference_run()
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        rounds += 1
        if not trace:
            timed = []
            wall, _, _, ok = command(cli + [manifest["subcommand"], "--help"], output=False)
            if ok:
                timed.append(("setup_s", wall))
            wall, rss, _, ok = command(cli + manifest["argv"])
            if ok:
                timed.append(("wall_s", wall))
                record("peak_rss_mb", rss)
            after = reference_run()
            for name, wall in timed:
                record(name, wall / ((before + after) / 2) * REFERENCE_S)
                record(name + " unscaled", wall)
            before = after
            continue
        plain = None
        wall, _, cpu, ok = command(plain_args)
        if ok:
            with open(os.path.join(work, "plain.json"), encoding="utf-8") as handle:
                plain = json.load(handle)
            record("proc.cpu_s", cpu)
            record("proc.wall_s", wall)
            record("proc.import_s", plain["proc.import_s"])
        if command(traced_args)[3]:
            with open(os.path.join(work, "traced.json"), encoding="utf-8") as handle:
                traced = json.load(handle)
            for name, value in traced.items():
                if name in PER_LAYER and name != "proc.import_s":
                    record(name, value)
            if plain is not None:
                # Paired within the round, so a slow phase of the machine
                # lands on both sides of the difference.
                record("trace.overhead_s", traced["exec_s"] - plain["exec_s"])

    correct = log.kept and log.mismatches == 0
    if log.kept:
        check = [os.path.join(BENCH_DIR, "check.py"), "--workload", workload,
                 "--seed", str(seed), "--output", log.first]
        if runner.spawn(check)[3] != 0:
            correct = False
    if log.mismatches:
        print(f"{workload}: {log.mismatches} outputs differ from the first", file=sys.stderr)
    if not correct:
        with open(runner.stderr_path, encoding="utf-8", errors="replace") as handle:
            sys.stderr.write(handle.read()[-4000:])

    if trace:
        wall = median(samples.get("proc.wall_s", []))
        samples["proc.items_per_s"] = [manifest["items"] / wall if wall else 0.0]
        units = PER_LAYER
    else:
        units = END_TO_END
    for name in sorted(samples):
        print(f"{workload} {_spread(name, samples[name])}", file=sys.stderr)
    own_mb = _own_peak_mb()
    print(f"{workload} own peak {own_mb:.2f} MB", file=sys.stderr)
    if own_mb >= min(samples.get("peak_rss_mb", [float("inf")])):
        print(f"{workload}: this process peaked at {own_mb:.1f} MB, so peak_rss_mb "
              "shows it and not the command", file=sys.stderr)
        correct = False
    metrics = {
        name: {"value": median(samples.get(name, [])), "unit": unit}
        for name, unit in units.items()
    }
    if correct:
        shutil.rmtree(work)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="digitlaw CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "digitlaw", "cli.py")):
        print("bench: run from the root of a digitlaw checkout (no src/digitlaw/cli.py here)",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] and not result["failed"] else 1
    results = {}
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        results[workload] = result
        shown = "  ".join(f"{name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items())
        print(f"{workload}: {shown}  attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
