"""Run one digitlaw command in this process, plain or traced by layer.

    python3 bench/layers.py --mode traced --result r.json --tokens t.txt -- sweep --digit 1 --m-max 9

Standard output is the command's own output, exactly as `python -m
digitlaw` would print it.  The measurements go to the --result file as
JSON.  In plain mode they are the import time and the time of
`digitlaw.cli.execute`; in traced mode the public functions that
`digitlaw.cli` and `digitlaw.lawtheory` call are first replaced in those
modules' namespaces by timing wrappers, so nothing under src/ is edited.

The wrapped calls are all made by digitlaw.cli itself and do not nest, so
`cli.self_s` is execute's time minus the time of every wrapped call.  The
counting inside exact_frequency goes through lawtheory's own global; that
one is only counted, not timed, since its time is inside exact_frequency's.
A function the program no longer calls, or no longer has, reports 0 calls
and 0 s.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Busy time and calls per metric, item counts and resident set by layer."""

    def __init__(self) -> None:
        self.cells: dict[str, list] = {}  # metric -> [seconds, calls]
        self.counts: Counter = Counter()
        self.maxrss: dict[str, float] = {}

    def _cell(self, metric: str) -> list:
        return self.cells.setdefault(metric, [0.0, 0])

    def wrap(self, owner, name: str, metric: str, on_result=None, rss: str = "") -> None:
        fn = getattr(owner, name, None)
        if fn is None:
            return
        cell = self._cell(metric)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            started = clock()
            result = fn(*args, **kwargs)
            cell[0] += clock() - started
            cell[1] += 1
            if on_result is not None:
                on_result(result)
            if rss:
                self.maxrss[rss] = _maxrss_mb()
            return result

        setattr(owner, name, wrapper)

    def count(self, owner, name: str, metric: str) -> None:
        fn = getattr(owner, name, None)
        if fn is None:
            return
        cell = self._cell(metric)

        def counter(*args, **kwargs):
            cell[1] += 1
            return fn(*args, **kwargs)

        setattr(owner, name, counter)

    def seconds(self, metric: str) -> float:
        return self.cells.get(metric, (0.0, 0))[0]

    def calls(self, metric: str) -> int:
        return self.cells.get(metric, (0.0, 0))[1]

    def install(self, cli, lawtheory) -> None:
        def parsed(result):
            records, diagnostics = result
            self.counts["records"] += len(records)
            self.counts["diagnostics"] += len(diagnostics)

        def tallied(summary):
            self.counts["values"] += getattr(summary, "total_read", 0)

        self.wrap(cli, "parse_dataset", "ingest.parse_s", parsed, rss="ingest")
        self.wrap(cli, "tally", "empirical.tally_s", tallied, rss="empirical")
        self.wrap(cli, "merge", "empirical.merge_s", rss="empirical")
        self.wrap(cli, "compare", "fit.compare_s")
        self.count(lawtheory, "leading_digit_count", "count.nested")
        self.wrap(cli, "leading_digit_count", "count.direct")
        self.wrap(cli, "exact_frequency", "count.frequency")
        self.wrap(cli, "extremal_frequency", "lawtheory.extrema_s")
        self.wrap(cli, "extremum_locations", "lawtheory.extrema_s")
        real_json = getattr(cli, "json", None)
        if real_json is not None:
            proxy = type("TracedJson", (), {"dumps": staticmethod(real_json.dumps)})
            self.wrap(proxy, "dumps", "cli.json_s")
            cli.json = proxy

    def metrics(self, exec_s: float) -> dict:
        return {
            "ingest.parse_s": self.seconds("ingest.parse_s"),
            "ingest.records": self.counts["records"],
            "ingest.diagnostics": self.counts["diagnostics"],
            "ingest.maxrss_mb": self.maxrss.get("ingest", 0.0),
            "empirical.tally_s": self.seconds("empirical.tally_s"),
            "empirical.values": self.counts["values"],
            "empirical.merge_s": self.seconds("empirical.merge_s"),
            "empirical.maxrss_mb": self.maxrss.get("empirical", 0.0),
            "fit.compare_s": self.seconds("fit.compare_s"),
            "lawtheory.count_s": self.seconds("count.direct") + self.seconds("count.frequency"),
            "lawtheory.count_calls": self.calls("count.direct") + self.calls("count.nested"),
            "lawtheory.extrema_s": self.seconds("lawtheory.extrema_s"),
            "cli.json_s": self.seconds("cli.json_s"),
            "cli.self_s": exec_s - sum(seconds for seconds, _ in self.cells.values()),
        }


def _time_route(fn, args: list) -> float:
    """Median microseconds per call of fn over args, of three passes."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        for arg in args:
            fn(*arg)
        samples.append((time.perf_counter() - started) / len(args) * 1e6)
    samples.sort()
    return samples[len(samples) // 2]


def _digit_routes(routes: list[str], tokens_path: str, base: int) -> dict:
    """Time the digit extractors alone over the workload's own tokens."""
    from digitlaw import digits

    with open(tokens_path, encoding="utf-8") as handle:
        tokens = handle.read().split()
    out = {"digits.text_us_per_call": 0.0, "digits.real_us_per_call": 0.0}
    text_fn = getattr(digits, "leading_digit_text", None)
    real_fn = getattr(digits, "leading_digit_real", None)
    if "text" in routes and text_fn is not None and tokens:
        out["digits.text_us_per_call"] = _time_route(text_fn, [(t,) for t in tokens])
    if "real" in routes and real_fn is not None:
        values = [(float(t), base) for t in tokens if float(t) != 0.0]
        if values:
            out["digits.real_us_per_call"] = _time_route(real_fn, values)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--tokens", help="valid tokens of the workload, one per line")
    parser.add_argument("--routes", default="", help="digit routes to time: text,real")
    parser.add_argument("--base", type=int, default=10)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    started = time.perf_counter()
    import digitlaw.cli as cli
    import digitlaw.lawtheory as lawtheory

    result = {"proc.import_s": time.perf_counter() - started}
    tracer = Tracer()
    if args.mode == "traced":
        tracer.install(cli, lawtheory)
    started = time.perf_counter()
    outcome = cli.execute(argv)
    result["exec_s"] = time.perf_counter() - started
    sys.stdout.flush()
    result["cli.out_bytes"] = os.fstat(sys.stdout.fileno()).st_size
    result["cli.maxrss_mb"] = _maxrss_mb()
    if args.mode == "traced":
        result.update(tracer.metrics(result["exec_s"]))
        if args.tokens:
            result.update(_digit_routes(args.routes.split(","), args.tokens, args.base))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return outcome.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
