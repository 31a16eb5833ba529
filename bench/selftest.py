"""Self-test of the benchmark's output checkers, at tiny input sizes.

    python3 bench/selftest.py

For every workload and two seeds it runs the digitlaw CLI on tiny inputs
and requires the checker to accept that output, then to reject each of a
few copies with one count, one fraction or one point altered.  Exits 0
when every checker behaves so, 1 otherwise.  Run from the root of a
checkout.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

from check import check
from run import child_env
from workloads import TINY, WORKLOADS, make, write

WORK = os.path.join(".bench_work", "selftest")


def _bump_first(pattern: str, text: str, group: int = 1) -> str:
    """Add 1 to the integer in `group` of the first match of `pattern`."""
    match = re.search(pattern, text, flags=re.MULTILINE)
    start, end = match.span(group)
    return text[:start] + str(int(match.group(group)) + 1) + text[end:]


def _json_mutation(edit):
    def mutate(text: str) -> str:
        doc = json.loads(text)
        edit(doc["result"])
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return mutate


def _json_bump(*path):
    """A mutation adding 1 to the integer at `path` inside the result."""
    def edit(result):
        *parents, last = path
        for key in parents:
            result = result[key]
        result[last] += 1
    return _json_mutation(edit)


def _nudge_value(result):
    point = result["series"][-1]["points"][-1]
    point["value"] = math.nextafter(point["value"], 2.0)


def _drop_maximum(result):
    result["series"][0]["maxima"].pop()


def _nudge_printed_value(text: str) -> str:
    # The value column of the last point row: change its 4th digit.
    rows = list(re.finditer(r"^  \d+\s+\d+\s+\d+/\d+\s+(\d\.\d{3})$", text, re.MULTILINE))
    start, end = rows[-1].span(1)
    shown = rows[-1].group(1)
    altered = shown[:-1] + str((int(shown[-1]) + 5) % 10)
    return text[:start] + altered + text[end:]


MUTATIONS = {
    ("analyze", "table"): {
        "one count": lambda t: _bump_first(r"^  1\s+(\d+)\s+\d+/\d+", t),
        "one fraction": lambda t: _bump_first(r"^  2\s+\d+\s+(\d+)/\d+", t),
    },
    ("analyze", "json"): {
        "one count": _json_bump("sample", "counts", 0),
        "one fraction": _json_bump("empirical", "fractions", 1, "num"),
    },
    ("sweep", "json"): {
        "one point count": _json_bump("series", 3, "points", 100, "count"),
        "one point value": _json_mutation(_nudge_value),
        "one maximum dropped": _json_mutation(_drop_maximum),
    },
    ("sweep", "table"): {
        "one point count": lambda t: _bump_first(r"^  500\s+(\d+)\s+\d+/\d+", t),
        "one point value": _nudge_printed_value,
        "one minimum": lambda t: _bump_first(r"^    k=2  m=99  (\d+)/", t),
    },
}


def main() -> int:
    env = child_env()
    failures = 0
    for workload in WORKLOADS:
        for seed in (1, 2):
            inputs = make(workload, seed, TINY)
            directory = os.path.join(WORK, f"{workload}-{seed}")
            shutil.rmtree(directory, ignore_errors=True)
            argv = write(inputs, directory)["argv"]
            run = subprocess.run([sys.executable, "-m", "digitlaw", *argv], env=env,
                                 capture_output=True, text=True, check=False)
            errors = check(inputs, run.stdout) if run.returncode == 0 else [run.stderr]
            verdict = "accepted" if not errors else f"REJECTED: {errors[:3]}"
            print(f"{workload} seed {seed}: program output {verdict}")
            failures += bool(errors)
            for name, mutate in MUTATIONS[inputs.subcommand, inputs.output].items():
                altered = mutate(run.stdout)
                caught = altered != run.stdout and check(inputs, altered)
                print(f"{workload} seed {seed}: {name} altered "
                      f"{'rejected' if caught else 'NOT REJECTED'}")
                failures += not caught
    shutil.rmtree(WORK, ignore_errors=True)
    print("self-test", "passed" if not failures else f"failed ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
