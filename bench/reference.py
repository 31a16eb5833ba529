"""Fixed reference work that measures how fast the machine is right now.

The benchmark runs this script as its own process right before and right
after every timed digitlaw command and divides the command's time by the
mean of the two.  It uses only the standard library and never imports
digitlaw, so no change to the program can move it.  Its mix follows the
program's: numeral regex matching and float parsing as in analyze, and
building and pretty-printing many small dicts as in sweep.
"""

import json
import re

NUMERAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")

tokens = [f"{(i * 7919 % 100003) / 7.0:.6g}" for i in range(30000)]
total = 0
for token in tokens:
    if NUMERAL.fullmatch(token):
        total += int(float(token)) % 7
points = [
    {"m": m, "count": m // 3, "num": m, "den": m + 1, "value": m / (m + 1)}
    for m in range(1, 4001)
]
text = json.dumps(points, indent=2, sort_keys=True)
if total <= 0 or len(text) < 4000:
    raise SystemExit("reference work did not run")
