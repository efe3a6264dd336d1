#!/usr/bin/env python3
"""Compare two sets of benchmark results written by ``run.py --out DIR``.

    python3 bench/compare.py BASE_DIR NEW_DIR

For each workload and trace mode present in both directories, prints the
median over seeds of every metric on each side and the relative change,
and marks an end-to-end metric that got worse by more than its bound in
BENCHMARK.json. Refuses, with exit code 2, when any two result files were
measured under different machine facts (cores, BLAS build and threads,
numpy, Python): their numbers are not comparable. Exits 1 when a metric
is worse than its bound, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict:
    """(workload, trace) -> list of result documents."""
    groups = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        groups[(doc["workload"], doc["trace"])].append(doc)
    return groups


def medians(docs: list[dict]) -> dict[str, float]:
    values = defaultdict(list)
    for doc in docs:
        for name, m in doc["result"]["metrics"].items():
            values[name].append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    docs = [d for side in (base, new) for group in side.values() for d in group]
    if not docs:
        print("no result files found", file=sys.stderr)
        return 2
    facts = docs[0]["facts"]
    for doc in docs[1:]:
        if doc["facts"] != facts:
            keys = sorted(k for k in facts.keys() | doc["facts"].keys()
                          if facts.get(k) != doc["facts"].get(k))
            print("refusing to compare: machine facts differ in "
                  + ", ".join(f"{k} ({facts.get(k)!r} vs {doc['facts'].get(k)!r})"
                              for k in keys), file=sys.stderr)
            return 2
    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}

    status = 0
    print(f"{'workload':<14} {'trace':<5} {'metric':<26} {'base':>12} {'new':>12} "
          f"{'change':>8}  seeds")
    for key in sorted(base.keys() & new.keys()):
        mb, mn = medians(base[key]), medians(new[key])
        seeds = f"{len(base[key])}/{len(new[key])}"
        for name in (n for n in mb if n in mn):
            b, n = mb[name], mn[name]
            change = (n - b) / abs(b) if b else float("nan")
            note = ""
            spec = bounds.get(name)
            if spec and key[1] == 0:
                worse = change if spec["better"] == "lower" else -change
                if worse > spec["bound"]:
                    note = f"  worse than bound {spec['bound']}"
                    status = 1
            print(f"{key[0]:<14} {key[1]:<5} {name:<26} {b:>12.6g} {n:>12.6g} "
                  f"{change:>+8.1%}  {seeds}{note}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
