#!/usr/bin/env python3
"""Prints how each perfbench metric moved between consecutive ledger lines.

    python3 bench/baselines/compare.py [bench/baselines/perfbench.jsonl]

Every line of the ledger is one side of a perf change's measurement: the commit measured
(`sha`; a change measured before it was committed has `sha` null and names its parent
and perfbench's `source_sha256` of the measured tree), a workload and a seed, the medians
of the five end-to-end metrics over that side's runs, and the per-layer metrics of one
`--trace 1` run. Each line is compared with the previous line of the same workload and
seed, metric by metric, as `old -> new (new/old)`.
"""

import json
import os
import sys


def label(entry):
    if entry.get("sha"):
        return entry["sha"][:12]
    return f"{entry.get('parent_sha', '?')[:12]}+src {entry.get('source_sha256', '?')[:12]}"


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    path = argv[1] if len(argv) > 1 else os.path.join(here, "perfbench.jsonl")
    previous = {}
    with open(path) as ledger:
        for number, line in enumerate(ledger, 1):
            if not line.strip():
                continue
            entry = json.loads(line)
            key = (entry["workload"], entry["seed"])
            before = previous.get(key)
            previous[key] = entry
            if before is None:
                continue
            print(f"{entry['workload']} seed {entry['seed']}: {label(before)} -> {label(entry)}"
                  f" (line {number})")
            for section in ("end_to_end", "per_layer"):
                for name, new in entry.get(section, {}).items():
                    old = before.get(section, {}).get(name)
                    if old is None:
                        print(f"  {name:36s} {'':>12s} -> {new:<12.6g} (new)")
                    elif old == 0:
                        print(f"  {name:36s} {old:>12.6g} -> {new:<12.6g}")
                    else:
                        print(f"  {name:36s} {old:>12.6g} -> {new:<12.6g} ({new / old:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
