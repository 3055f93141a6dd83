#!/usr/bin/env python3
"""check_doc_numbers — README's engine figures must match BENCH_engine.json.

README.md quotes the engine benchmark's aggregates in its "Simulation
engine" section. This script renders each quoted figure from the
committed BENCH_engine.json and fails (exit 1) when README.md does not
contain it, printing the fragment it expected: re-recording the
benchmark without updating the docs, or hand-editing a number, fails
the tier-1 gate. Whitespace is normalized, so fragments may wrap.

Usage: scripts/check_doc_numbers.py [--root DIR]
"""

import argparse
import json
import os
import sys

SPARSE = ("canneal", "mcf")
DENSE = ("leslie3d", "BFS-17")


def span(values, fmt):
    lo, hi = fmt % min(values), fmt % max(values)
    return lo if lo == hi else lo + "–" + hi


def expected_fragments(doc):
    cells = doc["cells"]

    def column(names, get):
        return [get(c) for c in cells if c["workload"] in names]

    def speedup(c):
        return c["wall_speedup"]

    def skip_pct(c):
        return 100.0 * c["auto"]["skip_fraction"]

    agg = doc["aggregates"]["auto"]
    return [
        "`GAZE_SIM_SCALE=%g`, %d-CPU host" % (doc["scale"],
                                              doc["host_cpus"]),
        "pointer chases (%s) run %sx faster than polled with %s%% of "
        "cycles skipped" % (", ".join(SPARSE),
                            span(column(SPARSE, speedup), "%.2f"),
                            span(column(SPARSE, skip_pct), "%.0f")),
        "dense streams (%s; at most %.1f%% of cycles skippable) stay "
        "at %sx" % (", ".join(DENSE), max(column(DENSE, skip_pct)),
                    span(column(DENSE, speedup), "%.2f")),
        "geomean %.2fx, min %.2fx" % (agg["geomean_wall_speedup"],
                                      agg["min_wall_speedup"]),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fail when README.md's engine figures differ from "
                    "BENCH_engine.json")
    parser.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), ".."),
        help="repository root (default: this script's parent)")
    args = parser.parse_args(argv)

    with open(os.path.join(args.root, "BENCH_engine.json"),
              encoding="utf-8") as f:
        doc = json.load(f)
    with open(os.path.join(args.root, "README.md"),
              encoding="utf-8") as f:
        readme = " ".join(f.read().split())

    missing = [frag for frag in expected_fragments(doc)
               if frag not in readme]
    for frag in missing:
        print("check_doc_numbers: README.md lacks '%s' "
              "(rendered from BENCH_engine.json)" % frag, file=sys.stderr)
    if missing:
        return 1
    print("check_doc_numbers: README.md engine figures match "
          "BENCH_engine.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
