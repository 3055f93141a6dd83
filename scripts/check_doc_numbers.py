#!/usr/bin/env python3
"""check_doc_numbers — README's engine figures must match the BENCH files.

README.md quotes the engine benchmark's aggregates in its "Simulation
engine" section and the gaze_sim matrix's engine block in
"Performance engineering". This script renders each quoted figure
from the committed BENCH_engine.json and BENCH_gaze_sim.json and fails
(exit 1) when README.md does not contain it, printing the fragment it
expected: re-recording a benchmark without updating the docs, or
hand-editing a number, fails the tier-1 gate. Whitespace is
normalized, so fragments may wrap.

Usage: scripts/check_doc_numbers.py [--root DIR]
"""

import argparse
import json
import os
import sys

SPARSE = ("canneal", "mcf")
STREAM = ("leslie3d",)
DENSE = ("BFS-17",)


def span(values, fmt):
    lo, hi = fmt % min(values), fmt % max(values)
    return lo if lo == hi else lo + "–" + hi


def expected_fragments(doc, sim_doc):
    cells = doc["cells"]

    def column(names, get):
        return [get(c) for c in cells if c["workload"] in names]

    def speedup(c):
        return c["wall_speedup"]

    def skip_pct(c):
        return 100.0 * c["auto"]["skip_fraction"]

    agg = doc["aggregates"]["auto"]
    sim_engine = sim_doc["engine"]
    return [
        "`GAZE_SIM_SCALE=%g`, %d-CPU host" % (doc["scale"],
                                              doc["host_cpus"]),
        "pointer chases (%s) run %sx faster than polled with %s%% of "
        "cycles skipped" % (", ".join(SPARSE),
                            span(column(SPARSE, speedup), "%.2f"),
                            span(column(SPARSE, skip_pct), "%.0f")),
        "stream (%s) skips %s%% of its cycles and runs at %sx"
        % (", ".join(STREAM), span(column(STREAM, skip_pct), "%.0f"),
           span(column(STREAM, speedup), "%.2f")),
        "dense graph kernel (%s) skips %s%% of its cycles and runs at "
        "%sx" % (", ".join(DENSE), span(column(DENSE, skip_pct), "%.1f"),
                 span(column(DENSE, speedup), "%.2f")),
        "geomean %.2fx, min %.2fx" % (agg["geomean_wall_speedup"],
                                      agg["min_wall_speedup"]),
        "skips %.0f%% of cycles and executes %.1fM of them"
        % (100.0 * sim_engine["skip_fraction"],
           sim_engine["cycles_executed"] / 1e6),
        "runs its matrix at %.2f Minstr/s" % sim_engine["minstr_per_sec"],
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fail when README.md's engine figures differ from "
                    "BENCH_engine.json")
    parser.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), ".."),
        help="repository root (default: this script's parent)")
    args = parser.parse_args(argv)

    docs = []
    for name in ("BENCH_engine.json", "BENCH_gaze_sim.json"):
        with open(os.path.join(args.root, name), encoding="utf-8") as f:
            docs.append(json.load(f))
    with open(os.path.join(args.root, "README.md"),
              encoding="utf-8") as f:
        readme = " ".join(f.read().split())

    missing = [frag for frag in expected_fragments(*docs)
               if frag not in readme]
    for frag in missing:
        print("check_doc_numbers: README.md lacks '%s' (rendered from "
              "BENCH_engine.json / BENCH_gaze_sim.json)" % frag,
              file=sys.stderr)
    if missing:
        return 1
    print("check_doc_numbers: README.md engine figures match "
          "BENCH_engine.json and BENCH_gaze_sim.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
