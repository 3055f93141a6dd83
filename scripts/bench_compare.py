#!/usr/bin/env python3
"""bench_compare — perf-regression gate over BENCH_engine.json.

Compares a freshly generated BENCH_engine.json against the committed
baseline and fails (exit 1) when the geomean of the per-(cell, engine)
throughput ratios drops by more than --threshold (default 10%).

Throughput is minstr_per_sec scaled by the engine block's
calib_seconds: bench_engine times a fixed host kernel next to every
run, and a shared host that runs up to 2x slower from one minute to
the next slows both alike.

Engine-throughput numbers are only comparable between like hosts,
like builds and like workload sizes, so the gate SKIPS with a notice
(exit 0) when:

  * host_cpus differs between the two files (different machine class),
  * build_type or cxx_flags differs (a Release build timed against a
    RelWithDebInfo recording measures the compiler flags, not the
    change),
  * scale / warmup / sim instruction counts differ (different work),
  * the files share no calibrated cells (renamed workload matrix, or a
    file recorded before calibration).

Per-cell wall noise is expected — single cells finish in tens of
milliseconds — which is why the gate is on the geomean across all
cells x {polled, auto}, not on any single cell. Cells slower
than the threshold are still listed, marked, for the human reading
the log, and a FAIL line names them, worst first.

Usage: scripts/bench_compare.py [--threshold F] BASELINE FRESH
"""

import argparse
import json
import math
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print("bench_compare: cannot read %s: %s" % (path, e),
              file=sys.stderr)
        sys.exit(2)


def cell_throughputs(doc):
    """(workload, prefetcher, engine) -> calibrated throughput:
    minstr_per_sec x calib_seconds, Minstr per host-kernel run."""
    out = {}
    for cell in doc.get("cells", []):
        for engine in ("polled", "auto"):
            block = cell.get(engine) or {}
            rate = block.get("minstr_per_sec", 0)
            calib = block.get("calib_seconds", 0)
            if rate > 0 and calib > 0:
                out[(cell["workload"], cell["prefetcher"], engine)] = \
                    rate * calib
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fail on a geomean Minstr/s regression between "
                    "two BENCH_engine.json files")
    parser.add_argument("baseline", help="committed BENCH_engine.json")
    parser.add_argument("fresh", help="freshly generated BENCH_engine.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated geomean drop "
                        "(default: 0.10 = 10%%)")
    args = parser.parse_args(argv)

    base = load(args.baseline)
    fresh = load(args.fresh)

    for field in ("host_cpus", "build_type", "cxx_flags", "scale",
                  "warmup_instructions", "sim_instructions"):
        if base.get(field) != fresh.get(field):
            print("bench_compare: SKIPPED — %s differs (baseline %r, "
                  "fresh %r); throughput is only comparable on a like "
                  "host running a like build on like work" %
                  (field, base.get(field), fresh.get(field)))
            return 0

    b = cell_throughputs(base)
    f = cell_throughputs(fresh)
    common = sorted(set(b) & set(f))
    if not common:
        print("bench_compare: SKIPPED — no common calibrated cells "
              "between %s and %s" % (args.baseline, args.fresh))
        return 0

    floor = 1.0 - args.threshold
    ratios = []
    # before/after: calibrated throughput, Minstr per kernel run.
    print("%-12s %-8s %-7s | %9s %9s %7s" %
          ("workload", "pf", "engine", "before", "after", "ratio"))
    for key in common:
        ratio = f[key] / b[key]
        ratios.append(ratio)
        flag = "  << below %.0f%% floor" % (floor * 100) \
            if ratio < floor else ""
        print("%-12s %-8s %-7s | %9.5f %9.5f %6.2fx%s" %
              (key + (b[key], f[key], ratio, flag)))

    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    print("geomean over %d (cell, engine) pairs: %.3fx "
          "(gate: >= %.2fx)" % (len(ratios), geomean, floor))
    if geomean < floor:
        below = sorted((f[key] / b[key], key) for key in common
                       if f[key] / b[key] < floor)
        named = ", ".join("%s/%s/%s %.2fx" % (key + (ratio,))
                          for ratio, key in below) or "none"
        print("bench_compare: FAIL — calibrated geomean dropped %.1f%% "
              "(> %.0f%% tolerated); cells below the %.0f%% floor, "
              "worst first: %s" %
              ((1.0 - geomean) * 100, args.threshold * 100,
               floor * 100, named),
              file=sys.stderr)
        return 1
    print("bench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
