#!/usr/bin/env python3
"""sim_campaign_parity — gaze_sim and gaze_campaign agree on one matrix.

gaze_sim is the campaign engine without a result cache, so for the
same matrix its BENCH document and a `gaze_campaign run` report must
carry the same per-cell and per-suite figures. This script runs both
binaries on a 2-prefetcher x 2-workload matrix and fails (exit 1) when
any field the two documents share differs, in any cell or suite row.
It also fails when gaze_sim leaves anything but its --out file in its
working directory: it writes no cache.

Usage: scripts/sim_campaign_parity.py GAZE_SIM GAZE_CAMPAIGN WORKDIR

Run it at a small GAZE_SIM_SCALE (the tier-1 test uses 0.02).
"""

import json
import os
import shutil
import subprocess
import sys

PREFETCHERS = ["ip_stride", "gaze"]
WORKLOADS = ["leslie3d", "mcf"]
WARMUP, SIM = 2000, 8000

# Fields each cell must share, so the comparison cannot pass vacuously.
CELL_FIELDS = ("prefetcher", "workload", "suite", "speedup", "accuracy",
               "coverage", "late_fraction", "ipc", "base_ipc",
               "pf_issued", "pf_filled", "pf_useful", "pf_late",
               "pf_late_load", "pf_late_rfo", "llc_miss_base",
               "llc_miss_pf", "schemes")
SUITE_FIELDS = ("prefetcher", "suite", "workloads", "speedup",
                "accuracy", "coverage", "late_fraction")


def run(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.exit("FAIL: %s exited %d\n%s" % (" ".join(cmd),
                                             proc.returncode,
                                             proc.stdout))


def compare(kind, sim_rows, report_rows, required):
    """Problems found comparing two row lists field by field."""
    if len(sim_rows) != len(report_rows):
        return ["%s: gaze_sim has %d rows, the report %d"
                % (kind, len(sim_rows), len(report_rows))]
    problems = []
    for i, (a, b) in enumerate(zip(sim_rows, report_rows)):
        shared = set(a) & set(b)
        for field in required:
            if field not in shared:
                problems.append("%s %d: field %s missing from one "
                                "document" % (kind, i, field))
        for field in sorted(shared):
            if a[field] != b[field]:
                problems.append("%s %d (%s x %s): %s %r != %r"
                                % (kind, i, a.get("prefetcher"),
                                   a.get("workload", a.get("suite")),
                                   field, a[field], b[field]))
    return problems


def main(argv):
    if len(argv) != 4:
        sys.exit(__doc__)
    sim_bin, campaign_bin, work = (os.path.abspath(a) for a in argv[1:])
    shutil.rmtree(work, ignore_errors=True)
    sim_dir = os.path.join(work, "sim")
    campaign_dir = os.path.join(work, "campaign")
    os.makedirs(sim_dir)
    os.makedirs(campaign_dir)

    spec = {"name": "parity", "prefetchers": PREFETCHERS,
            "workloads": WORKLOADS, "warmup": WARMUP, "sim": SIM}
    with open(os.path.join(campaign_dir, "spec.json"), "w") as f:
        json.dump(spec, f)
    run([campaign_bin, "run", "--spec=spec.json", "--cache-dir=cache",
         "--quiet", "--out=report.json"], campaign_dir)
    run([sim_bin, "--prefetchers=" + ",".join(PREFETCHERS),
         "--workloads=" + ",".join(WORKLOADS), "--warmup=%d" % WARMUP,
         "--sim=%d" % SIM, "--quiet", "--out=sim.json"], sim_dir)

    left = sorted(os.listdir(sim_dir))
    problems = []
    if left != ["sim.json"]:
        problems.append("gaze_sim left %s in its working directory; "
                        "expected only sim.json" % left)

    with open(os.path.join(sim_dir, "sim.json")) as f:
        sim = json.load(f)
    with open(os.path.join(campaign_dir, "report.json")) as f:
        report = json.load(f)
    problems += compare("cell", sim["cells"], report["cells"],
                        CELL_FIELDS)
    problems += compare("suite row", sim["suites"], report["suites"],
                        SUITE_FIELDS)
    expected = len(PREFETCHERS) * len(WORKLOADS)
    if len(sim["cells"]) != expected:
        problems.append("gaze_sim wrote %d cells, expected %d"
                        % (len(sim["cells"]), expected))

    if problems:
        print("\n".join("FAIL: " + p for p in problems))
        return 1
    print("OK: %d cells and %d suite rows equal in every shared field; "
          "gaze_sim wrote no cache" % (len(sim["cells"]),
                                       len(sim["suites"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
