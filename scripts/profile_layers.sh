#!/usr/bin/env sh
# Where gaze_sim's host time goes, layer by layer, on the perfbench
# matrices (perfbench/run.py's DENSE and SPARSE: the dense spatial
# streams, and the .gzt pointer chases plus the 4-core mcf cell).
#
# Usage: [GAZE_SIM_SCALE=S] scripts/profile_layers.sh [BUILD_DIR] [RUNS]
#
# BUILD_DIR (default build/) must hold a gaze_sim with line info, the
# default RelWithDebInfo build. Each matrix runs RUNS times (default
# 5) on one worker with scripts/profile_sampler.c preloaded, which
# samples the interrupted PC on the process's CPU-time timer. The
# PCs are folded with `addr2line -i` by their innermost src/ frame,
# so inlined code counts in the file it was written in, and the
# script prints each layer's share of samples for both matrices.
# The cache levels share one code path, so they fold together.
# Samples outside the executable (libc, libstdc++) or with no src/
# frame are their own row.
#
# Preloading must come first under ASan, so this runs on normal
# builds only (scripts/check.sh smoke-runs it at GAZE_SIM_SCALE=0.02).
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "${1:-$root/build}" && pwd)
runs=${2:-5}
sim="$build/src/gaze_sim"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
trap 'exit 1' INT TERM
mkdir "$work/dense" "$work/sparse" "$work/traces"
cc -O2 -shared -fPIC -o "$work/sampler.so" "$root/scripts/profile_sampler.c"

"$build/src/gaze_trace" record --workloads=mcf,canneal,omnetpp_s,BFS-17 \
    --out-dir="$work/traces" > /dev/null

sampled() {
    dir=$1
    shift
    (cd "$work/$dir" && LD_PRELOAD="$work/sampler.so" "$sim" \
        --threads=1 --quiet --out=out.json "$@" > /dev/null)
}

i=0
while [ "$i" -lt "$runs" ]; do
    sampled dense --prefetchers=gaze,pmp,bingo,sms \
        --workloads=lbm,leslie3d,fotonik3d_s,pr.twi,cassandra-p0c0,srv.09
    sampled sparse --prefetchers=gaze,ip_stride \
        --workloads=mcf,canneal,omnetpp_s,BFS-17 --trace-dir="$work/traces"
    sampled sparse --prefetchers=gaze --workloads=mcf --cores=4 \
        --trace-dir="$work/traces"
    i=$((i + 1))
done

python3 - "$sim" "$work" <<'EOF'
import collections
import glob
import os
import subprocess
import sys

sim, work = sys.argv[1], sys.argv[2]

# Layer of a source path below src/: the first prefix that matches.
LAYERS = [
    ("trace", ("tracing/", "workloads/", "sim/trace.")),
    ("core + vmem", ("sim/core.", "sim/vmem.")),
    ("cache", ("sim/cache.", "sim/request")),
    ("  ring buffer", ("common/ring_buffer.hh",)),
    ("  MSHR table", ("sim/mshr_table.hh",)),
    ("  LRU ranks", ("sim/replacement.",)),
    ("prefetchers", ("prefetchers/", "core/", "sim/prefetcher.",
                     "common/lru_table.hh", "common/bitset.",
                     "common/sat_counter.hh")),
    ("DRAM", ("sim/dram.",)),
    ("engine loop", ("sim/system.", "sim/wake_gate.hh")),
]
OTHER_SRC = "other src/"
OUTSIDE = "outside src/"
ROWS = ["trace", "core + vmem", "cache", "containers", "  ring buffer",
        "  MSHR table", "  LRU ranks", "prefetchers", "DRAM",
        "engine loop", OTHER_SRC, OUTSIDE]


def layer_of(path):
    rel = path.rsplit("/src/", 1)[1]
    for name, prefixes in LAYERS:
        if rel.startswith(prefixes):
            return name
    return OTHER_SRC


samples = {}
for matrix in ("dense", "sparse"):
    pcs = []
    for f in glob.glob(os.path.join(work, matrix, "pcs.*")):
        with open(f) as fh:
            pcs += fh.read().split()
    samples[matrix] = pcs

addrs = sorted({pc for pcs in samples.values() for pc in pcs if pc != "-"})
layer = {"-": OUTSIDE}
if addrs:
    out = subprocess.run(["addr2line", "-a", "-i", "-e", sim],
                         input="\n".join("0x" + a for a in addrs),
                         capture_output=True, text=True, check=True).stdout
    # -a starts each address's group with the address; -i lists its
    # inlined frames innermost first.
    current = None
    for line in out.splitlines():
        if line.startswith("0x"):
            current = "%x" % int(line, 16)
            layer[current] = OUTSIDE
        elif layer[current] == OUTSIDE and "/src/" in line:
            layer[current] = layer_of(line.rsplit(":", 1)[0])

if addrs and all(layer[a] == OUTSIDE for a in addrs):
    print("profile_layers: no sampled PC maps to a src/ line; build %s "
          "with line info (RelWithDebInfo)" % sim, file=sys.stderr)

share = {}
for matrix, pcs in samples.items():
    counts = collections.Counter(layer[pc] for pc in pcs)
    counts["containers"] = sum(counts[r] for r in ROWS if r[:2] == "  ")
    share[matrix] = {r: 100.0 * counts[r] / max(len(pcs), 1) for r in ROWS}

print("%-16s %8s %8s" % ("layer", "dense", "sparse"))
for r in ROWS:
    print("%-16s %7.1f%% %7.1f%%" % (r, share["dense"][r],
                                     share["sparse"][r]))
print("%-16s %8d %8d" % ("samples", len(samples["dense"]),
                         len(samples["sparse"])))
EOF
