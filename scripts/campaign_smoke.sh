#!/usr/bin/env sh
# Campaign-engine smoke, run by CTest (and usable standalone):
#
#   campaign_smoke.sh <gaze_campaign binary> <scratch dir>
#
# Asserts the ISSUE/acceptance behavior end to end on a tiny 2-cell
# campaign:
#   1. first run executes 4 simulations (2 cells + 2 baselines),
#   2. a second run is served 100% from cache (0 simulations) and its
#      aggregate report is byte-identical,
#   3. --shard=0/2 + --shard=1/2 into a fresh cache followed by
#      `report` equals the unsharded report byte for byte,
#   4. --compare against the first report yields an exact 0 delta,
#   5. a respelled spec (non-canonical prefetcher spellings: explicit
#      defaults, reordered options) against the warm cache is 100%
#      cache hits with a byte-identical report — cache identity is
#      spelling-invariant,
#   6. a core count of 0 or 65 (above the System's 64-core bound) dies
#      with a diagnostic (exit 1), not a panic.
set -eu

BIN=$1
WORKDIR=$2

# The script cds into WORKDIR; tolerate a relative binary path.
case "$BIN" in
  /*) ;;
  *) BIN=$(cd "$(dirname "$BIN")" && pwd)/$(basename "$BIN") ;;
esac

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
cd "$WORKDIR"

cat > spec.json <<'EOF'
{
  "name": "smoke2cell",
  "prefetchers": ["gaze"],
  "workloads": ["leslie3d", "mcf"],
  "warmup": 2000,
  "sim": 8000
}
EOF

# No `cmd | tee` anywhere: plain sh has no pipefail, and a pipeline
# would hide the binary's exit status (e.g. a sanitizer failure after
# the stats line printed). Redirect, assert, then show.
echo "== run 1 (cold cache)"
"$BIN" run --spec=spec.json --cache-dir=cache --quiet \
    --out=report1.json > run1.txt
cat run1.txt
grep -q "executed 4 simulation(s), 0 cache hit(s)" run1.txt

echo "== run 2 (must be 100% cache hits)"
"$BIN" run --spec=spec.json --cache-dir=cache --quiet \
    --out=report2.json > run2.txt
cat run2.txt
grep -q "executed 0 simulation(s), 4 cache hit(s)" run2.txt
cmp report1.json report2.json
echo "OK: second run byte-identical, zero simulations"

echo "== sharded into a fresh cache"
"$BIN" run --spec=spec.json --cache-dir=cache_sharded --quiet \
    --shard=0/2 > shard0.txt
cat shard0.txt
grep -q "executed 2 simulation(s)" shard0.txt
"$BIN" run --spec=spec.json --cache-dir=cache_sharded --quiet \
    --shard=1/2 > shard1.txt
cat shard1.txt
grep -q "executed 2 simulation(s)" shard1.txt
"$BIN" report --spec=spec.json --cache-dir=cache_sharded \
    --out=report_sharded.json --csv=report_sharded.csv
cmp report1.json report_sharded.json
echo "OK: sharded + report equals unsharded"

echo "== respelled spec against the warm cache"
# "gaze:region=4096:n=2" spells out schema defaults in arbitrary
# order; it canonicalizes to plain "gaze", so every cell must hit the
# cache the canonical spelling populated and the report must not
# change by a byte.
cat > spec_respelled.json <<'EOF'
{
  "name": "smoke2cell",
  "prefetchers": ["gaze:region=4096:n=2"],
  "workloads": ["leslie3d", "mcf"],
  "warmup": 2000,
  "sim": 8000
}
EOF
"$BIN" run --spec=spec_respelled.json --cache-dir=cache --quiet \
    --out=report_respelled.json > respelled.txt
cat respelled.txt
grep -q "executed 0 simulation(s), 4 cache hit(s)" respelled.txt
cmp report1.json report_respelled.json
echo "OK: non-canonical spellings are pure cache hits, same report"

echo "== compare against self"
"$BIN" report --spec=spec.json --cache-dir=cache \
    --out=report_cmp.json --compare=report1.json
grep -q '"speedup_delta":0[,}]' report_cmp.json
echo "OK: self-compare delta is exactly 0"

echo "== core counts outside 1..64"
for cores in 0 65; do
  cat > spec_cores.json <<EOF
{"name": "smoke_cores", "prefetchers": ["gaze"], "workloads": ["mcf"],
 "cores": [$cores]}
EOF
  rc=0
  "$BIN" run --spec=spec_cores.json --cache-dir=cache_cores --quiet \
      > cores.txt 2>&1 || rc=$?
  cat cores.txt
  [ "$rc" -eq 1 ]
  grep -q "campaign spec: core count" cores.txt
done
echo "OK: out-of-range core counts are diagnostics"

echo "campaign_smoke: all stages passed"
