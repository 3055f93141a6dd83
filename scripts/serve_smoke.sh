#!/usr/bin/env sh
# gaze_serve end-to-end smoke, run by CTest (and usable standalone):
#
#   serve_smoke.sh <gaze_serve> <gaze_campaign> <scratch dir> \
#                  [validate_obs.py]
#
# Asserts the campaign-service acceptance behavior against the real
# daemon over a real Unix socket:
#   1. the daemon starts, a submit streams to a report, and that
#      report is byte-identical to the offline `gaze_campaign run` +
#      `report` pipeline for the same spec (the determinism contract),
#   2. a request line over the daemon's 1 MiB cap is refused with a
#      rejected event and its connection closed, and the daemon keeps
#      serving,
#   3. resubmitting the same spec enqueues zero cells (pure cache
#      answer) and yields the same bytes again,
#   4. a fresh spec on the same workloads (a new warmup) simulates 6
#      new jobs from the traces the daemon already generated: its
#      status still counts 2 generations, one per workload,
#   5. `gaze_serve status` answers one status JSON line, and
#      `gaze_campaign status --json` against the daemon's cache agrees
#      nothing is missing,
#   6. a bad spec is rejected (client exit 3) with the reason
#      `gaze_campaign status` exits 1 with on the same file, word for
#      word: both run the one spec parser,
#   7. SIGTERM drains cleanly: the daemon exits 0 and reports what it
#      served; its obs trace (queue-wait/execute spans) validates.
set -eu

SERVE=$1
CAMPAIGN=$2
WORKDIR=$3
VALIDATE_OBS=${4:-}

# The script cds into WORKDIR; tolerate relative binary paths.
case "$SERVE" in
  /*) ;;
  *) SERVE=$(cd "$(dirname "$SERVE")" && pwd)/$(basename "$SERVE") ;;
esac
case "$CAMPAIGN" in
  /*) ;;
  *) CAMPAIGN=$(cd "$(dirname "$CAMPAIGN")" && pwd)/$(basename "$CAMPAIGN") ;;
esac
case "$VALIDATE_OBS" in
  ""|/*) ;;
  *) VALIDATE_OBS=$(cd "$(dirname "$VALIDATE_OBS")" && pwd)/$(basename "$VALIDATE_OBS") ;;
esac

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
cd "$WORKDIR"

# A scaled-down cut of examples/campaign_fig06.json: same shape (a
# prefetcher axis times a workload axis), sized for a smoke gate.
cat > spec.json <<'EOF'
{
  "name": "serve_smoke",
  "prefetchers": ["ip_stride", "gaze"],
  "workloads": ["leslie3d", "mcf"],
  "warmup": 2000,
  "sim": 8000
}
EOF

# The socket lives at a cwd-relative path: sun_path is only ~100
# bytes and build trees nest deep.
echo "== daemon up"
"$SERVE" daemon --socket=./serve.sock --cache-dir=cache \
    --obs-trace=obs_trace.json --verbose 2> daemon.log &
DPID=$!
trap 'kill "$DPID" 2>/dev/null || true' EXIT
i=0
while [ ! -S ./serve.sock ]; do
    i=$((i + 1))
    test "$i" -le 100 || { echo "daemon never bound"; cat daemon.log; exit 1; }
    sleep 0.1
done

# No `cmd | tee` anywhere: plain sh has no pipefail, and a pipeline
# would hide a binary's exit status. Redirect, assert, then show.
echo "== submit (cold cache)"
"$SERVE" submit --socket=./serve.sock --spec=spec.json \
    --out=daemon_report.json --csv=daemon.csv 2> submit1.txt
cat submit1.txt
grep -q "report: daemon_report.json" submit1.txt

echo "== offline pipeline must produce the same bytes"
"$CAMPAIGN" run --spec=spec.json --cache-dir=cache_offline --quiet \
    --out=offline_report.json --csv=offline.csv > offline.txt
cat offline.txt
cmp daemon_report.json offline_report.json
cmp daemon.csv offline.csv
echo "OK: daemon report byte-identical to gaze_campaign run + report"

echo "== oversized request line (refused, daemon keeps serving)"
# A ~1.1 MB spec name makes the one-line submit request longer than
# the daemon's request-line cap. The daemon must answer with a
# rejected event and close that connection (client exit 3) without
# reading the rest of the line.
printf '{"name":"' > big_spec.json
head -c 1100000 /dev/zero | tr '\0' x >> big_spec.json
printf '","workloads":["mcf"]}\n' >> big_spec.json
rc=0
"$SERVE" submit --socket=./serve.sock --spec=big_spec.json \
    --out=big_report.json 2> big_submit.txt || rc=$?
cat big_submit.txt
test "$rc" -eq 3 || { echo "oversized submit exited $rc, want 3"; exit 1; }
grep -q "request line exceeds" big_submit.txt
test ! -e big_report.json
kill -0 "$DPID"
echo "OK: oversized line rejected, connection closed, daemon alive"

echo "== resubmit (must enqueue nothing)"
"$SERVE" submit --socket=./serve.sock --spec=spec.json \
    --out=daemon_report2.json 2> submit2.txt
cat submit2.txt
grep -q "enqueued=0" submit2.txt
cmp daemon_report.json daemon_report2.json
echo "OK: repeat submission answered from cache, same bytes"

echo "== fresh spec on known workloads (trace corpus stays warm)"
sed 's/"warmup": 2000/"warmup": 3000/' spec.json > spec_fresh.json
"$SERVE" submit --socket=./serve.sock --spec=spec_fresh.json \
    --out=daemon_report3.json 2> submit3.txt
cat submit3.txt
grep -q "enqueued=6" submit3.txt
"$SERVE" status --socket=./serve.sock > status_traces.json
cat status_traces.json
grep -q '"generated":2' status_traces.json
echo "OK: 6 fresh jobs read the 2 resident traces, none regenerated"

echo "== status, both producers"
"$SERVE" status --socket=./serve.sock > status.json
cat status.json
grep -q '"event":"status"' status.json
grep -q '"submits":3' status.json
grep -q '"rejected":1' status.json
"$CAMPAIGN" status --spec=spec.json --cache-dir=cache --json \
    > campaign_status.json
cat campaign_status.json
grep -q '"missing":0' campaign_status.json
echo "OK: daemon and campaign status agree the cache is complete"

echo "== bad spec: the daemon rejects with the offline diagnostic"
sed 's/"gaze"/"gaze:region=3000"/' spec.json > spec_bad.json
grep -q 'gaze:region=3000' spec_bad.json
rc=0
"$SERVE" submit --socket=./serve.sock --spec=spec_bad.json \
    --out=bad_report.json 2> bad_submit.txt || rc=$?
cat bad_submit.txt
test "$rc" -eq 3 || { echo "bad spec submit exited $rc, want 3"; exit 1; }
test ! -e bad_report.json
rc=0
"$CAMPAIGN" status --spec=spec_bad.json --cache-dir=cache \
    > /dev/null 2> bad_offline.txt || rc=$?
cat bad_offline.txt
test "$rc" -eq 1 || { echo "offline status exited $rc, want 1"; exit 1; }
# "fatal: <message> (<file>:<line>)" vs "gaze_serve: rejected: <reason>"
offline=$(sed -n 's/^fatal: \(.*\) (.*:[0-9][0-9]*)$/\1/p' bad_offline.txt)
reason=$(sed -n 's/^gaze_serve: rejected: //p' bad_submit.txt)
test -n "$offline" && test "$offline" = "$reason" || {
    echo "daemon reason differs from the offline diagnostic"; exit 1; }
kill -0 "$DPID"
echo "OK: rejected with the offline diagnostic, daemon alive"

echo "== SIGTERM drain"
kill -TERM "$DPID"
rc=0
wait "$DPID" || rc=$?
trap - EXIT
cat daemon.log
test "$rc" -eq 0 || { echo "daemon exited $rc, want 0"; exit 1; }
grep -q "drained" daemon.log
test -f obs_trace.json
if [ -n "$VALIDATE_OBS" ] && command -v python3 > /dev/null 2>&1; then
    python3 "$VALIDATE_OBS" obs_trace.json
    echo "OK: obs trace validates"
fi
test ! -e ./serve.sock
echo "OK: clean drain, exit 0, socket unlinked"

echo "serve_smoke: all stages passed"
