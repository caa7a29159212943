#!/usr/bin/env bash
# fleetd kill/restart determinism + resilience smoke.
#
# Exercises the full fleet-as-a-service loop end to end, across real
# processes, a real SIGTERM, a flaky transport, and a torn checkpoint:
#
#   1. run the sweep through the batch CLI           -> reference fingerprint
#   2. start arachnet-fleetd, submit the same spec
#   3. SIGTERM the daemon mid-sweep                  -> checkpoint written
#   4. restart over the same checkpoint directory    -> job auto-resumes
#   5. attach with `arachnet-fleet -server -verify`  -> fingerprint must
#      equal both a fresh local run and the batch reference
#   6. resubmit the spec                             -> response cache hit,
#      answered by job-000000 itself, counted in -health's cache_hits,
#      and no second checkpoint written
#   7. submit through -flaky N -retries M            -> client retries
#      through injected transport faults; same fingerprint contract
#   8. tear one checkpoint's bytes, restart          -> the file is
#      quarantined as *.corrupt, the rest of the fleet is unaffected,
#      and a resubmission converges to the prior fingerprint
#
# Any divergence between the batch, interrupted-and-resumed, cached,
# flaky-transport, and post-quarantine fingerprints fails the script.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid1=""
pid2=""
pid3=""
cleanup() {
    [ -n "$pid1" ] && kill "$pid1" 2>/dev/null || true
    [ -n "$pid2" ] && kill "$pid2" 2>/dev/null || true
    [ -n "$pid3" ] && kill "$pid3" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    for log in d1.err d2.err d3.err c1.out c2.out c3.out c4.out c5.out c6.out h1.out h2.out; do
        if [ -s "$workdir/$log" ]; then
            echo "--- $log ---" >&2
            cat "$workdir/$log" >&2
        fi
    done
    exit 1
}

echo "fleetd-smoke: building binaries"
go build -o "$workdir/arachnet-fleetd" ./cmd/arachnet-fleetd
go build -o "$workdir/arachnet-fleet" ./cmd/arachnet-fleet
go build -o "$workdir/arachnet-trace" ./cmd/arachnet-trace

# ckdump decodes a binary checkpoint into $workdir/ck.json through
# `arachnet-trace -convert`; it fails while the file is absent.
ckdump() { "$workdir/arachnet-trace" -convert "$1" >"$workdir/ck.json" 2>/dev/null; }

# Single worker and ~24 shards keep the sweep running for a few seconds
# so the SIGTERM below reliably lands mid-run. The small fault plan
# keeps every slot stepped: a fault-free slots job skips its steady
# state and would finish before the signal.
spec="$workdir/spec.json"
cat > "$spec" <<'EOF'
{"seed": 20260808, "workers": 1, "vehicles": [
  {"name": "smoke", "engine": "slots", "pattern": "c2", "slots": 150000, "replicate": 24, "faults": {"feedback": {"loss_prob": 0.001}}}
]}
EOF

echo "fleetd-smoke: batch reference run"
ref=$("$workdir/arachnet-fleet" "$spec" | awk '$1 == "fingerprint" {print $2}')
[ -n "$ref" ] || fail "batch run printed no fingerprint"
echo "fleetd-smoke: reference fingerprint $ref"

# Daemon 1: random port, aggressive checkpointing.
ckpt="$workdir/ckpt"
"$workdir/arachnet-fleetd" -addr 127.0.0.1:0 -checkpoint-dir "$ckpt" \
    -checkpoint-every 100ms >"$workdir/d1.out" 2>"$workdir/d1.err" &
pid1=$!

url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's/^fleetd listening on \(.*\)$/\1/p' "$workdir/d1.out")
    [ -n "$url" ] && break
    kill -0 "$pid1" 2>/dev/null || fail "daemon 1 exited before listening"
    sleep 0.1
done
[ -n "$url" ] || fail "daemon 1 never reported its address"
echo "fleetd-smoke: daemon 1 at $url"

"$workdir/arachnet-fleet" -server "$url" -quiet "$spec" \
    >"$workdir/c1.out" 2>&1 &
cpid=$!

# Wait for the periodic snapshot to capture at least one finished shard,
# then SIGTERM the daemon mid-sweep.
ck="$ckpt/job-000000.ckpt.bin"
for _ in $(seq 1 200); do
    ckdump "$ck" && grep -q '"outcomes"' "$workdir/ck.json" && break
    sleep 0.05
done
ckdump "$ck" && grep -q '"outcomes"' "$workdir/ck.json" ||
    fail "no shard outcomes checkpointed within 10s"

echo "fleetd-smoke: SIGTERM mid-sweep"
kill -TERM "$pid1"
wait "$pid1" 2>/dev/null || true
pid1=""
wait "$cpid" 2>/dev/null || true # interrupted client exits nonzero by design

ckdump "$ck" && grep -q '"state":"running"' "$workdir/ck.json" ||
    fail "sweep finished before the SIGTERM landed; slow the smoke spec down"

# Daemon 2 over the same checkpoint directory must resume the job.
"$workdir/arachnet-fleetd" -addr 127.0.0.1:0 -checkpoint-dir "$ckpt" \
    -checkpoint-every 100ms >"$workdir/d2.out" 2>"$workdir/d2.err" &
pid2=$!

url2=""
for _ in $(seq 1 100); do
    url2=$(sed -n 's/^fleetd listening on \(.*\)$/\1/p' "$workdir/d2.out")
    [ -n "$url2" ] && break
    kill -0 "$pid2" 2>/dev/null || fail "daemon 2 exited before listening"
    sleep 0.1
done
[ -n "$url2" ] || fail "daemon 2 never reported its address"
grep -q 'resuming 1 interrupted job' "$workdir/d2.err" ||
    fail "daemon 2 did not announce the resumed job"
echo "fleetd-smoke: daemon 2 at $url2, resuming"

# Attach to the resumed job; -verify re-runs the spec locally and
# cross-checks the fingerprints inside the client itself.
"$workdir/arachnet-fleet" -server "$url2" -job job-000000 -verify -quiet "$spec" \
    >"$workdir/c2.out" 2>&1 || fail "resumed run failed or fingerprint diverged"
grep -q 'verified: local run fingerprint matches' "$workdir/c2.out" ||
    fail "client verify line missing"
fp=$(awk '$1 == "fingerprint" {print $2}' "$workdir/c2.out")
[ "$fp" = "$ref" ] || fail "resumed fingerprint $fp != batch reference $ref"
echo "fleetd-smoke: resumed fingerprint matches batch reference"

# The finished job warmed the response cache: a resubmission answers
# instantly with that job itself and the same fingerprint, and writes
# no checkpoint of its own.
"$workdir/arachnet-fleet" -server "$url2" -quiet "$spec" \
    >"$workdir/c3.out" 2>&1 || fail "cache-hit resubmission failed"
grep -q "response cache hit (fingerprint $ref)" "$workdir/c3.out" ||
    fail "resubmission missed the response cache"
grep -q "^job job-000000: response cache hit" "$workdir/c3.out" ||
    fail "cache hit did not answer with the job that ran the spec (job-000000)"
nck=$(find "$ckpt" -name '*.ckpt.bin' | wc -l)
[ "$nck" -eq 1 ] || fail "cache hit left $nck checkpoints in $ckpt, want 1"
# /v1/healthz must count the hit: cache_hits is the field load
# benchmarks read the daemon's hit share from.
"$workdir/arachnet-fleet" -server "$url2" -health >"$workdir/h0.out" 2>&1 ||
    fail "-health failed after the cache hit"
hits=$(sed -n 's/^ *"cache_hits": \([0-9]*\),\{0,1\}$/\1/p' "$workdir/h0.out")
[ "${hits:-0}" -ge 1 ] || fail "cache hit not counted on /v1/healthz (cache_hits=${hits:-missing})"
echo "fleetd-smoke: cache hit returned the same fingerprint ($hits counted on /v1/healthz)"

# Flaky-transport leg: a quick spec submitted through a transport that
# fails every 3rd request, with client retries. The client must retry
# through the faults, -verify must still agree with a local run, and
# the retry counter must be visibly non-zero.
qspec="$workdir/quick.json"
cat > "$qspec" <<'EOF'
{"seed": 99, "workers": 2, "vehicles": [
  {"name": "flaky", "engine": "slots", "pattern": "c1", "slots": 5000, "replicate": 4}
]}
EOF
"$workdir/arachnet-fleet" -server "$url2" -retries 4 -flaky 3 -verify "$qspec" \
    >"$workdir/c4.out" 2>&1 || fail "flaky-transport run failed despite retries"
grep -q 'client retried' "$workdir/c4.out" ||
    fail "flaky transport never forced a retry; the leg tested nothing"
grep -q 'verified: local run fingerprint matches' "$workdir/c4.out" ||
    fail "flaky-transport fingerprint diverged from the local run"
qref=$(awk '$1 == "fingerprint" {print $2}' "$workdir/c4.out")
[ -n "$qref" ] || fail "flaky-transport run printed no fingerprint"
echo "fleetd-smoke: flaky transport retried and converged ($qref)"

# Health must be clean before the fault, and -health must exit zero.
"$workdir/arachnet-fleet" -server "$url2" -health >"$workdir/h1.out" 2>&1 ||
    fail "healthy daemon reported unhealthy via -health"
grep -q '"ok": true' "$workdir/h1.out" || fail "-health output missing ok flag"

kill -TERM "$pid2"
wait "$pid2" 2>/dev/null || true
pid2=""

# Torn-write leg: corrupt the quick job's checkpoint on disk (a torn
# write that survived a lying disk), restart, and require quarantine —
# the corrupt file moves aside as *.corrupt, the other job's checkpoint
# still warms the cache, and resubmitting the torn spec re-runs it to
# the same fingerprint.
# The cache-hit resubmission above answered with job-000000 itself, so
# the quick job landed as job-000001.
qck="$ckpt/job-000001.ckpt.bin"
[ -f "$qck" ] || fail "expected quick-job checkpoint $qck on disk"
head -c 40 "$qck" >"$workdir/torn.bin"
mv "$workdir/torn.bin" "$qck"

"$workdir/arachnet-fleetd" -addr 127.0.0.1:0 -checkpoint-dir "$ckpt" \
    -checkpoint-every 100ms -job-deadline 10m \
    >"$workdir/d3.out" 2>"$workdir/d3.err" &
pid3=$!
url3=""
for _ in $(seq 1 100); do
    url3=$(sed -n 's/^fleetd listening on \(.*\)$/\1/p' "$workdir/d3.out")
    [ -n "$url3" ] && break
    kill -0 "$pid3" 2>/dev/null || fail "daemon 3 exited before listening"
    sleep 0.1
done
[ -n "$url3" ] || fail "daemon 3 never reported its address"
grep -q 'quarantined' "$workdir/d3.err" ||
    fail "daemon 3 did not report the torn checkpoint quarantine"
[ -f "$ckpt/job-000001.corrupt" ] ||
    fail "torn checkpoint was not moved to job-000001.corrupt"
echo "fleetd-smoke: daemon 3 quarantined the torn checkpoint"

"$workdir/arachnet-fleet" -server "$url3" -health >"$workdir/h2.out" 2>&1 ||
    fail "daemon 3 unhealthy after quarantine"
grep -q '"ckpt_quarantined": 1' "$workdir/h2.out" ||
    fail "quarantine not counted on /v1/healthz"

# The untorn job's checkpoint still warms the cache across the restart.
"$workdir/arachnet-fleet" -server "$url3" -quiet "$spec" \
    >"$workdir/c5.out" 2>&1 || fail "post-quarantine cache hit failed"
grep -q "response cache hit (fingerprint $ref)" "$workdir/c5.out" ||
    fail "quarantine poisoned the surviving checkpoint's cache entry"

# The torn spec re-runs from scratch and converges to its fingerprint.
"$workdir/arachnet-fleet" -server "$url3" -quiet "$qspec" \
    >"$workdir/c6.out" 2>&1 || fail "post-quarantine re-run failed"
grep -q 'response cache hit' "$workdir/c6.out" &&
    fail "torn job served from cache; quarantine should have dropped it"
qfp=$(awk '$1 == "fingerprint" {print $2}' "$workdir/c6.out")
[ "$qfp" = "$qref" ] || fail "post-quarantine fingerprint $qfp != $qref"
echo "fleetd-smoke: post-quarantine re-run converged ($qfp)"

kill -TERM "$pid3"
wait "$pid3" 2>/dev/null || true
pid3=""

echo "fleetd-smoke: OK (fingerprint $ref across batch, resume, cache, flaky transport, and quarantine)"
