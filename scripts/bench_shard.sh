#!/bin/sh
# 1 -> N domain scaling benchmark for `gridbw serve --shards`.
#
# For each shard count (default 1 2 4), run the daemon with a fresh
# store, drive the closed-loop load generator with a fixed seed, scrape
# the live /metrics histogram for the admit-search stage, and shut the
# daemon down gracefully.  Emits one JSON object:
#
#   { "benchmark": "shard_scaling", "cores": <nproc>, ...,
#     "runs": [ { "shards": N, "throughput_rps": ...,
#                 "admit_search_mean_ns": ..., ... }, ... ] }
#
# The `cores` field is what scripts/bench_delta.py keys its scaling gate
# on: "4 domains >= 2x 1 domain" is only measurable on a machine that
# actually has >= 4 cores, so the gate records the core count and skips
# elsewhere (the same philosophy as the fsync-signal skip — never gate
# on noise).
#
# Usage: scripts/bench_shard.sh [OUT.json]
# Env:   G (gridbw binary), REQUESTS, CONNS, SHARD_COUNTS, PORT_BASE
set -eu

G=${G:-./_build/default/bin/gridbw.exe}
OUT=${1:-BENCH_shard.json}
REQUESTS=${REQUESTS:-20000}
CONNS=${CONNS:-8}
SHARD_COUNTS=${SHARD_COUNTS:-1 2 4}
PORT_BASE=${PORT_BASE:-9340}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for n in $SHARD_COUNTS; do
  sock="$work/s$n.sock"
  port=$((PORT_BASE + n))
  "$G" serve --socket "$sock" --store-dir "$work/store$n" --store-batch 64 \
    --shards "$n" --metrics-port "$port" 2> "$work/serve$n.log" &
  pid=$!
  i=0
  while [ ! -S "$sock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
  if [ ! -S "$sock" ]; then
    echo "bench_shard: daemon (shards=$n) never bound $sock" >&2
    cat "$work/serve$n.log" >&2
    exit 1
  fi
  "$G" loadgen --socket "$sock" --requests "$REQUESTS" --connections "$CONNS" \
    --seed 42 --mean-interarrival 14 --cancel-every 50 \
    --bench-out "$work/run$n.json" 1>&2
  # scrape the admit-search stage histogram while the daemon is still up
  python3 - "$port" > "$work/admit$n.json" <<'EOF'
import json, sys, urllib.request
url = "http://127.0.0.1:%s/metrics" % sys.argv[1]
text = urllib.request.urlopen(url, timeout=10).read().decode()
sum_ns = count = None
for line in text.splitlines():
    if line.startswith("serve_stage_admit_search_ns_sum "):
        sum_ns = float(line.split()[1])
    elif line.startswith("serve_stage_admit_search_ns_count "):
        count = int(line.split()[1])
assert sum_ns is not None and count, "admit-search histogram missing from /metrics"
json.dump({"admit_search_mean_ns": sum_ns / count,
           "admit_search_count": count}, sys.stdout)
EOF
  kill -TERM "$pid"
  wait "$pid"
done

SHARD_COUNTS="$SHARD_COUNTS" REQUESTS="$REQUESTS" CONNS="$CONNS" WORK="$work" \
  python3 - > "$OUT" <<'EOF'
import json, os, sys
work = os.environ["WORK"]
runs = []
for n in os.environ["SHARD_COUNTS"].split():
    run = json.load(open("%s/run%s.json" % (work, n)))
    admit = json.load(open("%s/admit%s.json" % (work, n)))
    runs.append({
        "shards": int(n),
        "throughput_rps": run["throughput_rps"],
        "lat_p50_us": run["lat_p50_us"],
        "lat_p95_us": run["lat_p95_us"],
        "admitted": run["admitted"],
        "admit_search_mean_ns": admit["admit_search_mean_ns"],
        "admit_search_count": admit["admit_search_count"],
    })
json.dump({
    "benchmark": "shard_scaling",
    "cores": os.cpu_count(),
    "requests": int(os.environ["REQUESTS"]),
    "connections": int(os.environ["CONNS"]),
    "seed": 42,
    "runs": runs,
}, sys.stdout, indent=2)
print()
EOF
echo "bench_shard: wrote $OUT" >&2
