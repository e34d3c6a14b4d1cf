#!/usr/bin/env bash
# Server smoke test: start `swifi serve`, submit a small §6 campaign
# sharded 3 ways across real worker processes, and require the merged
# report to equal the single-process `swifi campaign` output. Also
# checks the streamed progress events, the merged telemetry artifacts,
# ping, and graceful shutdown.
#
# crates/server/tests/service.rs pins the same protocol in-process;
# this script exercises the real binary: serve accept loop, shard-exec
# worker processes, checkpoint merge, and the client event stream.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/swifi
if [[ ! -x "$BIN" ]]; then
  cargo build --release -p swifi-cli
fi

TMP="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

# Strip the wall-clock- and cache-strategy-dependent lines (a merge
# pass replays shard records instead of re-executing them, so its
# timing lines legitimately differ); everything else in the campaign
# report is seed-deterministic. Also drop the local command's banner
# and the client's artifact notices — neither is part of the report.
report() {
  grep -v -e '^throughput:' -e '^icache:' -e '^prefix-fork:' -e '^blocks:' \
          -e '^phases:' -e '^campaign on' -e '^metrics:' -e '^trace:'
}

# The reference: the single-process CLI command.
"$BIN" campaign JB.team11 --inputs 3 --seed 7 | report > "$TMP/direct.txt"

# Start the server on a free port and learn the address it picked.
"$BIN" serve --workdir "$TMP/work" > "$TMP/serve.log" &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^serving on //p' "$TMP/serve.log")"
  [[ -n "$ADDR" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$TMP/serve.log"; exit 1; }
  sleep 0.1
done
[[ -n "$ADDR" ]] || { echo "server never announced its address"; exit 1; }

"$BIN" submit --ping --addr "$ADDR"

# The shard-equality oracle: a campaign sharded 3 ways across worker
# processes must report identically to the single-process run.
"$BIN" submit JB.team11 --addr "$ADDR" --inputs 3 --seed 7 --shards 3 --pool 2 \
  2> "$TMP/progress.log" | report > "$TMP/sharded.txt"
diff -u "$TMP/direct.txt" "$TMP/sharded.txt"

# The progress stream told the whole story: every shard ran and the
# checkpoints merged without losing a shard.
for k in 0 1 2; do
  grep -q "shard $k: done" "$TMP/progress.log"
done
grep -q '^merged: .*(0 missing, 0 duplicate(s))' "$TMP/progress.log"

# A second submission with telemetry: the merged trace must be
# schema-valid and timestamp-ordered, the merged metrics parseable.
"$BIN" submit JB.team11 --addr "$ADDR" --inputs 3 --seed 7 --shards 3 --pool 3 \
  --trace-out "$TMP/trace.json" --metrics-out "$TMP/metrics.json" \
  2>/dev/null | report > "$TMP/sharded2.txt"
diff -u "$TMP/direct.txt" "$TMP/sharded2.txt"
"$BIN" trace-validate "$TMP/trace.json"
grep -q 'run_latency_us' "$TMP/metrics.json"

# Graceful shutdown: the server answers, then exits on its own.
"$BIN" submit --shutdown --addr "$ADDR"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "server did not exit after shutdown"
  exit 1
fi
SERVER_PID=""

echo "server smoke: OK"
