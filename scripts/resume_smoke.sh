#!/usr/bin/env bash
# Resume smoke test: run a campaign to a JSONL checkpoint, simulate a
# mid-campaign kill by truncating the checkpoint (keeping a torn final
# line, exactly what a kill -9 mid-append leaves), resume, and require
# the resumed report to equal the uninterrupted one. Also checks that a
# deliberately injected worker panic surfaces as one Abnormal record
# instead of aborting the campaign.
#
# tests/campaign_resilience.rs pins the same invariants in-process; this
# script exercises them end-to-end through the CLI and the real files.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/swifi
if [[ ! -x "$BIN" ]]; then
  cargo build --release -p swifi-cli
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
CKPT="$TMP/campaign.jsonl"

run() { "$BIN" campaign JB.team11 --inputs 3 --seed 7 "$@"; }

# Strip the wall-clock- and cache-strategy-dependent lines; everything
# else in the campaign report is seed-deterministic.
report() { grep -v -e '^throughput:' -e '^icache:' -e '^prefix-fork:' -e '^blocks:' -e '^phases:'; }

run | report > "$TMP/reference.txt"

# The prefix-fork and block caches are execution strategies, not
# semantic changes: disabling either must leave the report untouched.
run --no-prefix-fork | report > "$TMP/no-fork.txt"
diff -u "$TMP/reference.txt" "$TMP/no-fork.txt"
run --no-block-cache | report > "$TMP/no-blocks.txt"
diff -u "$TMP/reference.txt" "$TMP/no-blocks.txt"

# Checkpointing must not perturb the report.
run --checkpoint "$CKPT" | report > "$TMP/full.txt"
diff -u "$TMP/reference.txt" "$TMP/full.txt"

# Simulate the kill: keep the header plus the first 5 records, then a
# torn partial line.
head -n 6 "$CKPT" > "$TMP/torn.jsonl"
printf '{"phase":"assign","ind' >> "$TMP/torn.jsonl"
mv "$TMP/torn.jsonl" "$CKPT"

# Resume: recorded runs replay from disk, the rest re-run, and the
# report must come out equal — with forking and block translation each
# on (default) or off.
cp "$CKPT" "$TMP/torn-copy.jsonl"
cp "$CKPT" "$TMP/torn-copy2.jsonl"
run --checkpoint "$CKPT" --resume | report > "$TMP/resumed.txt"
diff -u "$TMP/reference.txt" "$TMP/resumed.txt"
run --checkpoint "$TMP/torn-copy.jsonl" --resume --no-prefix-fork | report > "$TMP/resumed-no-fork.txt"
diff -u "$TMP/reference.txt" "$TMP/resumed-no-fork.txt"
run --checkpoint "$TMP/torn-copy2.jsonl" --resume --no-block-cache | report > "$TMP/resumed-no-blocks.txt"
diff -u "$TMP/reference.txt" "$TMP/resumed-no-blocks.txt"

# A worker panic mid-campaign is one Abnormal record, not an abort.
run --chaos-panic 2 > "$TMP/chaos.txt"
grep -q 'abnormal: assign#2' "$TMP/chaos.txt"

echo "resume smoke: OK"
