#!/usr/bin/env bash
# Perf smoke: non-gating sanity check that the predecoded translation
# cache actually outruns the reference decode-every-fetch interpreter.
#
# Runs the count_instr example in `compare` mode, which
#   1. asserts both interpreters retire identical instruction counts on
#      every probe program (a cheap correctness differential), and
#   2. prints the per-program and total wall-clock speedup.
# The speedup floor below is deliberately loose (shared CI boxes are
# noisy) — this script exists to catch the cache being *disabled or
# pessimised by an order of magnitude*, not to measure the tiers (the
# engine bench does that: `cargo bench -p swifi-bench --bench perf`
# writes BENCH_engine.json, median of fresh-state rounds per tier).
#
# `perf_smoke.sh equivalence` runs the execution-strategy A/B checks
# instead: campaign reports with the prefix-fork cache on vs off, with
# block translation on vs off (--no-block-cache), and with trace-guided
# pruning on vs off (--no-prune) must be identical (timing and
# strategy-counter lines excluded). Those checks are deterministic, so
# tier1.sh runs them as a *gating* step; the wall-clock speedup mode
# stays non-gating.
#
# `perf_smoke.sh prune` runs the sampling oracle: a campaign with
# pruning on and `--prune-sample 100` re-executes every replayed run
# in full and compares the predicted outcome against the real one. Any misprediction is a soundness bug and fails the script.
#
# Exit codes: 0 ok, 1 cached interpreter slower than the floor (or
# fork-on/fork-off reports diverge, or the pruning oracle caught a
# misprediction), 2 harness failure.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-speedup}"

if [ "$MODE" = equivalence ]; then
  BIN=target/release/swifi
  if [[ ! -x "$BIN" ]]; then
    cargo build --release -p swifi-cli
  fi
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' EXIT
  filter() { grep -v -e '^throughput:' -e '^icache:' -e '^prefix-fork:' -e '^blocks:' -e '^phases:' -e '^prune:'; }
  for t in JB.team11 JB.team6; do
    "$BIN" campaign "$t" --inputs 4 --seed 2024 | filter > "$TMP/on.txt" || exit 2
    for flag in --no-prefix-fork --no-block-cache --no-prune; do
      "$BIN" campaign "$t" --inputs 4 --seed 2024 "$flag" | filter > "$TMP/off.txt" || exit 2
      if ! diff -u "$TMP/on.txt" "$TMP/off.txt"; then
        echo "perf_smoke: $t report differs between default and $flag" >&2
        exit 1
      fi
    done
  done
  echo "perf_smoke: prefix-fork, block-cache, and prune on/off reports identical - ok"
  exit 0
fi

if [ "$MODE" = prune ]; then
  BIN=target/release/swifi
  if [[ ! -x "$BIN" ]]; then
    cargo build --release -p swifi-cli
  fi
  status=0
  for t in JB.team11 JB.team6; do
    out=$("$BIN" campaign "$t" --inputs 4 --seed 2024 --prune-sample 100) || exit 2
    line=$(echo "$out" | grep '^prune:') || { echo "perf_smoke: no prune line for $t" >&2; exit 2; }
    echo "$t $line"
    sampled=$(echo "$line" | sed -n 's/.* \([0-9]*\) sampled.*/\1/p')
    mispred=$(echo "$line" | sed -n 's/.* (\([0-9]*\) mispredicted).*/\1/p')
    if [ -z "$sampled" ] || [ -z "$mispred" ]; then
      echo "perf_smoke: could not parse prune line for $t" >&2
      exit 2
    fi
    if [ "$sampled" -eq 0 ]; then
      echo "perf_smoke: $t sampling oracle checked nothing (no runs pruned?)" >&2
      status=1
    fi
    if [ "$mispred" -ne 0 ]; then
      echo "perf_smoke: $t sampling oracle caught $mispred misprediction(s)" >&2
      status=1
    fi
  done
  [ "$status" = 0 ] && echo "perf_smoke: pruning oracle clean on all sampled runs - ok"
  exit "$status"
fi

FLOOR="${SWIFI_PERF_SMOKE_FLOOR:-1.2}"

cargo build --release -p swifi-bench --example count_instr

out=$(SWIFI_INTERP=compare ./target/release/examples/count_instr) || exit 2
echo "$out"

# Line shape: "TOTAL compare: cached is 2.47x reference (wall clock)"
total=$(echo "$out" | awk '/^TOTAL compare/ { sub(/x$/, "", $5); print $5 }')
if [ -z "$total" ]; then
  echo "perf_smoke: could not parse total speedup" >&2
  exit 2
fi

ok=$(awk -v t="$total" -v f="$FLOOR" 'BEGIN { print (t >= f) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
  echo "perf_smoke: cached interpreter only ${total}x reference (floor ${FLOOR}x)" >&2
  exit 1
fi
echo "perf_smoke: cached is ${total}x reference (floor ${FLOOR}x) - ok"
