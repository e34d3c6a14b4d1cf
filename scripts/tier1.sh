#!/usr/bin/env bash
# Tier-1 gate: offline-friendly build + test, then formatting, lints,
# and the checkpoint/resume smoke test.
#
# The workspace vendors all external dependencies under compat/, so every
# step below runs without registry or network access.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# The benchmark package (perfbench/) has its own workspace; test it here
# so a campaign-API change that breaks its build fails tier 1.
cargo test --offline --manifest-path perfbench/Cargo.toml
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
./scripts/resume_smoke.sh
./scripts/mutation_smoke.sh
./scripts/perf_smoke.sh equivalence
./scripts/perf_smoke.sh prune
./scripts/trace_smoke.sh
./scripts/server_smoke.sh
