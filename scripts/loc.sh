#!/usr/bin/env bash
# Net line count: non-test Rust lines per crate and in total.
#
# Counts the `.rs` files under crates/*/src, each up to its first
# `#[cfg(test)]` line (the unit tests live after it). `lines` is every
# such line; `code` leaves out blank lines and `//` comment lines (doc
# comments included). Files named as arguments also get a row of their
# own:
#
#   scripts/loc.sh
#   scripts/loc.sh crates/vm/src/machine.rs crates/vm/src/blocks.rs
#
# To compare two commits, run the script in a checkout of each.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk -v files=" $* " '
  FNR == 1 {
    in_test = 0
    split(FILENAME, part, "/")
    krate = part[2]
    if (!(krate in seen)) { seen[krate] = 1; order[n++] = krate }
    if (index(files, " " FILENAME " ")) { named[m++] = FILENAME }
  }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
  in_test { next }
  {
    lines[krate]++; lines[FILENAME]++; lines[""]++
    if (!/^[[:space:]]*$/ && !/^[[:space:]]*\/\//) { code[krate]++; code[FILENAME]++; code[""]++ }
  }
  END {
    printf "%-28s %8s %8s\n", "crate", "lines", "code"
    for (i = 0; i < n; i++) printf "%-28s %8d %8d\n", order[i], lines[order[i]], code[order[i]]
    printf "%-28s %8d %8d\n", "total", lines[""], code[""]
    for (i = 0; i < m; i++) printf "%-28s %8d %8d\n", named[i], lines[named[i]], code[named[i]]
  }'
