#!/usr/bin/env bash
# Prints the non-test Rust line count of the workspace, per crate and in
# total, split into code, comment and blank lines.
#
# Usage: scripts/loc.sh [ROOT]   (ROOT defaults to this repository)
#
# Counts every `.rs` file under `crates/*/src` and `src/`. A file is cut
# at its first `#[cfg(test)]` that opens a `mod` (on the same line or the
# next one); a `#[cfg(test)]` on anything else (a stray `use`, say) does
# not cut, so the library code after it is still counted. Comment lines
# are those starting with `//` (doc comments included). The script only
# prints; it gates nothing.
set -euo pipefail
ROOT=${1:-"$(dirname "$0")/.."}
cd "$ROOT"

find crates/*/src src -name '*.rs' | sort | xargs awk '
  function crate_of(path,   parts) {
    split(path, parts, "/")
    return parts[1] == "crates" ? parts[2] : "src"
  }
  function count(line, crate) {
    if (line ~ /^[[:space:]]*$/) blank[crate]++
    else if (line ~ /^[[:space:]]*\/\//) comment[crate]++
    else code[crate]++
  }
  FNR == 1 {
    if (pending) count(held, heldcrate)
    cut = 0; pending = 0
    crate = crate_of(FILENAME); seen[crate] = 1
  }
  cut { next }
  pending {
    pending = 0
    if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_]/) { cut = 1; next }
    count(held, heldcrate)
  }
  /#\[cfg\(test\)\]/ {
    if ($0 ~ /#\[cfg\(test\)\][[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_]/) { cut = 1; next }
    pending = 1; held = $0; heldcrate = crate; next
  }
  { count($0, crate) }
  END {
    if (pending && !cut) count(held, heldcrate)
    for (c in seen) print c, code[c] + 0, comment[c] + 0, blank[c] + 0
  }' | sort | awk '
  BEGIN { printf "%-10s %7s %7s %7s %7s\n", "crate", "total", "code", "comment", "blank" }
  {
    t = $2 + $3 + $4
    printf "%-10s %7d %7d %7d %7d\n", $1, t, $2, $3, $4
    T += t; C += $2; M += $3; B += $4
  }
  END { printf "%-10s %7d %7d %7d %7d\n", "total", T, C, M, B }'
