#!/usr/bin/env bash
# How much code and public surface the workspace carries — the two counts
# every simplicity PR reports before and after. Informational: no threshold.
# Run from the repository root:
#
#   scripts/loc.sh
#
# * non-test lines: every `*.rs` under crates/ src/ vendor/ that is not in a
#   `tests/` directory, counted up to (not including) its first
#   `#[cfg(test)]`;
# * pub items: lines declaring a `pub` fn / struct / enum / trait / const /
#   type, per crate (`crates/*/src`) and for the root crate (`src`).
set -eu

find crates src vendor -name '*.rs' -not -path '*/tests/*' | while read -r file; do
    awk '/#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$file"
done | awk '{lines += $1} END {print "non-test lines (crates src vendor): " lines}'

total=0
for dir in crates/*/src src; do
    count=$(grep -rhE 'pub (const fn|fn|struct|enum|trait|const|type) ' "$dir" | wc -l)
    printf '  %-28s %5d pub items\n' "$dir" "$count"
    total=$((total + count))
done
echo "pub items (crates/*/src src): $total"
