#!/usr/bin/env bash
# How much code and public surface the workspace carries — the counts every
# simplicity PR reports before and after. Informational: no threshold.
# Run from the repository root:
#
#   scripts/loc.sh
#
# * non-test lines: every `*.rs` under crates/ src/ vendor/ that is not in a
#   `tests/` directory, counted up to (not including) its first
#   `#[cfg(test)]`, and on a line of its own the share under vendor/;
# * test lines: every `*.rs` under tests/ and crates/*/tests/, plus the
#   tails the non-test count stops at (from the first `#[cfg(test)]` on);
# * test targets: the integration-test binaries cargo builds from tests/
#   and crates/*/tests/ — each `*.rs` file there and each directory with a
#   `main.rs` — so a suite split into its own crate shows;
# * pub items: lines declaring a `pub` fn / struct / enum / trait / const /
#   type, per crate (`crates/*/src`) and for the root crate (`src`);
# * unnamed outside: of those, the items whose name appears nowhere outside
#   the crate's library — not in another crate, an integration test
#   (`tests/`, `crates/*/tests/`), `examples/`, `benchmark/`, or the crate's
#   own `src/bin/` targets, which are separate crates that reach only `pub`
#   items. Each is a candidate for `pub(crate)`; a name shared with an
#   unrelated identifier elsewhere hides an item from this count, never adds
#   one. The names themselves are listed under each crate's count;
# * config fields: the `pub` fields of structs named `*Config`, `*Weights`
#   or `*Policy`, per crate and in total — the knobs a caller can set. Their
#   `Struct.field` names are listed under each crate's count, after
#   `config:`;
# * formats: the types that derive or implement serde's `Serialize` or
#   `Deserialize`, per crate and in total — everything a wire frame, a file
#   or a snapshot carries. Their names are listed under each crate's count,
#   after `formats:`; the ids a serializing `macro_rules!` defines are listed
#   by the names its invocations give them.
set -eu
export LC_ALL=C

find crates src vendor -name '*.rs' -not -path '*/tests/*' | while read -r file; do
    awk -v file="$file" '/#\[cfg\(test\)\]/{exit} {n++} END{print n+0, file}' "$file"
done | awk '{lines += $1} $2 ~ /^vendor\// {vendor += $1} END {
    print "non-test lines (crates src vendor): " lines
    print "  of which vendored shims (vendor/): " vendor + 0
}'

suites=$(find tests crates/*/tests -name '*.rs' -print0 | xargs -0 cat | wc -l)
tails=$(find crates src vendor -name '*.rs' -not -path '*/tests/*' -print0 \
    | xargs -0 awk 'FNR == 1 {t = 0} /#\[cfg\(test\)\]/ {t = 1} t {n++} END {print n + 0}' \
    | awk '{n += $1} END {print n + 0}')
echo "test lines: $((suites + tails)) ($suites in tests/ and crates/*/tests/, $tails in #[cfg(test)] tails)"

# Integration-test binaries under the test directories $@: their top-level
# `*.rs` files and their subdirectories' `main.rs`.
test_targets() {
    { find "$@" -mindepth 1 -maxdepth 1 -name '*.rs'; find "$@" -mindepth 2 -maxdepth 2 -name main.rs; } | wc -l
}
root_targets=$(test_targets tests)
crate_targets=$(test_targets crates/*/tests)
echo "test targets: $((root_targets + crate_targets)) ($root_targets in tests/, $crate_targets in crates/*/tests/)"

pub_decl='pub (const fn|fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*'
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# `pub` fields of the `*Config` / `*Weights` / `*Policy` structs under $1,
# one `Struct.field` per line, sorted.
config_fields() {
    find "$1" -name '*.rs' -print0 | xargs -0 awk '
        /^ *(pub(\([a-z]+\))? )?struct [A-Za-z0-9_]*(Config|Weights|Policy) *\{/ {
            name = $0
            sub(/^ *(pub(\([a-z]+\))? )?struct /, "", name)
            sub(/[ {].*/, "", name)
            inside = 1
            next
        }
        inside && /^ *\}/ { inside = 0 }
        inside && /^ *pub [a-z_][a-z0-9_]*:/ {
            field = $2
            sub(/:.*/, "", field)
            print name "." field
        }' | sort
}

# Names of the types under $1 that derive or implement `Serialize` /
# `Deserialize`, one per line, sorted and deduplicated.
formats() {
    find "$1" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { derive = 0; serial = 0; invoking = 0 }
        /^ *macro_rules! [a-z_]+/ { macro = $2; sub(/!.*/, "", macro) }
        /#\[derive\(/ { derive = 1; serial = 0 }
        derive && /(Serialize|Deserialize)/ { serial = 1 }
        derive && /\)\]/ { derive = 0 }
        serial && /^ *(pub(\([a-z]+\))? )?(struct|enum) / {
            name = $0
            sub(/^ *(pub(\([a-z]+\))? )?(struct|enum) /, "", name)
            sub(/[^$A-Za-z0-9_].*/, "", name)
            if (name ~ /^\$/) serializing[macro] = 1; else print name
            serial = 0
        }
        /^ *impl(<[^>]*>)? +(serde::)?(Serialize|Deserialize)(<[^>]*>)? +for +/ {
            name = $0
            sub(/.* for +/, "", name)
            sub(/[^A-Za-z0-9_].*/, "", name)
            print name
        }
        /^ *[a-z_]+!\($/ { invoked = $1; sub(/!.*/, "", invoked); invoking = (invoked in serializing); next }
        invoking && /^ *[A-Z][A-Za-z0-9_]*,$/ { name = $1; sub(/,/, "", name); print name; invoking = 0 }
    ' | sort -u
}

total=0
unnamed_total=0
knobs_total=0
formats_total=0
for dir in crates/*/src src; do
    count=$(grep -rhE 'pub (const fn|fn|struct|enum|trait|const|type) ' "$dir" | wc -l)
    # Every identifier written anywhere outside this crate's library.
    find crates src tests examples benchmark -name '*.rs' \
        \( -not -path "$dir/*" -o -path "$dir/bin/*" \) -not -path '*/target/*' -print0 \
        | xargs -0 grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$scratch/outside"
    grep -rhoE "$pub_decl" "$dir" | awk '{print $NF}' | sort >"$scratch/names"
    join -v 1 "$scratch/names" "$scratch/outside" >"$scratch/unnamed"
    unnamed=$(wc -l <"$scratch/unnamed")
    config_fields "$dir" >"$scratch/knobs"
    knobs=$(wc -l <"$scratch/knobs")
    formats "$dir" >"$scratch/formats"
    serialized=$(wc -l <"$scratch/formats")
    printf '  %-28s %5d pub items, %4d unnamed outside, %3d config fields\n' \
        "$dir" "$count" "$unnamed" "$knobs"
    if [ "$unnamed" -gt 0 ]; then
        tr '\n' ' ' <"$scratch/unnamed" | fold -s -w 68 | sed 's/ *$//; s/^/      /'
        echo
    fi
    if [ "$knobs" -gt 0 ]; then
        { printf 'config: '; tr '\n' ' ' <"$scratch/knobs"; } | fold -s -w 68 | sed 's/ *$//; s/^/      /'
        echo
    fi
    if [ "$serialized" -gt 0 ]; then
        { printf 'formats: '; tr '\n' ' ' <"$scratch/formats"; } | fold -s -w 68 | sed 's/ *$//; s/^/      /'
        echo
    fi
    total=$((total + count))
    unnamed_total=$((unnamed_total + unnamed))
    knobs_total=$((knobs_total + knobs))
    formats_total=$((formats_total + serialized))
done
echo "pub items (crates/*/src src): $total ($unnamed_total unnamed outside their crate)"
echo "config fields (pub fields of *Config, *Weights, *Policy structs): $knobs_total"
echo "formats (types that derive or implement Serialize/Deserialize): $formats_total"
