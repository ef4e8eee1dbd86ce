#!/usr/bin/env bash
# Reports the workspace's source size and how its public names are reached.
#
# Usage: scripts/audit_exports.sh [rev]
#
# Reads the tracked files of <rev> (default: the working tree's tracked
# files) with `git grep`; it changes nothing. It prints:
#   * the lines of tracked Rust under crates/ src/ tests/ examples/ shims/
#     (the source size ROADMAP.md tracks), and perfbench/'s separately;
#   * the lines of tracked Rust under crates/ src/ tests/ examples/ that
#     name a serde trait or import serde (the offline shim's derives
#     expand to nothing, so each such line is dead weight);
#   * every name that a `pub use` in crates/*/src/lib.rs re-exports and
#     that no Rust file outside that crate's directory names (a whole-word
#     match), one `<group> <crate dir> <name>` per line, in the first of
#     three groups that fits:
#       signature     the name appears in a public signature of its crate
#                     (a `pub fn` signature, a `pub` field, a `pub` type,
#                     const or static, an enum's variants, a trait's items,
#                     an associated type, or the trait of an `impl ... for`),
#                     so users reach it through that signature;
#       own_target    the crate's own integration tests, benches, binaries
#                     or examples name it;
#       unreferenced  neither: nothing outside the crate can need it;
#     then a count for each group (`unreferenced_names` is the gate: CI
#     fails unless it is 0);
#   * a report-only method scan: every `pub fn` in crates/*/src outside
#     crates/units whose name no non-test code names besides its own
#     definitions, one `test_only_fn <file> <name>` per line, then their
#     count. Non-test code is every tracked Rust file under crates/*/src,
#     src/, examples/ and perfbench/src up to its first `#[cfg(test)]`,
#     comment lines and `pub use` re-exports left out. A name-based
#     heuristic: a method that shares its name with one called elsewhere
#     is not reported.
set -euo pipefail

if [[ $# -gt 1 ]]; then
    echo "usage: $0 [rev]" >&2
    exit 2
fi
cd "$(git rev-parse --show-toplevel)"
rev=("$@")

# Lines of the tracked *.rs files under the given directories.
rust_lines() {
    git grep -c '' "${rev[@]}" -- "${@/%//*.rs}" | awk -F: '{ n += $NF } END { print n + 0 }'
}

# The text of a tracked file at <rev>, or in the working tree.
show() {
    if [[ ${#rev[@]} -eq 1 ]]; then git show "${rev[0]}:$1"; else cat "$1"; fi
}

# The tracked files under the given directories, at <rev> or in the tree.
tracked() {
    if [[ ${#rev[@]} -eq 1 ]]; then
        git ls-tree -r --name-only "${rev[0]}" -- "$@"
    else
        git ls-files -- "$@"
    fi
}

# The non-test, non-comment lines of the given files, each file's text
# preceded by a `@@file <path>` line.
non_test() {
    local f
    for f in "$@"; do
        echo "@@file $f"
        # Reads to the end (no early `exit`), so `show` never gets SIGPIPE.
        show "$f" | awk '/^#\[cfg\(test\)\]/ { tests = 1 } !tests && !/^[[:space:]]*\/\// { print }'
    done
}

echo "rust_lines	$(rust_lines crates src tests examples shims)	crates/ src/ tests/ examples/ shims/"
echo "perfbench_lines	$(rust_lines perfbench)	perfbench/"
serde_lines=$({ git grep -cE '\b(Serialize|Deserialize)\b|use serde' "${rev[@]}" \
    -- 'crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs' || true; } |
    awk -F: '{ n += $NF } END { print n + 0 }')
echo "serde_lines	$serde_lines	crates/ src/ tests/ examples/"

signature=0
own_target=0
unreferenced=0
for lib in $(tracked crates | grep '^crates/[^/]*/src/lib\.rs$'); do
    dir=${lib%/src/lib.rs}
    # Each `pub use path::{a, b as c};` or `pub use path::a;`, possibly
    # over several lines: the names it exports (after `as`, if renamed).
    names=$(show "$lib" | awk '
        /^pub use / { stmt = ""; inside = 1 }
        inside { stmt = stmt " " $0 }
        inside && /;/ {
            inside = 0
            sub(/^ *pub use /, "", stmt)
            sub(/;.*/, "", stmt)
            if (stmt ~ /\{/) { sub(/^[^{]*\{/, "", stmt); sub(/\}.*/, "", stmt) }
            else { sub(/^.*::/, "", stmt) }
            n = split(stmt, items, ",")
            for (i = 1; i <= n; i++) {
                item = items[i]
                gsub(/^ +| +$/, "", item)
                if (item ~ / as /) sub(/^.* as /, "", item)
                sub(/^.*::/, "", item)
                if (item != "" && item != "self" && item != "*") print item
            }
        }')
    # The crate's public signatures: the library's non-test lines that
    # belong to one (see the header), one per line.
    signatures=$(non_test $(tracked "$dir/src" | grep '\.rs$' |
        grep -v -e "^$dir/src/main\.rs$" -e "^$dir/src/bin/") | awk '
        function opens(s) { return gsub(/\{/, "{", s) }
        function closes(s) { return gsub(/\}/, "}", s) }
        /^@@file / { depth = 0; body = ""; in_fn = 0; next }
        {
            line = $0
            if (in_fn) {
                print line
                if (line ~ /\{|;[[:space:]]*$/) in_fn = 0
            } else if (line ~ /^[[:space:]]*pub ((const|unsafe|async|extern "C") )*fn /) {
                print line
                if (line !~ /\{|;[[:space:]]*$/) in_fn = 1
            } else if (line ~ /^[[:space:]]*pub [a-z_][a-z0-9_]*[[:space:]]*:/ ||
                       line ~ /^[[:space:]]*pub (type|const|static|struct|enum|trait|union) / ||
                       line ~ /^[[:space:]]*type [A-Za-z_][A-Za-z0-9_]*[[:space:]]*(<[^>]*>)?[[:space:]]*=/) {
                print line
            } else if (body == "enum" && depth >= 1) {
                print line
            } else if (body == "trait" && depth == 1 && line ~ /^[[:space:]]*(const |unsafe )*fn /) {
                print line
                if (line !~ /\{|;[[:space:]]*$/) in_fn = 1
            } else if (line ~ /^[[:space:]]*impl/ && line ~ / for /) {
                sub(/ for .*/, "", line)
                print line
            }
            if (body == "" && $0 ~ /^[[:space:]]*pub (enum|trait) /) {
                body = ($0 ~ /pub enum /) ? "enum" : "trait"
                depth = 0
            }
            if (body != "") {
                depth += opens($0) - closes($0)
                if (depth <= 0 && $0 ~ /\}/) body = ""
            }
        }')
    for name in $names; do
        if git grep -q -w "$name" "${rev[@]}" -- '*.rs' ":(exclude)$dir/" 2>/dev/null; then
            continue
        fi
        if sed -E "s/\b(struct|enum|fn|trait|type|const|static|union) $name\b//g" <<<"$signatures" |
            grep -w "$name" >/dev/null; then
            echo "signature	$dir	$name"
            signature=$((signature + 1))
        elif git grep -q -w "$name" "${rev[@]}" -- "$dir/tests/" "$dir/benches/" \
            "$dir/src/bin/" "$dir/src/main.rs" "$dir/examples/" 2>/dev/null; then
            echo "own_target	$dir	$name"
            own_target=$((own_target + 1))
        else
            echo "unreferenced	$dir	$name"
            unreferenced=$((unreferenced + 1))
        fi
    done
done
echo "reexports_in_signatures	$signature"
echo "reexports_named_by_own_targets	$own_target"
echo "unreferenced_names	$unreferenced"

# Report only: public functions that only tests and doc examples call.
code=$(tracked crates src examples perfbench/src | grep '\.rs$' |
    grep -v -e '^crates/[^/]*/tests/' -e '^crates/[^/]*/benches/')
non_test $code | awk '
    /^@@file / { file = $2; next }
    /^pub use / { reexport = 1 }
    reexport { if (/;/) reexport = 0; next }
    {
        line = $0
        if (file ~ /^crates\// && file !~ /^crates\/units\// &&
            match(line, /^[[:space:]]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/.* fn /, "", name)
            defs[name]++
            where[name] = file
        }
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        n = split(line, words, " ")
        for (i = 1; i <= n; i++) uses[words[i]]++
    }
    END {
        for (name in defs) {
            if (uses[name] <= defs[name]) {
                print "test_only_fn\t" where[name] "\t" name
                count++
            }
        }
        print "test_only_fns\t" count + 0
    }' | sort
