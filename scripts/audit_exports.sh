#!/usr/bin/env bash
# Reports the workspace's source size and its unreferenced re-exports.
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
#     match), one `<crate dir> <name>` per line, then their count.
# An unreferenced name is a candidate, not a verdict: a type that appears
# in a public signature is reached through that signature.
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

echo "rust_lines	$(rust_lines crates src tests examples shims)	crates/ src/ tests/ examples/ shims/"
echo "perfbench_lines	$(rust_lines perfbench)	perfbench/"
serde_lines=$({ git grep -cE '\b(Serialize|Deserialize)\b|use serde' "${rev[@]}" \
    -- 'crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs' || true; } |
    awk -F: '{ n += $NF } END { print n + 0 }')
echo "serde_lines	$serde_lines	crates/ src/ tests/ examples/"

count=0
if [[ ${#rev[@]} -eq 1 ]]; then
    libs=$(git ls-tree -r --name-only "${rev[0]}" -- crates | grep '^crates/[^/]*/src/lib\.rs$')
else
    libs=$(git ls-files 'crates/*/src/lib.rs')
fi
for lib in $libs; do
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
    for name in $names; do
        if ! git grep -q -w "$name" "${rev[@]}" -- '*.rs' ":(exclude)$dir/" 2>/dev/null; then
            echo "unreferenced	$dir	$name"
            count=$((count + 1))
        fi
    done
done
echo "unreferenced_names	$count"
