# Shared by bench_snapshot.sh and bench_pair.sh (source it; it defines
# functions only).

# bench_checkout <root> [rev [work-dir]]
#
# With <rev>, exports that revision with `git archive` into
# <work-dir>/src (default: a fresh temporary directory); without one,
# takes the working tree of <root>. Sets `tree` to the directory and `rev`
# to its name: the short hash, for the working tree HEAD's plus
# `-dirty-<hash>` when tracked files other than Markdown and BENCH_*.json
# points differ from HEAD (the first 7 hex digits of `git hash-object`
# over that diff, so two different uncommitted trees never share a name).
bench_checkout() {
    local root=$1
    if [[ $# -ge 2 ]]; then
        rev=$(git -C "$root" rev-parse --short "$2")
        local work=${3:-$(mktemp -d)}
        mkdir -p "$work/src"
        work=$(cd "$work" && pwd)
        git -C "$root" archive "$rev" | tar -x -C "$work/src"
        tree=$work/src
    else
        rev=$(git -C "$root" rev-parse --short HEAD)
        local diff
        diff=$(git -C "$root" diff HEAD -- . ':(exclude)*.md' ':(exclude)BENCH_*.json')
        if [[ -n $diff ]]; then
            rev=$rev-dirty-$(git hash-object --stdin <<<"$diff" | cut -c1-7)
        fi
        tree=$root
    fi
}

# bench_build <tree> <target-dir>
#
# Builds perfbench from <tree>, against its committed lock file, into
# <target-dir> and prints the binary's path; fails if the build does (a
# command substitution does not inherit `set -e`).
bench_build() {
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --locked --quiet \
        --manifest-path perfbench/Cargo.toml) || return
    echo "$2/release/perfbench"
}

# bench_seconds <root>: BENCHMARK.json's `run_seconds`.
bench_seconds() {
    local seconds
    seconds=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$1/BENCHMARK.json")
    if [[ -z $seconds ]]; then
        echo "no run_seconds in $1/BENCHMARK.json" >&2
        return 1
    fi
    echo "$seconds"
}
