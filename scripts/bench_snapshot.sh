#!/usr/bin/env bash
# Records one point of the benchmark trajectory: BENCH_<short-rev>.json.
#
# Usage: scripts/bench_snapshot.sh [rev [work-dir]]
#
# Without <rev> it measures the working tree and names the point after
# HEAD; when tracked files other than Markdown and BENCH_*.json points
# differ from HEAD, the name gains `-dirty-<hash>`, the first 7 hex
# digits of `git hash-object` over that diff, so two different
# uncommitted trees never share a point. With
# <rev> it exports that revision with `git archive` into
# <work-dir>/src (default: a fresh temporary directory) and measures it
# there, so two points from one host can be taken back to back.
#
# It builds perfbench (the step it shares with bench_pair.sh, in
# bench_common.sh) and runs it three times at seed 1, each run lasting
# BENCHMARK.json's `run_seconds`:
#   * `--trace 1` once (each pass times every workload through the
#     per-layer wrappers, so one run covers replay-sat and serve-mixed);
#   * `--trace 0` on replay-sat and on serve-mixed (end-to-end medians
#     over fresh child processes).
# The file, written to the repository root, holds the host (cores and
# rustc version), each run's JSON result line and its fingerprints.
#
# Environment: BENCH_TARGET_DIR for the perfbench build (default
# <tree>/.bench_build).
set -euo pipefail

if [[ $# -gt 2 ]]; then
    echo "usage: $0 [rev [work-dir]]" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
source "$root/scripts/bench_common.sh"
seed=1
seconds=$(bench_seconds "$root")

bench_checkout "$root" "$@"
target=${BENCH_TARGET_DIR:-$tree/.bench_build}
out=$root/BENCH_$rev.json
perfbench=$(bench_build "$tree" "$target")

# Runs perfbench in the measured tree; its stdout goes to <log>.
run() { # <log> <workload> <trace>
    (cd "$tree" && "$perfbench" --workload "$2" --seed "$seed" \
        --seconds "$seconds" --trace "$3") >"$1"
}

# The run's JSON result: its last line.
result() { tail -n 1 "$1"; }

# The run's distinct fingerprint lines as a JSON array of strings.
fingerprints() {
    grep '^fingerprint ' "$1" | sort -u |
        sed 's/\\/\\\\/g; s/"/\\"/g; s/^/    "/; s/$/"/' | paste -sd, - |
        sed 's/^/[/; s/$/]/'
}

logs=$(mktemp -d)
run "$logs/traced" replay-sat 1
run "$logs/replay" replay-sat 0
run "$logs/serve" serve-mixed 0

rustc=$(cd "$tree" && rustc --version)
cat >"$out" <<EOF
{
  "rev": "$rev",
  "host": {"cores": $(nproc), "rustc": "$rustc"},
  "seed": $seed,
  "seconds_per_run": $seconds,
  "traced": {
    "result": $(result "$logs/traced"),
    "fingerprints": $(fingerprints "$logs/traced")
  },
  "replay-sat": {
    "result": $(result "$logs/replay"),
    "fingerprints": $(fingerprints "$logs/replay")
  },
  "serve-mixed": {
    "result": $(result "$logs/serve"),
    "fingerprints": $(fingerprints "$logs/serve")
  }
}
EOF
rm -rf "$logs"
echo "wrote $out"
