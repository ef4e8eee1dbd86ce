#!/usr/bin/env bash
# Measures the working tree against a base revision as interleaved pairs
# of fresh benchmark processes: BENCH_<rev>-vs-<base>.json.
#
# Usage: scripts/bench_pair.sh <base-rev> [work-dir]
#
# It builds perfbench for <base-rev>, exported with `git archive` into
# <work-dir>/src (default: a fresh temporary directory; rerunning with
# the same work dir reuses that build), and for the working tree, both
# against the committed lock file (the build step it shares with
# bench_snapshot.sh, in bench_common.sh). Then, for each workload
# BENCHMARK.json lists, it runs BENCH_PAIRS (default 20) pairs of
# `perfbench --child` instances, one cold process per side, pair i at
# seed BENCH_FIRST_SEED + i - 1 (default 1: pair i at seed i), so a claim
# can be checked again on seeds not used while the change was built.
# Pairs alternate which side runs first (base first, then working tree
# first, ...), so the host's drift falls on both sides alike.
#
# For run_s, setup_s and peak_rss_kib a pair's ratio is base / working
# tree: above 1 the working tree is faster or smaller, and that pair is a
# win. Per workload it prints and writes the median ratio, its quartiles,
# IQR and win count, beside each side's absolute medians (and simulated
# requests per second, requests / run_s). The file, written to the
# repository root, also names the host (cores and rustc version).
#
# A pair's two fingerprints (completed requests, makespan, access energy,
# CSV digest) must be identical, and every instance must pass its own
# checks: otherwise the script exits 1 after writing the file. Set
# BENCH_OUTPUT_CHANGES=1 for a change that moves outputs on purpose; the
# file still records whether the fingerprints matched.
#
# With BENCH_TRACED=k (default 0: none) it also runs k traced passes per
# side, `perfbench --trace 1` for one pass each, alternating which side
# runs first (pass i at the seed of pair i), and writes under "traced" each per-layer
# metric's median on both sides and their ratio, base / working tree
# (above 1 the working tree's figure is lower). The traced passes'
# fingerprints are checked like the pairs'.
#
# A null pair, `scripts/bench_pair.sh HEAD` on an unchanged tree,
# measures the host's noise band: a change claims a gain only outside it.
# Win counts are no gate on their own (a null pair can win 30 of 40).
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: $0 <base-rev> [work-dir]" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
source "$root/scripts/bench_common.sh"
pairs=${BENCH_PAIRS:-20}
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "$0: BENCH_PAIRS must be a positive integer (got '$pairs')" >&2
    exit 2
fi
first_seed=${BENCH_FIRST_SEED:-1}
if ! [[ $first_seed =~ ^[1-9][0-9]*$ ]]; then
    echo "$0: BENCH_FIRST_SEED must be a positive integer (got '$first_seed')" >&2
    exit 2
fi
traced=${BENCH_TRACED:-0}
if ! [[ $traced =~ ^(0|[1-9][0-9]*)$ ]]; then
    echo "$0: BENCH_TRACED must be a non-negative integer (got '$traced')" >&2
    exit 2
fi

bench_checkout "$root" "$1" "${2:-$(mktemp -d)}"
base_rev=$rev base_tree=$tree
bench_checkout "$root"
new_rev=$rev new_tree=$tree
base_bin=$(bench_build "$base_tree" "$base_tree/.bench_build")
new_bin=$(bench_build "$new_tree" "$new_tree/.bench_build")
out=$root/BENCH_$new_rev-vs-$base_rev.json

# The workload names in BENCHMARK.json's "workloads" list.
workloads=$(awk '/"workloads"/ { on = 1 } on && /\]/ { on = 0 }
    on && /"name"/ { gsub(/.*"name": *"|".*/, ""); print }' "$root/BENCHMARK.json")

# One cold instance: <side> <workload> <seed> appends its numbers to
# <data>/<side>.<metric> and its fingerprint to <data>/<side>.fingerprint.
child() {
    local side=$1 tree bin doc
    if [[ $side == base ]]; then tree=$base_tree bin=$base_bin; else tree=$new_tree bin=$new_bin; fi
    doc=$(cd "$tree" && "$bin" --child --workload "$2" --seed "$3")
    field() { sed -n "s/^ *\"$1\": *\"*\([^\",]*\)\"*,*\$/\1/p" <<<"$doc"; }
    for metric in run_s setup_s peak_rss_kib requests; do
        field "$metric" >>"$data/$side.$metric"
    done
    field fingerprint >>"$data/$side.fingerprint"
    if ! grep -q '"errors": \[\]' <<<"$doc"; then
        echo "$side $2 seed $3: instance checks failed: $doc" >&2
        failed=1
    fi
}

# One traced pass: <side> <seed> appends its per-layer metrics to
# <data>/<side>.traced, one "<metric> <value>" a line, and its
# fingerprints to <data>/<side>.fingerprint.
traced_pass() {
    local side=$1 tree bin doc
    if [[ $side == base ]]; then tree=$base_tree bin=$base_bin; else tree=$new_tree bin=$new_bin; fi
    doc=$(cd "$tree" && "$bin" --workload replay-sat --seed "$2" --seconds 1 --trace 1)
    grep '^fingerprint ' <<<"$doc" >>"$data/$side.fingerprint"
    tail -n 1 <<<"$doc" | grep -o '"[^"]*": {"value": [^,}]*' |
        sed 's/^"\([^"]*\)": {"value": /\1 /' >>"$data/$side.traced"
    if ! tail -n 1 <<<"$doc" | grep -q '^{"correct": true'; then
        echo "$side traced pass seed $2: checks failed" >&2
        failed=1
    fi
}

# "<metric> <median>" for each metric of <file>'s "<metric> <value>"
# lines, in the order the metrics first appear.
layer_medians() {
    awk '
        !($1 in n) { order[++m] = $1 }
        { v[$1, ++n[$1]] = $2 + 0 }
        END {
            for (j = 1; j <= m; j++) {
                k = order[j]; c = n[k]
                for (a = 2; a <= c; a++) {
                    x = v[k, a]
                    for (b = a - 1; b >= 1 && v[k, b] > x; b--) v[k, b + 1] = v[k, b]
                    v[k, b + 1] = x
                }
                med = c % 2 ? v[k, (c + 1) / 2] : (v[k, c / 2] + v[k, c / 2 + 1]) / 2
                printf "%s %.6g\n", k, med
            }
        }' "$1"
}

# "median q1 q3 wins" of the numbers in <file>, one a line; quartiles
# interpolate linearly between order statistics, a win is a value above 1.
summary() {
    sort -g "$1" | awk '
        function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
        { v[NR] = $1; if ($1 > 1) wins++ }
        END { printf "%.6g %.6g %.6g %d\n", q(0.5), q(0.25), q(0.75), wins }'
}

# The median of <file>'s numbers.
median() { summary "$1" | cut -d' ' -f1; }

# <side>'s medians in <data> as a JSON object.
absolute() {
    paste "$data/$1.requests" "$data/$1.run_s" | awk '{ print $1 / $2 }' >"$data/$1.rate"
    printf '{"run_s": %s, "setup_s": %s, "peak_rss_kib": %s, "sim_req_per_s": %s}' \
        "$(median "$data/$1.run_s")" "$(median "$data/$1.setup_s")" \
        "$(median "$data/$1.peak_rss_kib")" "$(median "$data/$1.rate")"
}

failed=0
sections=()
for w in $workloads; do
    data=$(mktemp -d)
    for ((i = 1; i <= pairs; i++)); do
        seed=$((first_seed + i - 1))
        if ((i % 2)); then
            child base "$w" "$seed"
            child new "$w" "$seed"
        else
            child new "$w" "$seed"
            child base "$w" "$seed"
        fi
    done
    same=true
    if ! cmp -s "$data/base.fingerprint" "$data/new.fingerprint"; then
        same=false
        if [[ ${BENCH_OUTPUT_CHANGES:-0} != 1 ]]; then
            echo "$w: fingerprints differ between $base_rev and $new_rev:" >&2
            diff "$data/base.fingerprint" "$data/new.fingerprint" >&2 || true
            failed=1
        fi
    fi
    section="  \"$w\": {\n    \"fingerprints_identical\": $same,"
    section+="\n    \"base\": $(absolute base),\n    \"new\": $(absolute new)"
    echo "$w: $pairs pairs, $base_rev -> $new_rev, fingerprints identical: $same"
    for metric in run_s setup_s peak_rss_kib; do
        paste "$data/base.$metric" "$data/new.$metric" | awk '{ print $1 / $2 }' >"$data/ratio"
        read -r med q1 q3 wins < <(summary "$data/ratio")
        iqr=$(awk -v a="$q1" -v b="$q3" 'BEGIN { printf "%.6g", b - a }')
        printf '  %-13s median ratio %s  IQR %s (%s..%s)  wins %s/%s\n' \
            "$metric" "$med" "$iqr" "$q1" "$q3" "$wins" "$pairs"
        section+=",\n    \"$metric\": {\"median_ratio\": $med, \"q1\": $q1, \"q3\": $q3, "
        section+="\"iqr\": $iqr, \"wins\": $wins}"
    done
    sections+=("$section\n  }")
    rm -rf "$data"
done

if ((traced > 0)); then
    data=$(mktemp -d)
    for ((i = 1; i <= traced; i++)); do
        seed=$((first_seed + i - 1))
        if ((i % 2)); then
            traced_pass base "$seed"
            traced_pass new "$seed"
        else
            traced_pass new "$seed"
            traced_pass base "$seed"
        fi
    done
    same=true
    if ! cmp -s "$data/base.fingerprint" "$data/new.fingerprint"; then
        same=false
        if [[ ${BENCH_OUTPUT_CHANGES:-0} != 1 ]]; then
            echo "traced passes: fingerprints differ between $base_rev and $new_rev:" >&2
            diff "$data/base.fingerprint" "$data/new.fingerprint" >&2 || true
            failed=1
        fi
    fi
    echo "traced: $traced passes per side, fingerprints identical: $same (per-layer medians, base / new)"
    layer_medians "$data/base.traced" >"$data/base.medians"
    layer_medians "$data/new.traced" >"$data/new.medians"
    # "<metric> <base> <new> <ratio>", the ratio "null" where new is 0.
    awk 'NR == FNR { base[$1] = $2; next }
        ($1 in base) {
            ratio = $2 != 0 ? sprintf("%.6g", base[$1] / $2) : "null"
            print $1, base[$1], $2, ratio
        }' "$data/base.medians" "$data/new.medians" >"$data/layers"
    awk '{ printf "  %-44s %12s %12s  ratio %s\n", $1, $2, $3, $4 }' "$data/layers"
    section="  \"traced\": {\n    \"passes\": $traced,\n    \"fingerprints_identical\": $same,"
    section+="\n    \"metrics\": {\n"
    section+=$(awk '{ printf "%s      \"%s\": {\"base\": %s, \"new\": %s, \"ratio\": %s}",
        (NR > 1 ? ",\\n" : ""), $1, $2, $3, $4 }' "$data/layers")
    sections+=("$section\n    }\n  }")
    rm -rf "$data"
fi

rustc=$(cd "$new_tree" && rustc --version)
{
    printf '{\n  "rev": "%s",\n  "base": "%s",\n' "$new_rev" "$base_rev"
    printf '  "host": {"cores": %s, "rustc": "%s"},\n' "$(nproc)" "$rustc"
    printf '  "pairs": %s,\n  "first_seed": %s,\n' "$pairs" "$first_seed"
    printf '  "ratio": "base / working tree per pair; above 1 the working tree is faster or smaller",\n'
    joined=$(printf '%s,\n' "${sections[@]}")
    printf '%b\n}\n' "${joined%,}"
} >"$out"
echo "wrote $out"
exit "$failed"
