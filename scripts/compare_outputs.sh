#!/usr/bin/env bash
# Byte-compares the outputs of the working tree against a base revision.
#
# Usage: scripts/compare_outputs.sh <base-rev> [work-dir]
#
# Exports <base-rev> with `git archive` into <work-dir>/base-src and builds
# it there with its own CARGO_TARGET_DIR (<work-dir>/base-target); the
# working tree builds into its usual target directory ($CARGO_TARGET_DIR,
# else target/). Both sides then run, with the working tree's
# spec files as input:
#   * the 14 figure/table binaries (stdout and exit status);
#   * `comet-lab run` of specs/serve_smoke.json and specs/serve_dataplane.json
#     (payload-carrying tenants rewriting and coalescing lines on a
#     content-aware device), each once at --threads 2;
#   * a 15-device x mcf-like,gcc-like,lbm-like grid at --requests 800.
# Every output file is compared with `cmp`. Exits non-zero and lists the
# files that differ, if any do, with what moved in each: for a CSV and
# for every tab-separated table in a figure's stdout, each column whose
# values differ, how many rows differ and the largest relative
# difference; for a JSON report, the keys on the lines that differ.
# <work-dir> defaults to a fresh temporary directory and is left in place
# for inspection.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: $0 <base-rev> [work-dir]" >&2
    exit 2
fi
base_rev=$1
root=$(git rev-parse --show-toplevel)
work=${2:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)

bins="ablations fig10_dota fig1b_crosstalk fig2_corruption fig3_materials
      fig4_geometry fig6_levels fig7_power_comet fig8_power_compare
      fig9_performance fig_latency_vs_load fig_write_energy_vs_entropy
      table1_params table2_timing"
devices=2D_DDR3,3D_DDR3,2D_DDR4,3D_DDR4,EPCM-MM,COSMOS,COMET,COMET-1b,COMET-2b,COMET-4b,COMET-paper,COMET-derived,EPCM-oblivious,EPCM-DCW,EPCM-DCW-FNW
specs="serve_smoke serve_dataplane"

build() { # <source dir> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        -p comet-bench --bins -p comet-lab)
}

run_side() { # <target dir> <output dir>
    local bin=$1/release out=$2
    rm -rf "$out"
    mkdir -p "$out"
    for b in $bins; do
        local status=0
        "$bin/$b" >"$out/$b.stdout" || status=$?
        echo "$status" >"$out/$b.status"
    done
    for spec in $specs; do
        "$bin/comet-lab" run "$root/specs/$spec.json" --threads 2 --out "$out/$spec" >/dev/null
    done
    "$bin/comet-lab" --devices "$devices" --workloads mcf-like,gcc-like,lbm-like \
        --requests 800 --threads 2 --name grid --out "$out/grid" >/dev/null
}

# Column report for two line-aligned files: a table is a header line
# holding the separator and the rows under it, up to the next line
# without one. Per table it prints the rows that differ, and per column
# how many rows differ in it and the largest relative difference
# |a - b| / max(|a|, |b|) of its numeric values.
column_report() { # <base file> <head file> <separator>
    awk -F "$3" -v head="$2" '
    function abs(x) { return x < 0 ? -x : x }
    function num(x) { return x ~ /^[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?$/ }
    {
        if ((getline h < head) <= 0) { uneven = 1; exit }
        n = split(h, hf, FS)
        if (NF < n) n_max = n; else n_max = NF
        if (NF < 2) {
            in_table = 0
            if ($0 != h) loose++
            if ($0 != "") title = $0
            next
        }
        if (!in_table) {
            in_table = 1
            tables++
            label[tables] = (title == "" ? "rows" : title)
            cols[tables] = n_max
            for (j = 1; j <= NF; j++) col[tables, j] = $j
            if ($0 != h) header[tables] = 1
            next
        }
        total[tables]++
        if ($0 == h) next
        rows[tables]++
        for (j = 1; j <= n_max; j++) {
            if ($j == hf[j]) continue
            k = tables SUBSEP j
            diffs[k]++
            if (num($j) && num(hf[j])) {
                m = abs($j) > abs(hf[j]) ? abs($j) : abs(hf[j])
                r = m > 0 ? abs($j - hf[j]) / m : 0
                if (r > rel[k]) rel[k] = r
            } else {
                text[k] = 1
            }
        }
    }
    END {
        if (uneven || (getline h < head) > 0) {
            print "    line counts differ; no column report"
            exit
        }
        for (t = 1; t <= tables; t++) {
            if (header[t]) print "    " label[t] ": header differs"
            if (!rows[t]) continue
            printf "    %s: %d of %d rows differ\n", label[t], rows[t], total[t]
            for (j = 1; j <= cols[t]; j++) {
                k = t SUBSEP j
                if (!diffs[k]) continue
                name = (col[t, j] == "" ? "column " j : col[t, j])
                printf "      %s: %d rows, max rel diff %.3g%s\n", name, diffs[k], rel[k], \
                    (text[k] ? " (and non-numeric changes)" : "")
            }
        }
        if (loose) print "    " loose " lines outside tables differ"
    }' "$1"
}

# Keys on the lines of two JSON reports that differ, with counts.
json_report() { # <base file> <head file>
    echo "    keys on differing lines:"
    # diff exits 1 on differing files, which is the expected case here.
    { diff "$1" "$2" || true; } | sed -n 's/^[<>] *"\([^"]*\)":.*/\1/p' | sort | uniq -c |
        awk '{ printf "      %s (%d lines)\n", $2, $1 }'
}

# Re-exporting an unchanged base would reset its mtimes and force a full
# rebuild, so a work dir already holding this revision is reused.
base_commit=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
if [[ "$(cat "$work/base-src.rev" 2>/dev/null)" != "$base_commit" ]]; then
    echo "exporting $base_rev to $work/base-src"
    rm -rf "$work/base-src"
    mkdir -p "$work/base-src"
    git -C "$root" archive "$base_commit" | tar -x -C "$work/base-src"
    echo "$base_commit" >"$work/base-src.rev"
fi

echo "building base and working tree"
build "$work/base-src" "$work/base-target"
head_target=${CARGO_TARGET_DIR:-$root/target}
build "$root" "$head_target"

echo "running both sides"
run_side "$work/base-target" "$work/base-out"
run_side "$head_target" "$work/head-out"

differ=()
compared=0
while IFS= read -r file; do
    compared=$((compared + 1))
    if ! cmp -s "$work/base-out/$file" "$work/head-out/$file"; then
        differ+=("$file")
    fi
done < <(cd "$work/base-out" && find . -type f | sort)
# Files only the working tree produced.
while IFS= read -r file; do
    [[ -e "$work/base-out/$file" ]] || differ+=("$file (only in the working tree)")
done < <(cd "$work/head-out" && find . -type f | sort)

if [[ ${#differ[@]} -gt 0 ]]; then
    echo "outputs differ from $base_rev (see $work/base-out and $work/head-out):"
    for file in "${differ[@]}"; do
        echo "  $file"
        base_file=$work/base-out/$file head_file=$work/head-out/$file
        [[ -e $base_file && -e $head_file ]] || continue
        case $file in
        *.csv) column_report "$base_file" "$head_file" "," ;;
        *.stdout) column_report "$base_file" "$head_file" $'\t' ;;
        *.json) json_report "$base_file" "$head_file" ;;
        *.status) echo "    exit status $(cat "$base_file") -> $(cat "$head_file")" ;;
        esac
    done
    exit 1
fi
echo "all $compared outputs byte-identical to $base_rev"
