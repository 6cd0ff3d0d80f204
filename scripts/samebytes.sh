#!/usr/bin/env bash
# samebytes.sh — the same-bytes proof for a change that claims to keep
# every artifact: build a base revision and the working tree, run one
# artifact matrix on both, and compare each artifact byte for byte.
#
# usage: scripts/samebytes.sh <base-rev> [--only NAME...]
#
# The base is <base-rev> exported with git archive into a temporary
# directory, removed on exit; the head is the working tree. Each side
# builds fgrepro, fgfleet, gendata and fgvet once. The groups (NAME):
#
#   full     fgrepro all in full mode at seeds 1-3 (-parallel 0) and at
#            seed 1 serially (-parallel 1): tables, colf trace, metrics,
#            and each seed's -stats events and records per experiment,
#            without the wall-clock column
#   quick    fgrepro -quick all at seeds 1-5 (-parallel 0) and at seed 1
#            serially: tables, JSONL trace, metrics
#   fleet    fgfleet defaults at -shards 1 and 7, with a JSONL and a colf
#            trace: tables, trace, metrics
#   gendata  gendata -small -seed 1: every file it writes
#   fgvet    fgvet -json on the head tree and on the nine check fixtures
#            (internal/lint/testdata/* but loader), run by both binaries,
#            so an analyzer change shows as a verdict change
#
# It prints one line per artifact, "same" or "DIFF"; a differing battery
# table, trace, metrics or stats file also names the experiments whose
# lines differ (colf traces are decoded by each side's own fgrepro), and a
# differing dataset names its files. The exit status is 1 if any artifact
# differs, 2 on a usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

groups="full quick fleet gendata fgvet"
usage() {
    echo "usage: $0 <base-rev> [--only NAME...]   (NAME: $groups)" >&2
    exit 2
}
[ $# -ge 1 ] || usage
base_rev="$1"
shift
only="$groups"
if [ $# -gt 0 ]; then
    [ "$1" = --only ] && [ $# -ge 2 ] || usage
    shift
    only="$*"
    for g in $only; do
        case " $groups " in *" $g "*) ;; *) usage ;; esac
    done
fi
want() { case " $only " in *" $1 "*) return 0 ;; esac; return 1; }
git rev-parse --verify --quiet "$base_rev^{commit}" >/dev/null || {
    echo "samebytes: unknown revision $base_rev" >&2
    exit 2
}

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
head_src="$PWD"
mkdir -p "$work/base-src"
git archive "$base_rev" | tar -x -C "$work/base-src"

for side in base head; do
    src="$work/base-src"
    [ "$side" = head ] && src="$head_src"
    mkdir -p "$work/$side/bin" "$work/$side/out"
    echo "building $side ($([ "$side" = head ] && echo "working tree" || echo "$base_rev"))" >&2
    for c in fgrepro fgfleet gendata fgvet; do
        (cd "$src" && go build -o "$work/$side/bin/$c" "./cmd/$c")
    done
done

# run_side SIDE runs the selected groups with SIDE's binaries into
# $work/SIDE/out, one file per artifact.
run_side() {
    local bin="$work/$1/bin" out="$work/$1/out" s mode sh fmt flag d name rc
    echo "running $1" >&2
    if want full; then
        for s in 1 2 3; do
            "$bin/fgrepro" -seed "$s" -parallel 0 -stats \
                -trace "$out/full-s$s.colf" -trace-format colf \
                -metrics "$out/full-s$s.csv" all \
                > "$out/full-s$s.txt" 2> "$work/stats.raw"
            # The -stats table without its wall-clock column.
            awk '{print $1, $(NF-1), $NF}' "$work/stats.raw" > "$out/full-s$s.stats"
        done
        "$bin/fgrepro" -seed 1 -parallel 1 \
            -trace "$out/full-s1-p1.colf" -trace-format colf \
            -metrics "$out/full-s1-p1.csv" all > "$out/full-s1-p1.txt"
    fi
    if want quick; then
        for s in 1 2 3 4 5; do
            "$bin/fgrepro" -quick -seed "$s" -parallel 0 \
                -trace "$out/quick-s$s.jsonl" -metrics "$out/quick-s$s.csv" all \
                > "$out/quick-s$s.txt"
        done
        "$bin/fgrepro" -quick -seed 1 -parallel 1 \
            -trace "$out/quick-s1-p1.jsonl" -metrics "$out/quick-s1-p1.csv" all \
            > "$out/quick-s1-p1.txt"
    fi
    if want fleet; then
        for sh in 1 7; do
            for fmt in jsonl colf; do
                name="fleet-sh$sh-$fmt"
                "$bin/fgfleet" -shards "$sh" \
                    -trace "$out/$name.$fmt" -trace-format "$fmt" \
                    -metrics "$out/$name.csv" > "$out/$name.txt"
            done
        done
    fi
    if want gendata; then
        "$bin/gendata" -small -seed 1 -out "$out/gendata-small" > /dev/null
    fi
    if want fgvet; then
        for d in . internal/lint/testdata/*/; do
            d="${d%/}"
            [ "$d" = internal/lint/testdata/loader ] && continue
            name="fgvet-$(basename "$d")"
            [ "$d" = . ] && name=fgvet-repo
            (cd "$head_src/$d" && "$bin/fgvet" -json ./... > "$out/$name.json" 2>/dev/null) && rc=0 || rc=$?
            echo "exit $rc" >> "$out/$name.json"
        done
    fi
}
run_side base
run_side head

# tag FILE prefixes each line with the experiment it belongs to: the
# "=== id:" section of a table, the first field of a metrics or stats
# line, or the "exp" field of a trace record.
tag() {
    case "$1" in
    *.txt) awk '/^=== [^ ]+: /{id=$2; sub(/:$/, "", id)} {print id "\t" $0}' "$1" ;;
    *.csv | *.stats) awk -F'[, ]' '{print $1 "\t" $0}' "$1" ;;
    *.jsonl) awk '{id=""; if (match($0, /"exp":"[^"]*"/)) id=substr($0, RSTART+7, RLENGTH-8); print id "\t" $0}' "$1" ;;
    esac
}

# experiments A B lists the experiments whose lines differ between two
# battery artifacts.
experiments() {
    local a="$1" b="$2"
    case "$a" in
    *.colf)
        "$work/base/bin/fgrepro" colf2json "$a" > "$work/a.jsonl"
        "$work/head/bin/fgrepro" colf2json "$b" > "$work/b.jsonl"
        a="$work/a.jsonl" b="$work/b.jsonl"
        ;;
    esac
    diff <(tag "$a") <(tag "$b") | sed -n 's/^[<>] //p' | cut -f1 | sort -u | paste -sd' ' - || true
}

differ=0
names="$( (cd "$work/base/out" && ls; cd "$work/head/out" && ls) | sort -u)"
for name in $names; do
    a="$work/base/out/$name" b="$work/head/out/$name"
    if [ ! -e "$a" ] || [ ! -e "$b" ]; then
        echo "DIFF  $name (missing on one side)"
        differ=1
    elif [ -d "$a" ]; then
        files="$( (cd "$a" && find . -type f; cd "$b" && find . -type f) | sort -u)"
        bad="$(for f in $files; do cmp -s "$a/$f" "$b/$f" || echo "${f#./}"; done | paste -sd' ' -)"
        if [ -z "$bad" ]; then
            echo "same  $name/ ($(echo "$files" | wc -l) files)"
        else
            echo "DIFF  $name/ [$bad]"
            differ=1
        fi
    elif cmp -s "$a" "$b"; then
        extra=""
        case "$name" in *.stats) extra=" ($(awk '$1 == "total" {print "events " $2 ", records " $3}' "$b"))" ;; esac
        echo "same  $name$extra"
    else
        extra=""
        case "$name" in
        full-* | quick-*) extra=" [$(experiments "$a" "$b")]" ;;
        esac
        echo "DIFF  $name$extra"
        differ=1
    fi
done
if [ "$differ" = 0 ]; then
    echo "samebytes: every artifact matches $base_rev"
else
    echo "samebytes: artifacts differ from $base_rev" >&2
fi
exit "$differ"
