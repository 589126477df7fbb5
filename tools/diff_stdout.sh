#!/usr/bin/env sh
# Diff the stdout of every deterministic surface between two builds.
#
# Usage:
#   tools/diff_stdout.sh PARENT_BUILD [BUILD]
#
# Runs each surface below from PARENT_BUILD and from BUILD (default:
# the repo's build/), the two side by side, each in its own fresh
# temporary directory: the BENCH_pipeline.json the benches write and
# the files the tools write land there, never in the repo. Stderr
# (wall-clock timings) is not compared. Prints one line per surface
# and exits 1 if any stdout differs or any run fails.
#
# Surfaces: bench_faults, bench_overload, bench_regions,
# bench_workload, bench_scale, bench_clone, bench_ablation (profiles
# a reference service with the exact-mode profiler and measures its
# clone with one generator mechanism degraded at a time),
# ditto-chaos (plain and --sessions --overload) and ditto-clone
# (plain and --sessions).
# bench_paper is left out for its runtime (minutes even at --jobs 4);
# diff it separately, e.g. in bash:
#   diff <(P/bench/bench_paper --jobs 4) <(build/bench/bench_paper --jobs 4)
# Against a parent that still has the standalone bench_fig9 binary,
# bench_paper gains a Fig. 9 section: compare the other sections.

set -u

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 PARENT_BUILD [BUILD]" >&2
    exit 2
fi
repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
parent=$(CDPATH= cd -- "$1" && pwd) || exit 2
build=$(CDPATH= cd -- "${2:-$repo/build}" && pwd) || exit 2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
status=0

# surface NAME BINARY [ARGS...]: run BINARY (relative to a build dir)
# from both builds and compare their stdout.
surface() {
    name=$1
    bin=$2
    shift 2
    a="$tmp/$name/parent"
    b="$tmp/$name/build"
    mkdir -p "$a" "$b"
    (cd "$a" && "$parent/$bin" "$@" >stdout 2>stderr) &
    pa=$!
    (cd "$b" && "$build/$bin" "$@" >stdout 2>stderr) &
    pb=$!
    wait "$pa"
    ra=$?
    wait "$pb"
    rb=$?
    if [ "$ra" -ne 0 ] || [ "$rb" -ne 0 ]; then
        echo "FAIL  $name (exit $ra parent, $rb build)"
        status=1
    elif cmp -s "$a/stdout" "$b/stdout"; then
        echo "same  $name"
    else
        echo "DIFF  $name"
        diff "$a/stdout" "$b/stdout" | head -n 20
        status=1
    fi
}

surface bench_faults bench/bench_faults
surface bench_overload bench/bench_overload
surface bench_regions bench/bench_regions
surface bench_workload bench/bench_workload
surface bench_scale bench/bench_scale
surface bench_clone bench/bench_clone
surface bench_ablation bench/bench_ablation
surface ditto-chaos tools/ditto-chaos
surface ditto-chaos-sessions-overload tools/ditto-chaos --sessions --overload
surface ditto-clone tools/ditto-clone
surface ditto-clone-sessions tools/ditto-clone --sessions

exit "$status"
