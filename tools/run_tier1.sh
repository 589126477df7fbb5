#!/usr/bin/env sh
# Configure, build, and run the tier-1 test suite (ROADMAP.md).
#
# Usage:
#   tools/run_tier1.sh [LABEL...]
#
# With no arguments the suite runs in labeled passes -- each ctest
# label explicitly (so an accidentally empty label fails the run
# instead of silently passing), then everything unlabeled -- and the
# script exits nonzero if any pass fails. Each LABEL argument instead
# restricts the run to that label (repeatable). Labels in use:
#   sanitize  fault injection + resilience (-DDITTO_SANITIZE=ON subset)
#   obs       trace export/import + metrics registry
#   cluster   replica groups, balancing, autoscaling, topo_gen
#   chaos     chaos fuzzer: invariants, determinism, plan shrinking
#   region    multi-region: WAN links, prefer-local, failover RTO
#   clone     trace-driven cloning: foreign ingest, closure fidelity,
#             malformed-Jaeger defect corpus
#   workload  sessionized workload engine: arrivals, rate curves,
#             SLO reports, outcome conservation, determinism
#   overload  adaptive overload control: AIMD limiter, retry budgets,
#             priority shedding, brownout, armed determinism
#   parallel  RunExecutor determinism (the -DDITTO_TSAN=ON subset;
#             its tests that carry another label run in that label's
#             pass, the executor's own tests in the remainder)
#
# Runtime stays bounded for single-core CI: every labeled test is
# seeded and short (the chaos campaigns use small configs), so the
# full default run finishes in a few minutes without parallelism.
#
# Environment:
#   BUILD_DIR  build directory (default: build)
#   CMAKE_ARGS extra configure flags, e.g. "-DDITTO_TSAN=ON"
#
# The tree builds warning-free under GCC's -Wall -Wextra; to fail on
# any new warning, build with -Werror:
#   CMAKE_ARGS=-DDITTO_WERROR=ON tools/run_tier1.sh

set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${BUILD_DIR:-"$repo/build"}

# shellcheck disable=SC2086  # CMAKE_ARGS is intentionally word-split
cmake -B "$build" -S "$repo" ${CMAKE_ARGS:-}
cmake --build "$build" -j

# A bare `ctest -j` would swallow a following option as its value;
# always pass the level explicitly.
jobs=$(nproc 2>/dev/null || echo 2)

cd "$build"

if [ "$#" -gt 0 ]; then
    labels=""
    for l in "$@"; do
        labels="$labels${labels:+|}$l"
    done
    exec ctest --output-on-failure -j "$jobs" --no-tests=error \
        -L "$labels"
fi

# Labeled passes first: --no-tests=error turns a vanished label into
# a failure rather than a vacuous pass. `parallel` is not its own
# pass: it exists for the TSan build to select. Its tests that also
# carry one of these labels run in that label's pass; the RunExecutor
# tests (ditto_executor_tests) carry only `parallel` and run in the
# remainder.
status=0
for label in sanitize obs cluster chaos region clone workload \
             overload; do
    echo "== tier-1 label: $label =="
    ctest --output-on-failure -j "$jobs" --no-tests=error \
        -L "$label" || status=$?
done

# Everything not covered by a labeled pass (the core suite).
echo "== tier-1 remainder =="
ctest --output-on-failure -j "$jobs" --no-tests=error \
    -LE "sanitize|obs|cluster|chaos|region|clone|workload|overload" \
    || status=$?

# Advisory benchmark-regression check: if this build directory has a
# fresh BENCH_pipeline.json (benches write it to their cwd), diff it
# against the committed baseline. Wall-clock on shared CI machines is
# noisy, so a regression warns but never fails tier-1.
if command -v python3 >/dev/null 2>&1 && \
    [ -f "$build/BENCH_pipeline.json" ]; then
    echo "== bench regression check (advisory) =="
    python3 "$repo/tools/check_bench_regression.py" \
        --fresh "$build/BENCH_pipeline.json" \
        --baseline "$repo/BENCH_pipeline.json" || true
fi

exit "$status"
