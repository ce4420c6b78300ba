#!/bin/sh
# Regenerate the committed fig19 observer-overhead baselines that
# scripts/check.sh guards: BENCH_fig19_critpath.json (critical-path
# recording) and BENCH_fig19_tracing.json (span tracing). Run it on the
# reference container after an observer-relevant change and commit the
# result. Host throughput and scaling are measured by the repository
# benchmark (python3 perfbench/run.py); BENCH_fig19.json is the frozen
# record of the measurements taken before it.
#
# Usage: scripts/bench_baseline.sh [jobs]
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=${1:-$(nproc 2>/dev/null || echo 2)}

cmake -B "$root/build" -S "$root" >/dev/null
cmake --build "$root/build" -j "$jobs" --target fig19_lergan_vs_prime

# Critical-path recording overhead (warm A/B over the grid templates):
# scripts/check.sh fails when a future change pushes the measured
# overhead more than 4 points above this committed figure.
"$root/build/bench/fig19_lergan_vs_prime" \
    --critpath-baseline "$root/BENCH_fig19_critpath.json" >/dev/null

echo "wrote $root/BENCH_fig19_critpath.json"

# Span tracing overhead (warm A/B over the fig19 grid with and without
# a flight recorder attached): scripts/check.sh fails when a future
# change pushes the measured overhead above max(3%, committed + 2).
"$root/build/bench/fig19_lergan_vs_prime" \
    --tracing-baseline "$root/BENCH_fig19_tracing.json" >/dev/null

echo "wrote $root/BENCH_fig19_tracing.json"
