#!/bin/sh
# Full verification: plain build + complete test suite, the fig19
# critical-path and span-tracing overhead guards, the benchmark
# self-test, then a ThreadSanitizer build and an ASan+UBSan build, each
# running every non-golden test (ctest -LE golden). Run from anywhere; builds land in build/,
# build-tsan/, build-asan/ and .bench_build/.
#
# Usage: scripts/check.sh [jobs]
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=${1:-$(nproc 2>/dev/null || echo 2)}

echo "== plain build + full test suite =="
cmake -B "$root/build" -S "$root" >/dev/null
cmake --build "$root/build" -j "$jobs"
ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

# Host throughput and scaling are gated by the repository benchmark
# (python3 perfbench/run.py, see BENCHMARK.json), not here.
#
# Critical-path recording overhead guard: a warm A/B replay of the
# fig19 grid templates with and without an ExecRecord attached must not
# exceed the committed overhead ratio by more than 4 points (the ratio
# is mostly machine-independent; LERGAN_SKIP_PERF_GUARD=1 skips it).
if [ "${LERGAN_SKIP_PERF_GUARD:-0}" = "1" ]; then
    echo "== critpath overhead guard skipped (LERGAN_SKIP_PERF_GUARD=1) =="
elif [ -f "$root/BENCH_fig19_critpath.json" ]; then
    echo "== critpath overhead guard: fig19 recording A/B vs committed" \
         "BENCH_fig19_critpath.json =="
    "$root/build/bench/fig19_lergan_vs_prime" \
        --critpath-check "$root/BENCH_fig19_critpath.json" >/dev/null
else
    echo "== critpath overhead guard skipped (no baseline) =="
fi

# Span tracing overhead guard: a warm A/B run of the fig19 grid with
# and without a flight recorder attached must not exceed max(3%, the
# committed overhead + 2 points) — the tracing layer's "≤3% on the
# reference container" budget (LERGAN_SKIP_PERF_GUARD skips it too).
if [ "${LERGAN_SKIP_PERF_GUARD:-0}" = "1" ]; then
    echo "== tracing overhead guard skipped (LERGAN_SKIP_PERF_GUARD=1) =="
elif [ -f "$root/BENCH_fig19_tracing.json" ]; then
    echo "== tracing overhead guard: fig19 span-recording A/B vs" \
         "committed BENCH_fig19_tracing.json =="
    "$root/build/bench/fig19_lergan_vs_prime" \
        --tracing-check "$root/BENCH_fig19_tracing.json" >/dev/null
else
    echo "== tracing overhead guard skipped (no baseline) =="
fi

# The benchmark harness builds its own copy of src/ (perfbench/ adds it
# with add_subdirectory), so a break in that second build — a source
# file added to or dropped from a library's CMakeLists — only shows
# here. The self-test builds .bench_build/ and runs short checked runs.
echo "== benchmark self-test (perfbench/selftest.py) =="
python3 "$root/perfbench/selftest.py"

# ThreadSanitizer over the whole unit suite: the exec tests drive the
# worker pool and the compile cache under real concurrency, the fault
# tests fan the Monte Carlo driver's seeded trials across the same pool,
# and the sweep, session, telemetry, tracing and critpath tests run the
# executor and its observers from worker lanes. TSan is the check that
# the "shared immutable compiled model, per-worker mutable state"
# contract holds everywhere. The golden tests are left out, as in the
# ASan+UBSan stage below.
echo "== ThreadSanitizer availability probe =="
probe_dir=$(mktemp -d)
trap 'rm -rf "$probe_dir"' EXIT
cat >"$probe_dir/probe.cc" <<'EOF'
#include <thread>
int main() { std::thread([] {}).join(); }
EOF
if c++ -std=c++20 -fsanitize=thread "$probe_dir/probe.cc" \
        -o "$probe_dir/probe" 2>/dev/null && "$probe_dir/probe"; then
    echo "== TSan build of every test (ctest -LE golden) =="
    cmake -B "$root/build-tsan" -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread" >/dev/null
    cmake --build "$root/build-tsan" -j "$jobs"
    ctest --test-dir "$root/build-tsan" -LE golden --output-on-failure \
        -j "$jobs"
else
    echo "ThreadSanitizer unavailable on this toolchain; skipping the" \
         "TSan rerun (plain suite already ran)."
fi

# Address- and UBSanitizer over the whole unit suite: the sim core,
# compiler, parsers, session and sweep paths all run sanitized. The
# golden tests are left out — they byte-diff bench output the plain
# build already checked.
echo "== ASan+UBSan availability probe =="
if c++ -std=c++20 -fsanitize=address,undefined "$probe_dir/probe.cc" \
        -o "$probe_dir/probe-asan" 2>/dev/null && \
        "$probe_dir/probe-asan"; then
    echo "== ASan+UBSan build of every test (ctest -LE golden) =="
    cmake -B "$root/build-asan" -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
        >/dev/null
    cmake --build "$root/build-asan" -j "$jobs"
    ctest --test-dir "$root/build-asan" -LE golden --output-on-failure \
        -j "$jobs"
else
    echo "ASan+UBSan unavailable on this toolchain; skipping the" \
         "sanitizer rerun (plain suite already ran)."
fi

echo "== all checks passed =="
