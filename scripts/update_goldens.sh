#!/bin/sh
# Regenerate the committed golden snapshots in tests/golden/ from the
# current build. Run after an intentional change to simulator numbers
# or export formats, then review the diff like any other code change:
#
#   cmake --build build
#   scripts/update_goldens.sh [build-dir]
#   git diff tests/golden/
#
# Every snapshot is written by scripts/golden.sh, the same script the
# golden ctest entries diff with, so each output filter lives once.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
out="$root/tests/golden"
mkdir -p "$out"

write() {
    echo "golden: $1"
    shift
    "$root/scripts/golden.sh" write "$@"
}

for bench in fig16_zfdr_phases fig17_3d_vs_htree fig18_zfdr_vs_nr \
    fig19_lergan_vs_prime fig20_energy_vs_prime fig21_perf_fpga_gpu \
    fig22_energy_fpga_gpu fig23_energy_breakdown fig24_tile_breakdown
do
    write "$bench" stdout "$out/$bench.txt" "$build/bench/$bench"
done

# table5 measures wall-clock; --golden masks the host-dependent cells.
write table5_benchmarks stdout "$out/table5_benchmarks.txt" \
    "$build/bench/table5_benchmarks" --golden

write export_results export "$out" "$build/bench/export_results" \
    --threads 1 --audit

# Seeded Monte Carlo, sim-time telemetry and span ids are all
# deterministic for any worker count, so each 1-worker snapshot serves
# the 1- and 4-worker golden tests.
write fault_sweep stdout "$out/fault_sweep.txt" \
    "$build/bench/fault_sweep" --golden --threads 1
write fig19_metrics metrics "$out/fig19_metrics.prom" \
    "$build/bench/fig19_lergan_vs_prime" --threads 1
write fig19_spans spans "$out/fig19_spans.ndjson" \
    "$build/bench/fig19_lergan_vs_prime" --threads 1

echo "done; review with: git diff tests/golden/"
