#!/bin/sh
# Byte-diff a binary's output against a committed golden snapshot, or
# (re)write the snapshot from it.
#
# Usage: golden.sh <diff|write> <kind> <golden> <binary> [args...]
#
# Kinds (each runs "<binary> [args...]" plus the output flags shown):
#   stdout   the binary's stdout.
#   export   --json/--csv sweep exports; <golden> is the directory
#            holding export_results.json and export_results.csv.
#   metrics  --metrics snapshot in Prometheus text format, minus the
#            host_* lines (wall clocks, worker busy time — facts about
#            this machine, not the simulated one).
#   spans    --trace-spans NDJSON export, minus each line's trailing
#            "host" object (lane, begin/duration, queue wait).
#
# diff exits non-zero, with a unified diff on stdout, when the output
# deviates. Diffing one golden at several worker counts (--threads in
# the args) is the determinism check: simulated results, sim-time
# integer metrics and span ids must not depend on thread interleaving.
# scripts/update_goldens.sh writes every snapshot through this script.
set -eu

action="$1"
kind="$2"
golden="$3"
bin="$4"
shift 4

case "$action" in
diff | write) ;;
*)
    echo "golden.sh: unknown action '$action' (diff|write)" >&2
    exit 2
    ;;
esac

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Produce the output, then list (produced, golden) file pairs.
case "$kind" in
stdout)
    "$bin" "$@" > "$tmp/out"
    set -- "$tmp/out" "$golden"
    ;;
export)
    "$bin" "$@" --json "$tmp/results.json" --csv "$tmp/results.csv" \
        > /dev/null
    set -- "$tmp/results.json" "$golden/export_results.json" \
        "$tmp/results.csv" "$golden/export_results.csv"
    ;;
metrics)
    "$bin" "$@" --metrics "$tmp/raw" --metrics-format prom > /dev/null
    grep -v -e '^host_' -e '^# TYPE host_' "$tmp/raw" > "$tmp/out"
    set -- "$tmp/out" "$golden"
    ;;
spans)
    "$bin" "$@" --trace-spans "$tmp/raw" > /dev/null
    sed -E 's/,"host":\{[^{}]*\}\}$/}/' "$tmp/raw" > "$tmp/out"
    set -- "$tmp/out" "$golden"
    ;;
*)
    echo "golden.sh: unknown kind '$kind'" \
        "(stdout|export|metrics|spans)" >&2
    exit 2
    ;;
esac

status=0
while [ "$#" -gt 0 ]; do
    if [ "$action" = write ]; then
        cp "$1" "$2"
    else
        diff -u "$2" "$1" || status=1
    fi
    shift 2
done
exit "$status"
