#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, in order:
  1. expected.tsv agrees with the committed goldens: every Fig. 19 grid
     point of tests/golden/export_results.json exactly, and every
     speedup of tests/golden/fig19_lergan_vs_prime.txt to its 2 decimals;
  2. a short untraced run is correct and prints every end-to-end metric
     of BENCHMARK.json with its unit, in the table and in the JSON line;
  3. a copy of expected.tsv with one value corrupted makes the output
     check fail (correct = false, failed > 0);
  4. a short traced run prints every per-layer metric and writes spans;
  5. a directory holding only BENCHMARK.json and perfbench/ makes the
     benchmark exit non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(message):
    sys.exit(f"selftest: FAIL: {message}")


def load_expected(path):
    table = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            bench, config, ms, mj = line.split("\t")
            table[(bench, config)] = (float(ms), float(mj))
    return table


def check_against_goldens():
    expected = load_expected(HERE / "expected.tsv")
    golden = ROOT / "tests" / "golden"
    labels = {"lergan-low": "low", "lergan-middle": "middle",
              "lergan-high": "high", "prime": "prime"}
    points = json.loads((golden / "export_results.json").read_text())
    for point in points:
        key = (point["benchmark"], labels[point["config"]])
        want = (point["ms_per_iteration"], point["mj_per_iteration"])
        if expected.get(key) != want:
            fail(f"expected.tsv {key} = {expected.get(key)}, "
                 f"export golden {want}")
    rows = 0
    for line in (golden / "fig19_lergan_vs_prime.txt").read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 5 or cells[0] in ("benchmark", "MEAN") \
                or cells[0].startswith("-"):
            continue
        rows += 1
        prime = expected[(cells[0], "prime")][0]
        for label, shown in zip(("low", "middle", "high", "low-NS"),
                                cells[1:]):
            speedup = f"{prime / expected[(cells[0], label)][0]:.2f}x"
            if speedup != shown:
                fail(f"{cells[0]}/{label}: speedup {speedup}, "
                     f"fig19 golden {shown}")
    if len(points) != 32 or rows != 8:
        fail(f"goldens hold {len(points)} export points and {rows} fig19 "
             "rows (want 32 and 8)")
    print("ok: expected.tsv matches the export and fig19 goldens")


def run(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, *args], cwd=cwd,
                         capture_output=True, text=True)
    return out.returncode, out.stdout


def bench(workload, trace, *extra):
    code, stdout = run(str(HERE / "run.py"), "--workload", workload,
                       "--seed", "7", "--seconds", "1", "--trace",
                       str(trace), *extra)
    if code != 0:
        fail(f"{workload} --trace {trace} exited {code}")
    lines = stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(lines, result, specs, what):
    for spec in specs:
        metric = result["metrics"].get(spec["name"])
        if metric is None or metric["unit"] != spec["unit"]:
            fail(f"{what}: {spec['name']} missing or not in {spec['unit']}")
        row = next((l for l in lines if l.split()[:1] == [spec["name"]]),
                   None)
        if row is None or spec["unit"] not in row.split():
            fail(f"{what}: no '{spec['name']} ... {spec['unit']}' row")
    if set(result["metrics"]) != {s["name"] for s in specs}:
        fail(f"{what}: metrics other than BENCHMARK.json's")


def main():
    check_against_goldens()

    lines, result = bench("fig19-warm", 0)
    if not result["correct"] or result["failed"] or not result["attempted"]:
        fail(f"short run not clean: {lines[-1]}")
    check_metrics(lines, result, SPEC["end_to_end"], "untraced run")
    print(f"ok: short run prints all {len(SPEC['end_to_end'])} "
          "end-to-end metrics with units")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    corrupt = SCRATCH / "expected-corrupt.tsv"
    text = (HERE / "expected.tsv").read_text().splitlines()
    for i, line in enumerate(text):
        if line.startswith("DCGAN\thigh\t"):
            bench_name, config, ms, mj = line.split("\t")
            text[i] = "\t".join((bench_name, config,
                                 repr(float(ms) * 1.001), mj))
    corrupt.write_text("\n".join(text) + "\n")
    lines, result = bench("fig19-warm", 0, "--expected", str(corrupt))
    if result["correct"] or result["failed"] == 0:
        fail(f"corrupted expected value went unnoticed: {lines[-1]}")
    print(f"ok: a corrupted expected value fails the check "
          f"({result['failed']} of {result['attempted']} points)")

    lines, result = bench("fig19-observed", 1)
    if not result["correct"]:
        fail(f"traced run not clean: {lines[-1]}")
    check_metrics(lines, result, SPEC["per_layer"], "traced run")
    spans = ROOT / ".bench_build" / "spans" / "fig19-observed-seed7.ndjson"
    if not spans.is_file() or len(spans.read_text().splitlines()) < 2:
        fail(f"traced run wrote no spans to {spans}")
    print(f"ok: traced run prints all {len(SPEC['per_layer'])} per-layer "
          "metrics and writes its spans")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench")
    code, stdout = run("perfbench/run.py", "--workload", "fig19-warm",
                       "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=bare)
    if code == 0 or '"correct"' in stdout:
        fail("the benchmark ran without the simulator's sources")
    shutil.rmtree(bare)
    print("ok: without the sources the benchmark exits non-zero, no result")


if __name__ == "__main__":
    main()
