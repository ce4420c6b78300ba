#!/usr/bin/env python3
"""Build and run the LerGAN simulator benchmark.

    python3 perfbench/run.py --workload fig19-warm --seed 1 --seconds 10 --trace 0

Builds the perfbench CMake project (the simulator's libraries from src/
plus the program in this directory) into .bench_build/perfbench at the
root of the checkout, then makes one measurement. Build output goes to
standard error; the last line of standard output is the JSON result.
The traced run (--trace 1) also writes its spans to
.bench_build/spans/<workload>-seed<seed>.ndjson. See README.md here.
"""

import argparse
import hashlib
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
WORKLOADS = ("fig19-cold", "fig19-warm", "fig19-observed", "batch-scale")
JOBS = "4"


def build():
    """Configure once, then (re)build; return the perfbench binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no simulator sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", JOBS],
                   stdout=sys.stderr, check=True)
    return BUILD / "perfbench"


def source_id():
    """The commit when the checkout is a git repository, else a digest
    of the sources the binary is built from."""
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        if rev.returncode == 0:
            return rev.stdout.strip()
    digest = hashlib.sha1()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=str(HERE / "expected.tsv"),
                        help="expected-value table (the self-test passes "
                             "a corrupted copy)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--expected", args.expected,
               "--commit", source_id()]
    if args.trace:
        spans = BUILD_ROOT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans",
                    str(spans / f"{args.workload}-seed{args.seed}.ndjson")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
