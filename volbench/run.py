#!/usr/bin/env python3
"""Build and run the volcal benchmark.

    python3 volbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 volbench/run.py --self-test

Run from the repository root.  The first call configures and builds
volbench/ (which compiles the library from ../src) in Release into
.bench_build/volbench; later calls rebuild only what changed.  The benchmark
binary prints a metric table and, as its last line, one JSON result object;
this script passes that through after checking that the metrics it names are
exactly the ones BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1), with the same units.

Exit codes: 0 correct result; 1 the benchmark found a wrong output; 2 the
build or the run failed (no result line is printed); 3 the result line does
not match BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "volbench")
OUT = ".bench_out"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print(f"volbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to volbench/")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4", "--target", target],
    ]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, target)


def check_result(line, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the contract"
    got = result["metrics"]
    if [m["name"] for m in want] != list(got):
        return "metric names differ from BENCHMARK.json"
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            return f"unit of {m['name']} differs from BENCHMARK.json"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)

    if args.self_test:
        binary = build("volbench_test")
        sys.exit(subprocess.run([binary]).returncode)

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    binary = build("volbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write("".join(l + "\n" for l in lines if not l.startswith("{")))
        fail(f"benchmark exited with code {proc.returncode} and no result")
    problem = check_result(lines[-1], args.trace == 1)
    if problem is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem, code=3)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
