#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark program is built from source
(CMake, Release) under $CARGO_TARGET_DIR, or .bench_build when that is
unset, and then run once. Its standard output is passed through; the
last line is one JSON object with the keys correct, attempted, failed
and metrics. Traced runs also write their spans as Chrome trace-event
JSON next to the build (perfbench-trace-<workload>.json).

Exit status: the program's own (1 when a correctness check failed), or
2 when the sources are missing, the build fails or the output is not a
result carrying exactly the metrics BENCHMARK.json names.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The program's own runs last --seconds plus set-up, one replay and
# the final checks; the limit only catches a hung process.
RUN_SLACK_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then (re)build; a lock serialises concurrent runs."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            step = subprocess.run(configure, stdout=sys.stderr)
            if step.returncode != 0:
                fail("configure failed")
        step = subprocess.run(
            ["cmake", "--build", str(build_dir), "--target", "perfbench",
             "--parallel", "4"],
            stdout=sys.stderr)
        if step.returncode != 0:
            fail("build failed")
    return build_dir / "perfbench"


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if args.seconds < 1:
        fail("--seconds must be at least 1")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "perfbench")

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    str(target / f"perfbench-trace-{args.workload}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)

    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result does not have exactly the four keys")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected_metrics(args.trace):
        fail("the metrics printed differ from BENCHMARK.json")
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
