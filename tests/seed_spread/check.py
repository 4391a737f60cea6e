#!/usr/bin/env python3
"""Check scripts/seed_spread.py end to end on one quick row.

Usage:
    tests/seed_spread/check.py BENCH_RUNNER

Runs the script on `--quick micro` at seeds 2026 and 1 and checks the
document it writes: the schema and seeds, one value per seed for every
leaf, mean/min/max consistent with the values, the seed itself among
the leaves, and at least one simulated number that moved between the
seeds (so the seed reached the run). Exit 0 on success, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "..", "scripts", "seed_spread.py")


def fail(message):
    print(f"FAIL: {message}")
    return 1


def main(runner):
    with tempfile.TemporaryDirectory(prefix="seed_spread_check_") as tmp:
        out = os.path.join(tmp, "BENCH_spread.json")
        result = subprocess.run(
            [sys.executable, SCRIPT, runner, "--quick", "--seeds", "2026,1",
             "--out", out, "micro"],
            capture_output=True, text=True, check=False)
        if result.returncode != 0:
            return fail(f"seed_spread exited {result.returncode}: "
                        f"{result.stderr}")
        with open(out, encoding="utf-8") as handle:
            doc = json.load(handle)

    if doc.get("schema") != "fasttts-spread-v1":
        return fail(f"schema {doc.get('schema')!r}")
    if doc.get("seeds") != [2026, 1] or doc.get("quick") is not True:
        return fail(f"seeds {doc.get('seeds')!r}, quick {doc.get('quick')!r}")
    table = doc.get("benchmarks", {}).get("micro")
    if not table:
        return fail("no leaves for micro")
    for path, leaf in table.items():
        values = leaf["values"]
        if len(values) != 2:
            return fail(f"{path}: {len(values)} values for 2 seeds")
        if leaf["min"] != min(values) or leaf["max"] != max(values):
            return fail(f"{path}: min/max disagree with {values}")
        if abs(leaf["mean"] - sum(values) / 2) > 1e-9 * max(1.0, abs(
                leaf["mean"])):
            return fail(f"{path}: mean disagrees with {values}")
    if table.get("config/seed", {}).get("values") != [2026, 1]:
        return fail(f"config/seed is {table.get('config/seed')!r}")
    moved = [path for path, leaf in table.items()
             if path != "config/seed" and leaf["min"] != leaf["max"]]
    if not moved:
        return fail("no simulated number differs between the seeds")
    print(f"OK: {len(table)} leaves, {len(moved)} moved between seeds")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
