#!/usr/bin/env python3
"""Run scripts/compare_bench.py on two fixture directories and check it.

Usage:
    tests/compare_bench/expect.py EXIT_CODE NEEDLE OLD_DIR NEW_DIR

Passes when compare_bench exits with EXIT_CODE and its stdout contains
NEEDLE (an empty NEEDLE matches anything).
"""

import os
import subprocess
import sys


def main():
    expected, needle, old_dir, new_dir = sys.argv[1:]
    script = os.path.join(os.path.dirname(__file__), "..", "..",
                          "scripts", "compare_bench.py")
    proc = subprocess.run([sys.executable, script, old_dir, new_dir],
                          capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout + proc.stderr)
    if proc.returncode != int(expected):
        print(f"expected exit {expected}, got {proc.returncode}")
        return 1
    if needle not in proc.stdout:
        print(f"expected {needle!r} in the output")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
