#!/usr/bin/env python3
"""Show which benchmark numbers moved between two bench_runner runs.

Usage:
    scripts/compare_bench.py OLD_DIR NEW_DIR

Compares every BENCH_<name>.json in the two directories except
BENCH_harness.json, whose wall times differ on every run
(scripts/compare_harness.py gates those). A file present on one side
only is listed. For a file whose bytes differ, every changed JSON
leaf is printed with its path inside the document (for example
budgets/0.25x/policy/slo_attainment), the old and new value and, for
numbers, the relative change; added and removed keys are printed
too. When the values agree but the bytes differ (key order or number
formatting), the file is still reported.

Exit status: 0 when every file is byte-identical, 1 when anything
differs, 2 on unreadable input.
"""

import argparse
import json
import os
import sys

HARNESS = "BENCH_harness.json"


class Unreadable(Exception):
    """A directory or file that cannot be listed, read or parsed."""


def bench_files(directory):
    try:
        names = os.listdir(directory)
    except OSError as err:
        raise Unreadable(f"cannot list {directory}: {err}") from err
    return {
        name
        for name in names
        if name.startswith("BENCH_") and name.endswith(".json")
        and name != HARNESS
    }


def read_bytes(path):
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as err:
        raise Unreadable(f"cannot read {path}: {err}") from err


def parse(path, data):
    try:
        return json.loads(data)
    except ValueError as err:
        raise Unreadable(f"cannot parse {path}: {err}") from err


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def same(old, new):
    if is_number(old) and is_number(new):
        return old == new
    return type(old) is type(new) and old == new


def show(value):
    return json.dumps(value, sort_keys=True)


def changed_leaf(path, old, new):
    line = f"{path}: {show(old)} -> {show(new)}"
    if is_number(old) and is_number(new):
        if old != 0:
            line += f" ({(new - old) / abs(old):+.2%})"
        else:
            line += " (was 0)"
    return line


def diff(old, new, path, lines):
    """Append one line per changed leaf, added key or removed key."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key, value in old.items():
            sub = f"{path}/{key}" if path else key
            if key in new:
                diff(value, new[key], sub, lines)
            else:
                lines.append(f"removed {sub}: {show(value)}")
        for key, value in new.items():
            if key not in old:
                sub = f"{path}/{key}" if path else key
                lines.append(f"added {sub}: {show(value)}")
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for index, (a, b) in enumerate(zip(old, new)):
            diff(a, b, f"{path}/{index}" if path else str(index), lines)
    elif not same(old, new):
        lines.append(changed_leaf(path or "(document)", old, new))


def compare(old_dir, new_dir):
    """Print what differs; return True when every file is identical."""
    old_files = bench_files(old_dir)
    new_files = bench_files(new_dir)
    if not old_files and not new_files:
        raise Unreadable(f"no BENCH_<name>.json in {old_dir} or {new_dir}")
    identical = True
    for name in sorted(old_files - new_files):
        print(f"{name}: only in {old_dir}")
        identical = False
    for name in sorted(new_files - old_files):
        print(f"{name}: only in {new_dir}")
        identical = False

    common = sorted(old_files & new_files)
    for name in common:
        old_path = os.path.join(old_dir, name)
        new_path = os.path.join(new_dir, name)
        old_bytes = read_bytes(old_path)
        new_bytes = read_bytes(new_path)
        if old_bytes == new_bytes:
            continue
        identical = False
        lines = []
        diff(parse(old_path, old_bytes), parse(new_path, new_bytes), "",
             lines)
        if not lines:
            print(f"{name}: values agree, bytes differ "
                  "(key order or formatting)")
        for line in lines:
            print(f"{name}: {line}")

    if identical:
        print(f"compare_bench: {len(common)} file(s) byte-identical")
    else:
        print("compare_bench: benchmark output differs", file=sys.stderr)
    return identical


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare the BENCH_<name>.json files of two "
        "bench_runner output directories."
    )
    parser.add_argument("old_dir", help="reference output directory")
    parser.add_argument("new_dir", help="output directory to check")
    args = parser.parse_args(argv)
    try:
        return 0 if compare(args.old_dir, args.new_dir) else 1
    except Unreadable as err:
        print(f"compare_bench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
