#!/usr/bin/env python3
"""Spread of every benchmark number over several seeds.

Usage:
    scripts/seed_spread.py BENCH_RUNNER [--seeds 2026,1,2,3,4,5]
                           [--quick] [--jobs N] [--out FILE] NAME...

Runs `BENCH_RUNNER [--quick] --jobs N --seed S --out-dir TMP NAME...`
once per seed S, each into its own temporary directory, and writes one
JSON document (BENCH_spread.json in the working directory unless
--out says otherwise):

    {"schema": "fasttts-spread-v1", "seeds": [2026, 1, ...],
     "quick": false, "benchmarks": {NAME: {LEAF: {"values": [...],
     "mean": M, "min": LO, "max": HI}}}}

LEAF is a numeric leaf's path inside BENCH_<NAME>.json, written as
scripts/compare_bench.py prints it (budgets/0.25x/slo_attainment;
list items by index). "values" holds one entry per seed, in seed
order. A leaf missing from some seed's document is left out. The
committed single-seed baselines are not touched.

Exit status: 0 on success, 1 when a bench_runner run fails, 2 on bad
usage or unreadable output.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

DEFAULT_SEEDS = [2026, 1, 2, 3, 4, 5]


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numeric_leaves(node, path, out):
    """Append (path, value) for every number under node."""
    if isinstance(node, dict):
        for key, child in node.items():
            numeric_leaves(child, f"{path}/{key}" if path else key, out)
    elif isinstance(node, list):
        for index, child in enumerate(node):
            numeric_leaves(child, f"{path}/{index}" if path else str(index),
                           out)
    elif is_number(node):
        out.append((path, node))
    return out


def parse_seeds(text):
    try:
        seeds = [int(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--seeds expects comma-separated integers, got '{text}'")
    if not seeds or any(seed < 0 for seed in seeds):
        raise argparse.ArgumentTypeError(
            f"--seeds expects non-negative integers, got '{text}'")
    return seeds


def run_seed(runner, seed, names, quick, jobs, out_dir):
    """Run bench_runner at one seed; return {name: document}."""
    command = [runner, "--jobs", str(jobs), "--seed", str(seed),
               "--out-dir", out_dir]
    if quick:
        command.append("--quick")
    result = subprocess.run(command + names, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, check=False)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise RuntimeError(
            f"{' '.join(command + names)} exited {result.returncode}")
    docs = {}
    for name in names:
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        with open(path, encoding="utf-8") as handle:
            docs[name] = json.load(handle)
    return docs


def spread(per_seed_docs, names):
    """Per benchmark, per numeric leaf: values in seed order and their
    mean, min and max."""
    benchmarks = {}
    for name in names:
        leaves = {}
        order = []
        for docs in per_seed_docs:
            for path, value in numeric_leaves(docs[name], "", []):
                if path not in leaves:
                    leaves[path] = []
                    order.append(path)
                leaves[path].append(value)
        table = {}
        for path in order:
            values = leaves[path]
            if len(values) != len(per_seed_docs):
                continue
            table[path] = {
                "values": values,
                "mean": sum(values) / len(values),
                "min": min(values),
                "max": max(values),
            }
        benchmarks[name] = table
    return benchmarks


def main(argv):
    parser = argparse.ArgumentParser(
        description="Run bench_runner at several seeds and record the "
        "spread of every numeric leaf.")
    parser.add_argument("runner", help="path to the bench_runner binary")
    parser.add_argument("names", nargs="+", help="benchmark rows to run")
    parser.add_argument("--seeds", type=parse_seeds, default=DEFAULT_SEEDS,
                        help="comma-separated seeds (default: "
                        + ",".join(map(str, DEFAULT_SEEDS)) + ")")
    parser.add_argument("--quick", action="store_true",
                        help="pass --quick to bench_runner")
    parser.add_argument("--jobs", type=int, default=1,
                        help="bench_runner --jobs (default 1)")
    parser.add_argument("--out", default="BENCH_spread.json",
                        help="output path (default BENCH_spread.json)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    per_seed = []
    try:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(prefix="seed_spread_") as tmp:
                per_seed.append(run_seed(args.runner, seed, args.names,
                                         args.quick, args.jobs, tmp))
    except RuntimeError as err:
        print(f"seed_spread: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"seed_spread: {err}", file=sys.stderr)
        return 2

    document = {
        "schema": "fasttts-spread-v1",
        "seeds": args.seeds,
        "quick": args.quick,
        "benchmarks": spread(per_seed, args.names),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    leaves = sum(len(table) for table in document["benchmarks"].values())
    print(f"seed_spread: {len(args.names)} benchmark(s), {leaves} leaves "
          f"over {len(args.seeds)} seed(s) -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
