#!/usr/bin/env bash
# Run the FastTTS figure benchmark suite and emit BENCH_<fig>.json files.
#
# Usage:
#   scripts/run_benchmarks.sh [--quick] [--jobs N] [--build-dir DIR]
#                             [--out-dir DIR] [name...]
#
# Configures and builds the bench_runner target if the build directory
# does not contain it yet, then runs the requested benchmarks (all 22
# by default). --quick shrinks each benchmark so the whole suite
# finishes in seconds; --jobs N runs benchmarks on N threads
# (bit-identical output to --jobs 1); extra positional names select a
# subset (see bench_runner --list). Every run also writes
# BENCH_harness.json with per-benchmark wall-clock timings.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build"
out_dir="${repo_root}/bench-results"
runner_args=()

while [[ $# -gt 0 ]]; do
    case "$1" in
    --quick)
        runner_args+=(--quick)
        shift
        ;;
    --jobs)
        runner_args+=(--jobs "$2")
        shift 2
        ;;
    --build-dir)
        build_dir="$2"
        shift 2
        ;;
    --out-dir)
        out_dir="$2"
        shift 2
        ;;
    --help | -h)
        sed -n '2,14p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'
        exit 0
        ;;
    *)
        runner_args+=("$1")
        shift
        ;;
    esac
done

runner="${build_dir}/bench/bench_runner"
if [[ ! -x ${runner} ]]; then
    echo "-- bench_runner not built yet; building in ${build_dir}" >&2
    cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
    cmake --build "${build_dir}" --target bench_runner -j >/dev/null
fi

mkdir -p "${out_dir}"
"${runner}" --out-dir "${out_dir}" "${runner_args[@]+"${runner_args[@]}"}"
echo "-- benchmark results in ${out_dir}"
