#!/usr/bin/env bash
# Scheduler stress: the interleaved online server under ASan+UBSan.
#
# Usage:
#   scripts/stress_online.sh [--build-dir DIR] [--requests N]
#                            [--max-inflight K]
#
# Configures a sanitizer build (FASTTTS_SANITIZE=address), builds the
# online-responsiveness bench, and serves a heavy-tailed (bursty)
# 512-request trace with 8 requests in flight, continuously batched on
# the engine's own KV budget, under each of two admission policies —
# sjf (queue reordering) and priority (aging) — so races, lifetime bugs
# and leaks in the fused-wave machinery cannot land silently. A third
# pass runs EDF with doomed-request shedding under a tight shared KV
# budget (--kv-budget 0.5), fusing decode across requests while the
# ledger benches and lazily restores batch members. A fourth pass turns
# the cross-request prefix cache on (--prefix-cache on) under the same
# tight budget, so radix-index insert/split/evict and pin/release race
# against benching and forced eviction. A fifth pass injects
# deterministic wave-step faults at 5% with retries (--faults plan
# --retry-max 3), so the abort/refund/re-admit machinery — cancel
# mid-wave, prefix-pin release, ledger refund, backoff re-queue —
# churns under the sanitizers too. The bench exits 1 when a defensive
# hang-guard exit fired, so a pass that stalls the simulation fails the
# script too.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-stress"
requests=512
max_inflight=8

while [[ $# -gt 0 ]]; do
    case "$1" in
    --build-dir)
        build_dir="$2"
        shift 2
        ;;
    --requests)
        requests="$2"
        shift 2
        ;;
    --max-inflight)
        max_inflight="$2"
        shift 2
        ;;
    --help | -h)
        sed -n '2,25p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'
        exit 0
        ;;
    *)
        echo "unknown option: $1 (see --help)" >&2
        exit 2
        ;;
    esac
done

echo "-- configuring sanitizer build in ${build_dir}"
cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Debug -DFASTTTS_SANITIZE=address >/dev/null
cmake --build "${build_dir}" --target bench_online_responsiveness \
    -j >/dev/null

export ASAN_OPTIONS="${ASAN_OPTIONS:-strict_string_checks=1:detect_stack_use_after_return=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"

bench="${build_dir}/bench/bench_online_responsiveness"
for policy in sjf priority; do
    echo "-- stress: ${requests} bursty requests, K=${max_inflight}," \
        "policy=${policy} (beams shrunk for sanitizer wall time)"
    "${bench}" --problems "${requests}" --beams 4 --dataset AMC \
        --arrivals bursty --policy "${policy}" \
        --max-inflight "${max_inflight}" --slo 2000 >/dev/null
done

# Memory storm: EDF with shedding under a deliberately tight shared
# budget, so batch members are benched (force-evicted) and lazily
# restored while other members keep decoding in fused waves.
echo "-- stress: ${requests} bursty requests, K=${max_inflight}," \
    "policy=edf, kv-budget=0.5 GiB, shed-doomed"
"${bench}" --problems "${requests}" --beams 4 --dataset AMC \
    --arrivals bursty --policy edf \
    --kv-budget 0.5 --shed-doomed \
    --max-inflight "${max_inflight}" --slo 2000 >/dev/null

# Prefix-cache storm: cross-request prefix caching on top of the
# memory storm, so radix-index insert/split/LRU-evict and prefix
# pin/release race against benching and forced eviction under the same
# tight shared budget.
echo "-- stress: ${requests} bursty requests, K=${max_inflight}," \
    "policy=edf, prefix-cache=on, kv-budget=0.5 GiB, shed-doomed"
"${bench}" --problems "${requests}" --beams 4 --dataset AMC \
    --arrivals bursty --policy edf \
    --prefix-cache on --kv-budget 0.5 --shed-doomed \
    --max-inflight "${max_inflight}" --slo 2000 >/dev/null

# Fault-injection storm: deterministic 5% wave-step faults with a
# retry budget on top of the memory storm, so injected aborts (cancel
# mid-wave, ledger refund, prefix-pin release) and backed-off
# re-admissions race the benching/restore machinery.
echo "-- stress: ${requests} bursty requests, K=${max_inflight}," \
    "policy=edf, faults=plan (5% wave_step), retry-max=3," \
    "kv-budget=0.5 GiB, shed-doomed"
"${bench}" --problems "${requests}" --beams 4 --dataset AMC \
    --arrivals bursty --policy edf --faults plan \
    --fault-plan '{"rules": [{"site": "wave_step", "rate": 0.05}]}' \
    --retry-max 3 --kv-budget 0.5 --shed-doomed \
    --max-inflight "${max_inflight}" --slo 2000 >/dev/null

echo "-- scheduler stress passed (ASan+UBSan clean)"
