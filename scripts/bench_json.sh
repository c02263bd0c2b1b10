#!/usr/bin/env bash
# Run the google-benchmark suites and record machine-readable results,
# seeding the repo's performance trajectory.
#
#   scripts/bench_json.sh [build-dir] [benchmark-filter]
#
# Writes BENCH_propagation.json and BENCH_service.json (google-benchmark
# JSON) under the build directory; nothing is written into the worktree.
# With a filter, a suite in which it matches no benchmark is skipped.  The
# interesting counters:
#   * BM_MineGuidance .../mode:1 — expression sweeps per mine
#     (sweeps_per_mine) and wall time of the compiled-AD miner with a cold
#     cache (Θ(nc) sweeps);
#   * mode:2 — the miner over an unchanged box (generation-keyed cache hit,
#     the repeated-refresh steady state);
#   * mode:3 — a violated state with a cold cache: sweeps_per_mine and
#     whatif_evals_per_mine include the what-if propagations;
#   * BM_PropagationFixpoint / BM_Hc4Revise — the zero-allocation hot path;
#   * warm:0 / warm:1 on every propagating series (BM_PropagationFixpoint,
#     BM_PropagationSinglePass, BM_WhatIfRelaxed, BM_MinerFullPass,
#     BM_PropagationGeneratedSweep, BM_MineGuidance mode:3) — revise traces
#     forgotten before each iteration (every revise sweeps) or kept (the
#     repeated box replays); replayed_per_run counts the replays;
#   * BM_ServiceFleet workers:-1/1/2/4 — ops_per_sec and sessions_per_sec
#     of the in-process session service, client side included (one driver
#     thread and shadow manager per session, so δ runs on both the session
#     and its shadow); the 4-vs-1 worker ratio is the scaling claim (needs
#     >1 hardware thread to mean anything).
#
# The wire fleet and restart recovery are measured by perfbench
# (`perfbench/run.py --workload wire-sensing` / `restart-recover`), which
# records a host fingerprint and repetitions.
#
# Numbers from a Debug, sanitizer, or fault-injection build are
# meaningless; the script refuses those configurations with exit 1.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
filter="${2:-}"

cache="$build/CMakeCache.txt"
if [ ! -f "$cache" ]; then
  echo "error: $cache not found (configure the build first: cmake -B $build)" >&2
  exit 1
fi

cache_val() {
  sed -n "s/^$1:[A-Z]*=//p" "$cache" | head -n1
}

build_type="$(cache_val CMAKE_BUILD_TYPE)"
untrusted_reasons=()
case "$build_type" in
  # An empty cache entry means the project default, which CMakeLists.txt
  # pins to RelWithDebInfo.
  ""|Release|RelWithDebInfo|MinSizeRel) ;;
  *) untrusted_reasons+=("CMAKE_BUILD_TYPE='$build_type' is not an optimized build") ;;
esac
for opt in ADPM_SANITIZE ADPM_TSAN ADPM_FAULT_INJECTION; do
  case "$(cache_val "$opt")" in
    ON|TRUE|1|YES) untrusted_reasons+=("$opt is ON") ;;
  esac
done

if [ "${#untrusted_reasons[@]}" -gt 0 ]; then
  echo "error: benchmark numbers from $build are NOT trustworthy:" >&2
  for reason in "${untrusted_reasons[@]}"; do
    echo "  - $reason" >&2
  done
  echo "refusing to run; configure a Release build without sanitizers or fault injection" >&2
  exit 1
fi

run_suite() {
  local bench="$1" out="$2"
  if [ ! -x "$bench" ]; then
    echo "error: $bench not built (cmake --build $build)" >&2
    exit 1
  fi
  local args=(--benchmark_format=json --benchmark_out="$out"
              --benchmark_out_format=json)
  if [ -n "$filter" ]; then
    if [ -z "$("$bench" --benchmark_list_tests "--benchmark_filter=$filter" 2>/dev/null)" ]; then
      echo "skipping $(basename "$bench"): filter '$filter' matches no benchmark"
      return 0
    fi
    args+=("--benchmark_filter=$filter")
  fi
  "$bench" "${args[@]}"
  # The cache checks above cover *our* flags; the JSON context records how
  # the google-benchmark library itself was packaged, which they cannot see.
  # A debug libbenchmark inflates harness overhead even under -O2 project
  # code, so surface it rather than letting the context field pass silently.
  if grep -q '"library_build_type": "debug"' "$out"; then
    echo "warning: $out: the installed google-benchmark library is a debug" >&2
    echo "build (context.library_build_type); absolute timings include" >&2
    echo "un-optimized harness overhead even though the benchmarked code" >&2
    echo "is optimized — compare series within this file only" >&2
  fi
  echo "wrote $out"
}

run_suite "$build/bench/bench_propagation" "$build/BENCH_propagation.json"
run_suite "$build/bench/bench_service" "$build/BENCH_service.json"
