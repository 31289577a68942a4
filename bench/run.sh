#!/bin/sh
# Headless driver for the performance benchmarks: builds the harness
# and leaves BENCH_incremental.json / BENCH_distribution.json /
# BENCH_trace.json / BENCH_vcs.json / BENCH_store.json /
# BENCH_verify.json / BENCH_gatekeeper.json / BENCH_build.json in the
# repository root (plus _pack_demo/, a multi-thousand-commit pack
# repository for the CLI rollback demo).
#
#   bench/run.sh          # full scale: incr + dist + trace + vcs + store + fleet + verify + gk + build
#   bench/run.sh --quick  # reduced-scale dist/trace/vcs/store/fleet/verify/gk/build + JSON shape checks
set -eu
cd "$(dirname "$0")/.."
dune build bench/main.exe

check_shape() {
  file="$1"; shift
  for key in "$@"; do
    if ! grep -q "$key" "$file"; then
      echo "bench/run.sh: $file missing $key" >&2
      exit 1
    fi
  done
  echo "quick check passed: $file has the expected shape"
}

if [ "${1:-}" = "--quick" ]; then
  CM_DIST_QUICK=1 dune exec bench/main.exe -- --only dist
  check_shape BENCH_distribution.json \
    '"rows"' '"protocol"' '"noop_bytes_ratio"' '"steady_bytes_ratio"' \
    '"p99_legacy_s"' '"p99_optimized_s"' '"noop_callbacks"'
  CM_TRACE_QUICK=1 dune exec bench/main.exe -- --only trace
  check_shape BENCH_trace.json \
    '"hops"' '"within_tolerance"' '"coverage_monotone"' '"coverage_final"' \
    '"overhead_bytes"' '"e2e_p99_s"' '"hop_sum_over_e2e_p99"' '"e2e_identical"'
  CM_VCS_QUICK=1 dune exec bench/main.exe -- --only vcs
  check_shape BENCH_vcs.json \
    '"rows"' '"backend"' '"commit_1_s"' '"changed_since_s"' \
    '"flat_slowdown"' '"merkle_slowdown"' '"flat_degrades_10x": true' \
    '"merkle_flat": true' '"crossover_files"'
  CM_STORE_QUICK=1 dune exec bench/main.exe -- --only store
  check_shape BENCH_store.json \
    '"rows"' '"gc_rows"' '"recovery_50k_s"' '"recovery_under_ceiling": true' \
    '"rollback_o1_ok": true' '"reclaim_ok": true' \
    '"torn_tail_detected": true' '"sim_converged": true'
  CM_FLEET_QUICK=1 dune exec bench/main.exe -- --only fleet
  check_shape BENCH_fleet.json \
    '"rows"' '"servers"' '"devices"' '"events_per_s"' '"p99_s"' \
    '"noop_callbacks": 0' '"pv_completed_weight"' '"headline_wall_s"'
  CM_VERIFY_QUICK=1 dune exec bench/main.exe -- --only verify
  check_shape BENCH_verify.json \
    '"baseline_escaped"' '"verify_escaped"' '"escape_threshold"' \
    '"escapes_below_threshold": true' '"escapes_below_baseline": true' \
    '"baseline_rows"' '"verify_rows"' '"e2e_caught_at": "verify"' \
    '"e2e_verdicts_on_review": true'
  CM_GK_QUICK=1 dune exec bench/main.exe -- --only gk
  check_shape BENCH_gatekeeper.json \
    '"rows"' '"scaling_mode"' '"scaling_4v1_x100"' '"scaling_ok": true' \
    '"p99_storm_ok": true' '"visibility_ok": true' '"snapshot_swaps"' \
    '"laser_generation"' '"exposures_recorded"'
  CM_BUILD_QUICK=1 dune exec bench/main.exe -- --only build
  check_shape BENCH_build.json \
    '"rows"' '"scaling_mode"' '"scaling_4v1_x100"' '"scaling_ok": true' \
    '"chain_ok": true' '"equivalence_ok": true' '"bounded_cache_ok": true'
else
  dune exec bench/main.exe -- --only incr dist trace vcs store fleet verify gk build
fi
