#!/bin/sh
# Headless driver for the performance benchmarks: leaves
# BENCH_incremental.json / BENCH_distribution.json / BENCH_trace.json /
# BENCH_vcs.json / BENCH_store.json / BENCH_fleet.json /
# BENCH_verify.json / BENCH_gatekeeper.json / BENCH_build.json in the
# repository root (plus _pack_demo/, a multi-thousand-commit pack
# repository for the CLI rollback demo).  Each gated experiment
# records its gates in its BENCH file's "gates" array and fails the
# run if an applicable gate does not pass, so the exit status is the
# verdict.
#
#   bench/run.sh          # full scale: incr + dist + trace + vcs + store + fleet + verify + gk + build
#   bench/run.sh --quick  # reduced-scale dist/trace/vcs/store/fleet/verify/gk/build
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--quick" ]; then
  dune exec bench/main.exe -- --quick --only dist trace vcs store fleet verify gk build
else
  dune exec bench/main.exe -- --only incr dist trace vcs store fleet verify gk build
fi
