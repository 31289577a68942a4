#!/bin/sh
# Headless driver for the gated performance benchmarks: leaves
# BENCH_distribution.json / BENCH_trace.json / BENCH_vcs.json /
# BENCH_store.json / BENCH_fleet.json (BENCH_fleet_full.json at full
# scale) / BENCH_verify.json / BENCH_gatekeeper.json /
# BENCH_build.json in the repository root
# (plus _pack_demo/, a multi-thousand-commit pack repository for the
# CLI rollback demo).  Each experiment records its gates in its BENCH
# file's "gates" array and fails the run if an applicable gate does
# not pass, so the exit status is the verdict.
#
#   bench/run.sh          # full scale
#   bench/run.sh --quick  # reduced scale
set -eu
cd "$(dirname "$0")/.."

[ "$#" -eq 0 ] || [ "$*" = "--quick" ] || { echo "usage: bench/run.sh [--quick]" >&2; exit 2; }
dune exec bench/main.exe -- "$@" --only dist trace vcs store fleet verify gk build
