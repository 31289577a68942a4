#!/bin/sh
# The one gate a change must pass before landing: full build, the
# entire test suite (unit + property + examples + CLI smoke), and a
# reduced-scale benchmark run that shape-checks every BENCH_*.json
# artifact.  Mirrors what the paper calls the "sandcastle" CI step.
#
#   ci/check.sh
set -eu
cd "$(dirname "$0")/.."

echo "== ci/check: dune build =="
dune build

echo "== ci/check: dune runtest =="
dune runtest

echo "== ci/check: bench/run.sh --quick =="
bench/run.sh --quick

echo "== ci/check: fleet throughput floor =="
# The fleet bench's headline events/sec (top-level key in
# BENCH_fleet.json).  The quick cell does >1M events/s on a dev
# machine; 50k/s is the sandbagged floor that still catches an
# accidental return to per-member event streams.
eps=$(sed -n 's/^  "events_per_s": \([0-9]*\).*/\1/p' BENCH_fleet.json | head -n 1)
if [ -z "$eps" ]; then
  echo "ci/check: BENCH_fleet.json missing events_per_s" >&2
  exit 1
fi
if [ "$eps" -lt 50000 ]; then
  echo "ci/check: fleet events/sec too low: $eps < 50000" >&2
  exit 1
fi
echo "fleet events/sec: $eps (floor 50000)"

echo "== ci/check: verify-stage escape ceiling =="
# The verify ablation must keep escaped incidents strictly below the
# no-verify baseline's 154/1500 (the quick run scales the threshold
# with its injection count, so the same keys gate both modes).
escaped=$(sed -n 's/^  "verify_escaped": \([0-9]*\).*/\1/p' BENCH_verify.json | head -n 1)
ceiling=$(sed -n 's/^  "escape_threshold": \([0-9]*\).*/\1/p' BENCH_verify.json | head -n 1)
if [ -z "$escaped" ] || [ -z "$ceiling" ]; then
  echo "ci/check: BENCH_verify.json missing verify_escaped/escape_threshold" >&2
  exit 1
fi
if [ "$escaped" -ge "$ceiling" ]; then
  echo "ci/check: verify-stage escapes not below baseline: $escaped >= $ceiling" >&2
  exit 1
fi
echo "verify-stage escapes: $escaped (ceiling $ceiling)"

echo "== ci/check: durable store gates =="
# The store bench self-asserts (it fails the whole bench run if a gate
# trips); re-check the recorded verdicts here so a silently stale
# BENCH_store.json can't pass: 50k-object recovery under its ceiling,
# O(1) rollback on a multi-thousand-commit history, GC reclaiming
# >= 90% of dead bytes, and the kill -9 sim detecting a torn tail and
# converging with the crash-free reference fleet.
for key in '"recovery_under_ceiling": true' '"rollback_o1_ok": true' \
           '"reclaim_ok": true' '"torn_tail_detected": true' \
           '"sim_converged": true'; do
  if ! grep -q "$key" BENCH_store.json; then
    echo "ci/check: BENCH_store.json missing $key" >&2
    exit 1
  fi
done
echo "store gates: recovery, rollback, gc reclaim, torn tail, convergence all true"

echo "== ci/check: CLI rollback demo =="
# Drive the generation log of the bench's multi-thousand-commit pack
# repository (_pack_demo, left behind by bench/run.sh) through the
# CLI verbs: list generations, roll back to an old one, confirm the
# rollback landed as a new pin.
if [ ! -d _pack_demo ]; then
  echo "ci/check: _pack_demo missing (bench store experiment did not run?)" >&2
  exit 1
fi
dune exec bin/configerator.exe -- generations --dir _pack_demo --limit 3
before=$(dune exec bin/configerator.exe -- generations --dir _pack_demo --limit 1 --json \
  | sed -n 's/.*"generation": \([0-9]*\).*/\1/p' | head -n 1)
dune exec bin/configerator.exe -- rollback --dir _pack_demo --generation 2
after=$(dune exec bin/configerator.exe -- generations --dir _pack_demo --limit 1 --json \
  | sed -n 's/.*"generation": \([0-9]*\).*/\1/p' | head -n 1)
if [ -z "$before" ] || [ -z "$after" ] || [ "$after" -le "$before" ]; then
  echo "ci/check: rollback did not pin a new generation ($before -> $after)" >&2
  exit 1
fi
echo "CLI rollback: generation $before -> $after"

echo "== ci/check: multicore gatekeeper gates =="
# The gk bench computes 1->4-domain scaling (measured on >=4-core
# hosts, efficiency-projected elsewhere — see bench/exp_gk.ml); a
# reader path that takes a lock convoys and lands far below the 1.8x
# floor either way.  The bools assert storm p99 <= 3x quiescent and
# update-visibility lag p99 <= 250ms.
scaling=$(sed -n 's/^  "scaling_4v1_x100": \([0-9]*\).*/\1/p' BENCH_gatekeeper.json | head -n 1)
if [ -z "$scaling" ]; then
  echo "ci/check: BENCH_gatekeeper.json missing scaling_4v1_x100" >&2
  exit 1
fi
if [ "$scaling" -lt 180 ]; then
  echo "ci/check: gk 1->4 domain scaling too low: ${scaling}/100 < 1.8x" >&2
  exit 1
fi
if ! grep -q '"p99_storm_ok": true' BENCH_gatekeeper.json; then
  echo "ci/check: gk storm p99 exceeded 3x quiescent" >&2
  exit 1
fi
if ! grep -q '"visibility_ok": true' BENCH_gatekeeper.json; then
  echo "ci/check: gk update-visibility lag exceeded bound" >&2
  exit 1
fi
echo "gk scaling: ${scaling}/100 (floor 180); storm p99 and visibility lag within bounds"

echo "== ci/check: multicore landing path gates =="
# The build bench sweeps the commit-to-land path (compile + verify +
# sandcastle) across 1/2/4 domains.  The 4-domain output must be
# bit-identical to the 1-domain output, and idle domains on a serial
# deep chain must stay cheap — on any host.  The 1.8x scaling floor
# applies only when the host actually has >= 4 cores ("measured"
# mode): compilation allocates, and on time-sliced cores every minor
# GC is a cross-domain barrier, so no honest projection exists
# (contrast gk, whose read path is allocation-free).
if ! grep -q '"equivalence_ok": true' BENCH_build.json; then
  echo "ci/check: build 4-domain run diverged from 1-domain run" >&2
  exit 1
fi
if ! grep -q '"chain_ok": true' BENCH_build.json; then
  echo "ci/check: build deep-chain pool overhead exceeded bound" >&2
  exit 1
fi
build_scaling=$(sed -n 's/^  "scaling_4v1_x100": \([0-9]*\).*/\1/p' BENCH_build.json | head -n 1)
if grep -q '"scaling_mode": "measured"' BENCH_build.json; then
  if [ -z "$build_scaling" ] || [ "$build_scaling" -lt 180 ]; then
    echo "ci/check: build 1->4 domain scaling too low: ${build_scaling:-?}/100 < 1.8x" >&2
    exit 1
  fi
  echo "build scaling: ${build_scaling}/100 (floor 180, measured)"
else
  echo "build scaling: ${build_scaling}/100 (under 4 cores, floor not applied)"
fi
if ! grep -q '"bounded_cache_ok": true' BENCH_build.json; then
  echo "ci/check: bounded compile cache failed to evict within its budget" >&2
  exit 1
fi
echo "build gates: equivalence, chain, bounded cache all ok"

echo "== ci/check: OK =="
