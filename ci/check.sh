#!/bin/sh
# The one gate a change must pass before landing: full build, the
# entire test suite (unit + property + examples + the CLI verbs
# check/compile/deps/affected/verify/whereis/gk-check over
# examples/configs, generations refusing a non-pack directory, check
# over a tree with a directory link cycle), a
# reduced-scale benchmark run whose experiments fail on their own
# gates (recorded in each BENCH_*.json "gates" array), the perfbench
# determinism check, and the CLI rollback demo.  Mirrors what the
# paper calls the "sandcastle" CI step.
#
#   ci/check.sh
set -eu
cd "$(dirname "$0")/.."

echo "== ci/check: dune build =="
dune build

echo "== ci/check: dune runtest =="
dune runtest

echo "== ci/check: bench/run.sh --quick =="
# A failed gate fails the check, but only at the end: the steps below
# still run, so one failure does not hide the others.
bench_status=0
bench/run.sh --quick || bench_status=$?

echo "== ci/check: perfbench determinism =="
# perfbench/cfgbench.ml replays Pipeline.propose stage by stage to time
# each layer; fail if that traced replay stops matching the untraced
# pipeline's counts or HEAD tree, or one seed stops repeating.  It runs
# after the quick benches so their wall-clock gates see the host as
# they did before this step existed.  fleet_rollout (200 servers)
# drives the Zeus write and proxy path hardest.
python3 perfbench/run.py --determinism --workload leaf_edit
python3 perfbench/run.py --determinism --workload cone_edit
python3 perfbench/run.py --determinism --workload fleet_rollout

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

if [ "$bench_status" -ne 0 ]; then
  echo "ci/check: bench/run.sh --quick failed (exit $bench_status); its failed gates are listed above" >&2
  exit 1
fi
echo "== ci/check: OK =="
