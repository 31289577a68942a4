#!/usr/bin/env python3
"""The config-change benchmark: one command, three workloads.

Run from the repository root:

  python3 perfbench/run.py --workload leaf_edit --seed 1 --seconds 45 --trace 0
  python3 perfbench/run.py --workload cone_edit --seed 1 --seconds 45 --trace 1
  python3 perfbench/run.py --workload cone_edit --steadiness 10 --seconds 45
  python3 perfbench/run.py --determinism

It builds perfbench/cfgbench.exe with dune, then runs rounds of the
workload until --seconds have passed (at least MIN_ROUNDS).  A round is
one fresh process: set-up, a fixed number of changes, output checks.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the host, the
workload's rationale and the checks.

--trace 0 reports the end-to-end metrics, measured untraced.  Their host
timings are the round process's CPU time (user + system): the stack runs
in one domain on an in-memory store and never sleeps, so CPU time is what
set-up and a change cost, and time a shared host keeps the process off its
cores does not count.  The host block gives the rounds' CPU time as a
share of their wall time.  --trace 1 reports the per-layer metrics of a
traced replay that runs in lockstep with an untraced run of the same
seed, both on the wall clock.  --steadiness N runs N seeds and
prints each end-to-end metric's median, quartiles and spread next to its
bound in BENCHMARK.json.  --determinism checks that one seed repeats every
simulated and counted metric exactly and that another seed does not.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "cfgbench.exe")
OUT = os.path.join("perfbench", "_out")
MIN_ROUNDS = 3  # set-up time is the median over rounds
LAST_START_S = 120  # no round starts later than this after the build...
DEADLINE_S = 170  # ...and every round ends by this: a run must exit within 180 s
WINDOW = 10  # changes per changes_per_s window

WORKLOADS = {
    "leaf_edit": {
        "why": "A tool rewrites one leaf config nothing imports, canary skipped, in a "
        "2000-config tree of 500-file directories: per-change fixed costs (clone, "
        "review/risk, Repo.commit, tailer poll) dominate and compile does almost "
        "nothing (paper Fig. 13).",
        "load": "closed loop, one author; 300 changes per round; 24 servers each "
        "subscribed to 16 of 64 hot leaves and 2 Gatekeeper projects",
    },
    "cone_edit": {
        "why": "A human edits one of 8 shared .cinc modules of 2000 configs, with "
        "canary and a verify registry: compile, verify and sandcastle of a 250-config "
        "cone dominate, and the tailer ships 250 artifacts per poll through Zeus.",
        "load": "closed loop, one author; 25 changes per round; 40 servers each "
        "subscribed to 16 random configs and 2 Gatekeeper projects",
    },
    "fleet_rollout": {
        "why": "A tool ramps one of 40 Gatekeeper projects per change to 200 servers "
        "that load it into their runtime, then 5000 Zipf-skewed checks run: the "
        "distribution and read planes dominate while landing is trivial (Fig. 14-15).",
        "load": "closed loop, one author; 150 changes per round, each drained to every "
        "subscriber before the reads; 200 servers each subscribed to 24 projects; "
        "2000-config tree",
    },
}

END_TO_END = [
    ("setup_s", "s"),
    ("changes_per_s", "1/s"),
    ("change_ms_p50", "ms"),
    ("change_ms_p90", "ms"),
    ("propose_ms_p50", "ms"),
    ("commit_to_client_s_p50", "s"),
    ("commit_to_client_s_p99", "s"),
    ("wire_bytes_per_change", "B"),
    ("heap_peak_mb", "MB"),
]

# per-layer metric -> (unit, layer, the end-to-end metric and workload it should move)
PER_LAYER = {
    "clone.ms_p50": ("ms", "core.Source_tree + core.Depgraph", "propose_ms_p50 on leaf_edit"),
    "compiler.ms_p50": ("ms", "core.Compiler", "propose_ms_p50 on cone_edit"),
    "compiler.configs_per_change": ("count", "core.Compiler", "propose_ms_p50 on cone_edit"),
    "compiler.cache_hit_ratio": ("ratio", "core.Compiler", "propose_ms_p50 on cone_edit"),
    "compiler.alloc_mw_per_change": ("MW", "core.Compiler", "propose_ms_p50 on cone_edit"),
    "compiler.bootstrap_s": ("s", "core.Compiler", "setup_s on leaf_edit"),
    "verify.ms_p50": ("ms", "cm_verify", "propose_ms_p50 on cone_edit"),
    "verify.checks_per_change": ("count", "cm_verify", "propose_ms_p50 on cone_edit"),
    "sandcastle.ms_p50": ("ms", "core.Sandcastle", "propose_ms_p50 on cone_edit"),
    "review.ms_p50": ("ms", "core.Review + core.Risk", "propose_ms_p50 on leaf_edit"),
    "canary.ms_p50": ("ms", "core.Canary", "change_ms_p50 on cone_edit"),
    "vcs.commit_ms_p50": ("ms", "core.Landing_strip + cm_vcs.Repo", "change_ms_p50, heap_peak_mb on leaf_edit"),
    "vcs.store_bytes_per_change": ("B", "core.Landing_strip + cm_vcs.Repo", "heap_peak_mb on leaf_edit"),
    "tailer.poll_ms_p50": ("ms", "core.Tailer", "change_ms_p50 on cone_edit"),
    "tailer.writes_per_change": ("count", "core.Tailer", "change_ms_p50 on cone_edit"),
    "zeus.drain_ms_per_change": ("ms", "cm_zeus + cm_sim", "changes_per_s on fleet_rollout"),
    "sim.events_per_change": ("count", "cm_zeus + cm_sim", "changes_per_s on fleet_rollout"),
    "zeus.fetches_per_change": ("count", "cm_zeus + cm_sim", "wire_bytes_per_change on fleet_rollout"),
    "zeus.leader_bytes_per_change": ("B", "cm_zeus + cm_sim", "wire_bytes_per_change on fleet_rollout"),
    "client.decodes_per_change": ("count", "core.Client", "change_ms_p50 on fleet_rollout"),
    "client.memo_hit_ratio": ("ratio", "core.Client", "change_ms_p50 on fleet_rollout"),
    "gk.check_ns_p50": ("ns", "cm_gatekeeper.Runtime", "changes_per_s on fleet_rollout"),
    "gk.load_ms_p50": ("ms", "cm_gatekeeper.Runtime", "change_ms_p50 on fleet_rollout"),
    "gk.restraints_per_check": ("count", "cm_gatekeeper.Runtime", "changes_per_s on fleet_rollout"),
    "trace.unattributed_share": ("ratio", "whole trace", "books balance: 1 - layer self time / untraced change_ms_p50"),
    "trace.overhead_ratio": ("ratio", "whole trace", "traced / untraced change_ms_p50"),
}

OMITS = {
    "gk_checks_per_s": "not an end-to-end metric: every workload reports every end-to-end "
    "metric and only fleet_rollout runs reads per change; fleet_rollout's changes_per_s "
    "covers them (its cycle includes the read batch) and gk.check_ns_p50 traces them",
    "leaf_edit": "canary.ms_p50 is the canary-spec lookup only (canary skipped); gk.* come "
    "from cold-start loads and a final read batch, not from the changes",
    "cone_edit": "gk.* come from cold-start loads and a final read batch, not from the changes",
    "fleet_rollout": "canary.ms_p50 is the canary-spec lookup only (set_raw skips canary). "
    "Not in BENCHMARK.json: on a shared 2-core host its wall-clock timings spread 0.24-0.33 "
    "(IQR/median over 10 seeds) in 3 of 4 sets, above the 0.25 bound; its memory-bound "
    "simulator and check work follows the host's speed swings more than the compile-bound "
    "workloads do. It stays runnable for traces and determinism.",
}

# Counted metrics that one seed must repeat exactly.
EXACT = [
    "commit_to_client_s_p50", "commit_to_client_s_p99", "commit_to_client_pairs",
    "wire_bytes_per_change", "sim.events_per_change", "tailer.writes_per_change",
    "zeus.fetches_per_change", "zeus.leader_bytes_per_change", "vcs.store_bytes_per_change",
    "compiler.cache_misses", "client.decodes", "gk.checks",
]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def percentile(values, p):
    s = sorted(values)
    if not s:
        return float("nan")
    pos = p * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project and lib/ are missing")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet",
             "./perfbench/cfgbench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=700)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("build failed")


def run_round(workload, seed, traced, timeout):
    args = [EXE, workload, str(seed)]
    if traced:
        os.makedirs(OUT, exist_ok=True)
        args += ["traced", os.path.join(OUT, "trace-%s-seed%d.txt" % (workload, seed))]
    else:
        args += ["plain"]
    try:
        p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        fail("round of %s timed out" % workload)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        fail("round of %s failed" % workload)
    return json.loads(p.stdout.strip().splitlines()[-1])


def rounds(workload, seed, seconds, traced):
    results = []
    t0 = time.monotonic()
    while True:
        r0 = time.monotonic()
        results.append(run_round(workload, seed, traced, DEADLINE_S - (r0 - t0)))
        now = time.monotonic()
        enough = now - t0 >= seconds and len(results) >= (1 if traced else MIN_ROUNDS)
        if enough or (now - t0) + (now - r0) > LAST_START_S:
            return results


def children_cpu_s():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def windows_per_s(cycles_ms):
    return [WINDOW / (sum(cycles_ms[i:i + WINDOW]) / 1000.0)
            for i in range(0, len(cycles_ms) - WINDOW + 1, WINDOW)]


def end_to_end(results):
    pooled = lambda key: [x for r in results for x in r[key]]
    per_round = lambda key: statistics.median(r[key] for r in results)
    count = lambda key: statistics.median(r["counts"][key] for r in results)
    rates = [w for r in results for w in windows_per_s(r["cycle_ms"])]
    change = pooled("change_ms")
    return {
        "setup_s": per_round("setup_s"),
        "changes_per_s": statistics.median(rates),
        "change_ms_p50": percentile(change, 0.50),
        "change_ms_p90": percentile(change, 0.90),
        "propose_ms_p50": percentile(pooled("propose_ms"), 0.50),
        "commit_to_client_s_p50": count("commit_to_client_s_p50"),
        "commit_to_client_s_p99": count("commit_to_client_s_p99"),
        "wire_bytes_per_change": count("wire_bytes_per_change"),
        "heap_peak_mb": per_round("heap_peak_mb"),
    }


def output_checks(results, traced):
    """Every check that must hold for the run to count as correct."""
    problems = []
    for i, r in enumerate(results):
        for key in ("client_mismatches", "gk_naive_mismatches", "gk_load_errors"):
            if r[key]:
                problems.append("round %d: %s = %d" % (i, key, r[key]))
        if traced and not r["head_match"]:
            problems.append("round %d: traced replay ended on another HEAD tree" % i)
        if traced and r["counts"] != r["untraced_counts"]:
            problems.append("round %d: traced and untraced counts differ" % i)
    first = results[0]
    for i, r in enumerate(results[1:], 1):
        if r["head_tree"] != first["head_tree"]:
            problems.append("round %d ended on another HEAD tree than round 0" % i)
        diff = [k for k in EXACT if r["counts"][k] != first["counts"][k]]
        if diff:
            problems.append("round %d differs from round 0 (same seed) in %s" % (i, ", ".join(diff)))
    return problems


def git_commit():
    if not os.path.isdir(".git"):  # never ask git about a parent directory
        return "unknown (not a git checkout)"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def ocaml_version():
    try:
        p = subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return p.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def host_block(args, results, cpu_share):
    return {
        "cores": os.cpu_count(),
        "ocaml": ocaml_version(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "loadavg_1m": round(os.getloadavg()[0], 2),
        "workload": args.workload,
        "seed": args.seed,
        "mode": "traced" if args.trace else "untraced",
        "clock": "wall (monotonic)" if args.trace else "process CPU time (user + system)",
        "cpu_share_of_wall": round(cpu_share, 3),
        "rounds": len(results),
        "changes_per_round": results[0]["attempted"],
        "domains": 1,
    }


def measure(args):
    build()
    traced = args.trace == 1
    c0, w0 = children_cpu_s(), time.monotonic()
    results = rounds(args.workload, args.seed, args.seconds, traced)
    cpu_share = (children_cpu_s() - c0) / (time.monotonic() - w0)
    problems = output_checks(results, traced)
    if traced:
        names = list(PER_LAYER)
        values = {k: statistics.median(r["per_layer"][k] for r in results) for k in names}
        units = {k: PER_LAYER[k][0] for k in names}
    else:
        values = end_to_end(results)
        units = dict(END_TO_END)
    info = WORKLOADS[args.workload]
    print("host " + json.dumps(host_block(args, results, cpu_share)))
    print("workload %s: %s" % (args.workload, info["why"]))
    print("load: " + info["load"])
    print("omits " + json.dumps({k: OMITS[k] for k in ("gk_checks_per_s", args.workload)}))
    if traced:
        for k in names:
            unit, layer, moves = PER_LAYER[k]
            print("  %-30s %14.6g %-6s %-34s -> %s" % (k, values[k], unit, layer, moves))
    else:
        for k, unit in END_TO_END:
            print("  %-30s %14.6g %s" % (k, values[k], unit))
    counts = results[0]["counts"]
    print("counts (exact for seed %d, %d rounds agree: %s) %s" % (
        args.seed, len(results), "yes" if not problems else "no",
        json.dumps({k: counts[k] for k in EXACT})))
    print("checks: " + ("all passed" if not problems else "; ".join(problems)))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
    }))


def child_run(workload, seed, seconds, trace):
    p = subprocess.run(
        [sys.executable, sys.argv[0], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        fail("run of %s seed %d failed" % (workload, seed))
    return json.loads(p.stdout.strip().splitlines()[-1])


def bounds():
    try:
        with open("BENCHMARK.json") as f:
            return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def steadiness(args):
    """N runs, seeds seed..seed+N-1: each end-to-end metric's spread against its bound."""
    build()
    bound = bounds()
    runs = []
    for i in range(args.steadiness):
        out = child_run(args.workload, args.seed + i, args.seconds, 0)
        if not out["correct"] or out["failed"]:
            fail("seed %d: incorrect output or failed changes" % (args.seed + i))
        runs.append({k: v["value"] for k, v in out["metrics"].items()})
        print("seed %d %s" % (args.seed + i, json.dumps(runs[-1])), flush=True)
    print("%-24s %12s %12s %12s %9s %9s %7s  %s" % (
        "metric", "median", "q1", "q3", "iqr/med", "max/min", "bound", "verdict"))
    summary = {}
    for name, _ in END_TO_END:
        vals = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        b = bound.get(name)
        verdict = "-" if b is None else (
            "steady" if spread < b / 3 else "within bound" if spread <= b else "TOO NOISY")
        print("%-24s %12.6g %12.6g %12.6g %9.4f %9.4f %7s  %s" % (
            name, med, q1, q3, spread, max(vals) / min(vals), b, verdict))
        summary[name] = {"median": med, "q1": q1, "q3": q3, "values": vals}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "steadiness-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    print("wrote " + path)
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)
        print("against %s (worse by at most the bound passes):" % args.baseline)
        for name, _ in END_TO_END:
            a, b0 = summary[name]["median"], base[name]["median"]
            better = "higher" if name == "changes_per_s" else "lower"
            worse = (b0 - a) / b0 if better == "higher" else (a - b0) / b0
            ok = bound.get(name) is None or worse <= bound[name]
            print("  %-24s %12.6g vs %12.6g  worse by %+.4f  %s" % (
                name, a, b0, worse, "ok" if ok else "REGRESSED"))


def determinism(args):
    """One seed twice, another seed once, traced: counted metrics repeat exactly."""
    build()
    ok = True
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    for w in workloads:
        a = run_round(w, args.seed, True, 600)
        b = run_round(w, args.seed, True, 600)
        c = run_round(w, args.seed + 1, True, 600)
        exact = lambda r: dict(
            {k: r["counts"][k] for k in EXACT},
            alloc_words=r["compile_alloc_words"],
            configs_per_change=r["per_layer"]["compiler.configs_per_change"],
            head_tree=r["head_tree"])
        same = exact(a) == exact(b) and a["counts"] == a["untraced_counts"]
        differs = exact(a) != exact(c)
        ok = ok and same and differs
        print("%s: seed %d twice %s; seed %d %s" % (
            w, args.seed, "identical" if same else "DIFFERS",
            args.seed + 1, "differs" if differs else "IDENTICAL"))
        print("  " + json.dumps(exact(a)))
    print("determinism: " + ("pass" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--baseline", help="a steadiness JSON to compare medians with")
    ap.add_argument("--determinism", action="store_true")
    args = ap.parse_args()
    if args.determinism:
        determinism(args)
    elif args.workload is None:
        ap.error("--workload is required")
    elif args.steadiness:
        steadiness(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
