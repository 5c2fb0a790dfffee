#!/usr/bin/env python3
"""Run one routedesign benchmark workload and print its metrics.

    python3 rdbench/run.py --workload study --seed 2004 --seconds 25 --trace 0

Run from the root of a source checkout.  It builds rdbench/rdbench.exe
with dune, then runs the workload in fresh processes (one worker domain
each) for about --seconds, at least once.  Each process generates the
population from the seed, runs one pass, and checks its own outputs;
this script checks them again against the digests recorded in
rdbench/expected.json and across processes.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced
and one traced process, prints the per-layer self-time tables, writes
the Chrome trace under .rdbench/, and reports the per-layer metrics.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

    python3 rdbench/run.py --record --workload study --seed 2004

records the digests of one clean pass into rdbench/expected.json.
See rdbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "rdbench", "rdbench.exe")
EXPECTED = os.path.join(HERE, "expected.json")
TRACE_DIR = os.path.join(ROOT, ".rdbench")

WORKLOADS = ("study", "whatif", "crosscheck")
# Operations one pass attempts: networks, scenarios, verdicts.
OPS = {"study": 31, "whatif": 93, "crosscheck": 23}
# The whole run, build included, must end within 180 s.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_heap_mb": "MB",
    "op_mean_ms": "ms",
}

# Per-layer self times, in seconds.  A layer a workload does not call
# reads 0 on that workload.
LAYER_TIMES = [
    "gen", "parse", "topology", "catalog", "instance_graph", "blocks",
    "filter_stats", "reach", "reach.cold", "reach.delta", "reach.warm",
    "whatif.apply_delta", "whatif.compare", "lint", "audit", "netlint",
    "netlint.redistribution-loop", "netlint.route-leak",
    "netlint.peer-consistency", "netlint.shadowed-rules", "report",
    "verify", "load", "scenario", "cache.miss.parse", "cache.miss.analysis",
    "cache.miss.reach", "cache.miss.whatif", "analyze", "crosscheck",
    "crosscheck.sim-subset-static", "crosscheck.anonymize-structure",
    "crosscheck.deny-filter-monotone", "crosscheck.remove-router-monotone",
    "crosscheck.worklist-equals-rounds", "crosscheck.netlint-sim-agree",
    "sim", "unattributed",
]
# Layers whose prefix-set kernel work is attributed through stats deltas.
PSET_LAYERS = [
    "topology", "instance_graph", "blocks", "reach", "netlint", "load",
    "scenario", "whatif.apply_delta", "reach.cold", "reach.delta", "crosscheck",
]
# Count name in the per-layer metrics <- name in the traced pass's counts
# (the Metrics registry, plus sim.routes from the attribution phase).
REGISTRY = {
    "reach.computations": "reach.computations",
    "reach.iterations": "reach.fixpoint_iterations",
    "reach.delta.computations": "reach.delta.computations",
    "reach.delta.carried": "reach.delta.carried",
    "reach.delta.dirty": "reach.delta.dirty",
    "sim.routes": "sim.routes",
}
STORES = ["parse", "analysis", "reach", "whatif"]


def per_layer_units():
    units = {}
    for name in LAYER_TIMES:
        units[name + ".s"] = "s"
    for prefix in ["pset"] + ["pset." + l for l in PSET_LAYERS]:
        for k in ("nodes", "memo_hits", "memo_misses"):
            units[prefix + "." + k] = "count"
        units[prefix + ".hit_ratio"] = "ratio"
    for name in REGISTRY:
        units[name] = "count"
    for store in STORES:
        units["cache.%s.hits" % store] = "count"
        units["cache.%s.misses" % store] = "count"
    units["op.p50_ms"] = "ms"
    units["op.tail_ms"] = "ms"
    units["whatif.warm_sweep.s"] = "s"
    units["gc.minor_mw"] = "Mword"
    units["gc.major_collections"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


def die(msg):
    print("rdbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", "./rdbench/rdbench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed (dune exit %d)" % r.returncode)


def run_pass(workload, seed, deadline, traced=False, chrome=None):
    """One fresh process, one pass; returns its parsed result and the
    human-readable lines it printed before it."""
    cmd = [EXE, workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
        if chrome:
            cmd += ["--chrome", chrome]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        die("out of time before a %s pass" % workload)
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        die("%s pass did not finish within the run's deadline" % workload)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        die("%s pass exited %d" % (workload, r.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("%s pass printed no result" % workload)
    return result, lines[:-1]


def tail_rank(n):
    """0-based rank of the highest percentile with at least ten samples
    above it (the top rank when there are fewer than eleven)."""
    return max(0, n - 11)


def op_stats(result):
    ms = sorted(op[1] for op in result["ops"])
    return statistics.median(ms), ms[tail_rank(len(ms))]


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def verify(workload, seed, results):
    """(attempted, failed, messages) over every pass of the run.  Each
    network, scenario or verdict is one operation; so is each whole-pass
    check the pass made, the agreement of its digests with the run's
    first pass, and each comparison with a recorded digest or count."""
    expected = load_expected().get(workload, {}).get(str(seed))
    attempted = failed = 0
    msgs = []
    first = results[0]
    for r in results:
        ops = r["ops"]
        attempted += OPS[workload]
        bad = sum(1 for op in ops if not op[2]) + max(0, OPS[workload] - len(ops))
        failed += bad
        attempted += r["checks"][0]
        failed += r["checks"][1]
        msgs += r["failures"]
        attempted += 1
        if r["digests"] != first["digests"]:
            failed += 1
            msgs.append("digests differ between passes of the same inputs")
        if expected is not None:
            for k, v in expected["digests"].items():
                attempted += 1
                if r["digests"].get(k) != v:
                    failed += 1
                    msgs.append("%s digest %s, recorded %s" % (k, r["digests"].get(k), v))
            if "netlint" in expected:
                attempted += 1
                if r.get("netlint") != expected["netlint"]:
                    failed += 1
                    msgs.append("netlint counts %s, recorded %s"
                                % (r.get("netlint"), expected["netlint"]))
    return attempted, failed, msgs


def end_to_end(results):
    def med(f):
        return statistics.median([f(r) for r in results])

    return {
        "setup_s": statistics.median([s for r in results for s in r["setup_s"]]),
        "wall_s": med(lambda r: r["wall_s"]),
        "peak_heap_mb": med(lambda r: r["peak_heap_mb"]),
        "op_mean_ms": med(lambda r: statistics.mean(op[1] for op in r["ops"])),
    }


def per_layer(traced):
    v = {}
    self_s = {}
    for name, self_time, _incl, _n in traced["pass_layers"] + traced["attribution_layers"]:
        self_s[name] = self_s.get(name, 0.0) + self_time
    for name in LAYER_TIMES:
        v[name + ".s"] = self_s.get(name, 0.0)
    v["gen.s"] = statistics.median(traced["setup_s"])
    kernel = {"pset": traced["pset.total"]}
    for layer in PSET_LAYERS:
        kernel["pset." + layer] = traced["pset"].get(layer, [0, 0, 0])
    for prefix, (nodes, hits, misses) in kernel.items():
        v[prefix + ".nodes"] = nodes
        v[prefix + ".memo_hits"] = hits
        v[prefix + ".memo_misses"] = misses
        v[prefix + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    counts = traced["counts"]
    for name, key in REGISTRY.items():
        v[name] = counts.get(key, 0)
    for store in STORES:
        for k in ("hits", "misses"):
            v["cache.%s.%s" % (store, k)] = counts.get("cache.%s.%s" % (store, k), 0)
    v["gc.minor_mw"] = traced["gc.minor_mw"]
    v["gc.major_collections"] = traced["gc.major_collections"]
    return v


def untraced_layer(traced, untraced):
    """The per-layer latencies taken from the untraced pass, and the
    tracing overhead as a difference of medians: per-operation latency
    of the traced pass against the untraced one, as a share of the
    untraced median."""
    p50, tail = op_stats(untraced)
    return {
        "op.p50_ms": p50,
        "op.tail_ms": tail,
        "whatif.warm_sweep.s": untraced.get("warm_sweep_s", 0.0),
        "trace.overhead_pct": 100.0 * (op_stats(traced)[0] - p50) / p50,
    }


def record(workload, seed):
    build()
    r, _ = run_pass(workload, seed, time.monotonic() + 900)
    if r["failures"] or any(not op[2] for op in r["ops"]):
        die("not recording a pass with failures: %s" % r["failures"])
    expected = load_expected()
    entry = {"digests": r["digests"]}
    if "netlint" in r:
        entry["netlint"] = r["netlint"]
    expected.setdefault(workload, {})[str(seed)] = entry
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print("recorded %s seed %d: %s" % (workload, seed, entry))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2004)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record one clean pass's digests in expected.json")
    args = ap.parse_args()
    if args.record:
        record(args.workload, args.seed)
        return
    start = time.monotonic()
    deadline = start + DEADLINE_S
    build()
    if args.trace == 0:
        # About --seconds of passes: as many as fit, judged from the
        # first one, and at least one.
        t0 = time.monotonic()
        results = [run_pass(args.workload, args.seed, deadline)[0]]
        first = time.monotonic() - t0
        for _ in range(max(1, round(args.seconds / first)) - 1):
            if time.monotonic() + 1.5 * first > deadline:
                break
            results.append(run_pass(args.workload, args.seed, deadline)[0])
        values, units = end_to_end(results), END_TO_END
        for r in results:
            print("pass: wall %.3f s, %d ops, op p50 %.2f ms, op tail %.2f ms%s"
                  % (r["wall_s"], len(r["ops"]), *op_stats(r),
                     ", warm sweep %.3f s" % r["warm_sweep_s"] if "warm_sweep_s" in r else ""))
    else:
        os.makedirs(TRACE_DIR, exist_ok=True)
        chrome = os.path.join(TRACE_DIR, "%s-%d.trace.json" % (args.workload, args.seed))
        untraced, _ = run_pass(args.workload, args.seed, deadline)
        traced, table = run_pass(args.workload, args.seed, deadline, traced=True, chrome=chrome)
        results = [untraced, traced]
        for line in table:
            print(line)
        values, units = per_layer(traced), per_layer_units()
        values.update(untraced_layer(traced, untraced))
        print("tracing overhead: op p50 %.2f ms traced vs %.2f ms untraced (%+.1f%%)"
              % (op_stats(traced)[0], op_stats(untraced)[0], values["trace.overhead_pct"]))
        print("chrome trace: %s" % os.path.relpath(chrome, ROOT))
    attempted, failed, msgs = verify(args.workload, args.seed, results)
    for m in msgs:
        print("check failed: " + m)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print("%-40s %14.6g %s" % (k, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
