#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 rdbench/test_repeat.py [WORKLOAD ...]

1. BENCHMARK.json names exactly the metrics run.py reports.
2. For each workload (default: all three), two traced passes of the same
   seed report identical per-layer counts: every pset.*, cache.* and
   reach.* count, sim.routes, and gc.minor_mw / gc.major_collections.
   Only counts that repeat exactly can support a claim.

Exits 1 on the first failed check.  Takes about three minutes for all
three workloads on one core.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 2004


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    ok = e2e == run.END_TO_END and layer == run.per_layer_units()
    ok = ok and [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    print("BENCHMARK.json matches run.py: %s" % ("ok" if ok else "MISMATCH"))
    return ok


def check_repeat(workload):
    deadline = time.monotonic() + 900
    values = []
    for _ in range(2):
        traced, _ = run.run_pass(workload, SEED, deadline, traced=True)
        values.append(run.per_layer(traced))
    units = run.per_layer_units()
    counts = [k for k, u in units.items() if u != "s" and k in values[0]]
    diff = [(k, values[0][k], values[1][k]) for k in counts if values[0][k] != values[1][k]]
    for k, a, b in diff:
        print("  %s: %r then %r" % (k, a, b))
    print("%s: %d per-layer counts repeat: %s"
          % (workload, len(counts), "ok" if not diff else "%d DIFFER" % len(diff)))
    return not diff


def main():
    workloads = sys.argv[1:] or list(run.WORKLOADS)
    for w in workloads:
        if w not in run.WORKLOADS:
            run.die("unknown workload %s" % w)
    run.build()
    ok = check_benchmark_json()
    for w in workloads:
        ok = check_repeat(w) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
