#!/usr/bin/env python3
"""Check that the benchmark's exact counts repeat.

Runs the traced benchmark (`run.py --trace 1`) on each workload three
times: twice with one seed and once with another. The counts below do not
depend on the input data, so all three runs must report the same values:

- compiler output sizes (`core.*_nodes_*`, `core.script_bytes_w64`),
- simulator sizes and modelled times (`sim.procs`, `sim.chans`,
  `sim.model_s_*`) and the modelled speedups (`sim_speedup_*`),
- Spark's task, stage and job counts (`spark.tasks`, `spark.stages`,
  `spark.jobs`).

Usage, from the root of a checkout:

    python3 perfbench/determinism.py [--seeds 1,2] [--seconds 4] [workload ...]

Exits 0 when every count matches, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_build" / "results"
WORKLOADS = ["stream-spark", "sort-agg-spark", "multiregion-spark"]
EXACT_PREFIXES = ("core.dfg_nodes_", "core.agg_nodes_", "core.relay_nodes_",
                  "core.split_nodes_", "core.script_bytes_", "sim.procs", "sim.chans",
                  "sim.model_s_", "sim_speedup_", "spark.tasks", "spark.stages",
                  "spark.jobs")


def counts(workload, seed, seconds):
    r = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "1"],
                       cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run failed\n{r.stderr[-2000:]}")
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace1.json").read_text())
    return {k: v["value"] for k, v in record["metrics"].items()
            if k.startswith(EXACT_PREFIXES)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2", help="two seeds: A,B")
    ap.add_argument("--seconds", type=int, default=4)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    a = ap.parse_args()
    seed_a, seed_b = (int(s) for s in a.seeds.split(","))
    ok = True
    for w in a.workloads:
        runs = [counts(w, s, a.seconds) for s in (seed_a, seed_a, seed_b)]
        bad = sorted(k for k in runs[0] if len({r.get(k) for r in runs}) != 1)
        print(f"{w}: {len(runs[0])} counts, "
              + ("all equal" if not bad else "DIFFER: " + ", ".join(
                  f"{k}={[r.get(k) for r in runs]}" for k in bad)))
        ok = ok and not bad
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
