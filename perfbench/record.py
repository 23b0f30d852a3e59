"""Run the benchmark twice over seeds 1..10 and record medians and spreads.

    python3 perfbench/record.py [--out FILE] [--note TEXT]

For every workload of BENCHMARK.json this runs perfbench/run.py once per
seed, one run at a time, in two sets of the same code, and reports for each
end-to-end metric and set the median, quartiles and spread (interquartile
distance over the median, from statistics.quantiles(n=4)), next to the
metric's bound.  A metric is

    steady      if both spreads are below a third of its bound and the
                second median is not worse than the first by more than it,
    resolved    if both spreads and that change are within the bound,
    unresolved  otherwise: the benchmark cannot resolve a change of the
                bound's size in that metric on that workload.

Three traced runs per workload give the per-layer medians.  With ``--out``
the numbers of both sets are written as JSON together with the workload
reasons and, for every per-layer metric, the end-to-end metrics and
workloads it is expected to move.  The exit code is 0 only if every metric
is steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import PER_LAYER  # noqa: E402

SEEDS = range(1, 11)
SETS = 2
TRACED_SEEDS = SEEDS[:3]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def verdict(sets, bound, better):
    first, second = sets[0]["median"], sets[-1]["median"]
    worse = (first - second if better == "higher" else second - first) / first
    widest = max(s["spread"] for s in sets)
    if widest < bound / 3 and worse <= bound:
        return worse, "steady"
    if widest <= bound and worse <= bound:
        return worse, "resolved"
    return worse, "unresolved"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None)
    ap.add_argument("--note", default="", help="what was measured where, kept in --out")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in workloads}
    for _ in range(SETS):
        for workload in workloads:
            runs[workload].append([run_once(workload, s, seconds, 0) for s in SEEDS])
    out = {"note": args.note, "run_seconds": seconds, "seeds": list(SEEDS), "sets": SETS,
           "workloads": {}}
    steady = True
    for workload in workloads:
        flat = [r for one_set in runs[workload] for r in one_set]
        failed = sum(r["failed"] for r in flat)
        attempted = sum(r["attempted"] for r in flat)
        print(f"{workload}: {SETS} x {len(SEEDS)} runs, {failed}/{attempted} jobs failed, "
              f"correct={all(r['correct'] for r in flat)}")
        e2e = {}
        for m in metrics:
            name = m["name"]
            sets = [spread([r["metrics"][name]["value"] for r in one_set])
                    for one_set in runs[workload]]
            worse, status = verdict(sets, m["bound"], m["better"])
            steady = steady and status == "steady"
            e2e[name] = {"sets": sets, "second_worse_by": worse, "status": status}
            print(f"  {name:12s} " + "  ".join(
                f"median {s['median']:.6g} spread {s['spread']:.3f}" for s in sets)
                + f"  worse by {worse:+.3f}  bound {m['bound']}  {status}")
        traced = [run_once(workload, s, seconds, 1) for s in TRACED_SEEDS]
        layers = {name: statistics.median(r["metrics"][name]["value"] for r in traced)
                  for name, *_ in PER_LAYER}
        out["workloads"][workload] = {"failed": failed, "attempted": attempted,
                                      "end_to_end": e2e, "per_layer": layers}
    if args.out:
        out["why"] = {w["name"]: w["why"] for w in bench["workloads"]}
        out["per_layer_moves"] = {name: moves for name, _, _, moves in PER_LAYER}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
