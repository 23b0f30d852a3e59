#!/usr/bin/env python3
"""Record a before/after ladder of two git revisions as one JSON file.

    python3 scripts/bench_ladder.py --before REV --after REV > BENCH_<n>.json

Each revision is exported with ``git archive`` into a temporary directory.
For each side the script records:

- ``perfbench/run.py`` (``--trace 0``, for ``BENCHMARK.json``'s
  ``run_seconds`` per run, the benchmark's own run length) on every workload
  and seed, PAIRS runs per side, the sides alternating run by run and the
  order flipping every pair, so a drift in host speed spreads over both.
  Each end-to-end metric of ``BENCHMARK.json`` gets the quartiles of each
  side, the number of pairs in which the after run is better, and
  ``unresolved`` when either side's interquartile range, relative to its
  median, is wider than the metric's bound;
- the in-process wall time of each case in CASES, in a fresh interpreter
  on that side's ``src/`` (import time excluded), CASE_RUNS runs per side,
  the sides alternating as above.  Each run also times
  ``perfbench/reference.py``'s kernel right before and after the case in
  the same interpreter and scales the case's time by it as perfbench
  does, so scaled rows of different files compare across host speeds.
  A row holds each side's quartiles, raw (``<side>_s``) and scaled
  (``<side>_scaled_s``), the number of runs in which the after run
  (against the before run of the same index) is faster when scaled, and
  ``unresolved`` when either side's scaled interquartile range, relative
  to its median, is wider than the ``job_p50_s`` bound.  A run that hits
  the CAP_S wall cap is recorded at the cap, raw and scaled, and flags
  ``<side>_capped``; that side's later runs of the case are recorded at
  the cap without being run.

Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("elim", "certify", "track")
SEEDS = (1, 2)
PAIRS = 10
CASE_RUNS = 5
CAP_S = 60


def _sf_case(components, names=("x", "y")):
    """(name, setup code, timed expression) of sf_compute on a map in the
    named variables."""
    return (f"sf ({', '.join(components)})",
            "from nonproper.mpoly import Context\n"
            "from nonproper.parser import parse_poly\n"
            "from nonproper.properness import PolyMap, sf_compute\n"
            f"C = Context({tuple(names)!r})\n"
            f"f = PolyMap(C, [parse_poly(t, C) for t in {components!r}])",
            "sf_compute(f)")


def _twist_certify_case(d, sharpness):
    """(name, setup code, timed expression) of certify, with or without
    --sharpness, on the twist component y1 - y2^d at (0, 0) and (1, 1)."""
    flag = " --sharpness" if sharpness else ""
    return (f"certify{flag} y1 - y2^{d} at (0,0), (1,1)",
            "from nonproper.curves import certify\n"
            "from nonproper.groebner import Ideal\n"
            "from nonproper.mpoly import Context\n"
            "from nonproper.orders import LEX\n"
            "from nonproper.parser import parse_poly\n"
            "C = Context(('y1', 'y2'), LEX)\n"
            f"V = Ideal(C, [parse_poly('y1 - y2^{d}', C)])",
            f"certify(V, (), {d}, [(0, 0), (1, 1)], sharpness={sharpness})")


def _twist_track_case(d):
    """(name, setup code, timed expression) of sf_compute, track and
    rationalize_verify on the twist map at the target (1, 1) along the
    path (1/k^2, k^2), kmax 40."""
    return (f"track (x + (x*y)^{d}, x*y) to (1,1) along (1/k^2, k^2), kmax 40",
            "from fractions import Fraction as Q\n"
            "from nonproper.mpoly import Context\n"
            "from nonproper.parser import parse_poly\n"
            "from nonproper.properness import PolyMap, sf_compute\n"
            "from nonproper.tracker import PathSpec, rationalize_verify, track\n"
            "C = Context(('x', 'y'))\n"
            f"f = PolyMap(C, [parse_poly(t, C) for t in ['x + (x*y)^{d}', 'x*y']])\n"
            "path = PathSpec.geometric(lambda k: (Q(1, k * k), Q(k * k)), 'radial', 40)",
            "rationalize_verify(track(f, (1, 1), path), sf_compute(f))")


# (name, setup code, timed expression); run with nonproper importable
CASES = (
    ("squarefree_part(u^2*w, 'z'), the seed-5 oracle draw",
     "from nonproper.mpoly import Context, squarefree_part\n"
     "from nonproper.orders import LEX\n"
     "from nonproper.parser import parse_poly\n"
     "C = Context(('x', 'y', 'z'), LEX)\n"
     "u = parse_poly('-3*x^2*y^2*z^2 + 2*x*y^2*z - 4*y^2 + z', C)\n"
     "w = parse_poly('5*x^2 + 2*x*z + z^2', C)\n"
     "p = u**2 * w",
     "squarefree_part(p, 'z')"),
    _sf_case(["x^3*y^2 + x - y", "x^2*y + 2*y^2 + x"]),
    _sf_case(["x^4*y^3 + x - y", "x^3*y^2 + 2*y^2 + x"]),
    _sf_case(["x^5*y^2 + x - y", "x^2*y^3 + 2*y^2 + x"]),
    _sf_case(["x^5*y^4 + x - y", "x^4*y^3 + 2*y^2 + x"]),
    _sf_case(["x^6*y^3 + x - y", "x^3*y^4 + 2*y^2 + x"]),
    _sf_case(["x^7*y^4 + x - y", "x^4*y^5 + 2*y^2 + x"]),
    _sf_case(["x^2*y*z + x - y", "y^2*z + x*z + y", "z^2*x + y - 1"], ("x", "y", "z")),
    *(_twist_certify_case(d, sharpness) for d in (3, 4, 5, 6, 8, 12, 16) for sharpness in (True, False)),
    *(_twist_track_case(d) for d in (4, 8, 12)),
)

# the case, timed between two runs of perfbench/reference.py's kernel
TIMER = """{setup}
import sys, time
sys.path.insert(0, {perfbench!r})
from reference import reference_s, scaled
r0 = reference_s()
t = time.perf_counter()
{expr}
t = time.perf_counter() - t
print(t, scaled(t, r0, reference_s()))
"""


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(rev, dest):
    """Extract the tree of ``rev`` into dest; return '<short hash> <subject>'."""
    tarfile.open(fileobj=io.BytesIO(_git("archive", rev))).extractall(dest)
    return _git("log", "-1", "--format=%h %s", rev).decode().strip()


def perfbench(checkout, workload, seed, seconds):
    """The result line of one perfbench run, or None if it printed none."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    ).stdout.strip().splitlines()
    return json.loads(out[-1]) if out else None


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 6), round(q2, 6), round(q3, 6)]


def _unresolved(quartiles, bound):
    """Whether any side's interquartile range, relative to its median, is
    wider than bound, so the sides cannot be told apart."""
    return any((q[2] - q[0]) / q[1] > bound for q in quartiles)


def summarize(runs, metrics):
    """Per metric: quartiles of each side, pairs the after side wins, and
    whether the spread of either side exceeds the metric's bound."""
    out = {"correct": {side: all(r is not None and r["correct"] for r in rs)
                       for side, rs in runs.items()}}
    if not all(out["correct"].values()):
        return out
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        vals = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        qs = {side: _quartiles(v) for side, v in vals.items()}
        out[name] = {
            **qs,
            "after_better_pairs": sum(sign * (a - b) > 0
                                      for b, a in zip(vals["before"], vals["after"])),
            "unresolved": _unresolved(qs.values(), m["bound"]),
        }
    return out


def case_time(checkout, setup, expr):
    """(wall seconds, scaled seconds, capped) of one timed expression in a
    fresh interpreter; a capped run reads CAP_S in both."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    code = TIMER.format(setup=setup, expr=expr, perfbench=str(ROOT / "perfbench"))
    try:
        out = subprocess.run([sys.executable, "-c", code],
                             env=env, capture_output=True, text=True, timeout=CAP_S)
    except subprocess.TimeoutExpired:
        return CAP_S, CAP_S, True
    if out.returncode:
        raise RuntimeError(f"case failed:\n{out.stderr}")
    raw, scaled = out.stdout.split()[-2:]
    return round(float(raw), 4), round(float(scaled), 4), False


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", required=True, help="git revision of the before side")
    ap.add_argument("--after", required=True, help="git revision of the after side")
    args = ap.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    case_bound = next(m["bound"] for m in metrics if m["name"] == "job_p50_s")
    with tempfile.TemporaryDirectory() as tmp:
        checkouts, sides = {}, {}
        for side in ("before", "after"):
            checkouts[side] = Path(tmp) / side
            sides[side] = export(getattr(args, side), checkouts[side])
        bench = {}
        for workload in WORKLOADS:
            for seed in SEEDS:
                runs = {"before": [], "after": []}
                for i in range(PAIRS):
                    for side in (("before", "after") if i % 2 == 0 else ("after", "before")):
                        print(f"perfbench {workload} seed {seed} pair {i + 1} {side}",
                              file=sys.stderr)
                        runs[side].append(perfbench(checkouts[side], workload, seed, seconds))
                bench[f"{workload} seed {seed}"] = summarize(runs, metrics)
        cases = []
        for name, setup, expr in CASES:
            times = {"before": [], "after": []}
            scaled = {"before": [], "after": []}
            capped = {"before": False, "after": False}
            for i in range(CASE_RUNS):
                for side in (("before", "after") if i % 2 == 0 else ("after", "before")):
                    print(f"case {name} run {i + 1} {side}", file=sys.stderr)
                    if capped[side]:
                        times[side].append(CAP_S)
                        scaled[side].append(CAP_S)
                        continue
                    t, ts, capped[side] = case_time(checkouts[side], setup, expr)
                    times[side].append(t)
                    scaled[side].append(ts)
            row = {"case": name}
            for side in ("before", "after"):
                row[f"{side}_s"] = _quartiles(times[side])
                row[f"{side}_scaled_s"] = _quartiles(scaled[side])
                row[f"{side}_capped"] = capped[side]
            row["after_better_runs"] = sum(a < b for b, a in zip(scaled["before"], scaled["after"]))
            row["unresolved"] = _unresolved((row["before_scaled_s"], row["after_scaled_s"]),
                                            case_bound)
            cases.append(row)
    json.dump({
        "command": f"python3 scripts/bench_ladder.py --before {args.before} --after {args.after}",
        "sides": sides,
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "perfbench": {"seconds": seconds, "pairs": PAIRS,
                      "quartiles": "[q1, median, q3] of each side's runs",
                      "runs": bench},
        "cases": {"cap_s": CAP_S, "runs": CASE_RUNS,
                  "quartiles": "[q1, median, q3] of each side's runs",
                  "scaled": "seconds at perfbench/reference.py's REF_S kernel speed",
                  "rows": cases},
    }, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
