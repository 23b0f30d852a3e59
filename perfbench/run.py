"""The nonproper benchmark.

    python3 perfbench/run.py --workload elim|certify|track --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The run writes the workload's
problem files from the seed into ``.perfbench_work/``, starts a fresh
single-threaded worker interpreter on ``src/`` (perfbench/worker.py) and
loops over the job list, one job at a time (a closed loop with one
client), in whole passes until the passes add up to S seconds and at least
MIN_PASSES passes are done.  Every job is an in-process call to
``nonproper.cli.main([cmd, file, "--quiet", ...])``: load, parse, compute
and render the report, as a user's CLI call does after start-up.  Start-up
itself is measured separately as ``setup_s``.  Every report is checked
exactly outside the timed region.  Every job gets the full per-job wall
cap CAP_S; a job that reaches it, crashes or gives a wrong report makes
the run incorrect (``"correct": false``, exit code 1).

The host's speed drifts by tens of percent over seconds to minutes, so
every reported time is scaled to a fixed reference speed and is a median.
The worker times a fixed pure-Python kernel (reference.py) before the
first job and after every job, and the parent times it before and after
every interpreter start; each measured time is multiplied by REF_S over
the mean of the two kernel times next to it.  A scaled time is the
measured time at the speed at which the kernel takes REF_S, so a change in
``nonproper`` shows in full and a change in host speed cancels.
Throughput is the job count over the median of the passes' summed scaled
job times, a job's time is the median over its passes, and set-up is the
median over SETUP_STARTS interpreter starts spread over the run.  The
human-readable lines also give the unscaled wall-time medians.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of one traced pass (tracing.py) together with the tracing overhead: each
job runs once untraced and once traced in the same worker.  Human-readable
lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import reference_s, scaled  # noqa: E402
from workloads import WORKLOADS, write_jobs  # noqa: E402

MIN_PASSES = 2
CAP_S = 30.0  # per-job wall cap, the same for every job
BUDGET_S = 140.0  # no pass starts after this many seconds of a run
RUN_DEADLINE_S = 160.0  # a run whose passes are not done by then is stopped and fails
SETUP_STARTS = 11  # timed interpreter starts per run, the worker's own included
IMPORTTIME_STARTS = 5
WORKER_TIMEOUT_S = 170.0
TAIL_BEYOND = 10

# name, unit, better
END_TO_END = (
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# name, unit, better, {end-to-end metric: [workloads]} it should move
_P50 = "job_p50_s"
PER_LAYER = (
    ("cli.main.self_s", "s", "lower", {_P50: ["elim"]}),
    ("problem.load_problem.self_s", "s", "lower", {_P50: ["elim"]}),
    ("problem.render.self_s", "s", "lower", {_P50: ["elim"]}),
    ("parser.parse_poly.calls", "count", "lower", {_P50: ["elim"]}),
    ("parser.parse_poly.self_s", "s", "lower", {_P50: ["elim"]}),
    ("properness.sf_compute.calls", "count", "lower", {_P50: ["elim"]}),
    ("properness.sf_compute.self_s", "s", "lower", {_P50: ["elim"]}),
    ("groebner.buchberger.calls", "count", "lower", {"jobs_per_s": ["certify"], _P50: ["certify"]}),
    ("groebner.buchberger.self_s", "s", "lower",
     {"jobs_per_s": ["certify", "elim"], _P50: ["certify"]}),
    ("groebner.buchberger.basis_len", "count", "lower", {"jobs_per_s": ["certify"]}),
    ("groebner.eliminate.calls", "count", "lower", {"jobs_per_s": ["elim"]}),
    ("groebner.eliminate.self_s", "s", "lower", {"jobs_per_s": ["elim"]}),
    ("groebner.vanishes_on.calls", "count", "lower", {_P50: ["certify"]}),
    ("groebner.vanishes_on.self_s", "s", "lower", {_P50: ["certify"]}),
    ("groebner.vanishes_on.true_ratio", "ratio", "higher", {_P50: ["certify"]}),
    ("groebner.dimension.self_s", "s", "lower", {_P50: ["elim"]}),
    ("groebner.basis_cache_hit_ratio", "ratio", "higher", {"jobs_per_s": ["elim"]}),
    ("mpoly.mpoly_gcd.calls", "count", "lower", {"jobs_per_s": ["elim"], "job_tail_s": ["elim"]}),
    ("mpoly.mpoly_gcd.self_s", "s", "lower", {"jobs_per_s": ["elim"], "job_tail_s": ["elim"]}),
    ("mpoly.squarefree.calls", "count", "lower", {"jobs_per_s": ["elim"], "job_tail_s": ["elim"]}),
    ("mpoly.squarefree.self_s", "s", "lower", {"jobs_per_s": ["elim"], "job_tail_s": ["elim"]}),
    ("mpoly.squarefree.changed_ratio", "ratio", "higher",
     {"jobs_per_s": ["elim"], "job_tail_s": ["elim"]}),
    ("mpoly.max_coeff_bits", "bits", "lower", {"jobs_per_s": ["elim"], "job_tail_s": ["elim"]}),
    ("curves.ansatz_system.calls", "count", "lower", {_P50: ["certify"]}),
    ("curves.ansatz_system.self_s", "s", "lower", {_P50: ["certify"]}),
    ("curves.ansatz_system.unknowns", "count", "lower", {_P50: ["certify"]}),
    ("curves.find_curve.calls", "count", "lower", {_P50: ["certify"]}),
    ("curves.find_curve.self_s", "s", "lower", {_P50: ["certify"]}),
    ("curves.find_curve.found_ratio", "ratio", "higher", {_P50: ["certify"]}),
    ("curves.no_smaller_curve.calls", "count", "lower", {_P50: ["certify"]}),
    ("curves.no_smaller_curve.self_s", "s", "lower", {_P50: ["certify"]}),
    ("curves.no_smaller_curve.proved_ratio", "ratio", "higher", {_P50: ["certify"]}),
    ("curves.verify_curve.self_s", "s", "lower", {_P50: ["certify"]}),
    ("curves.certify.self_s", "s", "lower", {_P50: ["certify"]}),
    ("curves.common_inner.self_s", "s", "lower", {_P50: ["track"]}),
    ("tracker.track.calls", "count", "lower", {_P50: ["track"]}),
    ("tracker.track.self_s", "s", "lower", {_P50: ["track"]}),
    ("tracker.image_curve.calls", "count", "lower", {_P50: ["track"]}),
    ("tracker.image_curve.self_s", "s", "lower", {_P50: ["track"]}),
    ("tracker.unit_normalize.calls", "count", "lower", {_P50: ["track"]}),
    ("tracker.unit_normalize.self_s", "s", "lower", {_P50: ["track"]}),
    ("tracker.rationalize_verify.self_s", "s", "lower", {_P50: ["track"]}),
    ("tracker.in_regime_ratio", "ratio", "higher", {_P50: ["track"]}),
    ("tracker.converged_ratio", "ratio", "higher", {_P50: ["track"]}),
    ("layer.problem.self_s", "s", "lower", {_P50: ["elim"]}),
    ("layer.groebner.self_s", "s", "lower", {"jobs_per_s": ["certify", "elim"]}),
    ("layer.mpoly.self_s", "s", "lower", {"jobs_per_s": ["elim"]}),
    ("layer.curves.self_s", "s", "lower", {_P50: ["certify"]}),
    ("layer.tracker.self_s", "s", "lower", {_P50: ["track"]}),
    ("setup.import_numpy_s", "s", "lower", {"setup_s": list(WORKLOADS)}),
    ("setup.import_nonproper_s", "s", "lower", {"setup_s": list(WORKLOADS)}),
    ("trace.overhead_ratio", "ratio", "lower", {}),
)


def tail_percentile(n):
    """Highest integer percentile p whose nearest-rank value still has at
    least TAIL_BEYOND samples above it among n samples.  The benchmark takes
    n as the number of distinct jobs in a pass, so the samples above the
    tail are distinct inputs, not repeats of a few, and the percentile is
    the same however many passes fit in a run."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    return 50


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


class Bench:
    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.jobs_path = self.work / "jobs.json"
        self.spans_path = self.work.parent / f"spans-{workload}-{seed}.json"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.worker = [sys.executable, str(HERE / "worker.py")]

    def write(self):
        jobs = write_jobs(self.workload, self.seed, self.work)
        spec = {"cap_s": CAP_S, "spans_path": str(self.spans_path), "jobs": jobs}
        self.jobs_path.write_text(json.dumps(spec))
        return jobs

    def _spawn(self, mode):
        """Start a worker; return (process, seconds until it said ready)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([*self.worker, mode, str(self.jobs_path)], cwd=ROOT,
                                env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True)
        try:
            ready = proc.stdout.readline()
            dt = time.perf_counter() - t0
            if ready.strip() != "ready":
                raise RuntimeError(f"worker did not start (exit {proc.wait()})")
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return proc, dt

    def _finish(self, proc, timeout=WORKER_TIMEOUT_S):
        """Wait for a worker (killing it at the timeout); return its stdout."""
        try:
            out, _ = proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return out

    def _spawn_timed(self, mode):
        """_spawn with the reference kernel timed just before and after:
        (process, (seconds, scaled seconds))."""
        before = reference_s()
        proc, dt = self._spawn(mode)
        return proc, (dt, scaled(dt, before, reference_s()))

    def probe(self):
        """(seconds, scaled seconds) from spawning an interpreter until
        `import nonproper.cli` returns."""
        proc, dt = self._spawn_timed("probe")
        self._finish(proc)
        return dt

    def import_split(self):
        """Median (numpy, rest of nonproper) import seconds from -X importtime."""
        numpy_s, own_s = [], []
        for _ in range(IMPORTTIME_STARTS):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import nonproper.cli"],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60, check=True)
            cum = {}
            for line in proc.stderr.splitlines():
                m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
                if m:
                    cum[m.group(2)] = int(m.group(1)) / 1e6
            numpy_s.append(cum.get("numpy", 0.0))
            own_s.append(cum["nonproper.cli"] - numpy_s[-1])
        return statistics.median(numpy_s), statistics.median(own_s)

    def run(self):
        """Timed passes until the passes add up to the run's seconds (and at
        least MIN_PASSES).  Between passes, while the worker waits, probe
        interpreters are started so that the SETUP_STARTS set-up samples
        spread over the whole run.  A run whose passes are not done after
        RUN_DEADLINE_S is stopped and raises.  Returns (worker result, pass
        seconds, set-up samples)."""
        self.probe()  # untimed: writes the bytecode caches
        proc, first = self._spawn_timed("run")
        setups, passes, t0 = [first], [], time.perf_counter()
        try:
            while len(passes) < MIN_PASSES or sum(passes) < self.seconds:
                if passes and time.perf_counter() - t0 > BUDGET_S:
                    break
                proc.stdin.write("pass\n")
                proc.stdin.flush()
                ready, _, _ = select.select([proc.stdout], [], [],
                                            max(t0 + RUN_DEADLINE_S - time.perf_counter(), 0.0))
                if not ready:
                    raise RuntimeError(f"pass {len(passes) + 1} not done after "
                                       f"{RUN_DEADLINE_S:g} s of the run")
                passes.append(json.loads(proc.stdout.readline())["pass_s"])
                while len(setups) < SETUP_STARTS * min(1.0, sum(passes) / self.seconds):
                    setups.append(self.probe())
            while len(setups) < SETUP_STARTS:
                setups.append(self.probe())
            proc.stdin.write("end\n")
            proc.stdin.flush()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        # the checks after the passes count against the same whole-run limit
        out = self._finish(proc, max(t0 + WORKER_TIMEOUT_S - time.perf_counter(), 1.0))
        return json.loads(out.strip().splitlines()[-1]), passes, setups

    def trace(self):
        proc, _ = self._spawn("trace")
        return json.loads(self._finish(proc).strip().splitlines()[-1])


def summarize(records):
    """(attempted, failed, correct).  A failed job (wrong report, crash,
    unexpected exit code or the wall cap) makes the whole run incorrect, so
    that times cut short by the cap never pass as clean figures."""
    attempted = len(records)
    failed = sum(1 for r in records if r["status"] != 0 or r["wrong"])
    return attempted, failed, failed == 0


def end_to_end(bench, njobs):
    result, passes, setups = bench.run()
    records = result["records"]
    attempted, failed, correct = summarize(records)
    p = tail_percentile(njobs)

    def timed(job_times, setup_times):
        """Metrics from one time per record (records come pass by pass,
        njobs to a pass) and the set-up times."""
        per_job = {}
        for r, t in zip(records, job_times):
            per_job.setdefault(r["id"], []).append(t)
        job_s = [statistics.median(v) for v in per_job.values()]
        pass_s = [sum(job_times[i:i + njobs]) for i in range(0, len(job_times), njobs)]
        return {
            "jobs_per_s": njobs / statistics.median(pass_s),
            "job_p50_s": statistics.median(job_s),
            "job_tail_s": nearest_rank(job_s, p),
            "setup_s": statistics.median(setup_times),
        }, job_s

    metrics, job_s = timed([scaled(r["s"], *r["ref_s"]) for r in records],
                           [s for _, s in setups])
    metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024
    wall, _ = timed([r["s"] for r in records], [dt for dt, _ in setups])
    notes = {
        "jobs_per_s": f"{njobs} jobs over the median of {len(passes)} passes' summed job times",
        "job_p50_s": f"median over {njobs} jobs of each job's median over its passes",
        "job_tail_s": f"p{p} over the same {njobs} job times, "
                      f"{sum(1 for t in job_s if t > metrics['job_tail_s'])} above it",
        "setup_s": f"median of {len(setups)} interpreter starts to `import nonproper.cli`",
    }
    print(f"{bench.workload} seed {bench.seed}: {len(passes)} passes x {njobs} jobs = {attempted} "
          f"jobs in {sum(passes):.2f} s (closed loop, 1 client); times scaled to the "
          f"reference speed, unscaled wall time in brackets")

    def line(name, unit):
        raw = f"[{wall[name]:.6g}]" if name in wall else ""
        print(f"  {name:12s} {metrics[name]:.6g} {unit} {raw:12s} {notes.get(name, '')}")

    for name, unit, _ in END_TO_END[:3]:
        line(name, unit)
    print(f"  {'fail_ratio':12s} {failed / attempted:.6g} ratio  {failed}/{attempted} runs failed")
    for name, unit, _ in END_TO_END[3:]:
        line(name, unit)
    return attempted, failed, correct, {n: {"value": metrics[n], "unit": u} for n, u, _ in END_TO_END}


def per_layer(bench):
    result = bench.trace()
    records = result["records"]
    untraced, traced = result["passes"]
    stats = dict(result["trace"])
    stats["setup.import_numpy_s"], stats["setup.import_nonproper_s"] = bench.import_split()
    stats["trace.overhead_ratio"] = traced / untraced - 1
    attempted, failed, correct = summarize(records)
    print(f"{bench.workload} seed {bench.seed}: jobs untraced {untraced:.3f} s, traced "
          f"{traced:.3f} s, overhead {stats['trace.overhead_ratio']:+.1%}; "
          f"self times are totals over the traced pass of {len(records) // 2} jobs; "
          f"spans in {bench.spans_path.relative_to(ROOT)}")
    layers = {k.split(".")[1]: v for k, v in stats.items() if k.startswith("layer.")}
    total = sum(layers.values()) or 1.0
    print("  self time by layer: " + ", ".join(
        f"{k} {v / total:.0%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    metrics = {}
    for name, unit, _, _ in PER_LAYER:
        metrics[name] = {"value": stats[name], "unit": unit}
        print(f"  {name:40s} {stats[name]:.6g} {unit}")
    return attempted, failed, correct, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nonproper" / "cli.py").is_file():
        print(f"no nonproper sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        jobs = bench.write()
        if args.trace:
            attempted, failed, correct, metrics = per_layer(bench)
        else:
            attempted, failed, correct, metrics = end_to_end(bench, len(jobs))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.work.parent.rmdir()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
