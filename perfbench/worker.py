"""Benchmark worker: one fresh, single-threaded interpreter per run.

    python3 perfbench/worker.py probe JOBS   import nonproper.cli, say ready, exit
    python3 perfbench/worker.py run JOBS     one timed pass per "pass" line on stdin,
                                             the reference kernel timed between jobs
    python3 perfbench/worker.py trace JOBS   each job once untraced, once traced

The worker prints ``ready`` as soon as ``import nonproper.cli`` returns, so
the parent can time interpreter start-up plus import.  Each job is an
in-process call to ``nonproper.cli.main(argv)`` with the report captured
from stdout; the call is the timed region.  A job that reaches the per-job
wall cap is stopped by SIGALRM and recorded as a failed data point at the
time it ran.  Every distinct report is checked exactly after the timed
passes (see ``check_report``), and the last stdout line is one JSON object
with the per-job records.
"""

import sys

import nonproper.cli as cli

print("ready", flush=True)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

from nonproper.curves import (  # noqa: E402
    ParametricCurve,
    substitute_curve,
    verify_curve,
    verify_curve_pointwise,
)
from nonproper.parser import parse_poly  # noqa: E402
from nonproper.problem import load_problem, render_ideal  # noqa: E402
from nonproper.properness import sf_components_resultant  # noqa: E402
from reference import reference_s  # noqa: E402


class JobTimeout(BaseException):
    """Raised by SIGALRM when a job reaches its wall cap.  A BaseException,
    so no handler inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout


def run_job(job, cap_s):
    """(seconds, exit code or "timeout"/"error", report text)."""
    out, err = io.StringIO(), io.StringIO()
    status = "error"
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(job["argv"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        status = "timeout"
    except Exception:  # a crash is a failed job, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - t0, status, out.getvalue()


def run_pass(jobs, cap_s, records, reports, tracer=None, reference=False):
    """Run the jobs once each; append a record per job and keep the first
    report of each distinct outcome for checking.  With ``reference`` the
    reference kernel runs before the first job and after every job, and
    each record keeps the kernel times before and after it.  Returns the
    wall time."""
    t0 = time.perf_counter()
    ref = reference_s() if reference else None
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(job["id"])
        dt, status, text = run_job(job, cap_s)
        rec = {"id": job["id"], "s": dt, "status": status}
        if reference:
            rec["ref_s"] = [ref, reference_s()]
            ref = rec["ref_s"][1]
        if tracer is not None:
            rec["self_s"] = tracer.end_job()
        records.append(rec)
        if status not in ("timeout", "error"):
            key = (job["id"], status, _digest(text))
            reports.setdefault(key, text)
            rec["key"] = key
    return time.perf_counter() - t0


def _digest(text):
    """Report digest without the volatile ``timings`` field."""
    try:
        report = json.loads(text)
    except ValueError:
        return "unparsable:" + hashlib.sha256(text.encode()).hexdigest()
    report.pop("timings", None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


# -- independent checks ------------------------------------------------------------


def _curve(rendered):
    vecs = [[Fraction(c) for c in vec] for vec in rendered["coefficients"]]
    return ParametricCurve(len(vecs[0]), len(vecs) - 1, vecs)


def _check_sf(prob, result, expect):
    f = prob.polymap()
    got = sorted(tuple(c) for c in result["components"])
    oracle = sorted(tuple(render_ideal(c, "lex")) for c in sf_components_resultant(f))
    if got != oracle:
        return f"components {got} differ from the resultant path {oracle}"
    if expect["kind"] == "twist":
        yctx = f.image_context()
        closed = (yctx.var("y1") - expect["c"] * yctx.var("y2") ** expect["d"]).canonical()
        if len(got) != 1 or len(got[0]) != 1 or parse_poly(got[0][0], yctx).canonical() != closed:
            return f"components {got} differ from the closed form {closed}"
    return None


def _check_certify(prob, result, expect):
    if result["status"] != "verified":
        return f"status {result['status']}"
    variety, d = prob.domain_ideal(), prob.degree
    samples = prob.sample_points()
    if [tuple(Fraction(x) for x in e["sample"]) for e in result["entries"]] != list(samples):
        return "entries do not match the samples"
    for entry, pt in zip(result["entries"], samples):
        if entry["curve"] is None:
            return f"no curve at {entry['sample']}"
        curve = _curve(entry["curve"])
        if not verify_curve(variety, (), curve, pt, d).ok or not verify_curve_pointwise(variety, curve):
            return f"curve at {entry['sample']} fails verification"
    want = {",".join(str(x) for x in pt) for pt in samples} if expect["sharpness"] and d >= 2 else set()
    if set(result["minimality"]) != want or not all(result["minimality"].values()):
        return f"minimality {result['minimality']}"
    return None


def _check_track(prob, result, expect):
    run = result["runs"][0]
    if run["status"] != "converged" or "verified_curve" not in run:
        return f"status {run['status']}"
    curve = _curve(run["verified_curve"])
    g = parse_poly(expect["component"], prob.polymap().image_context())
    if curve.is_constant() or not substitute_curve(g, curve).is_zero():
        return f"limit curve {run['verified_curve']['coordinates']} is not on {expect['component']}"
    return None


_CHECKS = {"sf": _check_sf, "certify": _check_certify, "track": _check_track}


def check_report(job, status, text):
    """None if the report is right, else the reason.  Uses only exact
    arithmetic and paths independent of the one under test where the
    package has them: the resultant elimination for sf, closed-form
    components, and curve verification by substitution and by pointwise
    evaluation."""
    if status != 0:
        return f"exit code {status}"
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON"
    cmd, path = job["argv"][0], job["argv"][1]
    if report.get("command") != cmd:
        return f"report command {report.get('command')!r}"
    return _CHECKS[cmd](load_problem(path), report["result"], job["expect"])


# -- main ---------------------------------------------------------------------------------


def main(mode, jobs_path):
    if mode == "probe":
        return 0
    with open(jobs_path) as fh:
        spec = json.load(fh)
    jobs = spec["jobs"]
    signal.signal(signal.SIGALRM, _on_alarm)
    records, reports, passes = [], {}, []
    if mode == "run":
        # the parent sends "pass" for every pass it wants and "end" at the end
        for command in sys.stdin:
            if command.strip() != "pass":
                break
            passes.append(run_pass(jobs, spec["cap_s"], records, reports, reference=True))
            print(json.dumps({"pass_s": passes[-1]}), flush=True)
        traced = None
    else:
        from tracing import Tracer

        # Each job runs untraced and then traced, so that the overhead compares
        # runs made seconds apart on a machine whose speed drifts.
        tracer = Tracer()
        passes = [0.0, 0.0]
        for job in jobs:
            passes[0] += run_pass([job], spec["cap_s"], records, reports)
            tracer.install()
            try:
                passes[1] += run_pass([job], spec["cap_s"], records, reports, tracer)
            finally:
                tracer.uninstall()
        tracer.write_spans(spec["spans_path"])
        traced = tracer.summary()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    by_id = {job["id"]: job for job in jobs}
    verdicts = {key: check_report(by_id[key[0]], key[1], text) for key, text in reports.items()}
    for rec in records:
        key = rec.pop("key", None)
        rec["wrong"] = verdicts[key] if key else None
        if rec["wrong"]:
            print(f"job {rec['id']} ({' '.join(by_id[rec['id']]['argv'])}): {rec['wrong']}",
                  file=sys.stderr)
    print(json.dumps({"passes": passes, "records": records, "peak_rss_kb": peak_rss_kb,
                      "trace": traced}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else None))
