"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS, write_jobs  # noqa: E402


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob("*.json"))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_files_other_seed_other_files(workload, tmp_path):
    a = write_jobs(workload, 7, tmp_path / "a")
    b = write_jobs(workload, 7, tmp_path / "b")
    write_jobs(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert len(_files(tmp_path / "a")) == len(_files(tmp_path / "c")) == len(a)
    assert [j["expect"] for j in a] == [j["expect"] for j in b]


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        row[:3] for row in run.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_tail_percentile_keeps_ten_samples_above():
    for n in (30, 45, 126, 144, 1000):
        p = run.tail_percentile(n)
        values = list(range(n))
        assert sum(1 for v in values if v > run.nearest_rank(values, p)) >= run.TAIL_BEYOND
        assert sum(1 for v in values if v > run.nearest_rank(values, p + 1)) < run.TAIL_BEYOND


@pytest.fixture
def worker():
    import worker as module

    old = signal.signal(signal.SIGALRM, module._on_alarm)
    yield module
    signal.signal(signal.SIGALRM, old)


def _jobs(tmp_path):
    # cheap ones: two twist sf jobs, one d=2 certify, two track jobs
    jobs = (write_jobs("elim", 3, tmp_path / "e")[:2] + write_jobs("certify", 3, tmp_path / "c")[:1]
            + write_jobs("track", 3, tmp_path / "t")[:2])
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def test_traced_self_times_fit_in_wall_time_and_originals_return(worker, tmp_path):
    import nonproper.cli
    from nonproper.groebner import Ideal
    from tracing import Tracer

    originals = (nonproper.cli.main, nonproper.cli.sf_compute, Ideal.groebner)
    records, reports = [], {}
    tracer = Tracer()
    tracer.install()
    try:
        assert nonproper.cli.sf_compute is not originals[1]
        worker.run_pass(_jobs(tmp_path), 60.0, records, reports, tracer)
    finally:
        tracer.uninstall()
    assert (nonproper.cli.main, nonproper.cli.sf_compute, Ideal.groebner) == originals
    assert all(r["status"] == 0 for r in records)
    for r in records:
        assert 0 < r["self_s"] <= r["s"]
    stats = tracer.summary()
    assert stats["cli.main.calls"] == len(records)
    assert stats["properness.sf_compute.calls"] == 4  # two sf jobs, two track jobs
    assert stats["tracker.converged_ratio"] == 1.0
    assert stats["curves.no_smaller_curve.proved_ratio"] == 1.0
    # only outermost gcd calls are spans, so no gcd span has a gcd parent
    spans = tracer.spans
    assert not any(s[0] == "mpoly.mpoly_gcd" and s[3] >= 0 and spans[s[3]][0] == "mpoly.mpoly_gcd"
                   for s in spans)


def test_reports_pass_their_checks_and_wrong_reports_fail(worker, tmp_path):
    for job in _jobs(tmp_path):
        _, status, text = worker.run_job(job, 60.0)
        assert worker.check_report(job, status, text) is None
        report = json.loads(text)
        if report["command"] == "sf":
            report["result"]["components"] = [["y1"]]
        elif report["command"] == "certify":
            report["result"]["minimality"] = {}
        else:
            report["result"]["runs"][0]["verified_curve"]["coefficients"][1][0] = "5"
        assert worker.check_report(job, status, json.dumps(report)) is not None
        assert worker.check_report(job, 4, text) == "exit code 4"


def test_job_at_the_cap_is_a_timeout(worker, tmp_path):
    dense = write_jobs("elim", 3, tmp_path)[-1]
    seconds, status, _ = worker.run_job(dense, 0.01)
    assert status == "timeout" and seconds < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "elim", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_any_failed_job_makes_the_run_incorrect():
    ok = {"status": 0, "wrong": None}
    assert run.summarize([ok, ok]) == (2, 0, True)
    for bad in ({"status": "timeout", "wrong": None}, {"status": "error", "wrong": None},
                {"status": 2, "wrong": None}, {"status": 0, "wrong": "components differ"}):
        assert run.summarize([ok, bad]) == (2, 1, False)


def test_reference_kernel_brackets_every_job_and_scales_times(worker, tmp_path):
    from reference import REF_S, scaled

    records = []
    worker.run_pass(_jobs(tmp_path)[:3], 60.0, records, {}, reference=True)
    assert all(0 < ref for r in records for ref in r["ref_s"])
    assert all(a["ref_s"][1] == b["ref_s"][0] for a, b in zip(records, records[1:]))
    assert scaled(0.5, REF_S, REF_S) == 0.5
    assert scaled(0.5, 2 * REF_S, 2 * REF_S) == 0.25
