#!/usr/bin/env python3
"""Fingerprint the CLI's reports on a fixed set of runs.

    PYTHONPATH=src python3 scripts/compare_reports.py [--seeds 1 2 3] > reports.txt

Every run is an in-process call to ``nonproper.cli.main``.  The script
prints one line per run: a label, the exit code and the sha256 of the JSON
report with its volatile ``timings`` removed, together with what the run
wrote to stderr (error messages included).  The runs are:

- ``nonproper examples``;
- every ``problems/*.json`` under ``sf``, ``bounds``, ``certify``,
  ``certify --sharpness``, ``track``, ``fixlocus`` and ``decompose``;
- the benchmark job files of each given seed, for every workload, written
  by ``perfbench/workloads.py`` into a temporary directory (whose name is
  replaced by a fixed token in stderr, so error messages compare equal).

The inputs come from this script's checkout and the code from whichever
``nonproper`` is on the path, so two checkouts are compared by running the
script twice with different ``PYTHONPATH`` and diffing the outputs: equal
files mean every run gave the same exit code and the same report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import nonproper  # noqa: E402
import nonproper.cli as cli  # noqa: E402
from workloads import WORKLOADS, write_jobs  # noqa: E402

PROBLEM_COMMANDS = (["sf"], ["bounds"], ["certify"], ["certify", "--sharpness"], ["track"],
                    ["fixlocus"], ["decompose"])


def fingerprint(argv, workdir):
    """(exit code, sha256 of the report without timings and of stderr) of
    one CLI call."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    try:
        report = json.loads(text)
    except json.JSONDecodeError:  # no report (an error exit): hash what was printed
        body = text
    else:
        report.pop("timings", None)
        body = json.dumps(report, sort_keys=True)
    body += "\n--- stderr ---\n" + err.getvalue().replace(str(workdir), "<workdir>")
    return code, hashlib.sha256(body.encode()).hexdigest()


def runs(seeds, workdir):
    """(label, argv) for every run, in a fixed order."""
    yield "examples", ["examples", "--quiet"]
    for path in sorted((ROOT / "problems").glob("*.json")):
        for cmd in PROBLEM_COMMANDS:
            yield f"{path.name} {' '.join(cmd)}", [cmd[0], str(path), "--quiet", *cmd[1:]]
    for workload in WORKLOADS:
        for seed in seeds:
            outdir = Path(workdir) / f"{workload}-{seed}"
            for job in write_jobs(workload, seed, outdir):
                yield f"{workload} seed {seed} job {job['id']:03d}", job["argv"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3],
                    help="benchmark job seeds (default 1 2 3)")
    args = ap.parse_args(argv)
    print(f"nonproper from {Path(nonproper.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as workdir:
        for label, run_argv in runs(args.seeds, workdir):
            code, digest = fingerprint(run_argv, workdir)
            print(f"{label}: exit {code} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
