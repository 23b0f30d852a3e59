"""Seeded job lists for the three benchmark workloads.

A job is one CLI call on one generated problem file.  The map families are
fixed; the seed draws only nonzero small coefficients, sample scalars and
targets, and never looks at a result.  Each job carries an ``expect``
record that the worker's correctness check reads; the program itself
receives only the problem file and the command line.

    elim     sf on the twist ladder (x + c*(x*y)^d, x*y), d = 2..9, a
             3-variable twist, and dense rungs
             (a*x^3*y + b*x + c*y, e*x^2*y + g*y^2 + h*x).
    certify  certify --sharpness on the twist component y1 - c*y2^d at
             d = 2 and 3 through samples (c*s^d, s), and one d = 4
             certify at (0, 0) without sharpness.
    track    track on the twist family d = 2..8 and the scaling map
             (x1, x1*x2) along paths (1/k^2, s*k^2), kmax 20, 25 and 30.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("elim", "certify", "track")

SMALL = (1, 2, 3)
TWIST_LADDER = range(2, 10)
TWIST_LADDER_REPEATS = 3
TWIST3_DEGREES = (2, 3)
DENSE_RUNGS = 16  # even: each coefficient slot takes magnitude 1 and 2 equally often
CERTIFY_D2 = 10
CERTIFY_D3 = 29
TRACK_DEGREES = range(2, 9)
TRACK_KMAX = (20, 25, 30)
TRACK_REPEATS = 2


def _signed(rng, mags=SMALL):
    return rng.choice(mags) * rng.choice((1, -1))


def _distinct_scalars(rng, count):
    pool = [m * s for m in SMALL for s in (1, -1)]
    return rng.sample(pool, count)


def _lin(*terms):
    """Polynomial text from (coefficient, monomial) pairs, skipping zeros;
    a monomial of '' is the constant term."""
    out = ""
    for c, mono in terms:
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out or "0"


def _twist_map(c, d):
    return [_lin((1, "x"), (c, f"(x*y)^{d}")), "x*y"]


def _elim_jobs(rng):
    jobs = []
    for d in TWIST_LADDER:
        for _ in range(TWIST_LADDER_REPEATS):
            c = _signed(rng)
            jobs.append(("sf", [], {"vars": ["x", "y"], "map": _twist_map(c, d)},
                         {"kind": "twist", "c": c, "d": d}))
    for d in TWIST3_DEGREES:
        c, e = _signed(rng), _signed(rng)
        prob = {"vars": ["x", "y", "z"],
                "map": [_lin((1, "x"), (c, f"(x*y)^{d}")), "x*y", _lin((1, "z"), (e, "x"))]}
        jobs.append(("sf", [], prob, {"kind": "twist", "c": c, "d": d}))
    # Stratified draw: every slot sees magnitudes 1 and 2 equally often, in
    # seeded order and with seeded signs, so the sum of rung times moves
    # little from seed to seed.
    slots = []
    for _ in range(6):
        mags = [1, 2] * (DENSE_RUNGS // 2)
        rng.shuffle(mags)
        slots.append([m * rng.choice((1, -1)) for m in mags])
    for a, b, c, e, g, h in zip(*slots):
        prob = {"vars": ["x", "y"],
                "map": [_lin((a, "x^3*y"), (b, "x"), (c, "y")),
                        _lin((e, "x^2*y"), (g, "y^2"), (h, "x"))]}
        jobs.append(("sf", [], prob, {"kind": "dense"}))
    return jobs


def _certify_job(c, d, scalars, sharpness):
    samples = [[str(c * s ** d), str(s)] for s in scalars]
    prob = {"vars": ["y1", "y2"],
            "domain_equations": [_lin((1, "y1"), (-c, f"y2^{d}"))],
            "degree": d, "samples": samples}
    args = ["--sharpness"] if sharpness else []
    return ("certify", args, prob, {"kind": "certify", "sharpness": sharpness})


def _certify_jobs(rng):
    jobs = []
    for d, count in ((2, CERTIFY_D2), (3, CERTIFY_D3)):
        for _ in range(count):
            jobs.append(_certify_job(_signed(rng), d, _distinct_scalars(rng, 2), True))
    jobs.append(_certify_job(_signed(rng), 4, [0], False))
    return jobs


def _track_job(vars_, map_, target, s, kmax, component):
    prob = {"vars": vars_, "map": map_, "targets": [[str(v) for v in target]],
            "paths": [{"kind": "radial", "point": ["1/k^2", f"{s}*k^2"]}], "kmax": kmax}
    return ("track", [], prob, {"kind": "track", "component": component})


def _track_jobs(rng):
    jobs = []
    for d in TRACK_DEGREES:
        for kmax in TRACK_KMAX:
            for _ in range(TRACK_REPEATS):
                c, s = _signed(rng), _signed(rng)
                jobs.append(_track_job(["x", "y"], _twist_map(c, d), (c * s ** d, s), s, kmax,
                                       _lin((1, "y1"), (-c, f"y2^{d}"))))
    for kmax in TRACK_KMAX:
        for _ in range(TRACK_REPEATS):
            s = _signed(rng)
            jobs.append(_track_job(["x1", "x2"], ["x1", "x1*x2"], (0, s), s, kmax, "y1"))
    return jobs


_JOB_LISTS = {"elim": _elim_jobs, "certify": _certify_jobs, "track": _track_jobs}


def generate(workload, seed):
    """[(command, extra CLI args, problem dict, expect dict)] for one pass."""
    rng = random.Random(f"{workload}:{seed}")
    return _JOB_LISTS[workload](rng)


def write_jobs(workload, seed, outdir):
    """Write one problem file per job into outdir and return the job list
    the worker reads: id, command, argv for ``nonproper.cli.main`` and the
    expectation for the check."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for i, (cmd, args, prob, expect) in enumerate(generate(workload, seed)):
        path = outdir / f"{workload}-{i:03d}.json"
        path.write_text(json.dumps({"format": 1, **prob}, indent=1, sort_keys=True) + "\n")
        jobs.append({"id": i, "argv": [cmd, str(path), "--quiet", *args], "expect": expect})
    return jobs
