"""Command-line front end.

Commands: sf, certify, track, decompose, fixlocus, bounds, examples.
The machine-readable JSON report goes to stdout; a short human-readable
rendering goes to stderr (silence it with --quiet).  Exit codes: 0
success, 1 internal error, 2 parse error, 3 precondition violation, 4
search failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

from .corpus import run_corpus
from .curves import (
    certify,
    common_inner,
    decompose,
    fixed_locus,
    leading_behavior,
)
from .errors import (
    NonproperError,
    ParseError,
    PreconditionError,
    SearchError,
    VerificationError,
)
from .problem import (
    KMAX_RANGE,
    format_rational,
    load_problem,
    make_report,
    render_curve,
    render_ideal,
)
from .properness import sf_compute, theorem_bound
from .tracker import rationalize_verify, track

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SEARCH = 4
EXIT_VERIFY = 5


def _say(args, *lines):
    if not args.quiet:
        for line in lines:
            print(line, file=sys.stderr)


def _emit(report):
    print(json.dumps(report, indent=1, sort_keys=True))


def cmd_sf(args, prob):
    t0 = time.perf_counter()
    f = prob.polymap()
    sf = sf_compute(f)
    result = {
        "image_variables": list(f.image_names),
        "image_ideal": render_ideal(sf.image_ideal, args.order),
        "components": [render_ideal(c, args.order) for c in sf.components],
        "coordinates": [
            {
                "variable": cd.name,
                "min_poly": str(cd.min_poly),
                "lead_coeff": str(cd.lead_coeff),
                "degree": cd.degree,
            }
            for cd in sf.coordinates
        ],
        "flags": {
            "generically_finite": sf.generically_finite,
            "dominant": sf.dominant,
            "hypersurface": sf.hypersurface_ok,
            "empty": sf.is_empty,
            "real_superset_warning": sf.real_superset_warning,
        },
    }
    checks = [("generically_finite", True, ""), ("hypersurface", sf.hypersurface_ok, "")]
    report = make_report("sf", prob.digest(), result, checks,
                         {"total": time.perf_counter() - t0})
    if sf.is_empty:
        _say(args, "non-properness set: empty (the map is proper over its image closure)")
    else:
        _say(args, "non-properness set components:")
        for comp in sf.components:
            _say(args, "  V(" + ", ".join(render_ideal(comp, args.order)) + ")")
        if sf.real_superset_warning:
            _say(args, "warning: real mode reports the complex set, a superset "
                       "of the real non-properness set")
    _emit(report)
    return EXIT_OK


def cmd_bounds(args, prob):
    t0 = time.perf_counter()
    f = prob.polymap()
    bounds = {}
    skipped = {}
    applicable = ("cn", "wn", "multc") if prob.mode == "complex" else ("cn1", "wn", "multc1")
    for mode in applicable:
        try:
            d1 = prob.d1 if mode in ("multc", "multc1") else None
            bounds[mode] = theorem_bound(f, mode, d1=d1)
        except PreconditionError as e:
            skipped[mode] = str(e)
    result = {"degree": f.degree, "bounds": bounds, "skipped": skipped}
    report = make_report("bounds", prob.digest(), result, [],
                         {"total": time.perf_counter() - t0})
    _say(args, f"map degree {f.degree}; bound table:")
    for mode, val in bounds.items():
        _say(args, f"  {mode}: {val}")
    for mode, why in skipped.items():
        _say(args, f"  {mode}: not applicable ({why})")
    _emit(report)
    return EXIT_OK


def cmd_certify(args, prob):
    t0 = time.perf_counter()
    degree = args.degree if args.degree is not None else prob.degree
    if not degree:
        raise PreconditionError("certify needs a degree (problem file or --degree)")
    samples = list(prob.sample_points())
    if args.samples is not None:
        samples = samples[: args.samples]
    if not samples:
        raise PreconditionError("certify needs sample points in the problem file")
    sharpness = prob.sharpness or args.sharpness
    if prob.map_components:
        f = prob.polymap()
        sf = sf_compute(f)
        if sf.is_empty:
            raise SearchError("the non-properness set is empty; nothing to certify")
        target_ideal = sf.components[0]
        inequalities = ()
        mode = "complex"
        what = "first non-properness component"
    else:
        target_ideal = prob.domain_ideal()
        inequalities = prob.inequality_polys()
        mode = prob.mode
        what = "domain"
    cert = certify(
        target_ideal, inequalities, degree, samples, mode=mode,
        sharpness=sharpness, seed=args.seed,
    )
    result = {
        "certified": what,
        "variety": render_ideal(target_ideal, args.order),
        "degree": degree,
        "status": cert.status,
        "entries": [
            {
                "sample": [format_rational(x) for x in pt],
                "curve": render_curve(c) if c is not None else None,
            }
            for pt, c in cert.entries
        ],
        "minimality": {
            ",".join(format_rational(x) for x in pt): ok
            for pt, ok in cert.minimality.items()
        },
        "unbounded_coordinates": [
            leading_behavior(c) for c in cert.curves()
        ],
    }
    checks = [("all_samples_covered", cert.status == "verified", cert.status)]
    if sharpness and cert.minimality:
        checks.append(("sharpness", all(cert.minimality.values()), ""))
    report = make_report("certify", prob.digest(), result, checks,
                         {"total": time.perf_counter() - t0})
    _say(args, f"certificate for the {what}: {cert.status} at degree {degree}")
    for pt, c in cert.entries:
        _say(args, f"  {tuple(map(str, pt))} -> {c if c is not None else 'no curve found'}")
    _emit(report)
    if cert.status != "verified":
        return EXIT_SEARCH
    return EXIT_OK


def cmd_track(args, prob):
    t0 = time.perf_counter()
    f = prob.polymap()
    sf = sf_compute(f)
    targets = prob.target_points()
    paths = prob.path_specs()
    if not targets or not paths:
        raise PreconditionError("track needs targets and paths in the problem file")
    if len(targets) != len(paths):
        raise PreconditionError(
            f"targets and paths pair up by index: got {len(targets)} targets, {len(paths)} paths"
        )
    runs = []
    checks = []
    worst = EXIT_OK
    for idx, (target, path) in enumerate(zip(targets, paths)):
        trace = track(f, target, path, tol=args.tol)
        run = {
            "target": [format_rational(x) for x in target],
            "kind": path.kind,
            "schedule": list(path.schedule),
            "status": trace.status,
            "lambdas": [float(x) for x in trace.lambdas],
            "lambda_growth": [float(x) for x in trace.lambda_growth()],
            "diffs": [float(d) for d in trace.diffs],
            "limit_estimate": [
                [repr(complex(c)) for c in row] for row in trace.limit_estimate.coeffs
            ],
        }
        checks.append((f"converged[{idx}]", trace.status == "converged", trace.status))
        if trace.status == "converged":
            verified = rationalize_verify(trace, sf)
            run["verified_curve"] = render_curve(verified.curve)
            run["outer_curve"] = render_curve(verified.outer)
            run["outer_degree"] = verified.outer_degree
            checks.append((f"exact_verification[{idx}]", True, ""))
        else:
            worst = max(worst, EXIT_VERIFY)
        runs.append(run)
        if args.csv:
            _write_csv(args.csv, idx, path, trace)
    report = make_report("track", prob.digest(), {"runs": runs}, checks,
                         {"total": time.perf_counter() - t0})
    for run in runs:
        _say(args, f"target {run['target']}: {run['status']}"
                   + (f", verified limit {run['verified_curve']['coordinates']}"
                      if "verified_curve" in run else ""))
    _emit(report)
    return worst


def _write_csv(base, idx, path, trace):
    name = base if idx == 0 else f"{base}.{idx}"
    with open(name, "w") as fh:
        fh.write("k,lambda,diff\n")
        diffs = [""] + [str(d) for d in trace.diffs]
        for step, d in zip(trace.steps, diffs + [""] * len(trace.steps)):
            fh.write(f"{step.k},{step.lam},{d}\n")


def cmd_decompose(args, prob):
    t0 = time.perf_counter()
    curve = prob.curve_object()
    if curve.m == 1:
        outer, inner = decompose(curve.coordinate(0))
        result = {
            "kind": "decompose",
            "outer": [format_rational(c) for c in outer],
            "inner": [format_rational(c) for c in inner],
            "outer_degree": max(len(outer) - 1, 0),
            "inner_degree": max(len(inner) - 1, 0),
        }
        _say(args, f"outer coefficients {result['outer']}, inner {result['inner']}")
    else:
        outer, inner = common_inner(curve)
        result = {
            "kind": "common_inner",
            "outer": render_curve(outer),
            "inner": [format_rational(c) for c in inner],
            "outer_degree": outer.effective_degree,
            "inner_degree": max(len(inner) - 1, 0),
        }
        _say(args, f"outer {outer}, inner coefficients {result['inner']}")
    report = make_report("decompose", prob.digest(), result, [],
                         {"total": time.perf_counter() - t0})
    _emit(report)
    return EXIT_OK


def cmd_fixlocus(args, prob):
    t0 = time.perf_counter()
    action = prob.one_param_action()
    fix = fixed_locus(action)
    gens = render_ideal(fix, args.order)
    result = {
        "generators": gens,
        "unit_ideal": fix.is_unit(),
        "parameter_degree": action.degree_in_parameter(),
    }
    report = make_report("fixlocus", prob.digest(), result, [],
                         {"total": time.perf_counter() - t0})
    _say(args, "fixed locus: " + ("empty (unit ideal)" if fix.is_unit()
                                  else "V(" + ", ".join(gens) + ")"))
    _emit(report)
    return EXIT_OK


def cmd_examples(args, _prob):
    t0 = time.perf_counter()
    names = args.only.split(",") if args.only else None
    matrix = []
    all_ok = True
    for entry, checks in run_corpus(names):
        ok = all(c.ok for c in checks)
        all_ok = all_ok and ok
        matrix.append({
            "name": entry.name,
            "kind": entry.kind,
            "ok": ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        })
        _say(args, f"{entry.name:30s} {'PASS' if ok else 'FAIL'}")
        for c in checks:
            if not c.ok:
                _say(args, f"    failed: {c.name} {c.detail}")
    digest = "sha256:" + hashlib.sha256("corpus".encode()).hexdigest()
    report = make_report("examples", digest, {"matrix": matrix},
                         [("all_pass", all_ok, "")],
                         {"total": time.perf_counter() - t0})
    _emit(report)
    return EXIT_OK if all_ok else EXIT_VERIFY


COMMANDS = {
    "sf": (cmd_sf, True),
    "bounds": (cmd_bounds, True),
    "certify": (cmd_certify, True),
    "track": (cmd_track, True),
    "decompose": (cmd_decompose, True),
    "fixlocus": (cmd_fixlocus, True),
    "examples": (cmd_examples, False),
}


def _count(text, lo=1, hi=None):
    """argparse type of a count override: an integer in [lo, hi]."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < lo:
        raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
    if hi is not None and value > hi:
        raise argparse.ArgumentTypeError(f"must be at most {hi}, got {value}")
    return value


def _kmax(text):
    """argparse type of --kmax: the problem file's kmax range."""
    return _count(text, *KMAX_RANGE)


def _tolerance(text):
    """argparse type of --tol: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


@functools.cache
def build_parser():
    """The argument parser, built on first use and then reused: main only
    calls parse_args, which leaves the parser unchanged."""
    ap = argparse.ArgumentParser(
        prog="nonproper",
        description="Exact non-properness sets of polynomial maps, certified "
                    "curve coverings, and numeric limit-curve tracking.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, needs_file) in COMMANDS.items():
        p = sub.add_parser(name)
        if needs_file:
            p.add_argument("problem", help="problem file (JSON, format 1)")
        p.add_argument("--order", choices=["lex", "grevlex"], default="lex",
                       help="monomial order for printed polynomials")
        p.add_argument("--degree", type=_count, default=None,
                       help="override the curve degree bound (at least 1)")
        p.add_argument("--samples", type=_count, default=None,
                       help="cap the number of sample points used (at least 1)")
        p.add_argument("--kmax", type=_kmax, default=None,
                       help="override the geometric schedule length "
                            f"({KMAX_RANGE[0]} to {KMAX_RANGE[1]})")
        p.add_argument("--tol", type=_tolerance, default=1e-8,
                       help="tracker convergence tolerance (positive, finite)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized curve-search substitutions")
        p.add_argument("--sharpness", action="store_true",
                       help="also prove no smaller curve exists at each sample")
        p.add_argument("--csv", default=None,
                       help="write per-step tracker data as CSV")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary on stderr")
        if name == "examples":
            p.add_argument("--only", default=None,
                           help="comma-separated corpus entry names")
        p.set_defaults(fn=fn, needs_file=needs_file)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        prob = None
        if args.needs_file:
            prob = load_problem(args.problem)
            if args.kmax is not None:
                prob.kmax = args.kmax
        return args.fn(args, prob)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:  # a missing or unreadable input or output path
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as e:
        print(f"precondition violation: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SearchError as e:
        print(f"search failure: {e}", file=sys.stderr)
        return EXIT_SEARCH
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except NonproperError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as e:  # a bug, not a bad input: one line, no traceback
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
