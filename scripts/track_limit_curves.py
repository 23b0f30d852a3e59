#!/usr/bin/env python3
"""Reproduce the limit-curve runs on the corpus maps, printing the
per-step normalization factors and convergence metric, then the exact
rational curve each trace verifies to.

Usage: track_limit_curves.py [kmax]
"""

import sys
from fractions import Fraction as Q

from nonproper import (
    Context,
    PathSpec,
    PolyMap,
    parse_poly,
    rationalize_verify,
    sf_compute,
    track,
)

C2 = Context(("x1", "x2"))
CXY = Context(("x", "y"))


def build_runs():
    scaling = PolyMap(C2, (parse_poly("x1", C2), parse_poly("x1*x2", C2)))
    runs = [("scaling_n2", scaling, (0, 1), lambda k: (Q(1, k * k), Q(k * k)))]
    for d in (2, 3):
        f = PolyMap(CXY, (parse_poly(f"x + (x*y)^{d}", CXY), parse_poly("x*y", CXY)))
        target = (Q(2 ** d), Q(2))
        runs.append((f"twist_d{d}", f, target, lambda k: (Q(1, k * k), Q(2 * k * k))))
    return runs


def main():
    kmax = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    for name, f, target, point in build_runs():
        print(f"=== {name}: target {tuple(map(str, target))} ===")
        trace = track(f, target, PathSpec.geometric(point, "radial", kmax))
        print("  k        lambda        step-diff")
        diffs = [float("nan")] + list(trace.diffs)
        for step, diff in zip((s for s in trace.steps if s.in_regime), diffs):
            print(f"  2^{step.k.bit_length() - 1:<3d}  {step.lam:.8f}  {diff:.3e}")
        print(f"  status: {trace.status}")
        if trace.status == "converged":
            verified = rationalize_verify(trace, sf_compute(f))
            print(f"  exact limit curve: {verified.curve}")
            print(f"  decomposes through inner of degree "
                  f"{len(verified.inner) - 1}; outer degree "
                  f"{verified.outer_degree} (deg f - 1 = {f.degree - 1})")
        print()


if __name__ == "__main__":
    main()
