#!/usr/bin/env python3
"""Reproduce the limit-curve runs on the corpus maps that have a path,
printing the per-step normalization factors and convergence metric, then
the exact rational curve each trace verifies to.

Usage: track_limit_curves.py [kmax]
"""

import sys

from nonproper.corpus import CORPUS
from nonproper.properness import sf_compute
from nonproper.tracker import rationalize_verify, track


def main():
    kmax = int(sys.argv[1]) if len(sys.argv) > 1 else None
    for entry in CORPUS:
        if entry.kind != "map":
            continue
        prob = entry.load()
        if not prob.paths:
            continue
        f, target = prob.polymap(), prob.targets[0]
        print(f"=== {entry.name}: target {tuple(map(str, target))} ===")
        trace = track(f, target, prob.path_specs(kmax)[0])
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
