"""Floating-point sampling helpers for the tests.

They compare the real images of two exact curves numerically and never
feed back into anything the package certifies.
"""

import numpy as np


def point_to_curve_distance(point, curve):
    """Numeric distance from a point to the real image of a curve, via
    the critical points of the squared-distance polynomial."""
    coords = [np.array([float(c) for c in curve.coordinate(i)]) for i in range(curve.m)]
    # squared distance D(s) = sum_i (phi_i(s) - p_i)^2
    D = np.zeros(1)
    for i in range(curve.m):
        cs = coords[i].copy()
        cs[0] -= float(point[i])
        sq = np.convolve(cs, cs)
        n = max(len(D), len(sq))
        D = np.pad(D, (0, n - len(D))) + np.pad(sq, (0, n - len(sq)))
    dD = np.polynomial.polynomial.polyder(D)
    cand = [0.0]
    if len(dD) > 1 or dD[0] != 0:
        roots = np.polynomial.polynomial.polyroots(dD)
        cand.extend(r.real for r in roots if abs(r.imag) < 1e-9)
    best = float("inf")
    for s in cand:
        val = sum(
            (float(np.polynomial.polynomial.polyval(s, coords[i])) - float(point[i])) ** 2
            for i in range(curve.m)
        )
        best = min(best, val)
    return best ** 0.5


def images_mutually_close(curve_a, curve_b, n=200, tol=1e-9, span=1.5):
    """Sample n parameter values on each curve and require every sampled
    point to lie within tol of the other curve's image."""
    ts = np.linspace(-span, span, n)
    for s in ts:
        pa = [float(np.polynomial.polynomial.polyval(s, [float(c) for c in curve_a.coordinate(i)]))
              for i in range(curve_a.m)]
        if point_to_curve_distance(pa, curve_b) > tol:
            return False
    for s in ts:
        pb = [float(np.polynomial.polynomial.polyval(s, [float(c) for c in curve_b.coordinate(i)]))
              for i in range(curve_b.m)]
        if point_to_curve_distance(pb, curve_a) > tol:
            return False
    return True
