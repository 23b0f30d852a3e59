"""Univariate polynomial tools over exact rationals.

A polynomial in t is a plain list of coefficients in ascending powers,
trimmed so that the last entry is nonzero ([] is the zero polynomial).
This module provides the arithmetic on such lists and the exact
real-root machinery: Yun squarefree decomposition, Sturm chains,
isolating intervals with multiplicities, and a global nonnegativity
test.  Vector-valued polynomials in t are ``curves.ParametricCurve``.

Interval conventions: Sturm counts are taken on half-open intervals
(a, b]; reported isolating intervals are closed, pairwise disjoint, have
width at most 1, and carry no root at either endpoint unless the root is
rational, in which case the interval is the degenerate [r, r].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError

Q = Fraction


# -- plain coefficient-list helpers (ascending powers, trimmed) ---------------


def utrim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def udeg(cs):
    return len(cs) - 1 if cs else -1


# uadd, umul and upow work on Fraction lists; a multivariate polynomial
# composed with a curve is expanded by curves.expand_along


def uadd(a, b):
    n = max(len(a), len(b))
    out = [Q(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return utrim(out)


def uneg(a):
    return [-c for c in a]


def usub(a, b):
    return uadd(a, uneg(b))


def umul(a, b):
    if not a or not b:
        return []
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return utrim(out)


def upow(a, e):
    out = [Q(1)]
    for _ in range(e):
        out = umul(out, a)
    return out


def ueval(a, t):
    t = Q(t)
    acc = Q(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


def uderiv(a):
    return utrim([c * i for i, c in enumerate(a)][1:])


def udivmod(a, b):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    r = list(a)
    q = [Q(0)] * max(len(a) - len(b) + 1, 0)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db and utrim(r):
        r = utrim(r)
        if len(r) - 1 < db:
            break
        s = r[-1] / lb
        k = len(r) - 1 - db
        q[k] = s
        for j in range(db + 1):
            r[k + j] -= s * b[j]
        r.pop()
    return utrim(q), utrim(r)


def udiv(a, b):
    q, r = udivmod(a, b)
    if r:
        raise PreconditionError("not an exact univariate division")
    return q


def umonic(a):
    if not a:
        return a
    lc = a[-1]
    return [c / lc for c in a]


def ugcd(a, b):
    a, b = utrim(a), utrim(b)
    while b:
        _, r = udivmod(a, b)
        a, b = b, r
    return umonic(a)


def ucontent_primitive(a):
    """(content, primitive) with integer-primitive positive-leading
    primitive part."""
    if not a:
        return Q(0), []
    den = 1
    for c in a:
        den = den * c.denominator // math.gcd(den, c.denominator)
    num = 0
    for c in a:
        num = math.gcd(num, abs(c.numerator * (den // c.denominator)))
    s = Q(num, den)
    if a[-1] < 0:
        s = -s
    return s, [c / s for c in a]


def yun_squarefree(a):
    """Yun's algorithm: list of (monic squarefree factor, multiplicity)
    with pairwise-coprime factors whose weighted product is monic(a)."""
    a = umonic(utrim(a))
    if udeg(a) <= 0:
        return []
    da = uderiv(a)
    g = ugcd(a, da)
    w = udiv(a, g)
    y = udiv(da, g)
    out = []
    i = 1
    while udeg(w) > 0:
        z = usub(y, uderiv(w))
        f = ugcd(w, z)
        if udeg(f) > 0:
            out.append((f, i))
        w = udiv(w, f)
        y = udiv(z, f)
        i += 1
    return out


# -- Sturm machinery -----------------------------------------------------------


def cauchy_bound(a):
    """All real roots lie strictly inside (-B, B)."""
    a = utrim(a)
    if udeg(a) <= 0:
        return Q(1)
    lc = abs(a[-1])
    return 1 + max(abs(c) for c in a[:-1]) / lc if len(a) > 1 else Q(1)


def sturm_chain(a):
    chain = [utrim(a), uderiv(a)]
    while chain[-1]:
        _, r = udivmod(chain[-2], chain[-1])
        chain.append(uneg(r))
    chain.pop()
    return chain


def _variations(values):
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def sturm_count(chain, lo, hi):
    """Distinct real roots in the half-open interval (lo, hi]."""
    va = _variations([ueval(p, lo) for p in chain])
    vb = _variations([ueval(p, hi) for p in chain])
    return va - vb


def _isolate_squarefree(a):
    """Disjoint half-open (lo, hi] intervals, one distinct root each,
    width <= 1, by deterministic bisection from the Cauchy bound."""
    chain = sturm_chain(a)
    B = cauchy_bound(a)
    out = []
    stack = [(-B, B)]
    while stack:
        lo, hi = stack.pop()
        k = sturm_count(chain, lo, hi)
        if k == 0:
            continue
        if k == 1 and hi - lo <= 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        stack.append((mid, hi))
        stack.append((lo, mid))
    out.sort()
    return out


def _tidy_interval(f, chain, lo, hi, avoid_poly):
    """Turn a half-open isolating interval of f into a closed one whose
    endpoints are not roots of avoid_poly (rational roots collapse to a
    degenerate interval)."""
    if ueval(f, hi) == 0:
        return hi, hi
    for _ in range(4000):
        if ueval(avoid_poly, lo) != 0 and ueval(avoid_poly, hi) != 0:
            return lo, hi
        mid = (lo + hi) / 2
        if ueval(f, mid) == 0:
            return mid, mid
        if sturm_count(chain, mid, hi) == 1:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("interval tidying did not terminate")


@dataclass(frozen=True)
class IsolatingInterval:
    """Closed rational interval containing exactly one distinct real root
    of the queried polynomial, with its multiplicity."""

    lower: Fraction
    upper: Fraction
    multiplicity: int

    def contains(self, x):
        return self.lower <= x <= self.upper


def _shrink(f, chain, interval):
    lo, hi = interval.lower, interval.upper
    if lo == hi:
        raise RuntimeError("cannot shrink a degenerate interval")
    mid = (lo + hi) / 2
    if ueval(f, mid) == 0:
        return IsolatingInterval(mid, mid, interval.multiplicity)
    if sturm_count(chain, mid, hi) == 1:
        lo = mid
    else:
        hi = mid
    return IsolatingInterval(lo, hi, interval.multiplicity)


def real_roots(a):
    """Isolating intervals with multiplicities for all distinct real
    roots of a nonzero rational coefficient list, sorted increasingly."""
    a = utrim([Q(c) for c in a])
    if not a:
        raise PreconditionError("real roots of the zero polynomial")
    if udeg(a) == 0:
        return []
    sf_whole = udiv(umonic(a), ugcd(umonic(a), uderiv(umonic(a)))) if udeg(a) > 0 else a
    found = []  # (interval, factor, chain)
    for f, mult in yun_squarefree(a):
        chain = sturm_chain(f)
        for lo, hi in _isolate_squarefree(f):
            lo, hi = _tidy_interval(f, chain, lo, hi, sf_whole)
            found.append([IsolatingInterval(lo, hi, mult), f, chain])
    found.sort(key=lambda rec: (rec[0].lower, rec[0].upper))
    # factors are pairwise coprime, so roots are distinct; separate any
    # touching closed intervals by shrinking the wider one
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 10000:
            raise RuntimeError("interval separation did not terminate")
        for r1, r2 in zip(found, found[1:]):
            if r1[0].upper >= r2[0].lower:
                wide = r1 if (r1[0].upper - r1[0].lower) >= (r2[0].upper - r2[0].lower) else r2
                wide[0] = _shrink(wide[1], wide[2], wide[0])
                found.sort(key=lambda rec: (rec[0].lower, rec[0].upper))
                changed = True
                break
    return [rec[0] for rec in found]


def nonneg_on_line(a):
    """True iff the coefficient list is >= 0 on all of R (zero counts as
    yes)."""
    a = utrim([Q(c) for c in a])
    if not a:
        return True
    if udeg(a) == 0:
        return a[0] > 0
    if udeg(a) % 2 == 1 or a[-1] < 0:
        return False
    for f, mult in yun_squarefree(a):
        if mult % 2 == 1 and _isolate_squarefree(f):
            return False
    return True
