"""Univariate polynomial tools over exact rationals.

A polynomial in t is a plain list of coefficients in ascending powers,
trimmed so that the last entry is nonzero ([] is the zero polynomial).
This module provides the arithmetic on such lists and the exact
real-root tools: Yun squarefree decomposition, Sturm chains and counts
of distinct real roots, and a global nonnegativity test.  Vector-valued
polynomials in t are ``curves.ParametricCurve``.
"""

from __future__ import annotations

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
# composed with a curve is expanded by mpoly.expand_along


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


def count_real_roots(a):
    """Number of distinct real roots of a nonzero rational coefficient
    list: one Sturm count over (-B, B], B the Cauchy bound."""
    a = utrim([Q(c) for c in a])
    if not a:
        raise PreconditionError("real roots of the zero polynomial")
    B = cauchy_bound(a)
    return sturm_count(sturm_chain(a), -B, B)


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
        if mult % 2 == 1 and count_real_roots(f):
            return False
    return True
