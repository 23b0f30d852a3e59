"""Parametric-curve machinery: ansatz systems, curve search and
verification, minimality certificates, univariate decomposition, real
image coverings, and fixed loci of one-parameter additive actions.

A parametric curve here is a polynomial map from the line into affine
space, stored as exact coefficient vectors.  Everything that claims
anything is verified exactly, in rational arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import PreconditionError
from .groebner import Ideal, buchberger, eliminate, reduce_poly
from .mpoly import Context, MPoly, resultant
from .orders import GREVLEX, LEX
from .unipoly import (
    Q,
    nonneg_on_line,
    real_roots,
    uadd,
    ucontent_primitive,
    udeg,
    uderiv,
    udivmod,
    umonic,
    umul,
    upow,
    usub,
    utrim,
)

# -- polynomials in t with ring coefficients ----------------------------------


def eval_at_tpolys(p, coords, zero, one):
    """Expand p(c_1(t), ..., c_n(t)) where each coordinate is a list of
    ring coefficients in ascending powers of t; trimmed, [] for zero."""
    total = []
    for mono, c in p.terms.items():
        term = [one * c]
        for i, e in enumerate(mono):
            if e:
                term = umul(term, upow(coords[i], e, zero, one), zero)
        total = uadd(total, term, zero)
    return total


# -- parametric curves ----------------------------------------------------------


@dataclass(frozen=True)
class ParametricCurve:
    """Polynomial map from the line into m-space with exact rational
    coefficients; coefficient i is the length-m vector of t^i.  This is
    the one vector-valued polynomial in t: covering curves, tracker image
    curves, and (with m = 1) compositions p(curve(t))."""

    m: int
    degree_bound: int
    coeffs: tuple  # (degree_bound + 1) vectors of length m
    mode: str = "complex"

    def __post_init__(self):
        coeffs = tuple(tuple(c if isinstance(c, Q) else Q(c) for c in vec) for vec in self.coeffs)
        if len(coeffs) != self.degree_bound + 1:
            raise ValueError("coefficient count must be degree_bound + 1")
        if any(len(vec) != self.m for vec in coeffs):
            raise ValueError("coefficient vectors must have length m")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coordinates(cls, coords, mode="complex"):
        """The curve with the given coordinate coefficient lists, padded to
        a common length; trailing zero vectors are trimmed, so either the
        degree bound is 0 or the top vector is nonzero."""
        coords = [utrim([c if isinstance(c, Q) else Q(c) for c in cs]) or [Q(0)] for cs in coords]
        d = max(len(cs) - 1 for cs in coords)
        vecs = [tuple(cs[i] if i < len(cs) else Q(0) for cs in coords) for i in range(d + 1)]
        return cls(len(coords), d, tuple(vecs), mode)

    def coordinate(self, i):
        return utrim([vec[i] for vec in self.coeffs])

    def coordinates(self):
        return [self.coordinate(i) for i in range(self.m)]

    @property
    def effective_degree(self):
        for i in range(self.degree_bound, 0, -1):
            if any(c != 0 for c in self.coeffs[i]):
                return i
        return 0

    def is_constant(self):
        return self.effective_degree == 0

    def is_zero(self):
        return not any(any(vec) for vec in self.coeffs)

    def eval(self, t):
        t = Q(t)
        acc = [Q(0)] * self.m
        for vec in reversed(self.coeffs):
            acc = [a * t + c for a, c in zip(acc, vec)]
        return tuple(acc)

    def base_point(self):
        return self.coeffs[0]

    def translate(self, delta):
        vec0 = tuple(c + Q(d) for c, d in zip(self.coeffs[0], delta))
        return ParametricCurve(self.m, self.degree_bound, (vec0,) + self.coeffs[1:], self.mode)

    def coordinate_str(self, i):
        cs = self.coordinate(i)
        pieces = []
        for e, c in enumerate(cs):
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{e}" if mag == 1 else f"{mag}*t^{e}"
            if not pieces:
                pieces.append(("-" if c < 0 else "") + body)
            else:
                pieces.append((" - " if c < 0 else " + ") + body)
        return "".join(pieces) if pieces else "0"

    def __str__(self):
        return "(" + ", ".join(self.coordinate_str(i) for i in range(self.m)) + ")"


def substitute_curve(p, curve):
    """p(curve(t)) expanded exactly in t, as a one-coordinate curve."""
    if p.ctx.arity != curve.m:
        raise PreconditionError(
            f"ambient dimension mismatch: polynomial in {p.ctx.arity} variables, curve in {curve.m}"
        )
    coords = [curve.coordinate(i) + [] for i in range(curve.m)]
    coords = [cs or [Q(0)] for cs in coords]
    return ParametricCurve.from_coordinates([eval_at_tpolys(p, coords, Q(0), Q(1))])


def is_unbounded(curve):
    """A curve with any nonconstant coordinate has unbounded image: the
    top coefficient of that coordinate dominates as |t| grows."""
    return curve.effective_degree >= 1


def leading_behavior(curve):
    """Per-coordinate (degree, leading coefficient sign) for nonconstant
    coordinates; used for unboundedness reports."""
    out = []
    for i in range(curve.m):
        cs = curve.coordinate(i)
        if udeg(cs) >= 1:
            out.append((i, udeg(cs), 1 if cs[-1] > 0 else -1))
    return out


# -- ansatz systems --------------------------------------------------------------


@dataclass(frozen=True)
class AnsatzSystem:
    """Coefficient equations for curves of bounded degree through a base
    point inside a variety.

    The zero set of ``ideal`` in the unknown-coefficient context is the
    set of coefficient vectors b with curve(a, b) inside the variety; the
    real variant appends the unit-sphere normalization."""

    variety: Ideal
    base: tuple
    degree: int
    mode: str
    bctx: Context
    equations: tuple
    ideal: Ideal
    unknowns: tuple  # unknowns[i][j-1] = name of coefficient (i, j)


def _check_on_variety(variety, point, inequalities=(), mode="complex"):
    point = [Q(x) for x in point]
    for g in variety.generators:
        if g.evaluate(point) != 0:
            return False
    if mode == "real":
        for h in inequalities:
            if h.evaluate(point) < 0:
                return False
    return True


def ansatz_system(variety, a, d, mode="complex"):
    """Build the coefficient equations for degree-d curves through a.

    Unknowns b{i}_{j} (coordinate i, t-power j); the equations are the
    t^k coefficients of every variety generator composed with the curve.
    Real mode appends sum of squares of all unknowns minus 1.
    """
    m = variety.ctx.arity
    a = tuple(Q(x) for x in a)
    if len(a) != m:
        raise PreconditionError("base point arity mismatch")
    if d < 1:
        raise PreconditionError("curve degree must be at least 1")
    if not _check_on_variety(variety, a):
        raise PreconditionError(f"base point {tuple(map(str, a))} is off the variety")
    names = []
    grid = []
    for i in range(m):
        row = []
        for j in range(1, d + 1):
            nm = f"b{i + 1}_{j}"
            names.append(nm)
            row.append(nm)
        grid.append(tuple(row))
    bctx = Context(tuple(names), GREVLEX)
    coords = []
    for i in range(m):
        coords.append([bctx.const(a[i])] + [bctx.var(nm) for nm in grid[i]])
    zero, one = bctx.zero(), bctx.one()
    eqs = []
    for g in variety.generators:
        if g.is_zero():
            continue
        expansion = eval_at_tpolys(g, coords, zero, one)
        for k, coeff in enumerate(expansion):
            if k == 0:
                continue  # identically zero: the base point is on the variety
            if not coeff.is_zero():
                eqs.append(coeff.canonical())
        if expansion and not expansion[0].is_zero():
            raise AssertionError("constant term must vanish for a base point on the variety")
    uniq = []
    seen = set()
    for e in eqs:
        key = str(e)
        if key not in seen:
            seen.add(key)
            uniq.append(e)
    ideal_gens = list(uniq)
    if mode == "real":
        sphere = -bctx.one()
        for nm in names:
            sphere = sphere + bctx.var(nm) * bctx.var(nm)
        ideal_gens.append(sphere.canonical())
    ideal = Ideal(bctx, ideal_gens or [bctx.zero()])
    return AnsatzSystem(
        variety=variety,
        base=a,
        degree=d,
        mode=mode,
        bctx=bctx,
        equations=tuple(uniq),
        ideal=ideal,
        unknowns=tuple(grid),
    )


# -- verification ------------------------------------------------------------------


@dataclass(frozen=True)
class CurveReport:
    """Per-check outcome of verify_curve; everything is decided exactly."""

    equations_ok: bool
    inequalities_ok: bool
    through_point: bool
    degree_ok: bool
    nonconstant: bool
    failing_generator: str = ""

    @property
    def ok(self):
        return (
            self.equations_ok
            and self.inequalities_ok
            and self.through_point
            and self.degree_ok
            and self.nonconstant
        )

    def as_dict(self):
        return {
            "equations": self.equations_ok,
            "inequalities": self.inequalities_ok,
            "through_point": self.through_point,
            "degree": self.degree_ok,
            "nonconstant": self.nonconstant,
            "ok": self.ok,
        }


def verify_curve(variety, inequalities, curve, a=None, d=None, mode="complex"):
    """Exact checks: each equation composes to zero along the curve, each
    inequality is globally nonnegative along it (real mode), the curve
    passes through a at t=0 when given, the effective degree respects d,
    and the curve is nonconstant."""
    if inequalities and mode != "real":
        raise PreconditionError("inequalities are only meaningful in real mode")
    eq_ok = True
    failing = ""
    for g in variety.generators:
        if g.is_zero():
            continue
        if not substitute_curve(g, curve).is_zero():
            eq_ok = False
            failing = str(g)
            break
    ineq_ok = True
    if mode == "real":
        for h in inequalities:
            if not nonneg_on_line(substitute_curve(h, curve).coordinate(0)):
                ineq_ok = False
                failing = failing or str(h)
                break
    through = True
    if a is not None:
        through = tuple(curve.eval(0)) == tuple(Q(x) for x in a)
    deg_ok = True if d is None else curve.effective_degree <= d
    return CurveReport(eq_ok, ineq_ok, through, deg_ok, not curve.is_constant(), failing)


def verify_curve_pointwise(variety, curve, npoints=None):
    """Independent soundness path: exact evaluation of every generator at
    rational parameter values, enough of them to pin the zero
    polynomial."""
    degs = [g.total_degree() for g in variety.generators if not g.is_zero()]
    if not degs:
        return True
    need = max(degs) * max(curve.effective_degree, 1) + 1
    npoints = npoints or need
    ts = [Q(k, 7) for k in range(-(npoints // 2), npoints - npoints // 2)]
    for g in variety.generators:
        if g.is_zero():
            continue
        for t in ts:
            if g.evaluate(curve.eval(t)) != 0:
                return False
    return True


# -- curve search -------------------------------------------------------------------


def _rational_roots(cs):
    """All rational roots of a nonzero rational coefficient list."""
    cs = utrim(list(cs))
    if udeg(cs) <= 0:
        return []
    roots = []
    shift = 0
    while cs[0] == 0:
        cs = cs[1:]
        shift += 1
    if shift:
        roots.append(Q(0))
    if udeg(cs) == 0:
        return roots
    _, prim = ucontent_primitive(cs)
    ints = [c.numerator for c in prim]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(v):
        out = set()
        for i in range(1, int(v ** 0.5) + 1):
            if v % i == 0:
                out.add(i)
                out.add(v // i)
        return sorted(out)

    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Q(p, q), Q(-p, q)):
                if cand not in roots and sum(c * cand ** i for i, c in enumerate(ints)) == 0:
                    roots.append(cand)
    roots.sort()
    return roots


_FREE_CANDIDATES = [Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-1, 2), Q(3), Q(-3), Q(0)]


def _ansatz_solutions(system, seed=0, node_budget=4000, max_solutions=60):
    """Enumerate exact rational points on the ansatz ideal by triangular
    back-substitution over a lex basis, trying small rational values on
    free coefficients (then seeded random ones).  Best-effort by design:
    silence does not prove emptiness."""
    bctx = system.bctx
    basis = buchberger(list(system.ideal.generators), LEX)
    if len(basis) == 1 and basis[0].constant_value() is not None:
        return
    names = list(bctx.names)
    rng = random.Random(seed)
    budget = [node_budget]
    yielded = [0]

    def candidates():
        for c in _FREE_CANDIDATES:
            yield c
        for _ in range(12):
            yield Q(rng.randint(-9, 9), rng.randint(1, 4))

    def rec(pos, assign):
        # variables names[pos+1:] are assigned; walk backwards
        if budget[0] <= 0 or yielded[0] >= max_solutions:
            return
        budget[0] -= 1
        if pos < 0:
            point = [assign[n] for n in names]
            if all(g.evaluate(point) == 0 for g in system.ideal.generators):
                yielded[0] += 1
                yield dict(assign)
            return
        name = names[pos]
        later = set(names[pos + 1:])
        relevant = [
            g
            for g in basis
            if g.support_vars() <= later | {name} and name in g.support_vars()
        ]
        point_images = {n: assign[n] for n in later}
        constraints = []
        contradiction = False
        for g in relevant:
            cs = []
            for power, coeff in enumerate(g.coeffs_in(name)):
                vals = coeff.evaluate([point_images.get(n, 0) for n in names])
                cs.append(vals)
            cs = utrim(cs)
            if not cs:
                continue
            if udeg(cs) == 0:
                contradiction = True
                break
            constraints.append(cs)
        if contradiction:
            return
        if constraints:
            values = [r for r in _rational_roots(constraints[0])
                      if all(sum(c * r ** i for i, c in enumerate(k)) == 0 for k in constraints[1:])]
        else:
            values = candidates()
        for v in values:
            assign[name] = v
            yield from rec(pos - 1, assign)
            del assign[name]

    yield from rec(len(names) - 1, {})


def _curve_from_solution(system, solution, mode):
    coords = []
    for i in range(system.variety.ctx.arity):
        cs = [system.base[i]] + [solution[nm] for nm in system.unknowns[i]]
        coords.append(cs)
    return ParametricCurve.from_coordinates(coords, mode)


def _pattern_candidates(coordinates, a, d):
    for power in range(1, d + 1):
        for i in coordinates:
            for sign in (1, -1):
                coords = [[x] for x in a]
                coords[i] = [a[i]] + [Q(0)] * (power - 1) + [Q(sign)]
                yield coords


def _line_coordinates(variety, a):
    """The coordinates i whose line a + s*e_i lies inside the variety."""
    gens = [g for g in variety.generators if not g.is_zero()]
    out = []
    for i in range(len(a)):
        coords = [[x] for x in a]
        coords[i] = [a[i], Q(1)]
        line = ParametricCurve.from_coordinates(coords)
        if all(substitute_curve(g, line).is_zero() for g in gens):
            out.append(i)
    return out


def find_curve(variety, a, d, mode="complex", inequalities=(), seed=0):
    """Best-effort search for a verified nonconstant curve of degree at
    most d through a inside the variety.

    Strategy: cheap monomial patterns a +- t^p * e_i first, then exact
    solutions of the ansatz ideal (triangular back-substitution from a
    lex basis, with small rational substitutions on underdetermined
    coefficients).  Patterns are tried only along coordinates whose whole
    line a + s*e_i lies in the variety: a generator g vanishes along
    a +- t^p * e_i iff P(s) = g(a + s*e_i) is zero, so one line test per
    coordinate replaces the equation checks of 2d patterns; inequalities
    are still checked per pattern.  A None return is not a nonexistence
    proof; use no_smaller_curve for proofs.
    """
    a = tuple(Q(x) for x in a)
    if not _check_on_variety(variety, a, inequalities, mode):
        raise PreconditionError(f"base point {tuple(map(str, a))} is off the variety")
    for coords in _pattern_candidates(_line_coordinates(variety, a), a, d):
        curve = ParametricCurve.from_coordinates(coords, mode)
        if curve.is_constant():
            continue
        if verify_curve(variety, inequalities, curve, a, d, mode).ok:
            return curve
    system = ansatz_system(variety, a, d, mode="complex")
    for solution in _ansatz_solutions(system, seed=seed):
        curve = _curve_from_solution(system, solution, mode)
        if curve.is_constant():
            continue
        if verify_curve(variety, inequalities, curve, a, d, mode).ok:
            return curve
    return None


def _standard_monomial_count(lms, n):
    """Number of monomials in n variables divisible by none of the
    exponent vectors lms, which must include a pure power of every
    variable.  Splits on the exponent of the last variable: at exponent
    j the survivors are the standard monomials, in one variable fewer,
    of the generators whose last exponent is at most j."""
    memo = {}

    def count(gens, k):
        if any(not any(g) for g in gens):
            return 0
        if k == 0:
            return 1
        key = (gens, k)
        if key not in memo:
            bound = min(g[k - 1] for g in gens if not any(g[:k - 1]))
            memo[key] = sum(
                count(frozenset(g[:k - 1] for g in gens if g[k - 1] <= j), k - 1)
                for j in range(bound)
            )
        return memo[key]

    return count(frozenset(lms), n)


def no_smaller_curve(variety, a, d):
    """Prove that no nonconstant curve of degree at most d-1 passes
    through a inside the variety.

    The curves through a of degree at most d-1 are the points b of V(I),
    I the degree-(d-1) ansatz ideal in the unknown coefficients, and
    b = 0 (the constant curve) is always one of them.  So the proof holds
    iff V(I) = {0}, that is iff I is zero-dimensional and every unknown
    is nilpotent in C[b]/I.  One grevlex basis decides both (Cox, Little
    & O'Shea, Ideals, Varieties, and Algorithms, ch. 5 sec. 3):
    I is zero-dimensional iff some leading monomial is a pure power of
    each unknown, and then C[b]/I has dimension D, the number of
    standard monomials.  An unknown is nilpotent iff its D-th power is
    in I, which repeated squaring of normal forms decides exactly.  The
    zero ideal (every coefficient vector is a curve) gives False, the
    unit ideal True."""
    if d <= 1:
        raise PreconditionError("no_smaller_curve needs d >= 2 (degree d-1 curves exist only for d-1 >= 1)")
    system = ansatz_system(variety, a, d - 1, mode="complex")
    bctx = system.bctx
    order = bctx.order
    basis = system.ideal.groebner()
    if not basis:
        return False
    if system.ideal.is_unit():
        return True
    lms = [g.leading_monomial(order) for g in basis]
    n = bctx.arity
    if not all(any(lm[i] and sum(lm) == lm[i] for lm in lms) for i in range(n)):
        return False
    D = _standard_monomial_count(lms, n)
    for nm in bctx.names:
        r = reduce_poly(bctx.var(nm), basis, order)
        power = 1
        while power < D and r:
            r = reduce_poly(r * r, basis, order)
            power *= 2
        if r:
            return False
    return True


# -- certificates ------------------------------------------------------------------


@dataclass(frozen=True)
class UniruledCertificate:
    """Point-sampled evidence that a variety is covered by curves of
    bounded degree: one verified curve through each requested sample,
    with optional per-point minimality proofs."""

    variety: Ideal
    inequalities: tuple
    degree: int
    mode: str
    entries: tuple  # (sample point, ParametricCurve or None)
    minimality: dict
    status: str

    @property
    def verified(self):
        return self.status == "verified"

    def curves(self):
        return [c for _, c in self.entries if c is not None]


def certify(variety, inequalities, d, samples, mode="complex", sharpness=False,
            sharpness_samples=3, seed=0):
    """Search and verify a curve of degree <= d through every sample.

    Status is "verified" only if every sample received a verified curve;
    "partial" if some did; "failed" otherwise.  With sharpness on, the
    first few samples also get a no_smaller_curve proof recorded."""
    inequalities = tuple(inequalities)
    entries = []
    minimality = {}
    for pt in samples:
        pt = tuple(Q(x) for x in pt)
        if not _check_on_variety(variety, pt, inequalities, mode):
            raise PreconditionError(f"sample {tuple(map(str, pt))} is off the variety")
        curve = find_curve(variety, pt, d, mode, inequalities, seed=seed)
        if curve is not None:
            report = verify_curve(variety, inequalities, curve, pt, d, mode)
            if not report.ok:
                curve = None
        entries.append((pt, curve))
    if sharpness:
        for pt, _ in entries[:sharpness_samples]:
            if d >= 2:
                minimality[pt] = no_smaller_curve(variety, pt, d)
    found = sum(1 for _, c in entries if c is not None)
    status = "verified" if found == len(entries) else ("partial" if found else "failed")
    return UniruledCertificate(
        variety=variety,
        inequalities=inequalities,
        degree=d,
        mode=mode,
        entries=tuple(entries),
        minimality=minimality,
        status=status,
    )


# -- univariate decomposition --------------------------------------------------------


def _divisors_desc(n):
    out = [r for r in range(2, n) if n % r == 0]
    out.sort(reverse=True)
    return out


def _inner_candidate(h, r):
    """The unique possible monic inner of degree r with zero constant
    term for a monic composite h, from the top r-1 coefficients."""
    n = udeg(h)
    s = n // r
    g = [Q(0)] * r + [Q(1)]
    for k in range(1, r):
        G = upow(g, s)
        cur = G[n - k] if n - k < len(G) else Q(0)
        g[r - k] = (h[n - k] - cur) / s
    return g


def _g_adic_digits(w, g):
    digits = []
    while w:
        q, rem = udivmod(w, g)
        digits.append(rem)
        w = q
    return digits


def compose_scalar(f, g):
    """f(g(t)) for coefficient lists."""
    acc = [Q(0)]
    for c in reversed(f):
        acc = umul(acc, g)
        if not acc:
            acc = [Q(0)]
        acc[0] = acc[0] + c
        acc = utrim(acc) or []
    return utrim(acc)


def decompose(u):
    """Write the coefficient list u = outer(inner) with inner of maximal
    degree among proper decompositions, inner monic with inner(0) = 0;
    returns the two coefficient lists, (u, t) when u is indecomposable.
    Exact round-trip guaranteed."""
    cs = utrim([Q(c) for c in u])
    n = udeg(cs)
    if n < 1:
        raise PreconditionError("cannot decompose a constant polynomial")
    lc = cs[-1]
    h = umonic(cs)
    for r in _divisors_desc(n):
        g = _inner_candidate(h, r)
        digits = _g_adic_digits(h, g)
        if all(udeg(d) <= 0 for d in digits):
            fhat = [d[0] if d else Q(0) for d in digits]
            outer = [c * lc for c in fhat]
            if compose_scalar(outer, g) == cs:
                return outer, g
    return cs, [Q(0), Q(1)]


def common_inner(curve):
    """The maximal-degree monic g with g(0) = 0 such that every curve
    coordinate factors through g; returns (outer curve, inner coefficient
    list)."""
    coords = curve.coordinates()
    noncon = [cs for cs in coords if udeg(cs) >= 1]
    if not noncon:
        raise PreconditionError("constant curve has no inner polynomial")
    gdeg = 0
    for cs in noncon:
        gdeg = math.gcd(gdeg, udeg(cs))
    for r in sorted([v for v in range(2, gdeg + 1) if gdeg % v == 0], reverse=True):
        g = _inner_candidate(umonic(noncon[0]), r)
        outers = []
        ok = True
        for cs in coords:
            if udeg(cs) < 1:
                outers.append(cs)
                continue
            digits = _g_adic_digits(cs, g)
            if not all(udeg(d) <= 0 for d in digits):
                ok = False
                break
            fi = utrim([d[0] if d else Q(0) for d in digits])
            if compose_scalar(fi, g) != cs:
                ok = False
                break
            outers.append(fi)
        if ok:
            outer_curve = ParametricCurve.from_coordinates(outers, curve.mode)
            return outer_curve, g
    return curve, [Q(0), Q(1)]


# -- real image covering ---------------------------------------------------------------


def _min_of_even_poly(g):
    """Exact global minimum of a monic even-degree rational polynomial,
    provided it is rational.

    Candidates are the rational roots of the critical-value resultant
    res_t(g'(t), g(t) - y); the winner is the candidate c with g - c
    globally nonnegative and actually attained (a real root).  Raises if
    the minimum is irrational (the covering would need algebraic
    coefficients, which are out of scope)."""
    ctx = Context(("t_", "y_"), LEX)
    t, y = ctx.var("t_"), ctx.var("y_")
    p1 = _embed_scalar(uderiv(g), ctx, "t_")
    p2 = _embed_scalar(g, ctx, "t_") - y
    res = resultant(p1, p2, "t_")
    rcoeffs = [c.constant_value() for c in res.coeffs_in("y_")]
    if any(c is None for c in rcoeffs):
        raise AssertionError("critical-value resultant must be univariate")
    cands = _rational_roots(utrim([Q(c) for c in rcoeffs]))
    for c in sorted(cands):
        shifted = usub(g, [c])
        if nonneg_on_line(shifted) and real_roots(shifted):
            return c
    raise PreconditionError(
        "the minimum of the inner polynomial is irrational; the degree-2 "
        "covering would need algebraic coefficients"
    )


def _embed_scalar(cs, ctx, name):
    return MPoly.from_coeffs_in(ctx, name, [ctx.const(c) for c in cs])


def cover_image_real(curve):
    """A curve whose real image equals the input's real image, with
    degree at most twice the outer degree of the input's decomposition.

    Odd inner degree: the inner is onto the reals, so the outer curve
    already covers.  Even inner degree: precompose the outer with
    (minimum of inner) + s^2, which sweeps the inner's exact range."""
    if curve.mode != "real":
        raise PreconditionError("cover_image_real requires a real-mode curve")
    if curve.is_constant():
        raise PreconditionError("cannot cover the image of a constant curve")
    outer, g = common_inner(curve)
    if udeg(g) % 2 == 1:
        return ParametricCurve.from_coordinates(outer.coordinates(), "real")
    gamma = _min_of_even_poly(g)
    shift = [gamma, Q(0), Q(1)]  # gamma + s^2
    coords = [compose_scalar(cs, shift) for cs in outer.coordinates()]
    return ParametricCurve.from_coordinates(coords, "real")


def curve_relations(curve, names=None):
    """Implicitization: the ideal of polynomial relations satisfied by
    the curve's coordinates, via elimination of the parameter."""
    m = curve.m
    names = tuple(names) if names else tuple(f"y{i + 1}" for i in range(m))
    ctx = Context(("t__",) + names, GREVLEX)
    gens = []
    for i in range(m):
        gens.append(ctx.var(names[i]) - _embed_scalar(curve.coordinate(i), ctx, "t__"))
    return eliminate(Ideal(ctx, gens), set(names))


# -- one-parameter additive actions ------------------------------------------------------


@dataclass(frozen=True)
class OneParamAction:
    """A polynomial action of the additive group on a (possibly
    constrained) affine set: x maps to phi(g, x).

    Construction verifies the action axioms exactly: phi(0, x) = x, and
    additivity phi(g, phi(h, x)) = phi(g + h, x) modulo the domain
    ideal."""

    ctx: Context  # source variables
    g_name: str
    action_ctx: Context  # (g, source variables)
    components: tuple
    domain: Ideal = None

    def __post_init__(self):
        if self.domain is None:
            object.__setattr__(self, "domain", Ideal(self.ctx, [self.ctx.zero()]))
        if len(self.components) != self.ctx.arity:
            raise PreconditionError("action needs one component per source variable")
        for p in self.components:
            if p.ctx.names != self.action_ctx.names:
                raise PreconditionError("action component context mismatch")
        self._check_axioms()

    def _check_axioms(self):
        act = self.action_ctx
        # identity at g = 0
        for name, comp in zip(self.ctx.names, self.components):
            at0 = comp.coeffs_in(self.g_name)[0]
            if at0 != act.var(name):
                raise PreconditionError(
                    f"not a group action: component for {name!r} does not reduce "
                    "to the identity at parameter 0"
                )
        # additivity modulo the domain ideal
        h_name = "h_"
        while h_name in act.names:
            h_name += "_"
        big = Context((self.g_name, h_name) + self.ctx.names, GREVLEX)
        inner = {}
        for name, comp in zip(self.ctx.names, self.components):
            inner[name] = comp.subs(big, {self.g_name: big.var(h_name),
                                          **{n: big.var(n) for n in self.ctx.names}})
        dom_big = Ideal(big, [p.rebase(big) for p in self.domain.generators]) \
            if not self.domain.is_zero_ideal() else None
        for name, comp in zip(self.ctx.names, self.components):
            lhs = comp.subs(big, {self.g_name: big.var(self.g_name), **inner})
            rhs = comp.subs(big, {self.g_name: big.var(self.g_name) + big.var(h_name),
                                  **{n: big.var(n) for n in self.ctx.names}})
            diff = lhs - rhs
            if dom_big is not None:
                diff = dom_big.normal_form(diff)
            if not diff.is_zero():
                raise PreconditionError(
                    f"not a group action: additivity fails for component {name!r}"
                )

    def degree_in_parameter(self):
        return max(p.degree_in(self.g_name) for p in self.components)


def one_param_action(ctx, g_name, component_texts_or_polys, domain=None):
    """Convenience constructor: components given in the (g, x) context."""
    action_ctx = Context((g_name,) + ctx.names, GREVLEX)
    comps = []
    for p in component_texts_or_polys:
        comps.append(p.rebase(action_ctx) if p.ctx.names != action_ctx.names else p)
    return OneParamAction(ctx, g_name, action_ctx, tuple(comps), domain)


def fixed_locus(action):
    """Ideal of the fixed points: the domain ideal plus every positive
    parameter-power coefficient of phi_i(g, x) - x_i."""
    ctx = action.ctx
    gens = [g for g in action.domain.generators if not g.is_zero()]
    for name, comp in zip(ctx.names, action.components):
        delta = comp - action.action_ctx.var(name)
        for power, coeff in enumerate(delta.coeffs_in(action.g_name)):
            if power == 0:
                if not coeff.is_zero():
                    raise AssertionError("identity axiom should have caught this")
                continue
            if not coeff.is_zero():
                gens.append(coeff.rebase(ctx))
    return Ideal(ctx, gens or [ctx.zero()])
