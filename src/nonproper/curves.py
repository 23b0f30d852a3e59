"""Parametric-curve machinery: ansatz systems, curve search and
verification, minimality certificates, univariate decomposition, real
image coverings, and fixed loci of one-parameter additive actions.

A parametric curve here is a polynomial map from the line into affine
space, stored as exact coefficient vectors.  Everything that claims
anything is verified exactly, in rational arithmetic.

A polynomial is expanded along a curve by ``mpoly.expand_along``, the one
composition of a polynomial with term-dict coordinates, here keyed by
(t power, *exponents of the unknowns), with int values unless a base point
is not integral.  The ansatz equations are the t^k coefficients
(``ansatz_system``) and ``substitute_curve`` is the case with no unknowns.

The exact work of the search runs on int term dicts, like the Groebner
kernel: the line test, the integer-primitive ansatz equations and the
back-substitution over the lex basis (each node evaluates int rows, scaled
by one positive factor).  A positive scale changes no zero, degree or
rational root, so the search visits the same nodes as in ``Fraction``
arithmetic.

On a plane V(g) the ansatz takes the shape of g (``_plane_shape``):
coordinate i has degree at most deg_{y_{3-i}} g, the degree of that
coordinate in a proper parametrization of a component.  ``find_curve``
searches the shaped ansatz first and the full one only when the shaped
one yields no verified curve; ``no_smaller_curve`` needs the shaped one
alone.  ``certify`` proves minimality from the curve it found where it
can: a curve of degree below the target is a witness, and a curve that
properly parametrizes a squarefree plane V(g) bounds every curve in V(g)
from below, decided by one resultant (``implicitize``) and no basis
(``_proper_degree``).  Elsewhere ``no_smaller_curve`` reads only the
leading monomials of a grevlex basis.  What is claimed is still checked
in ``Fraction``:
``verify_curve`` composes each generator with the found curve, and
``verify_curve_pointwise`` evaluates them at rational parameters.
"""

from __future__ import annotations

import math
import random

from .errors import BudgetError, PreconditionError
from .groebner import Ideal
from .mpoly import (
    Context,
    MPoly,
    _clear_denominators,
    _primitive,
    _rows,
    _unrows,
    expand_along,
    resultant,
    squarefree_full,
)
from .orders import GREVLEX, LEX
from .record import Record
from .unipoly import (
    Q,
    count_real_roots,
    nonneg_on_line,
    udeg,
    uderiv,
    udivmod,
    umonic,
    umul,
    upow,
    usub,
    utrim,
)

# -- parametric curves ----------------------------------------------------------


class ParametricCurve(Record):
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
    coords = [{(j,): c for j, c in enumerate(curve.coordinate(i)) if c} for i in range(curve.m)]
    terms = expand_along(p, coords, 1)
    cs = [0] * (1 + max((k for k, in terms), default=0))
    for (k,), c in terms.items():
        cs[k] = c
    return ParametricCurve.from_coordinates([cs])


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


class AnsatzSystem(Record):
    """Coefficient equations for curves of bounded degree through a base
    point inside a variety.

    The equations are the generators of ``ideal``, in the context
    ``bctx`` of the unknown coefficients; their zero set is the set of
    coefficient vectors b with curve(a, b) inside the variety, and the
    ideal caches the bases the search (lex) and the fallback minimality
    proof ``no_smaller_curve`` (grevlex) read."""

    base: tuple
    bctx: Context
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


def ansatz_system(variety, a, d):
    """Build the coefficient equations for curves through a of degree at
    most d_i in coordinate i.

    d is one degree per coordinate, or an int d for (d, ..., d).  Unknowns
    b{i}_{j} (coordinate i, t-power j = 1..d_i); a coordinate of degree 0
    gets none and stays at a_i.  The equations are the t^k coefficients of
    every variety generator composed with the curve, canonical, in
    generator and then t-power order, each kept once.
    """
    m = variety.ctx.arity
    a = tuple(Q(x) for x in a)
    if len(a) != m:
        raise PreconditionError("base point arity mismatch")
    degs = (d,) * m if isinstance(d, int) else tuple(d)
    if len(degs) != m:
        raise PreconditionError("degree shape arity mismatch")
    if max(degs) < 1 or min(degs) < 0:
        raise PreconditionError("curve degree must be at least 1")
    if not _check_on_variety(variety, a):
        raise PreconditionError(f"base point {tuple(map(str, a))} is off the variety")
    grid = tuple(tuple(f"b{i + 1}_{j}" for j in range(1, di + 1)) for i, di in enumerate(degs))
    n = sum(degs)
    bctx = Context(tuple(nm for row in grid for nm in row), GREVLEX)
    neg_key = bctx.order.neg_key
    # with an integral base point and generators every expansion is an int dict
    integral = all(x.denominator == 1 for x in a) and all(
        c.denominator == 1 for g in variety.generators for c in g.terms.values())
    # coordinate i is a_i + sum_j b{i}_{j} t^j; unknown (i, j) has index start + j - 1
    coords = []
    start = 0
    for i, di in enumerate(degs):
        c = {(j,) + (0,) * (start + j - 1) + (1,) + (0,) * (n - start - j): 1 for j in range(1, di + 1)}
        if a[i]:
            c[(0,) * (n + 1)] = a[i].numerator if a[i].denominator == 1 else a[i]
        coords.append(c)
        start += di
    eqs = []
    seen = set()
    for g in variety.generators:
        by_power = {}
        for key, c in expand_along(g, coords, n + 1).items():
            by_power.setdefault(key[0], {})[key[1:]] = c
        if 0 in by_power:
            raise AssertionError("constant term must vanish for a base point on the variety")
        for k in sorted(by_power):
            terms = by_power[k] if integral else _clear_denominators(by_power[k])[1]
            e = MPoly(bctx, _primitive(min(terms, key=neg_key), terms)[2])
            if e not in seen:  # MPoly hashes and compares by its term set
                seen.add(e)
                eqs.append(e)
    return AnsatzSystem(
        base=a,
        bctx=bctx,
        ideal=Ideal(bctx, eqs),
        unknowns=grid,
    )


# -- verification ------------------------------------------------------------------


class CurveReport(Record):
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


def verify_curve_pointwise(variety, curve):
    """Independent soundness path: exact evaluation of every generator at
    rational parameter values, enough of them to pin the zero
    polynomial."""
    degs = [g.total_degree() for g in variety.generators]
    npoints = max(degs, default=0) * max(curve.effective_degree, 1) + 1
    ts = [Q(k, 7) for k in range(-(npoints // 2), npoints - npoints // 2)]
    for g in variety.generators:
        for t in ts:
            if g.evaluate(curve.eval(t)) != 0:
                return False
    return True


# -- curve search -------------------------------------------------------------------


# _rational_roots takes at most this many trial divisions, and then tries at
# most this many divisor pairs (p, q); the corpus and benchmark problems need
# at most a dozen of each
_ROOT_SEARCH_BUDGET = 10 ** 6


def _vanishes_at(ints, p, q):
    """True iff the int coefficient list vanishes at p/q, q > 0: by Horner,
    q^n f(p/q) = sum_i c_i p^i q^(n-i)."""
    acc = 0
    qk = 1
    for c in reversed(ints):
        acc = acc * p + c * qk
        qk *= q
    return acc == 0


def _rational_roots(cs):
    """All rational roots of a nonzero list of int or Fraction
    coefficients, in increasing order.  The candidates p/q pair the
    divisors of the constant and leading coefficients of the primitive
    integer list; BudgetError when finding those divisors would take more
    than _ROOT_SEARCH_BUDGET trial divisions, or when there are more than
    _ROOT_SEARCH_BUDGET divisor pairs to try."""
    cs = utrim(cs)
    if udeg(cs) <= 0:
        return []
    roots = [Q(0)] if cs[0] == 0 else []
    while cs[0] == 0:
        cs = cs[1:]
    if udeg(cs) == 0:
        return roots
    den = math.lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    a0, an = abs(ints[0]), abs(ints[-1])
    if math.isqrt(a0) + math.isqrt(an) > _ROOT_SEARCH_BUDGET:
        raise BudgetError(
            f"the rational roots of a degree-{len(ints) - 1} constraint with "
            f"{max(a0, an).bit_length()}-bit coefficients need more than "
            f"{_ROOT_SEARCH_BUDGET} trial divisions"
        )

    def divisors(v):
        out = set()
        for i in range(1, math.isqrt(v) + 1):
            if v % i == 0:
                out.add(i)
                out.add(v // i)
        return sorted(out)

    ps, qs = divisors(a0), divisors(an)
    if len(ps) * len(qs) > _ROOT_SEARCH_BUDGET:
        raise BudgetError(
            f"the rational roots of a degree-{len(ints) - 1} constraint need "
            f"{len(ps) * len(qs)} divisor pairs, more than {_ROOT_SEARCH_BUDGET}"
        )
    # p/q in lowest terms is a root iff q^n f(p/q) = 0
    for q in qs:
        for p in ps:
            if math.gcd(p, q) > 1:
                continue
            for sp in (p, -p):
                if _vanishes_at(ints, sp, q):
                    roots.append(Q(sp, q))
    roots.sort()
    return roots


_FREE_CANDIDATES = [Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-1, 2), Q(3), Q(-3), Q(0)]
# the back-substitution search visits at most this many nodes and yields at
# most this many solutions
_NODE_BUDGET = 4000
_MAX_SOLUTIONS = 60


def _power_table(v, top):
    """[p^k * q^(top-k) for k = 0..top] for the rational v = p/q in lowest
    terms, q > 0."""
    p, q = v.numerator, v.denominator
    return [p ** k * q ** (top - k) for k in range(top + 1)]


def _row_value(row, tables):
    """The value of an int term dict at a rational point, times the
    positive scale prod_j q_j^top_j, where tables[j] is
    ``_power_table(p_j/q_j, top_j)`` and top_j bounds every exponent of
    unknown j."""
    total = 0
    for m, c in row.items():
        for tab, e in zip(tables, m):
            c *= tab[e]
        total += c
    return total


def _ansatz_solutions(system):
    """Enumerate exact rational points on the ansatz ideal by triangular
    back-substitution over a lex basis, trying small rational values on
    free coefficients (then random ones from a fixed-seed generator).
    Best-effort by design: silence does not prove emptiness.

    Each basis element becomes int rows once (``_rows``), one row per
    power of its first-named unknown.  A node evaluates the rows at the
    assignment, unassigned unknowns at 0, as ints scaled by one positive
    factor (``_row_value``), so each coefficient list has the zeros, the
    degree and the rational roots of its exact value, and the search takes
    the same steps as over ``Fraction``."""
    basis = system.ideal.groebner(LEX)
    if basis == [system.bctx.one()]:  # the unit ideal
        return
    names = list(system.bctx.names)
    n = len(names)
    gens = [_clear_denominators(g.terms)[1] for g in system.ideal.generators]
    lex = [_clear_denominators(g.terms)[1] for g in basis]
    monos = [m for t in gens + lex for m in t]
    tops = [max([m[j] for m in monos], default=0) for j in range(n)]
    # per unknown, the rows of the basis elements whose largest
    # (first-named) variable it is: the constraints on it once the later
    # unknowns are assigned
    relevant = [[] for _ in names]
    for t in lex:
        pos = min(i for mono in t for i, e in enumerate(mono) if e)
        relevant[pos].append(_rows(t, pos))
    tables = [_power_table(0, top) for top in tops]
    rng = random.Random(0)
    budget = [_NODE_BUDGET]
    yielded = [0]

    def candidates():
        for c in _FREE_CANDIDATES:
            yield c
        for _ in range(12):
            yield Q(rng.randint(-9, 9), rng.randint(1, 4))

    def rec(pos, assign):
        # variables names[pos+1:] are assigned; walk backwards
        if budget[0] <= 0 or yielded[0] >= _MAX_SOLUTIONS:
            return
        budget[0] -= 1
        if pos < 0:
            if all(_row_value(t, tables) == 0 for t in gens):
                yielded[0] += 1
                yield dict(assign)
            return
        constraints = []
        for rows in relevant[pos]:
            cs = utrim([_row_value(row, tables) for row in rows])
            if not cs:
                continue
            if len(cs) == 1:  # a nonzero constant: no value of this unknown works
                return
            constraints.append(cs)
        if constraints:
            values = [r for r in _rational_roots(constraints[0])
                      if all(_vanishes_at(k, r.numerator, r.denominator) for k in constraints[1:])]
        else:
            values = candidates()
        name, unset = names[pos], tables[pos]
        for v in values:
            assign[name] = v
            tables[pos] = _power_table(v, tops[pos])
            yield from rec(pos - 1, assign)
            del assign[name]
        tables[pos] = unset

    try:
        yield from rec(n - 1, {})
    finally:
        del rec  # rec's closure holds rec: break the cycle, so its tables go with the search


def _curve_from_solution(system, solution, mode):
    coords = []
    for i in range(len(system.base)):
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
    """The coordinates i whose line a + s*e_i lies inside the variety: each
    generator expands to zero along it, on term dicts keyed by (s power,)."""
    base = [{(0,): x.numerator if x.denominator == 1 else x} if x else {} for x in a]
    out = []
    for i in range(len(a)):
        coords = list(base)
        coords[i] = {**base[i], (1,): 1}
        if not any(expand_along(g, coords, 1) for g in variety.generators):
            out.append(i)
    return out


def find_curve(variety, a, d, mode="complex", inequalities=()):
    """Best-effort search for a verified nonconstant curve of degree at
    most d through a inside the variety.

    Strategy: cheap monomial patterns a +- t^p * e_i first, then exact
    solutions of an ansatz ideal (triangular back-substitution from a
    lex basis, with small rational substitutions on underdetermined
    coefficients).  Patterns are tried only along coordinates whose whole
    line a + s*e_i lies in the variety: a generator g vanishes along
    a +- t^p * e_i iff P(s) = g(a + s*e_i) is zero, so one line test per
    coordinate replaces the equation checks of 2d patterns; inequalities
    are still checked per pattern.

    On a plane V(g) the ansatz shaped by g comes first (``_plane_shape``):
    it holds the proper curve through a of every polynomially
    parametrized component of V(g) through a, on d + 1 unknowns for
    y1 - c*y2^d where the full ansatz has 2d.  The full degree-d ansatz
    is searched only when the shaped one yields no verified curve, as in
    real mode, where a verified curve may have to be improper: on
    y1 - y2^2 with y2 >= 0 at (1, 1) only the curve (y2(t)^2, y2(t)) with
    y2 = 1 + t + t^2 qualifies.  A None return is not a nonexistence
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
    shape = _plane_shape(variety, d)
    for degrees in ([d] if shape in (None, (d, d)) else [shape, d]):
        system = ansatz_system(variety, a, degrees)
        for solution in _ansatz_solutions(system):
            curve = _curve_from_solution(system, solution, mode)
            if curve.is_constant():
                continue
            if verify_curve(variety, inequalities, curve, a, d, mode).ok:
                return curve
    return None


def _plane_generator(variety):
    """The generator g of a plane variety V(g) with g nonconstant, else
    None."""
    if variety.ctx.arity != 2 or len(variety.generators) != 1:
        return None
    g = variety.generators[0]
    return None if g.constant_value() is not None else g


def _plane_shape(variety, d):
    """The degree shape of curves of degree at most d in a plane V(g):
    coordinate i gets min(d, deg_{y_{3-i}} g).  None off a plane V(g).

    A proper polynomial parametrization (p1, p2) of an irreducible V(h)
    has deg p1 = deg_{y2} h and deg p2 = deg_{y1} h: a generic line
    y2 = c meets V(h) in deg_{y1} h points, each the image of one t
    (Sendra, Winkler & Perez-Diaz, Rational Algebraic Curves, Springer
    2008, ch. 4 and 6).  Each component h of g has deg_{y_i} h <=
    deg_{y_i} g, and a polynomial parametrization passes through every
    point of its image, through a at t = 0 after a shift of t.  So the
    shaped ansatz holds the proper curve through a of every polynomially
    parametrized component of V(g) of degree at most d."""
    g = _plane_generator(variety)
    if g is None:
        return None
    y1, y2 = variety.ctx.names
    return min(d, g.degree_in(y2)), min(d, g.degree_in(y1))


def _squarefree_plane_generator(variety):
    """The generator g of a plane variety V(g) with g squarefree and
    nonconstant, else None: the premises on V of the properness proof."""
    g = _plane_generator(variety)
    return g if g is not None and squarefree_full(g) == g.canonical() else None


def implicitize(curve, ctx):
    """h = Res_t(y1 - c1(t), y2 - c2(t)) for a plane curve (c1, c2) with
    both coordinates nonconstant, as a polynomial in the two variables of
    ctx.

    h is a nonzero constant times F^r, F the implicit equation of the
    curve and r its index, the generic number of parameters over a point
    of the image (Sendra, Winkler & Perez-Diaz, ch. 4)."""
    if curve.m != 2 or ctx.arity != 2 or any(udeg(cs) < 1 for cs in curve.coordinates()):
        raise PreconditionError("implicitize takes a plane curve with both coordinates nonconstant")
    names = ctx.names
    t = "t_"
    while t in names:
        t += "_"
    tctx = Context((t,) + names, LEX)
    p1, p2 = (tctx.var(nm) - _embed_scalar(cs, tctx, t) for nm, cs in zip(names, curve.coordinates()))
    return resultant(p1, p2, t).rebase(ctx)


def _proper_degree(g, curve):
    """The effective degree k of a curve in the plane of g when the curve
    properly parametrizes V(g), else None; g is squarefree
    (``_squarefree_plane_generator``).

    With both coordinates nonconstant, h = ``implicitize(curve, g.ctx)`` is a
    constant times F^r, F the implicit equation of the curve and r its
    index.  So h = g up to a factor, g squarefree, says that r = 1 (the
    curve is proper) and that V(g) is its image.  Then every nonconstant
    polynomial curve in V(g) is curve(q) with q rational (the inverse of a
    proper curve is rational), and q has no finite pole, since curve(q)
    would go to infinity there: q is a polynomial, and curve(q) has degree
    k * deg q >= k."""
    if any(udeg(cs) < 1 for cs in curve.coordinates()):
        return None
    h = implicitize(curve, g.ctx)
    return curve.effective_degree if h.canonical() == g.canonical() else None


def no_smaller_curve(variety, a, d):
    """Prove that no nonconstant curve of degree at most d-1 passes
    through a inside the variety.

    The curves through a of degree at most d-1 are the points b of V(I),
    I the degree-(d-1) ansatz ideal in the unknown coefficients, and
    b = 0 (the constant curve) is always one of them.  So the proof holds
    iff V(I) = {0}.  V(I) is a cone: b_{i,j} -> lambda^j * b_{i,j} turns
    the curve c(t) into c(lambda*t), so it scales the t^k equation by
    lambda^k.  With b, V(I) thus holds the curve lambda -> lambda.b, which
    is constant only at b = 0, and a finite V(I) holds no nonconstant
    curve.  Hence V(I) = {0} iff V(I) is finite, iff some leading
    monomial of a grevlex basis is a pure power of each unknown (Cox,
    Little & O'Shea, Ideals, Varieties, and Algorithms, ch. 5 sec. 3,
    Thm. 6).  The zero ideal (every coefficient vector is a curve) has no
    leading monomials and gives False; the unit ideal cannot occur, since
    b = 0 lies in V(I).

    On a plane V(g), I is the ideal of the ansatz shaped by g at degree
    d-1 (``_plane_shape``), with no fallback.  Every nonconstant curve c
    of degree at most d-1 through a is p(q) with p proper and q a
    polynomial (Lueroth), so deg p <= d-1; shifting t, p passes through a
    at t = 0.  p parametrizes a component of V(g), so p lies in the
    shaped ansatz, and the shaped V(I) holds a nonconstant curve iff the
    full one does.  Setting the unknowns outside the shape to zero keeps
    the weights, so the shaped V(I) is still a cone, and the same
    finiteness test decides it."""
    if d <= 1:
        raise PreconditionError("no_smaller_curve needs d >= 2 (degree d-1 curves exist only for d-1 >= 1)")
    system = ansatz_system(variety, a, _plane_shape(variety, d - 1) or d - 1)
    order = system.bctx.order
    lms = [g.leading_monomial(order) for g in system.ideal.groebner()]
    return all(any(lm[i] and sum(lm) == lm[i] for lm in lms) for i in range(system.bctx.arity))


# -- certificates ------------------------------------------------------------------


class UniruledCertificate(Record):
    """Point-sampled evidence that a variety is covered by curves of
    bounded degree: one verified curve through each requested sample,
    with optional per-point minimality proofs."""

    entries: tuple  # (sample point, ParametricCurve or None)
    minimality: dict
    status: str

    def curves(self):
        return [c for _, c in self.entries if c is not None]


# with sharpness on, this many samples get a minimality proof
_SHARPNESS_SAMPLES = 3
# below this degree the grevlex proof, on the m unknowns of the line
# ansatz, costs no more than the resultant of the properness proof
_PROPER_MIN_DEGREE = 3


def certify(variety, inequalities, d, samples, mode="complex", sharpness=False):
    """Search and verify a curve of degree <= d through every sample.

    Status is "verified" only if every sample received a verified curve;
    "partial" if some did; "failed" otherwise.  With sharpness on and
    d >= 2, the first _SHARPNESS_SAMPLES samples also get the answer of
    no_smaller_curve recorded, from the cheapest proof that applies: a
    found curve of degree below d is its own witness (False); from
    _PROPER_MIN_DEGREE on, a found curve that properly parametrizes a
    squarefree plane V(g) bounds every curve in V(g) from below
    (``_proper_degree``); otherwise no_smaller_curve runs."""
    entries = []
    minimality = {}
    for pt in samples:
        pt = tuple(Q(x) for x in pt)
        if not _check_on_variety(variety, pt, inequalities, mode):
            raise PreconditionError(f"sample {tuple(map(str, pt))} is off the variety")
        # find_curve returns only curves that verify_curve passed
        entries.append((pt, find_curve(variety, pt, d, mode, inequalities)))
    if sharpness and d >= 2:
        g = _squarefree_plane_generator(variety) if d >= _PROPER_MIN_DEGREE else None
        for pt, curve in entries[:_SHARPNESS_SAMPLES]:
            if curve is not None and curve.effective_degree < d:
                minimality[pt] = False  # the curve is its own witness
            elif curve is not None and g is not None and _proper_degree(g, curve) is not None:
                minimality[pt] = True  # every curve in V(g) has degree >= deg curve >= d
            else:
                minimality[pt] = no_smaller_curve(variety, pt, d)
    found = sum(1 for _, c in entries if c is not None)
    status = "verified" if found == len(entries) else ("partial" if found else "failed")
    return UniruledCertificate(
        entries=tuple(entries),
        minimality=minimality,
        status=status,
    )


# -- univariate decomposition --------------------------------------------------------


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


def _outer_through(cs, g):
    """The outer coefficient list f with f(g) = cs, or None when cs does
    not factor through g: every g-adic digit of cs must be a constant,
    and the round trip is checked exactly."""
    outer = []
    w = cs
    while w:
        w, digit = udivmod(w, g)
        if udeg(digit) > 0:
            return None
        outer.append(digit[0] if digit else Q(0))
    outer = utrim(outer)
    return outer if compose_scalar(outer, g) == cs else None


def _factor_through(coords, degrees):
    """(outer coefficient lists, inner) for the first r in ``degrees`` such
    that every list in coords factors through the degree-r inner candidate
    of the first nonconstant list; (coords, t) when no r does."""
    h = umonic(next(cs for cs in coords if udeg(cs) >= 1))
    for r in degrees:
        g = _inner_candidate(h, r)
        outers = [_outer_through(cs, g) for cs in coords]
        if all(o is not None for o in outers):
            return outers, g
    return coords, [Q(0), Q(1)]


def decompose(u):
    """Write the coefficient list u = outer(inner) with inner of maximal
    degree among proper decompositions, inner monic with inner(0) = 0;
    returns the two coefficient lists, (u, t) when u is indecomposable.
    Exact round-trip guaranteed."""
    cs = utrim([Q(c) for c in u])
    n = udeg(cs)
    if n < 1:
        raise PreconditionError("cannot decompose a constant polynomial")
    (outer,), g = _factor_through([cs], [r for r in range(n - 1, 1, -1) if n % r == 0])
    return outer, g


def common_inner(curve):
    """The maximal-degree monic g with g(0) = 0 such that every curve
    coordinate factors through g; returns (outer curve, inner coefficient
    list)."""
    coords = curve.coordinates()
    gdeg = math.gcd(*(max(udeg(cs), 0) for cs in coords))
    if not gdeg:
        raise PreconditionError("constant curve has no inner polynomial")
    outers, g = _factor_through(coords, [r for r in range(gdeg, 1, -1) if gdeg % r == 0])
    if udeg(g) == 1:  # no common inner of degree 2 or more
        return curve, g
    return ParametricCurve.from_coordinates(outers, curve.mode), g


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
        if nonneg_on_line(shifted) and count_real_roots(shifted):
            return c
    raise PreconditionError(
        "the minimum of the inner polynomial is irrational; the degree-2 "
        "covering would need algebraic coefficients"
    )


def _embed_scalar(cs, ctx, name):
    """The coefficient list cs as a polynomial in variable ``name`` of ctx."""
    zero = (0,) * ctx.arity
    return _unrows(ctx, [{zero: c} for c in cs], ctx.index(name))


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


# -- one-parameter additive actions ------------------------------------------------------


class OneParamAction(Record):
    """A polynomial action of the additive group on a (possibly
    constrained) affine set: x maps to phi(g, x).

    Construction verifies the action axioms exactly: phi(0, x) = x, and
    additivity phi(g, phi(h, x)) = phi(g + h, x) modulo the domain
    ideal."""

    ctx: Context  # source variables
    g_name: str
    components: tuple  # in action_ctx
    domain: Ideal = None

    def __post_init__(self):
        if self.domain is None:
            object.__setattr__(self, "domain", Ideal(self.ctx, []))
        if len(self.components) != self.ctx.arity:
            raise PreconditionError("action needs one component per source variable")
        for p in self.components:
            if p.ctx.names != self.action_ctx.names:
                raise PreconditionError("action component context mismatch")
        self._check_axioms()

    @property
    def action_ctx(self):
        """The (g, source variables) context of the components."""
        return Context((self.g_name,) + self.ctx.names, GREVLEX)

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
        dom_big = Ideal(big, [p.rebase(big) for p in self.domain.generators])
        for name, comp in zip(self.ctx.names, self.components):
            lhs = comp.subs(big, {self.g_name: big.var(self.g_name), **inner})
            rhs = comp.subs(big, {self.g_name: big.var(self.g_name) + big.var(h_name),
                                  **{n: big.var(n) for n in self.ctx.names}})
            if not dom_big.normal_form(lhs - rhs).is_zero():
                raise PreconditionError(
                    f"not a group action: additivity fails for component {name!r}"
                )

    def degree_in_parameter(self):
        return max(p.degree_in(self.g_name) for p in self.components)


def fixed_locus(action):
    """Ideal of the fixed points: the domain ideal plus every positive
    parameter-power coefficient of phi_i(g, x) - x_i."""
    ctx = action.ctx
    gens = list(action.domain.generators)
    for name, comp in zip(ctx.names, action.components):
        delta = comp - action.action_ctx.var(name)
        for power, coeff in enumerate(delta.coeffs_in(action.g_name)):
            if power == 0:
                if not coeff.is_zero():
                    raise AssertionError("identity axiom should have caught this")
                continue
            if not coeff.is_zero():
                gens.append(coeff.rebase(ctx))
    return Ideal(ctx, gens)
