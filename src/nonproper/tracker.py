"""Floating-point limit-curve tracking with exact back-verification.

Push a divergent sequence of base points through a map, expand the image
of each scaled line exactly, renormalize each image curve to unit
coefficient norm, and watch the normalized coefficient vectors converge.
The limit, once converged, is snapped back to rational coefficients and
re-verified exactly against the non-properness set.

Each image curve comes in closed form from the map's graded parts.  Grade
the terms by the path kind's weight vector (total degree for radial
paths, the degree in the first variable for cylinder paths); then f along
the line (1-t)*b is sum_j g_j(b) * (1-t)^j, where g_j(b) is the part of
weight j evaluated at b.  So each monomial is evaluated once per step and
the t-coefficients follow from integer binomials, with no t-polynomial
arithmetic.

Each normalization solves sum_i ||c_i||^2 lam^(2i) = 1 by bisection.  A
Newton estimate of the root, checked against the objective with a margin
far above its float rounding error, marks the bisection steps whose
outcome is already known; those skip the evaluation, so lam is the same
dyadic midpoint, bit for bit, as when every step evaluates.

Each step is exact in integers: the map's terms are prepared once per run
as int numerators over one denominator per component, and each step's
image curve comes out as int numerator rows over per-component
denominators.  Normalization reads the floats n / den straight from those
integers (int true division is correctly rounded, so each float is the
float of the reduced Fraction); Fractions are built only for the last
step's curve, the one rationalize_verify snaps and verifies.  Floats
enter only for normalization and the convergence metric.  The per-step
float tuples are built from lists, not generators: a tuple built from a
generator is sized by reallocation, so it bypasses the tuple free list
when allocated yet joins it when freed, and with the integer loop's rare
full collections those free lists would grow the resident set.

The subsequence/compactness step of the underlying existence argument is
replaced by a geometric index schedule and a deterministic convergence
test; non-convergent runs are reported, never silently resampled.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curves import ParametricCurve, common_inner, verify_curve
from .errors import NonproperError, PreconditionError, VerificationError
from .mpoly import _clear_denominators
from .rationals import snap_rational
from .record import Record
from .unipoly import Q

# a path's last point must map within this distance, relative to the
# target's size, of the target
_RESIDUAL_TOL = 1e-6
# the limit's coefficients snap to the simplest rational this close, with a
# denominator of at most snap_rational's default cap
_SNAP_TOL = Fraction(1, 10**6)

class ConstantCurveError(NonproperError):
    """The image curve degenerated to a constant: the chosen line met an
    infinite fiber (those cover only a nowhere dense set, so a different
    path avoids this)."""


class PathSpec(Record):
    """A family of base points indexed by k.

    kind "radial": the whole point is scaled along the line (1-t)*x_k.
    kind "cylinder": only the first coordinate is scaled, the rest ride
    along unchanged.
    """

    kind: str
    point_fn: object  # Callable[[int], tuple[Fraction, ...]]
    schedule: tuple

    def __post_init__(self):
        if self.kind not in ("radial", "cylinder"):
            raise PreconditionError(f"unknown path kind {self.kind!r}")
        sched = tuple(int(k) for k in self.schedule)
        if len(sched) < 4:
            raise PreconditionError("schedule needs at least 4 indices")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise PreconditionError("schedule must be strictly increasing")
        object.__setattr__(self, "schedule", sched)

    @classmethod
    def geometric(cls, point_fn, kind="radial", kmax=20):
        return cls(kind, point_fn, tuple(2 ** i for i in range(1, kmax + 1)))


def _image_kernel(f, mode):
    """Prepare f for exact image curves along scaled lines, in integers.

    Returns ``expand(base) -> (rows, dens)``: rows[i][c] / dens[c] is the
    t^i coefficient of component c of f along the line through ``base``
    (see image_curve), every entry an int, trailing zero rows trimmed.

    Component c's terms are prepared once as int numerators a over one
    denominator Dc, each with its w-degree j and total degree |e|.  Per
    step the base point goes over one denominator D, b = n / D, so a term
    a*x^e/Dc is a*n^e*D^(top-|e|) / (Dc*D^top), where top is the
    component's total degree: each g_j is an int sum over the denominator
    Dc*D^top, and so is each binomial sum.
    """
    if mode == "radial":
        weight = (1,) * f.n
    elif mode == "cylinder":
        weight = (1,) + (0,) * (f.n - 1)
    else:
        raise PreconditionError(f"unknown image_curve mode {mode!r}")
    comps = []
    for comp in f.components:
        den, nums = _clear_denominators(comp.terms)
        terms = [(tuple((v, e) for v, e in enumerate(mono) if e), a,
                  sum(e for e, w in zip(mono, weight) if w), sum(mono))
                 for mono, a in nums.items()]
        comps.append((den, terms, max((t[3] for t in terms), default=0)))
    depth = max((t[2] for _, terms, _ in comps for t in terms), default=0) + 1
    # coefficient of t^i: sum over the w-degrees j >= i of (-1)^i C(j, i) g_j
    binoms = []
    for _, terms, _ in comps:
        js = sorted({t[2] for t in terms})
        binoms.append([[(j, (-1) ** i * math.comb(j, i)) for j in js if j >= i]
                       for i in range(depth)])
    n = f.n
    top_all = max(top for _, _, top in comps)

    def expand(base):
        base = [Q(x) for x in base]
        if len(base) != n:
            raise PreconditionError("base point arity mismatch")
        d = math.lcm(*(b.denominator for b in base))
        nums = [b.numerator * (d // b.denominator) for b in base]
        dpow = [1]
        for _ in range(top_all):
            dpow.append(dpow[-1] * d)
        cols, dens = [], []
        for (den, terms, top), binom in zip(comps, binoms):
            g = [0] * depth
            for mono, a, j, deg in terms:
                for v, e in mono:
                    a *= nums[v] ** e
                g[j] += a * dpow[top - deg]
            cols.append([sum([c * g[j] for j, c in row]) for row in binom])
            dens.append(den * dpow[top])
        rows = list(zip(*cols))
        while len(rows) > 1 and not any(rows[-1]):
            rows.pop()
        return rows, dens

    return expand


def _exact_curve(m, rows, dens):
    return ParametricCurve(m, len(rows) - 1,
                           tuple(tuple(Q(a, d) for a, d in zip(row, dens)) for row in rows))


def image_curve(f, base, mode="radial"):
    """Exact t-expansion of f along the scaled line through a base point.

    radial: f((1-t) * base); cylinder: f(((1-t) * base_1, base_rest)).

    Closed form: with w the path kind's weight vector (all ones for
    radial, (1, 0, ..., 0) for cylinder) a monomial of w-degree j picks up
    exactly the factor (1-t)^j, so f along the line is
    sum_j g_j * (1-t)^j, where g_j is the sum of the terms of w-degree j
    evaluated at the base point.  Each monomial is evaluated once and the
    coefficient of t^i is (-1)^i * sum_j C(j, i) * g_j.  Returns the
    curve with trailing zero coefficient vectors trimmed.
    """
    return _exact_curve(f.m, *_image_kernel(f, mode)(base))


def norm_objective(norms2, lam):
    """sum_i ||c_i||^2 lam^(2i); strictly increasing in lam > 0 whenever
    some positive-index coefficient is nonzero."""
    return sum(v * lam ** (2 * i) for i, v in enumerate(norms2))


def _root_estimate(norms2, hi):
    """Newton on log F(e^s) for F = norm_objective, from s = log hi down.

    log F(e^s) is a log-sum-exp in s, so it is convex and increasing;
    started right of the root, Newton goes down monotonically.  It stops
    once F no longer exceeds 1 or the step no longer decreases lam."""
    lam = hi
    for _ in range(100):
        f = df = 0.0
        for i, v in enumerate(norms2):
            term = v * lam ** (2 * i)
            f += term
            df += 2 * i * term
        if not f > 1.0:
            break
        nxt = lam * math.exp(-f * math.log(f) / df)
        if not nxt < lam:
            break
        lam = nxt
    return lam


def unit_normalize(coeffs):
    """(lam, normalized) with normalized = c_i * lam^i of unit Euclidean
    norm, lam > 0 solved by bracket doubling plus bisection.

    ``coeffs`` is a sequence of coefficient rows of numbers that
    ``complex()`` takes; the result rows are tuples of complex.  Requires
    the constant coefficient to have norm < 1 (otherwise the step is not
    yet in the convergence regime) and some higher coefficient to be
    nonzero (otherwise the curve is constant).

    Bisection midpoints whose outcome is already known are not evaluated.
    From a Newton root estimate r, a = r(1 - 1e-12) is kept if
    sqrt(F(a)) <= 1 - 2e-13 and b = min(r(1 + 1e-12), hi) if
    sqrt(F(b)) >= 1 + 2e-13.  F's float value is within a relative
    (depth + 3) * 2^-53 of its exact value, far inside that margin, so a
    midpoint below a would evaluate below 1 - 1e-13 (lo moves up) and one
    above b above 1 + 1e-13 (hi moves down): lam is the same midpoint, bit
    for bit, and a poor or NaN estimate only costs evaluations."""
    rows = [tuple([complex(c) for c in row]) for row in coeffs]
    norms2 = [sum(a * a for a in map(abs, row)) for row in rows]
    if norms2[0] >= 1.0:
        raise PreconditionError(
            "constant coefficient norm is >= 1: not yet in the convergence regime"
        )
    if len(norms2) < 2 or all(v == 0 for v in norms2[1:]):
        raise ConstantCurveError("image curve is constant (infinite fiber hit)")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if norm_objective(norms2, hi) >= 1.0:
            break
        hi *= 2.0
    else:
        raise PreconditionError("failed to bracket the normalization root")
    r = _root_estimate(norms2, hi)
    below, above = r * (1 - 1e-12), min(r * (1 + 1e-12), hi)
    if not math.sqrt(norm_objective(norms2, below)) <= 1 - 2e-13:
        below = 0.0
    if not math.sqrt(norm_objective(norms2, above)) >= 1 + 2e-13:
        above = hi
    lam = hi
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        lam = mid
        if mid < below:
            lo = mid
            continue
        if mid > above:
            hi = mid
            continue
        val = norm_objective(norms2, mid)
        if val < 1.0:
            lo = mid
        else:
            hi = mid
        if abs(math.sqrt(val) - 1.0) < 1e-13:
            break
    scaled = tuple([tuple([c * lam ** i for c in row]) for i, row in enumerate(rows)])
    return lam, scaled


class StepRecord(Record):
    k: int
    lam: float  # nan when the step is out of regime
    in_regime: bool


class LimitTrace(Record):
    """Everything a tracking run produced, exact and floating."""

    target: tuple
    steps: tuple
    diffs: tuple  # consecutive sup-norm differences after phase alignment
    status: str  # converged | diverged | constant-curve-hit
    limit_estimate: tuple  # rows of complex, t-powers, translated back by the target
    lambdas: tuple
    # exact image curve of the last computed step, translated by the target
    final_raw: ParametricCurve

    def lambda_growth(self):
        """Consecutive ratios of the normalization factors; a diagnostic
        for whether the reparametrization scale stays finite (ratios
        near 1) or escapes (ratios drifting), never a branch point."""
        return tuple(b / a for a, b in zip(self.lambdas, self.lambdas[1:]))


def _phase_align(prev, cur):
    """Pad both coefficient matrices with zero rows to a common length and
    rotate cur by the unit phase that best matches prev; return the
    padded, rotated cur and its sup-norm distance to prev."""
    depth = max(len(prev), len(cur))
    zero = (0j,) * len(cur[0])
    prev = prev + (zero,) * (depth - len(prev))
    cur = cur + (zero,) * (depth - len(cur))
    inner = sum(c.conjugate() * p for rc, rp in zip(cur, prev) for c, p in zip(rc, rp))
    if abs(inner) < 1e-300:
        return cur, float("inf")
    u = inner / abs(inner)
    aligned = tuple([tuple([u * c for c in row]) for row in cur])
    return aligned, max(abs(a - p) for ra, rp in zip(aligned, prev) for a, p in zip(ra, rp))


def track(f, target, path, tol=1e-8):
    """Run the schedule, normalize each exact image curve, and test
    convergence of the normalized coefficient vectors.

    Converged means the last three consecutive aligned differences are
    all below tol.  The limit estimate is the final normalized curve
    translated back by the target."""
    target = tuple(Q(x) for x in target)
    if len(target) != f.m:
        raise PreconditionError("target arity must match the number of components")
    points = [path.point_fn(k) for k in path.schedule]
    last_val = f.evaluate(points[-1])
    try:
        resid = math.sqrt(sum(abs(complex(a - b)) ** 2 for a, b in zip(last_val, target)))
    except OverflowError:  # the last image point lies beyond float range
        resid = math.inf
    try:  # the limit estimate is translated back by the target in floats
        shift = [complex(t) for t in target]
        scale = 1.0 + math.sqrt(sum(abs(z) ** 2 for z in shift))
    except OverflowError:
        raise PreconditionError(
            f"target ({', '.join(map(str, target))}) lies beyond float range"
        ) from None
    if resid >= _RESIDUAL_TOL * scale:
        raise PreconditionError(
            f"path does not approach the target: final residual {resid:.3e}"
        )
    steps = []
    diffs = []
    prev_norm = None
    status = None
    # the image curve of f - target is the image curve of f translated by
    # the target: the constants only reach the t^0 coefficient
    shifted = f.replace(components=tuple(c - t for c, t in zip(f.components, target)))
    expand = _image_kernel(shifted, path.kind)
    for k, pt in zip(path.schedule, points):
        rows, dens = expand(pt)
        try:
            # int true division is correctly rounded: each float is the
            # float of the reduced Fraction
            lam, normalized = unit_normalize([[a / d for a, d in zip(row, dens)]
                                              for row in rows])
        except ConstantCurveError:
            status = "constant-curve-hit"
            steps.append(StepRecord(k, float("nan"), False))
            break
        except PreconditionError:
            steps.append(StepRecord(k, float("nan"), False))
            continue
        if prev_norm is not None:
            normalized, diff = _phase_align(prev_norm, normalized)
            diffs.append(diff)
        prev_norm = normalized
        steps.append(StepRecord(k, lam, True))
    if status is None:
        usable = [s for s in steps if s.in_regime]
        tail = diffs[-3:]
        if len(usable) >= 4 and len(tail) == 3 and all(d < tol for d in tail):
            status = "converged"
        else:
            status = "diverged"
    limit = ((0j,) * f.m,)
    if prev_norm is not None:
        row0 = tuple(c + z for c, z in zip(prev_norm[0], shift))
        limit = (row0,) + prev_norm[1:]
    lambdas = tuple(s.lam for s in steps if s.in_regime)
    return LimitTrace(
        target=target,
        steps=tuple(steps),
        diffs=tuple(diffs),
        status=status,
        limit_estimate=limit,
        lambdas=lambdas,
        final_raw=_exact_curve(f.m, rows, dens),
    )


class VerifiedLimit(Record):
    """Exact rational limit curve plus its decomposition through a common
    inner polynomial (the decomposed outer degree witnesses the degree
    bound)."""

    curve: ParametricCurve
    outer: ParametricCurve
    inner: list  # coefficients of the inner polynomial

    @property
    def outer_degree(self):
        return self.outer.effective_degree


def rationalize_verify(trace, sf):
    """Snap the final exact image curve to simple rationals and verify it
    exactly against every component of the non-properness set.

    The per-step image curves are exact, so at large schedule indices the
    non-limit dust is below tol and snapping recovers the exact limit;
    verification then has no numeric content at all.  Raises
    VerificationError when snapping fails or a component generator does
    not vanish on the curve."""
    raw = trace.final_raw
    coords = []
    for i in range(raw.m):
        cs = raw.coordinate(i) or [Q(0)]
        snapped = [snap_rational(c, _SNAP_TOL) for c in cs]
        snapped[0] = snapped[0] + trace.target[i]
        coords.append(snapped)
    curve = ParametricCurve.from_coordinates(coords, mode="complex")
    if curve.is_constant():
        raise VerificationError("rationalized limit curve is constant")
    if not sf.components:
        raise VerificationError("the non-properness set is empty; no curve can lie in it")
    # the image of the line is irreducible, so it must sit inside one
    # component of the set; exactness means the curve satisfies all of
    # that component's equations
    for comp in sf.components:
        report = verify_curve(comp, (), curve)
        if report.equations_ok:
            break
    else:
        raise VerificationError(
            f"limit curve does not satisfy the component generator {report.failing_generator}"
        )
    outer, inner = common_inner(curve)
    return VerifiedLimit(curve=curve, outer=outer, inner=inner)
