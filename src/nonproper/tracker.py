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

Everything exact happens in Fractions (the per-step image curves are
exact); floats enter only for normalization and the convergence metric.
The subsequence/compactness step of the underlying existence argument is
replaced by a geometric index schedule and a deterministic convergence
test; non-convergent runs are reported, never silently resampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .curves import ParametricCurve, common_inner, substitute_curve
from .errors import NonproperError, PreconditionError, VerificationError
from .rationals import snap_rational
from .unipoly import Q


class ConstantCurveError(NonproperError):
    """The image curve degenerated to a constant: the chosen line met an
    infinite fiber (those cover only a nowhere dense set, so a different
    path avoids this)."""


@dataclass(frozen=True)
class PathSpec:
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
    base = [Q(x) for x in base]
    if len(base) != f.n:
        raise PreconditionError("base point arity mismatch")
    if mode == "radial":
        weight = (1,) * f.n
    elif mode == "cylinder":
        weight = (1,) + (0,) * (f.n - 1)
    else:
        raise PreconditionError(f"unknown image_curve mode {mode!r}")
    graded = []
    for comp in f.components:
        g = {}
        for mono, c in comp.terms.items():
            for b, e in zip(base, mono):
                if e:
                    c *= b ** e
            j = sum(e for e, w in zip(mono, weight) if w)
            g[j] = g.get(j, 0) + c
        graded.append(g)
    depth = max((j for g in graded for j in g), default=0) + 1
    cols = []
    for g in graded:
        # integer binomial sums over one common denominator per component
        den = math.lcm(*(v.denominator for v in g.values()))
        nums = [(j, v.numerator * (den // v.denominator)) for j, v in g.items()]
        cols.append([
            Q((-1) ** i * sum(math.comb(j, i) * n for j, n in nums if j >= i), den)
            for i in range(depth)
        ])
    rows = list(zip(*cols))
    while len(rows) > 1 and not any(rows[-1]):
        rows.pop()
    return ParametricCurve(f.m, len(rows) - 1, tuple(rows))


def norm_objective(norms2, lam):
    """sum_i ||c_i||^2 lam^(2i); strictly increasing in lam > 0 whenever
    some positive-index coefficient is nonzero."""
    return sum(v * lam ** (2 * i) for i, v in enumerate(norms2))


def unit_normalize(coeffs):
    """(lam, normalized) with normalized = c_i * lam^i of unit Euclidean
    norm, lam > 0 solved by bracket doubling plus bisection.

    ``coeffs`` is a sequence of coefficient rows; the result rows are
    tuples of complex.  Requires the constant coefficient to have norm < 1
    (otherwise the step is not yet in the convergence regime) and some
    higher coefficient to be nonzero (otherwise the curve is constant)."""
    rows = [tuple(complex(c) for c in row) for row in coeffs]
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
    lam = hi
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        val = norm_objective(norms2, mid)
        if val < 1.0:
            lo = mid
        else:
            hi = mid
        lam = mid
        if abs(math.sqrt(val) - 1.0) < 1e-13:
            break
    scaled = tuple(tuple(c * lam ** i for c in row) for i, row in enumerate(rows))
    return lam, scaled


@dataclass(frozen=True)
class StepRecord:
    k: int
    raw: ParametricCurve  # exact image curve, already translated by the target
    lam: float
    normalized: tuple  # rows of complex, phase-aligned to the previous step
    in_regime: bool


@dataclass(frozen=True)
class FloatCurve:
    """Floating estimate of the limit curve (coefficient matrix rows are
    t-powers)."""

    coeffs: tuple  # degree+1 rows of m complex numbers

    @property
    def m(self):
        return len(self.coeffs[0])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def eval(self, t):
        acc = (0j,) * self.m
        for row in reversed(self.coeffs):
            acc = tuple(a * t + c for a, c in zip(acc, row))
        return acc


@dataclass(frozen=True)
class LimitTrace:
    """Everything a tracking run produced, exact and floating."""

    target: tuple
    path: PathSpec
    steps: tuple
    diffs: tuple  # consecutive sup-norm differences after phase alignment
    status: str  # converged | diverged | constant-curve-hit
    limit_estimate: FloatCurve
    lambdas: tuple

    @property
    def converged(self):
        return self.status == "converged"

    def lambda_growth(self):
        """Consecutive ratios of the normalization factors; a diagnostic
        for whether the reparametrization scale stays finite (ratios
        near 1) or escapes (ratios drifting), never a branch point."""
        return tuple(b / a for a, b in zip(self.lambdas, self.lambdas[1:]))

    def final_raw(self):
        return self.steps[-1].raw


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
    aligned = tuple(tuple(u * c for c in row) for row in cur)
    return aligned, max(abs(a - p) for ra, rp in zip(aligned, prev) for a, p in zip(ra, rp))


def track(f, target, path, tol=1e-8, residual_tol=1e-6):
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
    resid = math.sqrt(sum(abs(complex(a - b)) ** 2 for a, b in zip(last_val, target)))
    scale = 1.0 + math.sqrt(sum(abs(complex(t)) ** 2 for t in target))
    if resid >= residual_tol * scale:
        raise PreconditionError(
            f"path does not approach the target: final residual {resid:.3e}"
        )
    steps = []
    diffs = []
    prev_norm = None
    status = None
    # the image curve of f - target is the image curve of f translated by
    # the target: the constants only reach the t^0 coefficient
    shifted = replace(f, components=tuple(c - t for c, t in zip(f.components, target)))
    for k, pt in zip(path.schedule, points):
        raw = image_curve(shifted, pt, path.kind)
        try:
            lam, normalized = unit_normalize(raw.coeffs)
        except ConstantCurveError:
            status = "constant-curve-hit"
            steps.append(StepRecord(k, raw, float("nan"), None, False))
            break
        except PreconditionError:
            steps.append(StepRecord(k, raw, float("nan"), None, False))
            continue
        if prev_norm is not None:
            normalized, diff = _phase_align(prev_norm, normalized)
            diffs.append(diff)
        prev_norm = normalized
        steps.append(StepRecord(k, raw, lam, normalized, True))
    if status is None:
        usable = [s for s in steps if s.in_regime]
        tail = diffs[-3:]
        if len(usable) >= 4 and len(tail) == 3 and all(d < tol for d in tail):
            status = "converged"
        else:
            status = "diverged"
    limit = FloatCurve(((0j,) * f.m,))
    for s in reversed(steps):
        if s.in_regime:
            row0 = tuple(c + complex(t) for c, t in zip(s.normalized[0], target))
            limit = FloatCurve((row0,) + s.normalized[1:])
            break
    lambdas = tuple(s.lam for s in steps if s.in_regime)
    return LimitTrace(
        target=target,
        path=path,
        steps=tuple(steps),
        diffs=tuple(diffs),
        status=status,
        limit_estimate=limit,
        lambdas=lambdas,
    )


@dataclass(frozen=True)
class VerifiedLimit:
    """Exact rational limit curve plus its decomposition through a common
    inner polynomial (the decomposed outer degree witnesses the degree
    bound)."""

    curve: ParametricCurve
    outer: ParametricCurve
    inner: list  # coefficients of the inner polynomial

    @property
    def outer_degree(self):
        return self.outer.effective_degree


def rationalize_verify(trace, sf, tol=Fraction(1, 10**6), max_denominator=10**6):
    """Snap the final exact image curve to simple rationals and verify it
    exactly against every component of the non-properness set.

    The per-step image curves are exact, so at large schedule indices the
    non-limit dust is below tol and snapping recovers the exact limit;
    verification then has no numeric content at all.  Raises
    VerificationError when snapping fails or a component generator does
    not vanish on the curve."""
    raw = trace.final_raw()
    coords = []
    for i in range(raw.m):
        cs = raw.coordinate(i) or [Q(0)]
        snapped = [snap_rational(c, tol, max_denominator) for c in cs]
        snapped[0] = snapped[0] + trace.target[i]
        coords.append(snapped)
    curve = ParametricCurve.from_coordinates(coords, mode="complex")
    if curve.is_constant():
        raise VerificationError("rationalized limit curve is constant")
    if not sf.components:
        raise VerificationError("the non-properness set is empty; no curve can lie in it")
    # the image of the line is irreducible, so it must sit inside one
    # component of the set; exactness means every generator of that
    # component composes to zero
    failing = None
    for comp in sf.components:
        ok = True
        for g in comp.canonical_generators():
            if g.is_zero():
                continue
            if not substitute_curve(g, curve).is_zero():
                ok = False
                failing = g
                break
        if ok:
            break
    else:
        raise VerificationError(
            f"limit curve does not satisfy the component generator {failing}"
        )
    outer, inner = common_inner(curve)
    return VerifiedLimit(curve=curve, outer=outer, inner=inner)
