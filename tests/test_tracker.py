import math
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from conftest import mpolys, small_fractions
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nonproper
from nonproper import tracker
from nonproper.curves import ParametricCurve
from nonproper.errors import PreconditionError, VerificationError
from nonproper.mpoly import Context
from nonproper.parser import parse_poly
from nonproper.properness import PolyMap, sf_compute, theorem_bound
from nonproper.tracker import (
    ConstantCurveError,
    LimitTrace,
    PathSpec,
    StepRecord,
    image_curve,
    norm_objective,
    rationalize_verify,
    track,
    unit_normalize,
)
from nonproper.unipoly import uadd, umul, upow

C2 = Context(("x1", "x2"))
CXY = Context(("x", "y"))


def pmap(ctx, *comps):
    return PolyMap(ctx, tuple(parse_poly(c, ctx) for c in comps))


def twist(d):
    return pmap(CXY, f"x + (x*y)^{d}", "x*y")


SCALING = pmap(C2, "x1", "x1*x2")


def quad_path(*exprs):
    fns = {
        "inv_k2": lambda k: Q(1, k * k),
        "k2": lambda k: Q(k * k),
        "2k2": lambda k: Q(2 * k * k),
        "k": lambda k: Q(k),
    }
    return PathSpec.geometric(lambda k: tuple(fns[e](k) for e in exprs), "radial", 20)


class TestImageCurve:
    def test_twist_symbolic_in_k(self):
        # hand expansion: f((1-t)/k, 2k(1-t)) = ((1-t)/k + 4(1-t)^4, 2(1-t)^2)
        for k in (Q(3), Q(7), Q(16)):
            u = image_curve(twist(2), (1 / k, 2 * k))
            expect0 = [4 + 1 / k, -16 - 1 / k, Q(24), Q(-16), Q(4)]
            expect1 = [Q(2), Q(-4), Q(2)]
            assert u.coordinate(0) == expect0
            assert u.coordinate(1) == expect1

    def test_scaling_symbolic_in_k(self):
        # hand expansion: ((1-t)/k, c(1-t)^2)
        c = Q(5, 3)
        for k in (Q(2), Q(9)):
            u = image_curve(SCALING, (1 / k, k * c))
            assert u.coordinate(0) == [1 / k, -1 / k]
            assert u.coordinate(1) == [c, -2 * c, c]

    def test_identity(self):
        u = image_curve(pmap(C2, "x1", "x2"), (1, 0))
        assert u.coordinate(0) == [Q(1), Q(-1)]
        assert u.coordinate(1) == []

    def test_cylinder_scales_first_coordinate_only(self):
        u = image_curve(SCALING, (Q(1, 4), Q(3)), mode="cylinder")
        # f = (x1, x1 x2) along ((1-t)/4, 3): ((1-t)/4, 3(1-t)/4)
        assert u.coordinate(0) == [Q(1, 4), Q(-1, 4)]
        assert u.coordinate(1) == [Q(3, 4), Q(-3, 4)]


def expanded_image_curve(f, base, mode):
    """Reference image curve by generic t-polynomial arithmetic: substitute
    (1-t)*b for every scaled coordinate (all of them for radial paths, the
    first for cylinder paths) and expand each monomial."""
    base = [Q(b) for b in base]
    coords = [[b, -b] if mode == "radial" or i == 0 else [b] for i, b in enumerate(base)]

    def expand(comp):
        total = []
        for mono, c in comp.terms.items():
            term = [c]
            for cs, e in zip(coords, mono):
                term = umul(term, upow(cs, e))
            total = uadd(total, term)
        return total

    return ParametricCurve.from_coordinates([expand(comp) for comp in f.components])


@st.composite
def maps_and_points(draw):
    """A map in 1-3 variables whose components may carry constant terms or
    be zero, and a rational base point with some zero coordinates."""
    n = draw(st.integers(min_value=1, max_value=3))
    ctx = Context(tuple(f"x{i + 1}" for i in range(n)))
    comps = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            comps.append(draw(mpolys(ctx=ctx, max_terms=4, max_exp=3)) + draw(small_fractions))
        else:
            comps.append(ctx.zero())
    assume(max(c.total_degree() for c in comps) >= 1)
    base = draw(st.lists(st.one_of(st.just(Q(0)), small_fractions), min_size=n, max_size=n))
    return PolyMap(ctx, tuple(comps)), base


class TestImageCurveClosedForm:
    @settings(max_examples=100)
    @given(maps_and_points(), st.sampled_from(("radial", "cylinder")))
    def test_matches_generic_expansion(self, case, mode):
        f, base = case
        assert image_curve(f, base, mode) == expanded_image_curve(f, base, mode)

    def test_matches_generic_expansion_on_tracker_schedules(self):
        for f, point_fn in ((twist(5), lambda k: (Q(-3, k * k), Q(7 * k * k, 2))),
                            (SCALING, lambda k: (Q(1, k * k), Q(k * k)))):
            for k in (2 ** i for i in range(1, 31, 3)):
                for mode in ("radial", "cylinder"):
                    pt = point_fn(k)
                    assert image_curve(f, pt, mode) == expanded_image_curve(f, pt, mode)


class TestUnitNormalize:
    def test_closed_form(self):
        # 0.36 + lam^2 = 1 -> lam = 0.8
        lam, nrm = unit_normalize([[0.6], [1.0]])
        assert abs(lam - 0.8) < 1e-10

    def test_unit_already(self):
        lam, _ = unit_normalize([[0.0], [0.0], [1.0]])
        assert abs(lam - 1.0) < 1e-10

    def test_half(self):
        lam, _ = unit_normalize([[0.0], [2.0]])
        assert abs(lam - 0.5) < 1e-10

    def test_norm_residual_invariant(self):
        lam, nrm = unit_normalize([[0.3, 0.1], [2.0, -1.0], [0.5, 4.0]])
        total = sum(abs(c) ** 2 for row in nrm for c in row)
        assert abs(math.sqrt(total) - 1.0) < 1e-12

    def test_constant_coefficient_too_large(self):
        with pytest.raises(PreconditionError, match="regime"):
            unit_normalize([[1.2], [1.0]])

    def test_constant_curve_detected(self):
        with pytest.raises(ConstantCurveError):
            unit_normalize([[0.5]])

    def test_objective_monotone(self):
        norms2 = [0.25, 3.0, 0.0, 7.0]
        samples = [norm_objective(norms2, 0.1 * i) for i in range(1, 11)]
        assert all(a < b for a, b in zip(samples, samples[1:]))


def bisection_unit_normalize(coeffs):
    """Reference normalization: bracket doubling, then bisection that
    evaluates the objective at every midpoint."""
    rows = [tuple(complex(c) for c in row) for row in coeffs]
    norms2 = [sum(a * a for a in map(abs, row)) for row in rows]
    if norms2[0] >= 1.0:
        raise PreconditionError("constant coefficient norm is >= 1")
    if len(norms2) < 2 or all(v == 0 for v in norms2[1:]):
        raise ConstantCurveError("image curve is constant")
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


def normalize_outcome(normalize, coeffs):
    """The result, or the type of the error, of one normalization."""
    try:
        return normalize(coeffs)
    except (PreconditionError, ConstantCurveError, OverflowError) as exc:
        return type(exc)


@st.composite
def normalization_rows(draw):
    """Rows of depth 2-12 and 1-3 columns, float or Fraction, with zero
    entries and magnitudes 1e-30..1e30; the constant row is scaled under
    unit norm, sometimes just under it."""
    depth = draw(st.integers(min_value=2, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=3))
    entry = st.one_of(st.just(0.0), st.builds(
        lambda m, e: m * 10.0 ** e,
        st.floats(min_value=-1, max_value=1, allow_nan=False), st.integers(-30, 30)))
    rows = [[draw(entry) for _ in range(cols)] for _ in range(depth)]
    norm0 = math.sqrt(sum(x * x for x in rows[0]))
    if norm0 >= 1.0:
        shrink = draw(st.sampled_from((0.5, 1 - 1e-9, 1 - 1e-15)))
        rows[0] = [x / norm0 * shrink for x in rows[0]]
    assume(any(x for row in rows[1:] for x in row))
    if draw(st.booleans()):
        rows = [[Q(x) for x in row] for row in rows]
    return rows


def twist_target_path(d):
    # (1/k^2, k^2) runs into the target (1, 1) of the twist map
    return twist(d), (1, 1), lambda k: (Q(1, k * k), Q(k * k))


SCHEDULES = [twist_target_path(d) for d in range(2, 9)] + [
    (SCALING, (0, 1), lambda k: (Q(1, k * k), Q(k * k)))]


def shifted_map(f, target):
    """f - target, whose image curves are the ones track normalizes."""
    return f.replace(components=tuple(c - Q(t) for c, t in zip(f.components, target)))


def schedule_rows(f, target, point_fn, kmax=40):
    """The coefficient rows track normalizes along a geometric schedule."""
    shifted = shifted_map(f, target)
    return [image_curve(shifted, point_fn(2 ** i)).coeffs for i in range(1, kmax + 1)]


class TestSkippedBisection:
    """unit_normalize skips the objective at midpoints a Newton seed
    decides; it must return what the evaluate-every-midpoint bisection
    returns, float for float."""

    @settings(max_examples=300, derandomize=True)
    @given(normalization_rows())
    @example([[1 - 1e-16], [3.0], [0.0]])  # constant row just under unit norm
    @example([[Q(1, 3), Q(0)], [Q(1, 10**20), Q(2, 10**21)], [Q(1, 10**25), Q(0)]])  # lam > 1
    @example([[0.0], [1e-30], [0.0], [1e-30]])  # lam > 1 after many doublings
    @example([[0.5, 0.0], [1e30, -1e30]])
    def test_matches_bisection_on_generated_rows(self, rows):
        assert (normalize_outcome(unit_normalize, rows)
                == normalize_outcome(bisection_unit_normalize, rows))

    @pytest.mark.parametrize("f,target,point_fn", SCHEDULES)
    def test_matches_bisection_on_tracker_schedules(self, f, target, point_fn):
        for coeffs in schedule_rows(f, target, point_fn):
            assert (normalize_outcome(unit_normalize, coeffs)
                    == normalize_outcome(bisection_unit_normalize, coeffs))

    @pytest.mark.parametrize("perturb", [lambda r: float("nan"), lambda r: 0.9 * r,
                                         lambda r: 1.1 * r])
    def test_wrong_seed_changes_nothing(self, perturb, monkeypatch):
        cases = [c for sched in SCHEDULES[::3] for c in schedule_rows(*sched, kmax=30)]
        cases += [[[0.6], [1.0]], [[0.3, 0.1], [2.0, -1.0], [0.5, 4.0]], [[0.0], [1e-20]]]
        want = [normalize_outcome(unit_normalize, c) for c in cases]
        estimate = tracker._root_estimate
        monkeypatch.setattr(tracker, "_root_estimate",
                            lambda norms2, hi: perturb(estimate(norms2, hi)))
        assert [normalize_outcome(unit_normalize, c) for c in cases] == want

    def test_few_objective_evaluations_per_normalization(self, monkeypatch):
        calls = []

        def counted(norms2, lam):
            calls.append(lam)
            return norm_objective(norms2, lam)

        monkeypatch.setattr(tracker, "norm_objective", counted)
        normalized = 0
        for d in (2, 5, 8, 12):
            for coeffs in schedule_rows(*twist_target_path(d)):
                normalized += not isinstance(normalize_outcome(unit_normalize, coeffs), type)
        assert normalized > 100
        assert len(calls) / normalized <= 12


class TestTrack:
    def test_twist_converges_and_verifies(self):
        f = twist(2)
        trace = track(f, (4, 2), quad_path("inv_k2", "2k2"))
        assert trace.status == "converged"
        assert all(d < 1e-8 for d in trace.diffs[-3:])
        sf = sf_compute(f)
        verified = rationalize_verify(trace, sf)
        # the limit is (4(1-t)^4, 2(1-t)^2) exactly
        assert verified.curve.coordinate(0) == [Q(4), Q(-16), Q(24), Q(-16), Q(4)]
        assert verified.curve.coordinate(1) == [Q(2), Q(-4), Q(2)]
        assert verified.outer_degree == 2 <= f.degree - 1

    def test_scaling_limit(self):
        trace = track(SCALING, (0, 1), quad_path("inv_k2", "k2"))
        assert trace.status == "converged"
        verified = rationalize_verify(trace, sf_compute(SCALING))
        assert verified.curve.coordinate(0) == []
        assert verified.curve.coordinate(1) == [Q(1), Q(-2), Q(1)]
        assert verified.outer_degree == 1

    def test_limit_passes_through_target(self):
        trace = track(SCALING, (0, 1), quad_path("inv_k2", "k2"))
        at0 = trace.limit_estimate[0]
        assert abs(at0[0] - 0.0) < 1e-9 and abs(at0[1] - 1.0) < 1e-9

    def test_lambda_growth_diagnostic(self):
        trace = track(SCALING, (0, 1), quad_path("inv_k2", "k2"))
        growth = trace.lambda_growth()
        assert len(growth) == len(trace.lambdas) - 1
        # the normalization scale settles: ratios approach 1
        assert all(abs(g - 1.0) < 1e-6 for g in growth[-3:])

    def test_constant_coefficient_shrinks_monotonically(self):
        path = quad_path("inv_k2", "k2")
        trace = track(SCALING, (0, 1), path)
        shifted = shifted_map(SCALING, (0, 1))
        tail = [s.k for s in trace.steps if s.in_regime][-3:]
        raws = [image_curve(shifted, path.point_fn(k)) for k in tail]
        norms = [sum(abs(complex(c)) ** 2 for c in raw.coeffs[0]) for raw in raws]
        assert norms[0] > norms[1] > norms[2]

    def test_degree_contract(self):
        f = twist(3)
        trace = track(f, (8, 2), quad_path("inv_k2", "2k2"))
        verified = rationalize_verify(trace, sf_compute(f))
        assert verified.curve.effective_degree <= f.degree
        assert verified.outer_degree <= theorem_bound(f, "cn")

    def test_identity_precondition_fails(self):
        f = pmap(C2, "x1", "x2")
        with pytest.raises(PreconditionError, match="does not approach"):
            track(f, (0, 0), quad_path("k", "k"))

    def test_linear_path_converges_only_at_loose_tolerance(self):
        # the O(1/k) dust in the constant coefficient dominates the
        # normalized difference, so 2^20 steps reach ~1e-6, not 1e-8
        f = twist(2)
        path = PathSpec.geometric(lambda k: (Q(1, k), Q(2 * k)), "radial", 20)
        assert track(f, (4, 2), path, tol=1e-5).status == "converged"
        assert track(f, (4, 2), path, tol=1e-8).status == "diverged"

    def test_constant_curve_hit(self):
        # f = (x1 x2, x2) along (k, 0): the whole line maps to (0, 0)
        f = pmap(C2, "x1*x2", "x2")
        path = PathSpec.geometric(lambda k: (Q(k), Q(0)), "radial", 8)
        trace = track(f, (0, 0), path)
        assert trace.status == "constant-curve-hit"
        # the first step hit: its exact curve, the zero curve, is kept
        assert trace.final_raw == image_curve(f, (2, 0))
        assert oracle_outcome(trace) == reference_track(f, (0, 0), path)

    def test_point_of_wrong_length_rejected_at_its_step(self):
        # the last point has the right length, so only the per-step check
        # sees the short early points
        path = PathSpec.geometric(
            lambda k: (Q(1, k * k), Q(k * k)) if k > 4 else (Q(1, k * k),), "radial", 20)
        with pytest.raises(PreconditionError, match="arity"):
            track(SCALING, (0, 1), path)

    def test_two_component_set_accepts_curve_in_one_component(self):
        C4 = Context(("x1", "x2", "x3", "x4"))
        f = PolyMap(C4, tuple(parse_poly(t, C4)
                              for t in ("x1", "x1*x2", "x3", "x3*x4")))
        sf = sf_compute(f)
        assert len(sf.components) == 2
        path = PathSpec.geometric(lambda k: (Q(1, k * k), Q(k * k), Q(1), Q(1)),
                                  "radial", 20)
        trace = track(f, (0, 1, 1, 1), path)
        assert trace.status == "converged"
        verified = rationalize_verify(trace, sf)
        # the limit lies in V(y1) but certainly not in V(y3)
        assert verified.curve.coordinate(0) == []
        assert verified.curve.coordinate(2) != []

    def test_cylinder_track(self):
        # scaling map viewed with x1 as the cylinder coordinate
        path = PathSpec("cylinder", lambda k: (Q(1, k * k), Q(k * k)),
                        tuple(2 ** i for i in range(1, 21)))
        trace = track(SCALING, (0, 1), path)
        assert trace.status == "converged"
        verified = rationalize_verify(trace, sf_compute(SCALING))
        # limit along the cylinder line is (0, 1 - t): a line
        assert verified.curve.effective_degree == 1

    def test_schedule_validation(self):
        with pytest.raises(PreconditionError):
            PathSpec("radial", lambda k: (Q(k),), (1, 2, 3))  # too short
        with pytest.raises(PreconditionError):
            PathSpec("radial", lambda k: (Q(k),), (1, 2, 2, 3))


def reference_track(f, target, path, tol=1e-8):
    """Reference step loop: each step's exact Fraction image curve,
    normalized from its Fractions and phase-aligned.  Returns what
    oracle_outcome reads from a trace."""
    target = tuple(Q(x) for x in target)
    shifted = shifted_map(f, target)
    lambdas, diffs = [], []
    prev_norm = None
    status = None
    for k in path.schedule:
        raw = image_curve(shifted, path.point_fn(k), path.kind)
        try:
            lam, normalized = unit_normalize(raw.coeffs)
        except ConstantCurveError:
            status = "constant-curve-hit"
            break
        except PreconditionError:
            continue
        if prev_norm is not None:
            normalized, diff = tracker._phase_align(prev_norm, normalized)
            diffs.append(diff)
        prev_norm = normalized
        lambdas.append(lam)
    if status is None:
        tail = diffs[-3:]
        converged = len(lambdas) >= 4 and len(tail) == 3 and all(d < tol for d in tail)
        status = "converged" if converged else "diverged"
    limit = ((0j,) * f.m,)
    if prev_norm is not None:
        limit = (tuple(c + complex(t) for c, t in zip(prev_norm[0], target)),) + prev_norm[1:]
    return status, repr(tuple(lambdas)), repr(tuple(diffs)), [repr(r) for r in limit], raw


def oracle_outcome(trace):
    return (trace.status, repr(trace.lambdas), repr(trace.diffs),
            [repr(r) for r in trace.limit_estimate], trace.final_raw)


@st.composite
def tracking_cases(draw):
    """(f, target, path): either a twist-like map (a*x + b*(x*y)^d + c,
    e*x*y + g) along (p/k^2, q*k^2) to its limit point, or a generated map
    in 1-3 variables along r_i * k^s_i to its value at the last point.
    Coefficients, targets and path factors are non-integer rationals; the
    path is radial or cylinder."""
    kind = draw(st.sampled_from(("radial", "cylinder")))
    nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    if draw(st.booleans()):
        a, b, c, e, g, p, q = (draw(nonzero) for _ in range(7))
        d = draw(st.integers(min_value=1, max_value=5))
        x, y = CXY.var("x"), CXY.var("y")
        f = PolyMap(CXY, (a * x + b * (x * y) ** d + c, e * x * y + g))
        target = (b * (p * q) ** d + c, e * p * q + g)
        # from kmax 18 on, the 1/k^2 residual is under track's bound and the
        # dust mostly under its tol
        kmax = draw(st.integers(min_value=18, max_value=22))
        path = PathSpec.geometric(lambda k: (p / (k * k), q * k * k), kind, kmax)
        return f, target, path
    n = draw(st.integers(min_value=1, max_value=3))
    ctx = Context(tuple(f"x{i + 1}" for i in range(n)))
    comps = tuple(draw(mpolys(ctx=ctx, max_terms=4, max_exp=3)) + draw(small_fractions)
                  for _ in range(draw(st.integers(min_value=1, max_value=3))))
    assume(max(c.total_degree() for c in comps) >= 1)
    factors = [(draw(nonzero), draw(st.integers(min_value=-2, max_value=2))) for _ in range(n)]
    kmax = draw(st.integers(min_value=4, max_value=16))
    path = PathSpec.geometric(lambda k: tuple(r * Q(k) ** s for r, s in factors), kind, kmax)
    f = PolyMap(ctx, comps)
    return f, f.evaluate(path.point_fn(path.schedule[-1])), path


class TestTrackOracle:
    """track's integer step loop gives what the Fraction step loop gives:
    the same status, floats bit for bit, and the same last exact curve."""

    @settings(max_examples=60)
    @given(tracking_cases())
    def test_matches_fraction_step_loop(self, case):
        f, target, path = case
        assert oracle_outcome(track(f, target, path)) == reference_track(f, target, path)

    @pytest.mark.parametrize("f,target,point_fn", SCHEDULES)
    def test_matches_fraction_step_loop_on_tracker_schedules(self, f, target, point_fn):
        for kind in ("radial", "cylinder"):
            path = PathSpec.geometric(point_fn, kind, 30)
            assert oracle_outcome(track(f, target, path)) == reference_track(f, target, path)


def cli_import_loads(module):
    src = str(Path(nonproper.__file__).resolve().parents[1])
    code = f"import sys, nonproper.cli; sys.exit({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                          text=True)
    assert proc.returncode in (0, 1), proc.stderr
    return proc.returncode == 1


def test_cli_import_leaves_numpy_out():
    # the tracker computes in plain Python complex; numpy is test-only
    assert not cli_import_loads("numpy")


def test_cli_import_leaves_inspect_out():
    # record.Record stands in for dataclasses, whose import pulls in inspect
    assert not cli_import_loads("dataclasses") and not cli_import_loads("inspect")


class TestRationalizeVerify:
    def test_corrupted_trace_rejected(self):
        f = twist(2)
        sf = sf_compute(f)
        # synthetic trace whose final curve is (t, t): off the set
        bad = ParametricCurve(2, 1, ((Q(0), Q(0)), (Q(1), Q(1))))
        step = StepRecord(k=2, lam=1.0, in_regime=True)
        trace = LimitTrace(
            target=(Q(0), Q(0)),
            steps=(step,),
            diffs=(),
            status="converged",
            limit_estimate=None,
            lambdas=(1.0,),
            final_raw=bad,
        )
        with pytest.raises(VerificationError, match="does not satisfy"):
            rationalize_verify(trace, sf)

    def test_constant_limit_rejected(self):
        f = twist(2)
        sf = sf_compute(f)
        const = ParametricCurve(2, 0, ((Q(1), Q(1)),))
        step = StepRecord(k=2, lam=1.0, in_regime=True)
        trace = LimitTrace(
            target=(Q(0), Q(0)),
            steps=(step,), diffs=(), status="converged",
            limit_estimate=None, lambdas=(1.0,), final_raw=const,
        )
        with pytest.raises(VerificationError, match="constant"):
            rationalize_verify(trace, sf)

    def test_denominator_cap(self):
        from nonproper.rationals import snap_rational

        with pytest.raises(VerificationError, match="residual too large"):
            snap_rational(Q(123456789, 987654321), Q(1, 10**12), max_denominator=10**6)

    def test_snap_recovers_simple_values(self):
        from nonproper.rationals import snap_rational

        assert snap_rational(Q(-16) - Q(1, 2**40), Q(1, 10**6)) == -16
        assert snap_rational(Q(1, 3) + Q(1, 10**9), Q(1, 10**6)) == Q(1, 3)
        assert snap_rational(Q(0), Q(1, 10**6)) == 0
