import math
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from conftest import mpolys, small_fractions
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nonproper
from nonproper import (
    ConstantCurveError,
    Context,
    ParametricCurve,
    PathSpec,
    PolyMap,
    PreconditionError,
    VerificationError,
    image_curve,
    parse_poly,
    rationalize_verify,
    sf_compute,
    theorem_bound,
    track,
    unit_normalize,
)
from nonproper.curves import eval_at_tpolys
from nonproper.tracker import LimitTrace, StepRecord, norm_objective

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
    return ParametricCurve.from_coordinates(
        [eval_at_tpolys(comp, coords, Q(0), Q(1)) for comp in f.components])


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
        at0 = trace.limit_estimate.eval(0.0)
        assert abs(at0[0] - 0.0) < 1e-9 and abs(at0[1] - 1.0) < 1e-9

    def test_lambda_growth_diagnostic(self):
        trace = track(SCALING, (0, 1), quad_path("inv_k2", "k2"))
        growth = trace.lambda_growth()
        assert len(growth) == len(trace.lambdas) - 1
        # the normalization scale settles: ratios approach 1
        assert all(abs(g - 1.0) < 1e-6 for g in growth[-3:])

    def test_constant_coefficient_shrinks_monotonically(self):
        trace = track(SCALING, (0, 1), quad_path("inv_k2", "k2"))
        tail = [s for s in trace.steps if s.in_regime][-3:]
        norms = [sum(abs(complex(c)) ** 2 for c in s.raw.coeffs[0]) for s in tail]
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


def test_cli_import_leaves_numpy_out():
    # the tracker computes in plain Python complex; numpy is test-only
    src = str(Path(nonproper.__file__).resolve().parents[1])
    code = "import sys, nonproper.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr or "importing nonproper.cli loaded numpy"


class TestRationalizeVerify:
    def test_corrupted_trace_rejected(self):
        f = twist(2)
        sf = sf_compute(f)
        # synthetic trace whose final curve is (t, t): off the set
        bad = ParametricCurve(2, 1, ((Q(0), Q(0)), (Q(1), Q(1))))
        step = StepRecord(k=2, raw=bad, lam=1.0, normalized=None, in_regime=True)
        trace = LimitTrace(
            target=(Q(0), Q(0)),
            path=PathSpec.geometric(lambda k: (Q(1, k), Q(k)), "radial", 4),
            steps=(step,),
            diffs=(),
            status="converged",
            limit_estimate=None,
            lambdas=(1.0,),
        )
        with pytest.raises(VerificationError, match="does not satisfy"):
            rationalize_verify(trace, sf)

    def test_constant_limit_rejected(self):
        f = twist(2)
        sf = sf_compute(f)
        const = ParametricCurve(2, 0, ((Q(1), Q(1)),))
        step = StepRecord(k=2, raw=const, lam=1.0, normalized=None, in_regime=True)
        trace = LimitTrace(
            target=(Q(0), Q(0)),
            path=PathSpec.geometric(lambda k: (Q(1, k), Q(k)), "radial", 4),
            steps=(step,), diffs=(), status="converged",
            limit_estimate=None, lambdas=(1.0,),
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
