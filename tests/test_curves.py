import random
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonproper import (
    Context,
    Ideal,
    ParametricCurve,
    PreconditionError,
    ansatz_system,
    certify,
    common_inner,
    cover_image_real,
    curve_relations,
    decompose,
    find_curve,
    fixed_locus,
    is_unbounded,
    no_smaller_curve,
    one_param_action,
    parse_poly,
    substitute_curve,
    verify_curve,
    verify_curve_pointwise,
)
from nonproper.curves import compose_scalar
from nonproper.groebner import vanishes_on
from nonproper.orders import LEX

from conftest import mpolys, small_fractions, small_nonzero
from sampling import images_mutually_close

Y12 = Context(("y1", "y2"), LEX)


def V(*texts, ctx=Y12):
    return Ideal(ctx, [parse_poly(t, ctx) for t in texts])


def curve(*coords, mode="complex"):
    return ParametricCurve.from_coordinates([list(map(Q, cs)) for cs in coords], mode)


PARABOLA = V("y1 - y2^2")
CUBIC = V("y1 - y2^3")
AXIS = V("y1")
FULL = Ideal(Y12, [Y12.zero()])


class TestParametricCurve:
    def test_trims_trailing_zero_vectors(self):
        c = curve([1, 0, 0], [2, 0])
        assert c.degree_bound == 0
        assert c.m == 2
        assert c.coeffs == ((Q(1), Q(2)),)

    def test_zero_curve_keeps_one_vector(self):
        c = curve([0, 0], [])
        assert c.degree_bound == 0
        assert c.coeffs == ((Q(0), Q(0)),)
        assert c.is_zero()
        assert c.coordinate(0) == []

    def test_vector_eval(self):
        c = curve([0, 1, 2], [1])  # (t + 2t^2, 1)
        assert c.eval(2) == (Q(10), Q(1))

    def test_is_zero(self):
        assert not curve([0], [0, 0, 3]).is_zero()
        assert not curve([5]).is_zero()
        assert ParametricCurve(1, 2, [[0], [0], [0]]).is_zero()


class TestSubstituteCurve:
    def test_binomial_expansion(self):
        # p = y1*y2 along (1-t)(a, b) with a=3, b=5: ab(1-t)^2
        p = parse_poly("y1*y2", Y12)
        c = curve([3, -3], [5, -5])
        assert substitute_curve(p, c).coordinate(0) == [Q(15), Q(-30), Q(15)]

    def test_curve_on_parabola(self):
        p = parse_poly("y1 - y2^2", Y12)
        c = curve([4, 4, 1], [2, 1])  # ((2+t)^2, 2+t)
        assert substitute_curve(p, c).is_zero()

    def test_vertical_line(self):
        p = parse_poly("y1", Y12)
        assert substitute_curve(p, curve([0], [5, 1])).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            substitute_curve(parse_poly("y1", Y12), ParametricCurve.from_coordinates([[1]]))

    @given(st.lists(small_fractions, min_size=1, max_size=3),
           st.lists(small_fractions, min_size=1, max_size=3),
           st.integers(min_value=0, max_value=10**6))
    def test_matches_pointwise_evaluation(self, c1, c2, seed):
        rng = random.Random(seed)
        p = parse_poly("y1^2*y2 - 3*y2 + 1/2*y1", Y12)
        c = curve(c1, c2)
        comp = substitute_curve(p, c)
        for _ in range(20):
            t = Q(rng.randint(-50, 50), rng.randint(1, 9))
            assert comp.eval(t)[0] == p.evaluate(c.eval(t))


class TestAnsatz:
    def test_axis_line(self):
        sysm = ansatz_system(AXIS, (0, 5), 1)
        assert [str(e) for e in sysm.equations] == ["b1_1"]

    def test_parabola_hand_expansion(self):
        sysm = ansatz_system(PARABOLA, (4, 2), 2)
        bctx = sysm.bctx
        want = {
            str(parse_poly(t, bctx).canonical())
            for t in ("b1_1 - 4*b2_1", "b1_2 - b2_1^2 - 4*b2_2", "2*b2_1*b2_2", "b2_2^2")
        }
        assert {str(e) for e in sysm.equations} == want

    def test_zero_ideal_allows_all_lines(self):
        sysm = ansatz_system(FULL, (7, -1), 1)
        assert sysm.equations == ()
        assert sysm.ideal.is_zero_ideal()

    def test_base_point_off_variety(self):
        with pytest.raises(PreconditionError, match="off the variety"):
            ansatz_system(PARABOLA, (1, 3), 2)

    def test_real_mode_appends_sphere(self):
        sysm = ansatz_system(AXIS, (0, 0), 1, mode="real")
        assert any("b1_1^2 + b2_1^2 - 1" == str(g) for g in sysm.ideal.generators)


class TestVerifyCurve:
    def test_parabola_curve_passes(self):
        rep = verify_curve(PARABOLA, (), curve([4, 4, 1], [2, 1]), (4, 2), 2)
        assert rep.ok

    def test_quadrant_ruling(self):
        ineqs = (parse_poly("y1", Y12), parse_poly("y2", Y12))
        c = curve([1], [0, 0, 1], mode="real")  # (1, t^2)
        rep = verify_curve(FULL, ineqs, c, (1, 0), 2, "real")
        assert rep.ok

    def test_diagonal_fails_equations(self):
        rep = verify_curve(PARABOLA, (), curve([0, 1], [0, 1]))
        assert not rep.equations_ok
        assert not rep.ok

    def test_constant_curve_flagged(self):
        rep = verify_curve(AXIS, (), curve([0], [5]))
        assert not rep.nonconstant

    def test_inequalities_need_real_mode(self):
        with pytest.raises(PreconditionError):
            verify_curve(FULL, (parse_poly("y1", Y12),), curve([0, 1], [0]))

    def test_pointwise_oracle_agrees(self):
        c = curve([4, 4, 1], [2, 1])
        assert verify_curve_pointwise(PARABOLA, c)
        assert not verify_curve_pointwise(PARABOLA, curve([0, 1], [0, 1]))


def rabinowitsch_no_smaller_curve(variety, a, d):
    """Reference minimality proof: every unknown coefficient of the
    degree-(d-1) ansatz vanishes on the ansatz ideal's zero set, decided
    by one Rabinowitsch radical-membership basis per unknown."""
    system = ansatz_system(variety, a, d - 1, mode="complex")
    return all(
        vanishes_on(system.bctx.var(nm), system.ideal)
        for row in system.unknowns
        for nm in row
    )


def first_pattern_curve(variety, a, d, mode="complex", inequalities=()):
    """Reference pattern search: the first verified a +- t^p * e_i in
    (power, coordinate, sign) order, every coordinate tried."""
    m = variety.ctx.arity
    for power in range(1, d + 1):
        for i in range(m):
            for sign in (1, -1):
                coords = [[a[k]] for k in range(m)]
                coords[i] = [a[i]] + [0] * (power - 1) + [sign]
                c = ParametricCurve.from_coordinates(coords, mode)
                if verify_curve(variety, inequalities, c, a, d, mode).ok:
                    return c
    return None


@st.composite
def plane_curve_cases(draw):
    """(variety, base point, d): y1^p - c*y2^q through a point of its
    monomial parametrization, a line through a drawn point, the axis
    y1 = 0 or the cross y1*y2 at the origin, or a drawn curve g - g(a)."""
    d = draw(st.integers(min_value=2, max_value=4))
    kind = draw(st.sampled_from(["binomial", "line", "axis", "cross", "drawn"]))
    y1, y2 = Y12.var("y1"), Y12.var("y2")
    if kind == "binomial":
        p = draw(st.integers(min_value=1, max_value=4))
        q = draw(st.integers(min_value=1, max_value=4))
        k, l = draw(small_nonzero), draw(small_nonzero)
        u = draw(small_fractions)
        # y1 = k*u^q, y2 = l*u^p lies on y1^p = c*y2^q for c = k^p / l^q
        g = y1 ** p - Y12.const(k ** p / l ** q) * y2 ** q
        return Ideal(Y12, [g]), (k * u ** q, l * u ** p), d
    a = (draw(small_fractions), draw(small_fractions))
    if kind == "line":
        g = y1 - Y12.const(a[0]) - Y12.const(draw(small_fractions)) * (y2 - Y12.const(a[1]))
    elif kind == "axis":
        g, a = y1, (Q(0), a[1])
    elif kind == "cross":
        g, a = y1 * y2, (Q(0), Q(0))
    else:
        h = draw(mpolys(ctx=Y12, max_terms=3))
        g = h - Y12.const(h.evaluate(a))
    return Ideal(Y12, [g]), a, d


class TestFindCurve:
    def test_axis(self):
        c = find_curve(AXIS, (0, 3), 1)
        assert c is not None
        assert verify_curve(AXIS, (), c, (0, 3), 1).ok

    def test_parabola_family(self):
        for a in [(4, 2), (1, 1), (Q(1, 4), Q(1, 2))]:
            c = find_curve(PARABOLA, a, 2)
            assert c is not None
            assert verify_curve(PARABOLA, (), c, a, 2).ok

    def test_cubic(self):
        c = find_curve(CUBIC, (1, 1), 3)
        assert c is not None
        assert verify_curve(CUBIC, (), c, (1, 1), 3).ok

    def test_base_off_variety(self):
        with pytest.raises(PreconditionError):
            find_curve(PARABOLA, (1, 2), 2)

    def test_point_variety_has_no_curve(self):
        point = V("y1", "y2")
        assert find_curve(point, (0, 0), 2) is None

    @given(plane_curve_cases())
    def test_patterns_match_unfiltered_search(self, case):
        variety, a, d = case
        expected = first_pattern_curve(variety, a, d)
        if expected is not None:
            assert find_curve(variety, a, d) == expected

    def test_patterns_check_inequalities(self):
        # at the corner of the quadrant both coordinate lines lie in the
        # plane, but only the t^2 patterns stay nonnegative
        ineqs = (parse_poly("y1", Y12), parse_poly("y2", Y12))
        c = find_curve(FULL, (0, 0), 2, "real", ineqs)
        assert c == first_pattern_curve(FULL, (0, 0), 2, "real", ineqs)
        assert c == curve([0, 0, 1], [0], mode="real")


class TestNoSmallerCurve:
    @given(plane_curve_cases())
    def test_matches_rabinowitsch_oracle(self, case):
        variety, a, d = case
        assert no_smaller_curve(variety, a, d) == rabinowitsch_no_smaller_curve(variety, a, d)

    @pytest.mark.parametrize("variety, a, d, expected", [
        (FULL, (0, 0), 2, False),
        (FULL, (1, -2), 3, False),
        (V("y1^2 + y2^2 - 1"), (1, 0), 2, True),
        (V("y1^2 + y2^2 - 1"), (1, 0), 3, True),
        (V("y1^2 + y2^2 - 1"), (0, -1), 3, True),
        (V("y1*y2"), (0, 0), 3, False),
    ])
    def test_explicit_cases_match_oracle(self, variety, a, d, expected):
        assert no_smaller_curve(variety, a, d) is expected
        assert rabinowitsch_no_smaller_curve(variety, a, d) is expected

    @pytest.mark.parametrize("d, expected", [(2, True), (3, False)])
    def test_surface_in_three_variables(self, d, expected):
        # y1 = y2^2 + y3^3 at the origin: no line, but the conic (t^2, t, 0)
        ctx = Context(("y1", "y2", "y3"), LEX)
        surface = V("y1 - y2^2 - y3^3", ctx=ctx)
        assert no_smaller_curve(surface, (0, 0, 0), d) is expected
        assert rabinowitsch_no_smaller_curve(surface, (0, 0, 0), d) is expected

    def test_parabola_needs_degree_2(self):
        assert no_smaller_curve(PARABOLA, (4, 2), 2)

    def test_axis_has_lines(self):
        assert not no_smaller_curve(AXIS, (0, 0), 2)

    def test_cubic_needs_degree_3(self):
        assert no_smaller_curve(CUBIC, (1, 1), 3)

    def test_degree_guard(self):
        with pytest.raises(PreconditionError):
            no_smaller_curve(AXIS, (0, 0), 0)
        with pytest.raises(PreconditionError):
            no_smaller_curve(AXIS, (0, 0), 1)

    def test_circle_admits_no_polynomial_curves(self):
        # x(t)^2 + y(t)^2 = 1 forces (x+iy)(x-iy) = 1, so both factors
        # are constants: the proof certifies at every degree we try
        circle = V("y1^2 + y2^2 - 1")
        assert no_smaller_curve(circle, (1, 0), 2)
        assert no_smaller_curve(circle, (1, 0), 3)
        assert find_curve(circle, (1, 0), 3) is None


class TestDecompose:
    def test_even_quartic(self):
        outer, inner = decompose([0, 0, 2, 0, 1])
        assert outer == [Q(0), Q(2), Q(1)]  # s^2 + 2s
        assert inner == [Q(0), Q(0), Q(1)]  # t^2

    def test_prime_degree_indecomposable(self):
        outer, inner = decompose([0, 0, 0, 1])
        assert outer == [Q(0), Q(0), Q(0), Q(1)]
        assert inner == [Q(0), Q(1)]

    def test_shifted_cube(self):
        # (t^2 + 1)^3 - 5 with normalized inner t^2: outer (s+1)^3 - 5
        u = [Q(-4), Q(0), Q(3), Q(0), Q(3), Q(0), Q(1)]
        outer, inner = decompose(u)
        assert inner == [Q(0), Q(0), Q(1)]
        assert compose_scalar(outer, inner) == u
        assert outer == [Q(-4), Q(3), Q(3), Q(1)]

    def test_constant_rejected(self):
        with pytest.raises(PreconditionError):
            decompose([3])

    def test_seeded_roundtrip_100(self):
        rng = random.Random(20260811)
        for _ in range(100):
            do = rng.randint(2, 4)
            di = rng.randint(2, 4)
            outer = [Q(rng.randint(-5, 5)) for _ in range(do)] + [Q(rng.choice([1, 2, 3, -1, -2]))]
            inner = [Q(rng.randint(-5, 5)) for _ in range(di)] + [Q(rng.choice([1, 2, -1]))]
            comp = compose_scalar(outer, inner)
            o2, i2 = decompose(comp)
            assert compose_scalar(o2, i2) == comp

    def test_inner_maximality(self):
        rng = random.Random(7)
        for _ in range(25):
            # inner of degree 3, proper outer of degree 2
            inner = [Q(0), Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)), Q(1)]
            outer = [Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)), Q(rng.randint(1, 3))]
            comp = compose_scalar(outer, inner)
            _, i2 = decompose(comp)
            assert len(i2) - 1 >= 3


class TestCommonInner:
    def test_mixed_degrees(self):
        f, g = common_inner(curve([0, 0, 1], [0, 0, 1, 0, 1]))
        assert g == [Q(0), Q(0), Q(1)]
        assert f.coordinate(0) == [Q(0), Q(1)]
        assert f.coordinate(1) == [Q(0), Q(1), Q(1)]

    def test_cubes(self):
        f, g = common_inner(curve([0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1]))
        assert g == [Q(0), Q(0), Q(0), Q(1)]
        assert f.coordinate(1) == [Q(0), Q(0), Q(1)]

    def test_trivial_inner(self):
        f, g = common_inner(curve([0, 1], [0, 0, 1]))
        assert g == [Q(0), Q(1)]

    def test_constant_rejected(self):
        with pytest.raises(PreconditionError):
            common_inner(curve([1], [2]))


class TestCoverImageReal:
    def test_square(self):
        eta = cover_image_real(curve([0, 0, 1], mode="real"))
        assert eta.coordinate(0) == [Q(0), Q(0), Q(1)]

    def test_odd_inner_keeps_outer(self):
        eta = cover_image_real(curve([0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1], mode="real"))
        assert eta.coordinate(0) == [Q(0), Q(1)]
        assert eta.coordinate(1) == [Q(0), Q(0), Q(1)]

    def test_quartic_pair(self):
        eta = cover_image_real(curve([0, 0, 0, 0, 1], [0] * 8 + [1], mode="real"))
        assert eta.coordinate(0) == [Q(0), Q(0), Q(1)]
        assert eta.coordinate(1) == [Q(0), Q(0), Q(0), Q(0), Q(1)]

    def test_shifted_minimum(self):
        # g = (t - 1)^2 has minimum 0 at t=1; phi = g so eta = s^2
        eta = cover_image_real(curve([1, -2, 1], mode="real"))
        rel_phi = curve_relations(curve([1, -2, 1], mode="real"), names=("w",))
        for gen in rel_phi.canonical_generators():
            if not gen.is_zero():
                assert substitute_curve(gen, eta).is_zero()

    def test_degree_contract(self):
        for coords in ([[0, 0, 1]], [[0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1]],
                       [[0, 0, 0, 0, 1], [0] * 8 + [1]]):
            phi = curve(*coords, mode="real")
            outer, _ = common_inner(phi)
            eta = cover_image_real(phi)
            assert eta.effective_degree <= 2 * outer.effective_degree

    def test_odd_inner_degree_ratio(self):
        phi = curve([0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1], mode="real")
        _, inner = common_inner(phi)
        eta = cover_image_real(phi)
        assert eta.effective_degree == phi.effective_degree // (len(inner) - 1)

    def test_set_contract_relations_and_sampling(self):
        cases = [
            ([[0, 0, 1]],),
            ([[0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1]],),
            ([[0, 0, 0, 0, 1], [0] * 8 + [1]],),
        ]
        for (coords,) in cases:
            phi = curve(*coords, mode="real")
            eta = cover_image_real(phi)
            rel_phi = curve_relations(phi)
            rel_eta = curve_relations(eta)
            for gen in rel_phi.canonical_generators():
                if not gen.is_zero():
                    assert substitute_curve(gen, eta).is_zero()
            for gen in rel_eta.canonical_generators():
                if not gen.is_zero():
                    assert substitute_curve(gen, phi).is_zero()
            assert images_mutually_close(phi, eta, n=200, tol=1e-9)

    def test_requires_real_mode(self):
        with pytest.raises(PreconditionError):
            cover_image_real(curve([0, 0, 1]))

    def test_irrational_minimum_rejected(self):
        # g = t^4 - 2t has an irrational minimum
        with pytest.raises(PreconditionError, match="irrational"):
            cover_image_real(curve([0, -2, 0, 0, 1], mode="real"))


class TestFixedLocus:
    def test_shear(self):
        ctx = Context(("x1", "x2"))
        act_ctx = Context(("g", "x1", "x2"))
        act = one_param_action(ctx, "g", [parse_poly("x1", act_ctx),
                                          parse_poly("x2 + g*x1", act_ctx)])
        assert [str(p) for p in fixed_locus(act).canonical_generators()] == ["x1"]

    def test_translation_has_empty_locus(self):
        ctx = Context(("x1", "x2"))
        act_ctx = Context(("g", "x1", "x2"))
        act = one_param_action(ctx, "g", [parse_poly("x1 + g", act_ctx),
                                          parse_poly("x2 + g", act_ctx)])
        assert fixed_locus(act).is_unit()

    def test_parabolic(self):
        ctx = Context(("x", "y"))
        act_ctx = Context(("g", "x", "y"))
        act = one_param_action(ctx, "g", [parse_poly("x + g*y^2", act_ctx),
                                          parse_poly("y", act_ctx)])
        assert [str(p) for p in fixed_locus(act).canonical_generators()] == ["y^2"]

    def test_rejects_non_action(self):
        ctx = Context(("x", "y"))
        act_ctx = Context(("g", "x", "y"))
        with pytest.raises(PreconditionError, match="not a group action"):
            one_param_action(ctx, "g", [parse_poly("x + g^2", act_ctx),
                                        parse_poly("y", act_ctx)])
        with pytest.raises(PreconditionError, match="not a group action"):
            one_param_action(ctx, "g", [parse_poly("x + g", act_ctx),
                                        parse_poly("x", act_ctx)])

    @staticmethod
    def _orbit_is_constant(action, x0):
        """True iff the action fixes x0 identically in the parameter."""
        gctx = Context(("g",))
        images = {"g": gctx.var("g")}
        images.update({n: gctx.const(v) for n, v in zip(action.ctx.names, x0)})
        return all(
            comp.subs(gctx, images) == gctx.const(v)
            for comp, v in zip(action.components, x0)
        )

    def test_fixed_points_sampled_on_and_off_locus(self):
        ctx2 = Context(("x1", "x2"))
        ctxy = Context(("x", "y"))
        act2 = Context(("g", "x1", "x2"))
        acty = Context(("g", "x", "y"))
        rng = random.Random(5)

        def rq(lo=-9, hi=9):
            return Q(rng.randint(lo, hi), rng.randint(1, 5))

        shear = one_param_action(ctx2, "g", [parse_poly("x1", act2),
                                             parse_poly("x2 + g*x1", act2)])
        translation = one_param_action(ctx2, "g", [parse_poly("x1 + g", act2),
                                                   parse_poly("x2 + g", act2)])
        parabolic = one_param_action(ctxy, "g", [parse_poly("x + g*y^2", acty),
                                                 parse_poly("y", acty)])
        cases = [
            (shear, lambda: (Q(0), rq()), lambda: (Q(rng.randint(1, 9)), rq())),
            (translation, None, lambda: (rq(), rq())),
            (parabolic, lambda: (rq(), Q(0)), lambda: (rq(), Q(rng.randint(1, 9)))),
        ]
        for action, on_sampler, off_sampler in cases:
            locus = fixed_locus(action)
            for _ in range(20):
                if on_sampler is not None:
                    on = on_sampler()
                    assert all(g.evaluate(on) == 0 for g in locus.generators)
                    assert self._orbit_is_constant(action, on)
                off = off_sampler()
                assert not self._orbit_is_constant(action, off)


class TestCertify:
    def test_parabola_with_sharpness(self):
        cert = certify(PARABOLA, (), 2, [(0, 0), (1, 1), (4, 2)], sharpness=True)
        assert cert.status == "verified"
        assert cert.minimality and all(cert.minimality.values())

    def test_axis_with_random_points(self):
        rng = random.Random(11)
        samples = [(Q(0), Q(rng.randint(-20, 20), rng.randint(1, 7))) for _ in range(5)]
        cert = certify(AXIS, (), 1, samples)
        assert cert.status == "verified"

    def test_quadrant(self):
        ineqs = (parse_poly("y1", Y12), parse_poly("y2", Y12))
        cert = certify(FULL, ineqs, 2, [(0, 0), (1, 0), (2, 3)], mode="real")
        assert cert.status == "verified"
        # unboundedness by leading-coefficient inspection: every curve has a
        # coordinate of odd degree or of even degree with positive lead
        from nonproper import leading_behavior

        for c in cert.curves():
            assert is_unbounded(c)
            behaviors = leading_behavior(c)
            assert any(deg % 2 == 1 or sign > 0 for _, deg, sign in behaviors)

    def test_sample_off_variety(self):
        with pytest.raises(PreconditionError, match="off the variety"):
            certify(PARABOLA, (), 2, [(1, 2)])

    def test_failed_status(self):
        point = V("y1", "y2")
        cert = certify(point, (), 2, [(0, 0)])
        assert cert.status == "failed"

    def test_certificate_curves_recheck_independently(self):
        cert = certify(PARABOLA, (), 2, [(0, 0), (1, 1), (4, 2)])
        for c in cert.curves():
            assert verify_curve_pointwise(PARABOLA, c)
