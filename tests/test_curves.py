import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonproper.curves import (
    _FREE_CANDIDATES,
    _MAX_SOLUTIONS,
    _NODE_BUDGET,
    OneParamAction,
    ParametricCurve,
    _ansatz_solutions,
    _power_table,
    _rational_roots,
    _row_value,
    ansatz_system,
    certify,
    common_inner,
    compose_scalar,
    cover_image_real,
    curve_relations,
    decompose,
    find_curve,
    fixed_locus,
    is_unbounded,
    no_smaller_curve,
    substitute_curve,
    verify_curve,
    verify_curve_pointwise,
)
from nonproper.errors import BudgetError, PreconditionError
from nonproper.groebner import Ideal, buchberger, vanishes_on
from nonproper.mpoly import Context, MPoly, _lead, _rows
from nonproper.orders import LEX
from nonproper.parser import parse_poly
from nonproper.unipoly import ueval

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

    @settings(max_examples=40, derandomize=True)
    @given(st.data())
    def test_generated_polynomials_match_pointwise_evaluation(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        ctx = Context(tuple(f"y{i + 1}" for i in range(n)))
        p = data.draw(mpolys(ctx=ctx, max_terms=4, max_exp=3))
        # coordinates of degree up to 3, among them zero and constant ones
        coords = [data.draw(st.one_of(st.just([]), st.lists(small_fractions, min_size=1, max_size=1),
                                      st.lists(small_fractions, min_size=1, max_size=4)))
                  for _ in range(n)]
        c = ParametricCurve.from_coordinates(coords)
        comp = substitute_curve(p, c)
        for t in (Q(0), Q(1), Q(-2), Q(3, 5), Q(-7, 4), Q(11)):
            assert comp.eval(t)[0] == p.evaluate(c.eval(t))
        assert comp.degree_bound <= p.total_degree() * c.degree_bound


class TestAnsatz:
    def test_axis_line(self):
        sysm = ansatz_system(AXIS, (0, 5), 1)
        assert [str(e) for e in sysm.ideal.generators] == ["b1_1"]

    def test_parabola_hand_expansion(self):
        sysm = ansatz_system(PARABOLA, (4, 2), 2)
        bctx = sysm.bctx
        want = {
            str(parse_poly(t, bctx).canonical())
            for t in ("b1_1 - 4*b2_1", "b1_2 - b2_1^2 - 4*b2_2", "2*b2_1*b2_2", "b2_2^2")
        }
        assert {str(e) for e in sysm.ideal.generators} == want

    def test_zero_ideal_allows_all_lines(self):
        sysm = ansatz_system(FULL, (7, -1), 1)
        assert sysm.ideal.generators == ()
        assert sysm.ideal.is_zero_ideal()

    def test_base_point_off_variety(self):
        with pytest.raises(PreconditionError, match="off the variety"):
            ansatz_system(PARABOLA, (1, 3), 2)


def fraction_rational_roots(cs):
    """Reference rational roots: every divisor pair p/q of the primitive
    integer coefficients, as p/q and -p/q, evaluated over Fractions."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return []
    roots = []
    if cs[0] == 0:
        roots.append(Q(0))
        while cs[0] == 0:
            cs = cs[1:]
    if len(cs) == 1:
        return roots
    den = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]

    def divisors(v):
        return [i for i in range(1, v + 1) if v % i == 0]

    for p in divisors(abs(ints[0])):
        for q in divisors(abs(ints[-1])):
            for cand in (Q(p, q), Q(-p, q)):
                if cand not in roots and sum(c * cand ** i for i, c in enumerate(ints)) == 0:
                    roots.append(cand)
    return sorted(roots)


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestRationalRoots:
    @settings(max_examples=60, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), max_size=4),
           st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(lambda c: c[-1] != 0),
           st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda s: s != 0))
    def test_matches_fraction_search_with_planted_roots(self, planted, cofactor, scale):
        cs = cofactor
        for p, q in planted:
            cs = _times(cs, [-p, q])
        cs = [scale * c for c in cs]
        roots = _rational_roots(cs)
        assert roots == fraction_rational_roots(cs)
        assert all(Q(p, q) in roots for p, q in planted if len(cs) > 1)

    def test_known_roots(self):
        assert _rational_roots([Q(-6), Q(1), Q(1)]) == [-3, 2]
        assert _rational_roots([Q(0), Q(0), Q(-1), Q(0), Q(4)]) == [Q(-1, 2), 0, Q(1, 2)]
        assert _rational_roots([Q(3), Q(-2), Q(-3), Q(2)]) == [-1, 1, Q(3, 2)]
        assert _rational_roots([Q(1), Q(0), Q(1)]) == []
        assert _rational_roots([-6, 1, 1]) == [-3, 2]  # int lists, as the ansatz search passes

    def test_search_past_the_budget_raises(self):
        # int(v ** 0.5) overflowed here; the divisor search would take 10^200 steps
        with pytest.raises(BudgetError, match="1329-bit"):
            _rational_roots([-10 ** 400, 0, 1])
        # 735134400 has 1344 divisors: few trial divisions, but 1344^2 candidate pairs
        with pytest.raises(BudgetError, match="divisor pairs"):
            _rational_roots([735134400, 1, 735134400])


class TestIntRows:
    @given(st.data())
    def test_rows_match_fraction_coefficients(self, data):
        """Each int row is the exact value of the matching coeffs_in
        coefficient times the product of q_j^top_j."""
        ctx = Context(("b1", "b2", "b3", "b4"))
        p = data.draw(mpolys(ctx=ctx, max_terms=5, max_exp=3).filter(bool))
        terms = _lead(p, ctx.order)[2]  # integer-primitive, as the lex basis is
        pos = data.draw(st.integers(min_value=0, max_value=3))
        point = data.draw(st.lists(st.just(Q(0)) | small_fractions, min_size=4, max_size=4))
        if data.draw(st.booleans()):  # the search's nodes: pos and the unknowns before it unassigned
            point[:pos + 1] = [Q(0)] * (pos + 1)
        tops = [max(m[j] for m in terms) + data.draw(st.integers(min_value=0, max_value=2))
                for j in range(4)]
        tables = [_power_table(v, top) for v, top in zip(point, tops)]
        scale = math.prod(v.denominator ** top for v, top in zip(point, tops))
        coeffs = MPoly(ctx, terms).coeffs_in(ctx.names[pos])
        rows = _rows(terms, pos)
        assert len(rows) == len(coeffs)
        for row, coeff in zip(rows, coeffs):
            assert _row_value(row, tables) == coeff.evaluate(point) * scale


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
    system = ansatz_system(variety, a, d - 1)
    return all(
        vanishes_on(system.bctx.var(nm), system.ideal)
        for row in system.unknowns
        for nm in row
    )


def fraction_ansatz_solutions(system):
    """Reference back-substitution in Fraction arithmetic: each node
    evaluates the coeffs_in coefficients of the lex basis with
    MPoly.evaluate, unassigned unknowns at 0, finds roots with the
    brute-force reference and checks the leaf on every generator."""
    basis = buchberger(list(system.ideal.generators), LEX)
    if len(basis) == 1 and basis[0].constant_value() is not None:
        return
    names = list(system.bctx.names)
    relevant = [[] for _ in names]
    for g in basis:
        pos = min(i for mono in g.terms for i, e in enumerate(mono) if e)
        relevant[pos].append(g.coeffs_in(names[pos]))
    rng = random.Random(0)
    budget = [_NODE_BUDGET]
    yielded = [0]

    def candidates():
        yield from _FREE_CANDIDATES
        for _ in range(12):
            yield Q(rng.randint(-9, 9), rng.randint(1, 4))

    def rec(pos, assign):
        if budget[0] <= 0 or yielded[0] >= _MAX_SOLUTIONS:
            return
        budget[0] -= 1
        if pos < 0:
            point = [assign[n] for n in names]
            if all(g.evaluate(point) == 0 for g in system.ideal.generators):
                yielded[0] += 1
                yield dict(assign)
            return
        point = [assign.get(n, 0) for n in names]
        constraints = []
        for coeffs in relevant[pos]:
            cs = [coeff.evaluate(point) for coeff in coeffs]
            while cs and cs[-1] == 0:
                cs.pop()
            if len(cs) == 1:
                return
            if cs:
                constraints.append(cs)
        if constraints:
            values = [r for r in fraction_rational_roots(constraints[0])
                      if all(ueval(k, r) == 0 for k in constraints[1:])]
        else:
            values = candidates()
        for v in values:
            assign[names[pos]] = v
            yield from rec(pos - 1, assign)
            del assign[names[pos]]

    yield from rec(len(names) - 1, {})


def fraction_no_smaller_curve(variety, a, d):
    """Reference minimality proof in Fraction arithmetic, without the cone
    argument: V(I) = {0} iff I is zero-dimensional and every unknown is
    nilpotent in C[b]/I.  I is zero-dimensional iff a pure power b^e_b of
    each unknown leads the grevlex basis; then every standard monomial
    lies in the box of exponents below (e_b), so C[b]/I has dimension at
    most D = prod(e_b), and an unknown is nilpotent iff its D-th power is
    in I.  Each unknown is squared by MPoly products and reduced by
    Ideal.normal_form until its power reaches D."""
    system = ansatz_system(variety, a, d - 1)
    bctx = system.bctx
    basis = system.ideal.groebner()
    if not basis:
        return False
    if system.ideal.is_unit():
        return True
    lms = [g.leading_monomial(bctx.order) for g in basis]
    D = 1
    for i in range(bctx.arity):
        powers = [lm[i] for lm in lms if lm[i] and sum(lm) == lm[i]]
        if not powers:
            return False
        D *= min(powers)
    for nm in bctx.names:
        r = system.ideal.normal_form(bctx.var(nm))
        power = 1
        while power < D and r:
            r = system.ideal.normal_form(r * r)
            power *= 2
        if r:
            return False
    return True


# (variety, base point, degree): twist components y1 - c*y2^d at integral
# samples (c*s^d, s) and one non-integral sample, and the line y1 - y2
TWIST_SEARCH_CASES = [
    *((V(f"y1 - {c}*y2^{d}"), (c * s ** d, s), d)
      for d, c, s in [(2, 1, 0), (2, -2, 1), (2, 3, -2), (3, 1, 0), (3, -1, 1), (3, 2, -1),
                      (4, 1, 0), (4, -3, 1)]),
    (CUBIC, (Q(1, 8), Q(1, 2)), 3),
    (V("y1 - y2"), (0, 0), 2),
]


class TestIntSearchMatchesFraction:
    @pytest.mark.parametrize("variety, a, d", TWIST_SEARCH_CASES)
    def test_same_solutions_in_the_same_order(self, variety, a, d):
        system = ansatz_system(variety, a, d)
        assert list(_ansatz_solutions(system)) == list(fraction_ansatz_solutions(system))

    @pytest.mark.parametrize("variety, a, d", TWIST_SEARCH_CASES)
    def test_same_minimality_answer(self, variety, a, d):
        # the twist components need degree d; the line has lines, so the proof at d = 2 fails
        expected = str(variety.generators[0]) != "y1 - y2"
        assert no_smaller_curve(variety, a, d) is expected
        assert fraction_no_smaller_curve(variety, a, d) is expected


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

    @pytest.mark.parametrize("a", [(0, 0), (1, 1)])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_twist_components_match_oracle(self, d, a):
        # y1 = y2^d holds the degree-d curve ((a2 + t)^d, a2 + t) and none of lower degree
        twist = V(f"y1 - y2^{d}")
        assert no_smaller_curve(twist, a, d) is True
        assert rabinowitsch_no_smaller_curve(twist, a, d) is True
        assert no_smaller_curve(twist, a, d + 1) is False
        assert rabinowitsch_no_smaller_curve(twist, a, d + 1) is False

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


class TestFinitenessDecidesMinimality:
    @given(plane_curve_cases())
    def test_pure_power_test_matches_nilpotence(self, case):
        # the cone argument: a zero-dimensional ansatz ideal has only the
        # zero of the constant curve, so every unknown is nilpotent
        variety, a, d = case
        assert no_smaller_curve(variety, a, d) == fraction_no_smaller_curve(variety, a, d)


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

    def test_constant_and_zero_coordinates(self):
        f, g = common_inner(curve([3], [0, 0, 1, 0, 1], [0], [0, 0, 1]))
        assert g == [Q(0), Q(0), Q(1)]
        assert f == curve([3], [0, 1, 1], [0], [0, 1])

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

    def test_unattained_critical_value_rejected(self):
        # g = t^4 + 2t^2 has critical values -1 (at t = +-i) and 0; g + 1 =
        # (t^2 + 1)^2 is nonnegative but has no real root, so -1 is no minimum
        eta = cover_image_real(curve([0, 0, 2, 0, 1], mode="real"))
        assert eta.coordinates() == [[Q(0), Q(0), Q(1)]]

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
        act = OneParamAction(ctx, "g", (parse_poly("x1", act_ctx),
                                        parse_poly("x2 + g*x1", act_ctx)))
        assert [str(p) for p in fixed_locus(act).canonical_generators()] == ["x1"]

    def test_translation_has_empty_locus(self):
        ctx = Context(("x1", "x2"))
        act_ctx = Context(("g", "x1", "x2"))
        act = OneParamAction(ctx, "g", (parse_poly("x1 + g", act_ctx),
                                        parse_poly("x2 + g", act_ctx)))
        assert fixed_locus(act).is_unit()

    def test_parabolic(self):
        ctx = Context(("x", "y"))
        act_ctx = Context(("g", "x", "y"))
        act = OneParamAction(ctx, "g", (parse_poly("x + g*y^2", act_ctx),
                                        parse_poly("y", act_ctx)))
        assert [str(p) for p in fixed_locus(act).canonical_generators()] == ["y^2"]

    def test_rejects_non_action(self):
        ctx = Context(("x", "y"))
        act_ctx = Context(("g", "x", "y"))
        with pytest.raises(PreconditionError, match="not a group action"):
            OneParamAction(ctx, "g", (parse_poly("x + g^2", act_ctx),
                                      parse_poly("y", act_ctx)))
        with pytest.raises(PreconditionError, match="not a group action"):
            OneParamAction(ctx, "g", (parse_poly("x + g", act_ctx),
                                      parse_poly("x", act_ctx)))

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

        shear = OneParamAction(ctx2, "g", (parse_poly("x1", act2),
                                           parse_poly("x2 + g*x1", act2)))
        translation = OneParamAction(ctx2, "g", (parse_poly("x1 + g", act2),
                                                 parse_poly("x2 + g", act2)))
        parabolic = OneParamAction(ctxy, "g", (parse_poly("x + g*y^2", acty),
                                               parse_poly("y", acty)))
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
        from nonproper.curves import leading_behavior

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
