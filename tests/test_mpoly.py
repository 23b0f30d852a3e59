import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nonproper.errors import PreconditionError
from nonproper.groebner import Ideal
from nonproper.mpoly import (
    Context,
    MPoly,
    exact_div,
    mpoly_gcd,
    resultant,
    squarefree_full,
    squarefree_part,
)
from nonproper.orders import GREVLEX, LEX, block_order
from nonproper.parser import parse_poly
from nonproper.record import Record

from conftest import mpolys, small_fractions, small_nonzero

X = Context(("x",))
XY = Context(("x", "y"))
UV = Context(("u", "v"))
XYLEX = Context(("x", "y"), LEX)
Y12 = Context(("y1", "y2"), LEX)


def P(text, ctx=XY):
    return parse_poly(text, ctx)


class TestArithmetic:
    @given(mpolys(), mpolys(), mpolys())
    def test_distributivity_exact(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @given(mpolys(), mpolys())
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(mpolys())
    def test_sub_self_is_zero(self, p):
        assert (p - p).is_zero()

    def test_pow(self):
        p = P("x + y")
        assert p ** 3 == p * p * p
        assert p ** 0 == XY.one()

    def test_no_zero_terms_stored(self):
        p = P("x + y") - P("x")
        assert set(p.terms) == {(0, 1)}


class TestEvaluate:
    def test_product_point(self):
        assert P("x*y").evaluate([2, 3]) == 6

    def test_quartic_point(self):
        assert P("x + (x*y)^2").evaluate([1, -1]) == 2

    def test_point_on_parabola(self):
        # hand substitution: 4 - 2^2 = 0
        p = parse_poly("y1 - y2^2", Y12)
        assert p.evaluate([4, 2]) == 0

    def test_arity_mismatch(self):
        with pytest.raises(PreconditionError):
            P("x").evaluate([1])

    @given(mpolys(), mpolys(),
           small_fractions, small_fractions)
    def test_evaluate_is_homomorphism(self, p, q, a, b):
        pt = [a, b]
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


class TestDegrees:
    def test_quartic(self):
        assert P("x + (x*y)^2").degrees() == (4, (2, 2))

    def test_sextic(self):
        # (xy)^3 expands to x^3 y^3
        assert P("x + (x*y)^3").degrees() == (6, (3, 3))

    def test_constant(self):
        assert P("7").degrees() == (0, (0, 0))

    def test_zero(self):
        assert XY.zero().degrees() == (0, (0, 0))


class TestCanonical:
    def test_primitive_positive(self):
        p = parse_poly("2/3*y1 - 4/3*y2", Y12)
        assert str(p.canonical()) == "y1 - 2*y2"

    def test_sign_fix_under_lex(self):
        p = parse_poly("y2^2 - y1", Y12)
        # lex leading term is -y1, so the canonical form flips the sign
        assert str(p.canonical()) == "y1 - y2^2"

    def test_zero_canonical(self):
        assert Y12.zero().canonical().is_zero()

    @given(mpolys(), small_nonzero,
           st.sampled_from([GREVLEX, LEX, block_order(("x", "y"), ["y"])]))
    def test_canonical_contract(self, p, c, order):
        """Checked in plain Fraction arithmetic, not through the kernels."""
        k = p.canonical(order)
        if p.is_zero():
            assert k.is_zero()
            return
        # a scalar multiple of p
        ratios = {k.terms[m] / v for m, v in p.terms.items()}
        assert set(k.terms) == set(p.terms) and len(ratios) == 1
        # coprime integers
        assert all(v.denominator == 1 for v in k.terms.values())
        assert math.gcd(*(v.numerator for v in k.terms.values())) == 1
        # positive leading coefficient under the given order
        assert k.terms[max(k.terms, key=order.key)] > 0
        # blind to rational scalars of either sign, and idempotent
        for s in (c, -c):
            scaled = MPoly(p.ctx, {m: s * v for m, v in p.terms.items()})
            assert scaled.canonical(order) == k
        assert k.canonical(order) == k


class TestDivisionGcd:
    def test_exact_div(self):
        p = P("(x + y)^2*(x - y)")
        assert exact_div(p, P("x + y")) == P("(x + y)*(x - y)")

    def test_exact_div_rejects(self):
        with pytest.raises(PreconditionError):
            exact_div(P("x^2 + 1"), P("x + y"))

    @given(mpolys(max_terms=3, max_exp=2), mpolys(max_terms=3, max_exp=2),
           mpolys(max_terms=2, max_exp=1))
    def test_gcd_divides_both(self, p, q, w):
        p, q = p * w, q * w
        if p.is_zero() and q.is_zero():
            return
        g = mpoly_gcd(p, q)
        if not p.is_zero():
            exact_div(p, g)
        if not q.is_zero():
            exact_div(q, g)
        if not w.is_zero():
            assert mpoly_gcd(g, w) == w.canonical()  # w divides the gcd

    def test_gcd_of_constants_is_one(self):
        assert mpoly_gcd(XY.const(6), XY.const(4)) == 1

    def test_squarefree_cube(self):
        assert squarefree_part(parse_poly("y1^3", Y12), "y1") == parse_poly("y1", Y12)

    def test_squarefree_perfect_square(self):
        # (y1 - y2^2)^2, gcd oracle via independent expansion
        sq = parse_poly("y1 - y2^2", Y12)
        expanded = parse_poly("y1^2 - 2*y1*y2^2 + y2^4", Y12)
        assert expanded == sq * sq
        assert squarefree_part(expanded, "y1") == sq

    def test_squarefree_already(self):
        p = parse_poly("y1 - y2^2", Y12)
        assert squarefree_part(p, "y1") == p

    def test_squarefree_zero_rejected(self):
        with pytest.raises(PreconditionError):
            squarefree_part(Y12.zero(), "y1")

    def test_squarefree_full_mixed(self):
        p = parse_poly("y1^2*y2^3", Y12)
        assert squarefree_full(p) == parse_poly("y1*y2", Y12)

    @pytest.mark.parametrize("order", [LEX, GREVLEX])
    @given(data=st.data())
    def test_squarefree_output_is_canonical(self, order, data):
        # properness uses both outputs as canonical forms without
        # re-canonicalizing them
        ctx = Context(("x", "y"), order)
        polys = st.one_of(mpolys(ctx=ctx, max_terms=3), small_nonzero.map(ctx.const))
        p, w = data.draw(polys), data.draw(polys)
        p = p * w * w
        assume(not p.is_zero())
        for out in (squarefree_part(p, "x"), squarefree_full(p)):
            assert out.canonical() == out


class TestResultant:
    def test_three_by_three_sylvester(self):
        # hand 3x3 determinant: rows (1,-1,0),(0,1,-1),(1,0,-y) -> 1 - y
        p, q = P("x^2 - y", XYLEX), P("x - 1", XYLEX)
        assert resultant(p, q, "x") == P("1 - y", XYLEX)

    def test_linear_case_sign_convention(self):
        ctx = Context(("x", "a", "b"), LEX)
        r = resultant(parse_poly("x - a", ctx), parse_poly("x - b", ctx), "x")
        assert r == parse_poly("b - a", ctx)

    def test_substitution_oracle(self):
        # substituting x = y1 into y2 - x*x2 gives y2 - y1*x2
        ctx = Context(("x", "x2", "y1", "y2"), LEX)
        r = resultant(parse_poly("y1 - x", ctx), parse_poly("y2 - x*x2", ctx), "x")
        assert r == parse_poly("y2 - y1*x2", ctx)

    def test_degree_zero_rejected(self):
        with pytest.raises(PreconditionError):
            resultant(P("y"), P("x"), "x")

    @given(mpolys(max_terms=3, max_exp=3), mpolys(max_terms=3, max_exp=3))
    def test_resultant_in_ideal(self, p, q):
        if p.degree_in("x") == 0 or q.degree_in("x") == 0:
            return
        assert Ideal(p.ctx, [p, q]).contains(resultant(p, q, "x"))

    def test_vanishes_iff_common_root(self):
        # x^2 - y and x - y share the root x=y=1 exactly when y = y^2
        p, q = P("x^2 - y", XYLEX), P("x - y", XYLEX)
        r = resultant(p, q, "x")
        assert r.evaluate([0, 1]) == 0  # common root at x=1,y=1: r(y=1)=0
        assert r.evaluate([0, 2]) != 0


class TestRecord:
    """Context is the base Record; the orders are Records without fields."""

    def test_fields_defaults_and_normalization(self):
        assert Context(["x", "y"]) == Context(names=("x", "y"), order=GREVLEX) == XY
        assert XY.names == ("x", "y") and XY.order is GREVLEX
        assert repr(XYLEX) == "Context(names=('x', 'y'), order=<order lex>)"

    def test_equality_and_hash_by_class_and_fields(self):
        assert hash(Context(("x", "y"))) == hash(XY)
        assert XY != XYLEX and LEX != GREVLEX
        assert block_order(("x", "y"), ["x"]) == block_order(("x", "y"), ["x"])
        assert block_order(("x", "y"), ["x"]) != block_order(("x", "y"), ["y"])

        class Pair(Record):
            names: tuple
            order: object = GREVLEX

        assert Pair(("x", "y")) != XY

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),
        ((("x",), LEX, 1), {}),
        ((("x",),), {"names": ("y",)}),
        ((("x",),), {"degree": 2}),
    ])
    def test_wrong_fields_raise(self, args, kwargs):
        with pytest.raises(TypeError):
            Context(*args, **kwargs)

    def test_immutable_and_replace_reruns_post_init(self):
        with pytest.raises(AttributeError):
            XY.names = ("u",)
        with pytest.raises(AttributeError):
            del XY.order
        assert XY.replace(order=LEX) == XYLEX and XY.order is GREVLEX
        with pytest.raises(ValueError, match="duplicate"):
            XY.replace(names=["x", "x"])


class TestContextMoves:
    def test_rebase_roundtrip(self):
        big = Context(("x", "y", "z"))
        p = P("x + y^2")
        q = p.rebase(big)
        assert q.rebase(XY) == p

    def test_rebase_rejects_used_variable(self):
        small = Context(("x",))
        with pytest.raises(PreconditionError):
            P("x + y").rebase(small)

    def test_subs_composition(self):
        big = Context(("u", "v"))
        images = {"x": parse_poly("u + v", big), "y": parse_poly("u*v", big)}
        p = P("x^2 - y")
        assert p.subs(big, images) == parse_poly("(u + v)^2 - u*v", big)

    def test_subs_constant_without_images(self):
        assert parse_poly("3", X).subs(UV, {}) == UV.const(3)

    def test_subs_zero_image(self):
        assert parse_poly("x^2 + 1", X).subs(UV, {"x": UV.zero()}) == UV.one()

    def test_subs_used_variable_needs_an_image(self):
        with pytest.raises(PreconditionError, match="no substitution image"):
            P("x + y").subs(UV, {"x": UV.var("u")})

    def test_subs_image_in_another_context_rejected(self):
        with pytest.raises(PreconditionError):
            P("x + y").subs(UV, {"x": UV.var("u"), "y": P("y")})

    def test_subs_unused_variable_needs_no_image(self):
        assert P("x^2 + 3").subs(UV, {"x": UV.var("v")}) == parse_poly("v^2 + 3", UV)

    @given(mpolys(), mpolys(), mpolys(names=("u", "v")), mpolys(names=("u", "v")),
           small_fractions, small_fractions)
    def test_subs_commutes_with_evaluation(self, p, q, fx, fy, a, b):
        images = {"x": fx, "y": fy}
        at = [a, b]
        values = [fx.evaluate(at), fy.evaluate(at)]
        assert p.subs(UV, images).evaluate(at) == p.evaluate(values)
        assert (p * q).subs(UV, images).evaluate(at) == p.evaluate(values) * q.evaluate(values)
