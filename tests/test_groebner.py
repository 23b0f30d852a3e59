import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonproper import (
    Context,
    Ideal,
    dimension,
    eliminate,
    groebner,
    is_groebner,
    normal_form,
    parse_poly,
    vanishes_on,
)
from nonproper.groebner import reduce_poly
from nonproper.orders import GREVLEX, LEX, block_order

from conftest import mpolys

XY = Context(("x", "y"))
XYZ = Context(("x", "y", "z"))
G4 = Context(("x1", "x2", "y1", "y2"))
Y12 = Context(("y1", "y2"), LEX)


def ideal(ctx, *texts):
    return Ideal(ctx, [parse_poly(t, ctx) for t in texts])


class TestGroebner:
    def test_inconsistent_system(self):
        I = ideal(XY, "x*y - 1", "x")
        assert [str(g) for g in groebner(I)] == ["1"]

    def test_single_generator_lex(self):
        I = ideal(Context(("x", "y"), LEX), "y - x^2")
        assert [str(g) for g in groebner(I, LEX)] == ["x^2 - y"]

    def test_block_elimination_member(self):
        I = ideal(G4, "y1 - x1", "y2 - x1*x2")
        order = block_order(G4.names, ["x1"])
        basis = groebner(I, order)
        target = parse_poly("y2 - y1*x2", G4)
        assert any(g == target or g == -target or g == target.canonical(order) for g in basis)

    def test_generators_reduce_to_zero(self):
        I = ideal(G4, "y1 - x1", "y2 - x1*x2")
        basis = groebner(I)
        for g in I.generators:
            assert normal_form(g, I).is_zero()

    @given(st.lists(mpolys(max_terms=3, max_exp=2), min_size=1, max_size=3))
    def test_idempotent(self, gens):
        I = Ideal(XY, gens or [XY.zero()])
        basis = groebner(I)
        if not basis:
            return
        again = groebner(Ideal(XY, basis))
        assert [str(g) for g in basis] == [str(g) for g in again]

    @given(st.lists(mpolys(max_terms=3, max_exp=2), min_size=1, max_size=3))
    def test_buchberger_criterion_on_output(self, gens):
        I = Ideal(XY, gens or [XY.zero()])
        basis = groebner(I)
        assert is_groebner(basis, XY.order)


class TestReducePoly:
    @pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(XYZ.names, ["x"])],
                             ids=lambda o: o.tag)
    @given(mpolys(ctx=XYZ, max_terms=6, max_exp=3),
           st.lists(mpolys(ctx=XYZ, max_terms=3, max_exp=2), min_size=1, max_size=3))
    def test_remainder_is_reduced_and_congruent(self, order, p, divisors):
        basis = [b for b in divisors if not b.is_zero()]
        if not basis:
            return
        r = reduce_poly(p, basis, order)
        lms = [b.leading_monomial(order) for b in basis]
        assert not any(all(a <= e for a, e in zip(lm, m)) for m in r.terms for lm in lms)
        assert Ideal(XYZ, basis).contains(p - r)


class TestEliminate:
    def test_dominant_projection(self):
        I = ideal(XY, "y - x^2")
        E = eliminate(I, {"y"})
        assert E.is_zero_ideal()

    def test_dominant_pair(self):
        I = ideal(G4, "y1 - x1", "y2 - x1*x2")
        assert eliminate(I, {"y1", "y2"}).is_zero_ideal()

    def test_dense_image_on_hypersurface(self):
        ctx = Context(("x1", "x2", "x3", "y1", "y2"))
        I = ideal(ctx, "x1*x2 - 1", "y1 - x2", "y2 - x3")
        assert eliminate(I, {"y1", "y2"}).is_zero_ideal()

    def test_nontrivial_elimination(self):
        I = ideal(G4, "y1 - x1", "y2 - x1*x2")
        E = eliminate(I, {"x2", "y1", "y2"})
        assert [str(g) for g in E.generators] == ["x2*y1 - y2"]

    @given(st.lists(mpolys(names=("x", "y"), max_terms=3, max_exp=2), min_size=1, max_size=2))
    def test_eliminate_consistency(self, gens):
        I = Ideal(XY, gens or [XY.zero()])
        E = eliminate(I, {"y"})
        for g in E.generators:
            if g.is_zero():
                continue
            assert normal_form(g.rebase(XY), I).is_zero()


class TestNormalForm:
    def test_generator_reduces(self):
        I = ideal(XY, "x*y - 1", "x")
        assert normal_form(parse_poly("x*y - 1", XY), I).is_zero()

    def test_one_in_unit_ideal(self):
        I = ideal(XY, "x*y - 1", "x")
        assert normal_form(XY.one(), I).is_zero()

    def test_hand_cofactors(self):
        # y2 - y1*x2 = (y2 - x1*x2) - x2*(y1 - x1)
        I = ideal(G4, "y1 - x1", "y2 - x1*x2")
        assert normal_form(parse_poly("y2 - y1*x2", G4), I).is_zero()

    def test_nonmember(self):
        I = ideal(XY, "x^2")
        assert not normal_form(parse_poly("x", XY), I).is_zero()


class TestVanishesOn:
    def test_radical_membership(self):
        I = ideal(Y12, "y1^2")
        assert vanishes_on(parse_poly("y1", Y12), I)

    def test_non_membership(self):
        I = ideal(Y12, "y1^2")
        assert not vanishes_on(parse_poly("y1 - 1", Y12), I)

    def test_cube_via_squarefree_oracle(self):
        from nonproper import squarefree_part

        cube = parse_poly("(y1 - y2^2)^3", Y12)
        I = Ideal(Y12, [cube])
        p = squarefree_part(cube, "y1")
        assert p == parse_poly("y1 - y2^2", Y12)
        assert vanishes_on(p, I)

    def test_zero_ideal(self):
        Z = Ideal(Y12, [Y12.zero()])
        assert vanishes_on(Y12.zero(), Z)
        assert not vanishes_on(parse_poly("y1", Y12), Z)

    @given(mpolys(max_terms=2, max_exp=2), st.lists(mpolys(max_terms=2, max_exp=2), min_size=1, max_size=2))
    def test_implied_by_normal_form(self, p, gens):
        I = Ideal(XY, gens or [XY.zero()])
        if normal_form(p, I).is_zero():
            assert vanishes_on(p, I)


class TestDimension:
    def test_hyperplane(self):
        assert dimension(ideal(Y12, "y1")) == 1

    def test_unit(self):
        assert dimension(Ideal(Y12, [Y12.one()])) == -1

    def test_parabola_is_a_curve(self):
        assert dimension(ideal(Y12, "y1 - y2^2")) == 1

    def test_zero_ideal_is_full(self):
        assert dimension(Ideal(Y12, [Y12.zero()])) == 2

    def test_point(self):
        assert dimension(ideal(Y12, "y1", "y2")) == 0
