import heapq
from fractions import Fraction
from operator import add, le, sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonproper import (
    Context,
    Ideal,
    MPoly,
    dimension,
    eliminate,
    is_groebner,
    parse_poly,
    vanishes_on,
)
from nonproper.groebner import _lead, _reduce, _spoly_terms, buchberger, reduce_poly
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
        assert [str(g) for g in I.groebner()] == ["1"]

    def test_single_generator_lex(self):
        I = ideal(Context(("x", "y"), LEX), "y - x^2")
        assert [str(g) for g in I.groebner(LEX)] == ["x^2 - y"]

    def test_block_elimination_member(self):
        I = ideal(G4, "y1 - x1", "y2 - x1*x2")
        order = block_order(G4.names, ["x1"])
        basis = I.groebner(order)
        target = parse_poly("y2 - y1*x2", G4)
        assert any(g == target or g == -target or g == target.canonical(order) for g in basis)

    def test_generators_reduce_to_zero(self):
        I = ideal(G4, "y1 - x1", "y2 - x1*x2")
        basis = I.groebner()
        for g in I.generators:
            assert I.normal_form(g).is_zero()

    @given(st.lists(mpolys(max_terms=3, max_exp=2), min_size=1, max_size=3))
    def test_idempotent(self, gens):
        I = Ideal(XY, gens or [XY.zero()])
        basis = I.groebner()
        if not basis:
            return
        again = Ideal(XY, basis).groebner()
        assert [str(g) for g in basis] == [str(g) for g in again]

    @given(st.lists(mpolys(max_terms=3, max_exp=2), min_size=1, max_size=3))
    def test_buchberger_criterion_on_output(self, gens):
        I = Ideal(XY, gens or [XY.zero()])
        basis = I.groebner()
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
            assert I.normal_form(g.rebase(XY)).is_zero()


class TestNormalForm:
    def test_generator_reduces(self):
        I = ideal(XY, "x*y - 1", "x")
        assert I.normal_form(parse_poly("x*y - 1", XY)).is_zero()

    def test_one_in_unit_ideal(self):
        I = ideal(XY, "x*y - 1", "x")
        assert I.normal_form(XY.one()).is_zero()

    def test_hand_cofactors(self):
        # y2 - y1*x2 = (y2 - x1*x2) - x2*(y1 - x1)
        I = ideal(G4, "y1 - x1", "y2 - x1*x2")
        assert I.normal_form(parse_poly("y2 - y1*x2", G4)).is_zero()

    def test_nonmember(self):
        I = ideal(XY, "x^2")
        assert not I.normal_form(parse_poly("x", XY)).is_zero()


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
        if I.normal_form(p).is_zero():
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


# -- the rational kernel the integer one replaced, kept as an oracle ----------
#
# Division over Q with monic basis elements, and the nested order keys
# ((deg, (-e_n, ..., -e_1)) for grevlex, a pair of those for block orders)
# that the flat keys replaced.  The integer kernel must reproduce it exactly.


def _nested_grevlex(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def nested_key(order, exps):
    if order.tag == "lex":
        return tuple(exps)
    if order.tag == "grevlex":
        return _nested_grevlex(exps)
    first = tuple(e for e, b in zip(exps, order.mask) if b)
    second = tuple(e for e, b in zip(exps, order.mask) if not b)
    return (_nested_grevlex(first), _nested_grevlex(second))


def _nested_neg(key):
    return -key if isinstance(key, int) else tuple(map(_nested_neg, key))


def _fraction_lead(p, order):
    lm = max(p.terms, key=lambda m: nested_key(order, m))
    return lm, p.terms[lm], p


def _fraction_reduce(terms, lead, order):
    rest = dict(terms)
    heap = [(_nested_neg(nested_key(order, m)), m) for m in rest]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = rest.pop(m)
        if not c:
            continue
        for lm, lc, b in lead:
            if all(map(le, lm, m)):
                break
        else:
            remainder[m] = c
            continue
        shift = tuple(map(sub, m, lm))
        fac = c / lc
        for bm, bc in b.terms.items():
            if bm == lm:
                continue
            mm = tuple(map(add, shift, bm))
            old = rest.get(mm)
            if old is None:
                rest[mm] = -fac * bc
                heapq.heappush(heap, (_nested_neg(nested_key(order, mm)), mm))
            else:
                rest[mm] = old - fac * bc
    return remainder


def fraction_reduce(p, basis, order):
    if not basis:
        return p
    return MPoly(p.ctx, _fraction_reduce(p.terms, [_fraction_lead(b, order) for b in basis], order))


def _fraction_spoly_terms(f, g):
    lf, cf, pf = f
    lg, cg, pg = g
    L = tuple(map(max, lf, lg))
    sf, sg = tuple(map(sub, L, lf)), tuple(map(sub, L, lg))
    out = {tuple(map(add, sf, m)): c / cf for m, c in pf.terms.items() if m != lf}
    for m, c in pg.terms.items():
        if m == lg:
            continue
        mm = tuple(map(add, sg, m))
        s = out.get(mm, 0) - c / cg
        if s:
            out[mm] = s
        else:
            del out[mm]
    return out


def _monic(p, order):
    lc = _fraction_lead(p, order)[1]
    return MPoly(p.ctx, {m: c / lc for m, c in p.terms.items()})


def fraction_buchberger(gens, order):
    G = [_fraction_lead(_monic(g, order), order) for g in gens if not g.is_zero()]
    if not G:
        return []
    ctx = G[0][2].ctx
    pairs = set()
    queue = []

    def add_pairs(new):
        for t in range(new):
            L = tuple(map(max, G[t][0], G[new][0]))
            pairs.add((t, new))
            heapq.heappush(queue, (sum(L), nested_key(order, L), t, new, L))

    for new in range(1, len(G)):
        add_pairs(new)
    while queue:
        _, _, i, j, L = heapq.heappop(queue)
        pairs.discard((i, j))
        if L == tuple(map(add, G[i][0], G[j][0])):
            continue
        if any(
            k != i and k != j
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            and all(map(le, lmk, L))
            for k, (lmk, _, _) in enumerate(G)
        ):
            continue
        r = _fraction_reduce(_fraction_spoly_terms(G[i], G[j]), G, order)
        if r:
            lm = next(iter(r))
            lc = r[lm]
            G.append((lm, 1, MPoly(ctx, {m: c / lc for m, c in r.items()})))
            add_pairs(len(G) - 1)
    keep = []
    for i in range(len(G)):
        if not any(j != i and all(map(le, G[j][0], G[i][0])) and (j in keep or j > i)
                   for j in range(len(G))):
            keep.append(i)
    minimal = [G[i] for i in keep]
    out = []
    for i, (lm, _, g) in enumerate(minimal):
        r = _fraction_reduce(g.terms, minimal[:i] + minimal[i + 1:], order)
        out.append((nested_key(order, lm), MPoly(ctx, r).canonical(order)))
    out.sort(key=lambda t: t[0], reverse=True)
    return [g for _, g in out]


NAMES = ("x", "y", "z", "w")
ORDER_KINDS = ("lex", "grevlex", "block")
# mostly non-integer: the integer kernel must clear denominators correctly
ratios = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(lambda q: q != 0)


@st.composite
def orders(draw, kind, n):
    if kind == "lex":
        return LEX
    if kind == "grevlex":
        return GREVLEX
    elim = draw(st.lists(st.sampled_from(NAMES[:n]), min_size=1, max_size=n - 1, unique=True))
    return block_order(NAMES[:n], elim)


@st.composite
def rational_polys(draw, ctx, max_terms=3, max_deg=2):
    mono = st.tuples(*[st.integers(min_value=0, max_value=max_deg)] * ctx.arity)
    mono = mono.filter(lambda m: sum(m) <= max_deg)
    terms = draw(st.dictionaries(mono, ratios, min_size=1, max_size=max_terms))
    return MPoly(ctx, terms)


@st.composite
def kernel_cases(draw, kind, max_gens=3):
    """(order, context, polynomials of total degree at most 2) in 2 to 4
    variables."""
    n = draw(st.integers(min_value=2, max_value=4))
    ctx = Context(NAMES[:n])
    order = draw(orders(kind, n))
    polys = draw(st.lists(rational_polys(ctx), min_size=1, max_size=max_gens))
    return order, ctx, polys


class TestIntegerKernelOracle:
    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @given(data=st.data())
    def test_buchberger_matches_fraction_kernel(self, kind, data):
        order, _, gens = data.draw(kernel_cases(kind))
        assert buchberger(gens, order) == fraction_buchberger(gens, order)

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @given(data=st.data())
    def test_reduce_poly_matches_fraction_kernel(self, kind, data):
        # the divisors are arbitrary, usually not a Groebner basis
        order, ctx, divisors = data.draw(kernel_cases(kind))
        p = data.draw(rational_polys(ctx, max_terms=6, max_deg=4))
        r = reduce_poly(p, divisors, order)
        assert r.terms == fraction_reduce(p, divisors, order).terms
        assert all(type(c) is Fraction for c in r.terms.values())

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @given(data=st.data())
    def test_flat_keys_compare_like_nested_keys(self, kind, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        order = data.draw(orders(kind, n)) if n > 1 else (LEX if kind == "lex" else GREVLEX)
        exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * n)
        a, b = data.draw(exps), data.draw(exps)
        fa, fb = order.key(a), order.key(b)
        na, nb = nested_key(order, a), nested_key(order, b)
        assert all(type(k) is int for k in fa)
        assert (fa < fb, fa == fb) == (na < nb, na == nb)

    @given(data=st.data())
    def test_kernel_stays_in_integers(self, data):
        order, ctx, gens = data.draw(kernel_cases("grevlex", max_gens=2))
        lead = [_lead(g, order) for g in gens]
        for lm, lc, terms in lead:
            assert lc > 0 and all(type(c) is int for c in terms.values())
        if len(lead) == 2:
            s = _spoly_terms(*lead)
            r, scale = _reduce(s, lead, order)
            assert type(scale) is int and scale > 0
            assert all(type(c) is int for c in (*s.values(), *r.values()))
