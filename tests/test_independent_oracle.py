"""Cross-checks of the exact kernel against an independent computer
algebra implementation.  Skipped when sympy is unavailable; the rest of
the suite never depends on it."""

import random
from fractions import Fraction as Q

import pytest

sp = pytest.importorskip("sympy")

from nonproper import (
    Context,
    Ideal,
    mpoly_gcd,
    parse_poly,
    real_roots,
    resultant,
    squarefree_full,
    squarefree_part,
    vanishes_on,
)
from nonproper import mpoly
from nonproper.curves import ansatz_system
from nonproper.groebner import buchberger
from nonproper.mpoly import MPoly
from nonproper.orders import GREVLEX, LEX
from nonproper.unipoly import utrim

XS = sp.symbols("x y z")


def random_mpoly(rng, ctx, nvars, max_exp, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[mono] = Q(rng.randint(-6, 6), rng.randint(1, 3))
    return MPoly(ctx, terms)


def to_sympy(p, syms):
    e = sp.Integer(0)
    for m, c in p.terms.items():
        t = sp.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, m):
            t *= s ** k
        e += t
    return e


def normalized(exprs, syms):
    return sorted(str(sp.Poly(e, *syms).monic().as_expr()) for e in exprs)


def test_groebner_matches_reference():
    rng = random.Random(424242)
    for trial in range(20):
        nvars = rng.choice([2, 2, 3])
        max_exp = 3 if nvars == 2 else 2
        names = ("x", "y", "z")[:nvars]
        syms = XS[:nvars]
        for order, sporder in ((GREVLEX, "grevlex"), (LEX, "lex")):
            ctx = Context(names, order)
            gens = [g for g in (random_mpoly(rng, ctx, nvars, max_exp)
                                for _ in range(rng.randint(1, 3))) if not g.is_zero()]
            if not gens:
                continue
            assert_matches_reference(Ideal(ctx, gens).groebner(order), gens, syms, sporder)


def assert_matches_reference(mine, gens, syms, sporder):
    ref = sp.groebner([to_sympy(g, syms) for g in gens], *syms, order=sporder)
    assert normalized([to_sympy(g, syms) for g in mine], syms) == normalized(
        list(ref.exprs), syms
    )


def twist_ansatz(d, deg):
    """The degree-deg ansatz system through (1, 1) on the twist component
    y1 - y2^d: the ideals certify --sharpness works on (2*deg unknowns)."""
    Y = Context(("y1", "y2"))
    return ansatz_system(Ideal(Y, [parse_poly(f"y1 - y2^{d}", Y)]), (1, 1), deg)


@pytest.mark.parametrize("d", [3, 4])
def test_groebner_matches_reference_on_ansatz_ideals(d):
    for deg in (d - 1, d):
        system = twist_ansatz(d, deg)
        syms = sp.symbols(system.bctx.names)
        for order, sporder in ((GREVLEX, "grevlex"), (LEX, "lex")):
            mine = system.ideal.groebner(order)
            assert_matches_reference(mine, list(system.ideal.generators), syms, sporder)


@pytest.mark.parametrize("d, deg, unit", [(4, 3, True), (3, 3, False)])
def test_rabinowitsch_basis_matches_reference(d, deg, unit):
    """The radical-membership ideal vanishes_on builds for the unknown
    b2_1: the unit ideal when no degree-deg curve through (1, 1) moves
    (the sharpness proof at deg = d - 1), a proper ideal otherwise."""
    system = twist_ansatz(d, deg)
    p = system.bctx.var("b2_1")
    big = Context(system.bctx.names + ("z_",))
    gens = [g.rebase(big) for g in system.ideal.generators]
    gens.append(big.one() - big.var("z_") * p.rebase(big))
    mine = buchberger(gens, big.order)
    assert_matches_reference(mine, gens, sp.symbols(big.names), "grevlex")
    assert (mine == [big.one()]) == unit == vanishes_on(p, system.ideal)


def test_resultant_matches_reference():
    rng = random.Random(7)
    ctx = Context(("x", "y"), LEX)
    x, y = XS[:2]
    done = 0
    while done < 30:
        p = random_mpoly(rng, ctx, 2, 3)
        q = random_mpoly(rng, ctx, 2, 3)
        if p.degree_in("x") == 0 or q.degree_in("x") == 0:
            continue
        done += 1
        mine = resultant(p, q, "x")
        ref = sp.resultant(to_sympy(p, (x, y)), to_sympy(q, (x, y)), x)
        # the reference fixes the opposite block order, so compare up to
        # the sign flip (-1)^(deg p * deg q)
        sign = (-1) ** (p.degree_in("x") * q.degree_in("x"))
        assert sp.expand(to_sympy(mine, (x, y)) - sign * ref) == 0


def test_gcd_matches_reference():
    rng = random.Random(11)
    ctx = Context(("x", "y"), LEX)
    x, y = XS[:2]
    for _ in range(30):
        p = random_mpoly(rng, ctx, 2, 2)
        q = random_mpoly(rng, ctx, 2, 2)
        w = random_mpoly(rng, ctx, 2, 1, max_terms=2)
        p, q = p * w, q * w
        if p.is_zero() and q.is_zero():
            continue
        mine = to_sympy(mpoly_gcd(p, q), (x, y))
        ref = sp.gcd(to_sympy(p, (x, y)), to_sympy(q, (x, y)), x, y)
        quot = sp.simplify(mine / ref)
        assert quot.is_constant(), (mine, ref)


C3 = Context(("x", "y", "z"), LEX)


def assert_gcd_matches(p, q):
    mine = to_sympy(mpoly_gcd(p, q), XS)
    ref = sp.gcd(to_sympy(p, XS), to_sympy(q, XS), *XS)
    assert sp.simplify(mine / ref).is_constant(), (p, q, mine, ref)


def test_gcd_matches_reference_three_variables():
    """Coprime pairs (the specialization exit) and pairs with a common
    factor of positive degree in z (the pseudo-remainder fallback)."""
    rng = random.Random(31)
    coprime = shared = 0
    for _ in range(40):
        p = random_mpoly(rng, C3, 3, 2)
        q = random_mpoly(rng, C3, 3, 2)
        if rng.random() < 0.5:
            w = random_mpoly(rng, C3, 3, 1, max_terms=2) + C3.var("z")
            p, q = p * w, q * w
        if p.is_zero() or q.is_zero():
            continue
        g = mpoly_gcd(p, q)
        coprime += g.degree_in("z") == 0
        shared += g.degree_in("z") > 0
        assert_gcd_matches(p, q)
    assert coprime >= 10 and shared >= 10


@pytest.mark.parametrize("lead, tries", [
    ("x - 1", 2),                    # vanishes at x = 1, the first point
    ("(x - 1)*(x - 2)", 3),          # and at x = 2, the second
    ("(x - 1)*(x - 2)*(x - 3)", 3),  # at every point tried: the PRS decides
])
@pytest.mark.parametrize("shared", ["1", "z + x*y - 1", "(x - 1)*z + y"])
def test_gcd_when_leading_coefficient_vanishes_at_the_point(monkeypatch, lead, tries, shared):
    seen = []
    image = mpoly._image

    def spy(p, i, powers):
        if i == 2:  # the outermost call; the content gcds run in x and y
            seen.append(powers[0][1])
        return image(p, i, powers)

    monkeypatch.setattr(mpoly, "_image", spy)
    w = parse_poly(shared, C3)
    p = parse_poly(f"({lead})*z^2 + y*z + x + 1", C3) * w
    q = parse_poly("z^2 + x*z - y^2", C3) * w
    assert_gcd_matches(p, q)
    # x takes 1, then 2, then 3 while lc_z(p) vanishes at the point
    assert sorted(set(seen)) == [1, 2, 3][:tries]


def test_squarefree_matches_reference_three_variables():
    """Products with a repeated factor against sympy's squarefree part.
    squarefree_part(p, "z") drops the factors free of z (the content in
    z), squarefree_full keeps one copy of every factor."""
    rng = random.Random(37)
    x, y, z = XS
    for _ in range(12):
        u = random_mpoly(rng, C3, 3, 1, max_terms=2) + C3.var("z")
        w = random_mpoly(rng, C3, 3, 1, max_terms=2) + C3.var("z") ** 2
        P = to_sympy(u ** 2 * w, XS)
        full = sp.sqf_part(P, *XS)
        content = sp.gcd_list(sp.Poly(P, z).all_coeffs())
        in_z = sp.cancel(full / sp.sqf_part(content, x, y))
        for mine, ref in ((squarefree_part(u ** 2 * w, "z"), in_z),
                          (squarefree_full(u ** 2 * w), full)):
            assert sp.simplify(to_sympy(mine, XS) / ref).is_constant(), (u, w, mine, ref)


def test_real_root_isolation_matches_reference():
    rng = random.Random(13)
    t = sp.Symbol("t")
    for _ in range(30):
        cs = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(2, 7))]
        cs = utrim(cs)
        if not cs:
            continue
        mine = real_roots(cs)
        expr = sum(sp.Rational(c.numerator, c.denominator) * t ** i
                   for i, c in enumerate(cs))
        ref = sp.Poly(expr, t).real_roots(multiple=False)
        assert len(mine) == len(ref)
        for interval, (root, mult) in zip(mine, ref):
            assert interval.multiplicity == mult
            lo = sp.Rational(interval.lower.numerator, interval.lower.denominator)
            hi = sp.Rational(interval.upper.numerator, interval.upper.denominator)
            assert bool(lo <= root) and bool(root <= hi)
