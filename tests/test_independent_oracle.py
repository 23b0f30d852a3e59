"""Cross-checks of the exact kernel against an independent computer
algebra implementation.  Skipped when sympy is unavailable; the rest of
the suite never depends on it."""

import random
from fractions import Fraction as Q

import pytest

sp = pytest.importorskip("sympy")
from sympy.polys.subresultants_qq_zz import sylvester

from nonproper import mpoly
from nonproper.curves import ansatz_system
from nonproper.groebner import Ideal, buchberger, vanishes_on
from nonproper.mpoly import Context, MPoly, mpoly_gcd, resultant, squarefree_full, squarefree_part
from nonproper.orders import GREVLEX, LEX
from nonproper.parser import parse_poly
from nonproper.unipoly import count_real_roots, nonneg_on_line, umul, utrim

from conftest import mpolys, small_fractions
from hypothesis import given, settings
from hypothesis import strategies as st

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


@st.composite
def ansatz_cases(draw):
    """(variety, base point, d): g in 1-3 variables shifted by its value at
    a rational point a, so that a lies on V(g), and d in 1..3."""
    n = draw(st.integers(min_value=1, max_value=3))
    ctx = Context(tuple(f"y{i + 1}" for i in range(n)))
    g = draw(mpolys(ctx=ctx, max_terms=4, max_exp=3))
    a = tuple(draw(st.lists(small_fractions, min_size=n, max_size=n)))
    return Ideal(ctx, [g - g.evaluate(a)]), a, draw(st.integers(min_value=1, max_value=3))


def reference_ansatz_equations(g, a, d):
    """The canonical nonzero t^k coefficients (k >= 1) of sympy's expansion
    of g(a + sum_j b_ij t^j), in t-power order, each kept once."""
    t = sp.Symbol("t")
    rows = [sp.symbols(f"b{i + 1}_1:{d + 1}") for i in range(len(a))]
    unknowns = [b for row in rows for b in row]
    bctx = Context(tuple(map(str, unknowns)), GREVLEX)
    curve = [sp.Rational(x.numerator, x.denominator) + sum(b * t ** j for j, b in enumerate(row, 1))
             for x, row in zip(a, rows)]
    by_power = {}
    for (k, *exps), c in sp.Poly(to_sympy(g, curve), t, *unknowns).terms():
        if k and c:
            by_power.setdefault(k, {})[tuple(exps)] = Q(int(c.p), int(c.q))
    out = []
    for k in sorted(by_power):
        e = MPoly(bctx, by_power[k]).canonical()
        if e not in out:
            out.append(e)
    return bctx, out


@settings(max_examples=40, derandomize=True)
@given(ansatz_cases())
def test_ansatz_equations_match_reference_expansion(case):
    variety, a, d = case
    g = variety.generators[0]
    bctx, want = reference_ansatz_equations(g, a, d)
    # a second generator -3*g repeats every equation, and each is kept once
    for gens in ([g], [g, -3 * g]):
        system = ansatz_system(Ideal(variety.ctx, gens), a, d)
        assert system.bctx.names == bctx.names
        assert [e.terms for e in system.ideal.generators] == [e.terms for e in want]


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


# PRS branches that random draws may miss, as (p, q) in x, y, z
RESULTANT_EDGE_CASES = [
    ("x^2*y + x - 1", "2*x^2 - x*y + 3"),  # equal degrees: delta = 0
    ("x^4 + x + y", "x^3 + y"),  # the remainder drops two degrees
    ("x^4*y + x + 1", "x^5*y + 2*x^2 + x + y"),  # ... after a step that sets h = y
    ("x^3 + y", "x^2*y + 1"),  # a pseudo-division step on a zero coefficient
    ("x + y", "x^3 + y"),  # both degrees odd, swapped on entry
    ("x^2 - x*y + x - y", "x^3 - x^2*y + x*y - y^2"),  # common factor x - y
    ("1/2*x^2 + 1/3*y", "2/3*x^3 - 1/2*x + 1"),  # rational coefficients
    ("x^2*y + x*z - 1", "x^3 + x*y*z - z^2"),  # three variables
]


def assert_resultant_matches(p, q, syms):
    mine = resultant(p, q, "x")
    # Res(p, q) as the determinant of sympy's Sylvester matrix: sympy's
    # resultant() flips the sign when p has the lower degree and both
    # degrees are odd (sympy 1.14: it gives 3 for Res(x + 2, x^3 + 5) = -3)
    ref = sylvester(to_sympy(p, syms), to_sympy(q, syms), syms[0], 1).det()
    # the reference fixes the opposite block order, so compare up to
    # the sign flip (-1)^(deg p * deg q)
    sign = (-1) ** (p.degree_in("x") * q.degree_in("x"))
    assert sp.expand(to_sympy(mine, syms) - sign * ref) == 0


def test_resultant_matches_reference():
    rng = random.Random(7)
    ctx = Context(("x", "y"), LEX)
    done = 0
    while done < 30:
        p = random_mpoly(rng, ctx, 2, 3)
        q = random_mpoly(rng, ctx, 2, 3)
        if p.degree_in("x") == 0 or q.degree_in("x") == 0:
            continue
        done += 1
        assert_resultant_matches(p, q, XS[:2])
    ctx = Context(("x", "y", "z"), LEX)
    for p, q in RESULTANT_EDGE_CASES:
        assert_resultant_matches(parse_poly(p, ctx), parse_poly(q, ctx), XS)


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


def random_unipoly(rng):
    """A trimmed rational coefficient list of degree at most 6 (possibly
    the zero polynomial [])."""
    return utrim([Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(2, 7))])


def reference_root_multiplicities(cs):
    """The multiplicity of each distinct real root, from sympy's own
    isolating intervals."""
    t = sp.Symbol("t")
    expr = sum(sp.Rational(c.numerator, c.denominator) * t ** i for i, c in enumerate(cs))
    return [m for _, m in sp.Poly(expr, t).intervals()]


def test_real_root_count_matches_reference():
    rng = random.Random(13)
    for _ in range(30):
        cs = random_unipoly(rng)
        if not cs:
            continue
        assert count_real_roots(cs) == len(reference_root_multiplicities(cs)), cs


def test_nonneg_on_line_matches_reference():
    """Each draw and its square: a polynomial is >= 0 on the line iff its
    leading coefficient is positive and every real root has even
    multiplicity."""
    rng = random.Random(13)
    cases = []
    for _ in range(30):
        cs = random_unipoly(rng)
        if cs:
            cases += [cs, umul(cs, cs)]
    nonneg = 0
    for cs in cases:
        ref = cs[-1] > 0 and all(m % 2 == 0 for m in reference_root_multiplicities(cs))
        assert nonneg_on_line(cs) == ref, cs
        nonneg += ref
    assert len(cases) == 60 and nonneg == 32


def test_squarefree_with_a_nontrivial_gcd_in_three_variables():
    """The seed-5 draw of the comparison below: before the remainders of
    the pseudo-remainder sequence were made integer-primitive, their
    coefficients swelled and this call ran for over a minute."""
    u = parse_poly("-3*x^2*y^2*z^2 + 2*x*y^2*z - 4*y^2 + z", C3)
    w = parse_poly("5*x^2 + 2*x*z + z^2", C3)
    assert squarefree_part(u ** 2 * w, "z") == (u * w).canonical()


def test_squarefree_matches_reference_exponents_up_to_two():
    rng = random.Random(5)
    x, y, z = XS
    for _ in range(6):
        u = random_mpoly(rng, C3, 3, 2) + C3.var("z")
        w = random_mpoly(rng, C3, 3, 2, max_terms=2) + C3.var("z") ** 2
        P = to_sympy(u ** 2 * w, XS)
        full = sp.sqf_part(P, *XS)
        content = sp.gcd_list(sp.Poly(P, z).all_coeffs())
        in_z = sp.cancel(full / sp.sqf_part(content, x, y))
        for mine, ref in ((squarefree_part(u ** 2 * w, "z"), in_z),
                          (squarefree_full(u ** 2 * w), full)):
            assert sp.simplify(to_sympy(mine, XS) / ref).is_constant(), (u, w, mine, ref)


P31 = 2 ** 31 - 1  # the prime of mpoly_gcd's coprimality certificate


@pytest.mark.parametrize("lead, points", [
    (f"x + {P31 - 1}", [1, 2]),  # lc_z vanishes mod P at x = 1, not over Q
    (f"1/{P31}*x + 1", []),       # P divides a denominator: no image is taken
])
@pytest.mark.parametrize("shared", ["1", "z + x*y - 1", f"(x + {P31 - 1})*z + y"])
def test_gcd_when_the_prime_divides_the_leading_coefficient(monkeypatch, lead, points, shared):
    seen = []
    image = mpoly._image

    def spy(p, i, powers):
        if i == 2:
            seen.append(powers[0][1])
        return image(p, i, powers)

    monkeypatch.setattr(mpoly, "_image", spy)
    w = parse_poly(shared, C3)
    p = parse_poly(f"({lead})*z^2 + y*z + x + 1", C3) * w
    q = parse_poly("z^2 + x*z - y^2", C3) * w
    assert_gcd_matches(p, q)
    assert sorted(set(seen)) == points
    mine = squarefree_part(p * w, "z")
    ref = sp.sqf_part(to_sympy(p * w, XS), *XS)
    assert sp.simplify(to_sympy(mine, XS) / ref).is_constant()
