import importlib.util
import random
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonproper.corpus import CORPUS
from nonproper.errors import PreconditionError
from nonproper.groebner import Ideal, dimension, vanishes_on
from nonproper.mpoly import Context, MPoly, squarefree_part
from nonproper.orders import LEX
from nonproper.parser import parse_poly
from nonproper.problem import problem_from_dict
from nonproper import properness
from nonproper.properness import (
    PolyMap,
    _coordinate_elimination,
    _lowest_in,
    _relations,
    coordinate_min_poly_groebner,
    coordinate_min_poly_resultant,
    graph_ideal,
    image_closure,
    independent_components,
    is_proper_at,
    sf_components_resultant,
    sf_compute,
    theorem_bound,
)

C2 = Context(("x1", "x2"))
C3 = Context(("x1", "x2", "x3"))
CXY = Context(("x", "y"))


def is_generically_finite(f):
    """True iff every source coordinate is algebraically dependent on the
    image variables over the domain (equivalently, generic fibers are
    finite)."""
    return all(
        _relations(_coordinate_elimination(f, j), name) for j, name in enumerate(f.ctx.names)
    )


def pmap(ctx, *comps, domain=None, mode="complex"):
    return PolyMap(ctx, tuple(parse_poly(c, ctx) for c in comps), domain=domain, mode=mode)


def scaling_n2():
    return pmap(C2, "x1", "x1*x2")


def twist(d):
    return pmap(CXY, f"x + (x*y)^{d}", "x*y")


def hyperbola():
    dom = Ideal(C3, [parse_poly("x1*x2 - 1", C3)])
    return pmap(C3, "x2", "x3", domain=dom)


class TestGraphIdeal:
    def test_scaling(self):
        G = graph_ideal(scaling_n2())
        big = G.ctx
        assert G.equals(Ideal(big, [parse_poly("y1 - x1", big), parse_poly("y2 - x1*x2", big)]))

    def test_twist(self):
        G = graph_ideal(twist(2))
        big = G.ctx
        want = Ideal(big, [parse_poly("y1 - x - x^2*y^2", big), parse_poly("y2 - x*y", big)])
        assert G.equals(want)

    def test_hyperbola_includes_domain(self):
        G = graph_ideal(hyperbola())
        big = G.ctx
        want = Ideal(big, [
            parse_poly("x1*x2 - 1", big),
            parse_poly("y1 - x2", big),
            parse_poly("y2 - x3", big),
        ])
        assert G.equals(want)


class TestImageClosure:
    def test_all_dominant(self):
        for f in (scaling_n2(), twist(2), hyperbola()):
            assert image_closure(f).is_zero_ideal()


class TestGenericallyFinite:
    def test_scaling(self):
        assert is_generically_finite(scaling_n2())

    def test_projection_is_not(self):
        f = pmap(C2, "x1")
        assert not is_generically_finite(f)

    def test_hyperbola(self):
        assert is_generically_finite(hyperbola())

    def test_collapsed_image_is_not(self):
        # (x1, x1): image is a line, fibers are lines
        f = pmap(C2, "x1", "x1")
        assert not is_generically_finite(f)


class TestCoordinateMinPoly:
    def test_scaling_second_coordinate(self):
        phi = sf_compute(scaling_n2()).coordinates[1].min_poly
        assert str(phi) == "x2*y1 - y2"

    def test_twist_first_coordinate(self):
        phi = sf_compute(twist(2)).coordinates[0].min_poly
        assert str(phi) == "x - y1 + y2^2"

    def test_twist_second_coordinate(self):
        phi = sf_compute(twist(2)).coordinates[1].min_poly
        # (y1 - y2^2) * y - y2, leading y-coefficient y1 - y2^2
        assert phi.degree_in("y") == 1
        lead = phi.coeffs_in("y")[1]
        yctx = Context(("y1", "y2"), LEX)
        assert lead.rebase(yctx).canonical() == parse_poly("y1 - y2^2", yctx)

    def test_not_generically_finite_errors(self):
        # (x1, x1) forgets x2: no relation of x2 over the image
        with pytest.raises(PreconditionError, match="'x2' is not algebraic over the image"):
            sf_compute(pmap(C2, "x1", "x1"))


class TestSfCompute:
    def test_scaling_n2(self):
        sf = sf_compute(scaling_n2())
        assert sf.component_strings() == [["y1"]]

    def test_scaling_n3(self):
        f = pmap(C3, "x1", "x1*x2", "x1*x3")
        assert sf_compute(f).component_strings() == [["y1"]]

    def test_twist_d2_d3(self):
        assert sf_compute(twist(2)).component_strings() == [["y1 - y2^2"]]
        assert sf_compute(twist(3)).component_strings() == [["y1 - y2^3"]]

    def test_hyperbola(self):
        assert sf_compute(hyperbola()).component_strings() == [["y1"]]

    def test_proper_controls_empty(self):
        for comps in [("x1", "x2"), ("x1 + x2", "x1 - x2"), ("x1^3 + x1", "x2"),
                      ("x1^2", "x2^2")]:
            assert sf_compute(pmap(C2, *comps)).is_empty

    def test_not_generically_finite_errors(self):
        with pytest.raises(PreconditionError):
            sf_compute(pmap(C2, "x1"))

    def test_hypersurface_flags(self):
        for f in (scaling_n2(), twist(2), twist(3), hyperbola()):
            sf = sf_compute(f)
            assert sf.hypersurface_ok
            if not sf.is_empty:
                dim_im = dimension(sf.image_ideal)
                for comp in sf.components:
                    assert dimension(comp) == dim_im - 1

    def test_real_mode_superset_warning(self):
        f = pmap(CXY, "x + (x*y)^2", "x*y", mode="real")
        sf = sf_compute(f)
        assert sf.real_superset_warning
        assert sf_compute(pmap(C2, "x1", "x2", mode="real")).real_superset_warning is False


class TestProperAt:
    def test_scaling_points(self):
        f = scaling_n2()
        sf = sf_compute(f)
        assert is_proper_at(f, (1, 0), sf)
        assert not is_proper_at(f, (0, 0), sf)

    def test_identity_everywhere(self):
        f = pmap(C2, "x1", "x2")
        sf = sf_compute(f)
        for pt in [(0, 0), (1, -3), (Q(1, 2), Q(7, 5))]:
            assert is_proper_at(f, pt, sf)


class TestTheoremBound:
    def test_scaling_cn(self):
        assert theorem_bound(scaling_n2(), "cn") == 1

    def test_twist_wn(self):
        assert theorem_bound(twist(3), "wn") == 3
        assert theorem_bound(twist(2), "wn") == 2

    def test_twist_cn(self):
        assert theorem_bound(twist(2), "cn") == 3
        assert theorem_bound(twist(3), "cn") == 5

    def test_real_rules(self):
        assert theorem_bound(scaling_n2(), "cn1") == 1
        assert theorem_bound(scaling_n2(), "multc1", d1=2) == 2 * 2 * 2

    def test_multc_formula(self):
        # degree-4 map on a domain of uniruledness degree 2
        f = pmap(C2, "x1^4", "x2")
        assert theorem_bound(f, "multc1", d1=2) == 16
        assert theorem_bound(f, "multc", d1=2) == 8

    def test_mode_domain_mismatch(self):
        with pytest.raises(PreconditionError):
            theorem_bound(hyperbola(), "cn")
        with pytest.raises(PreconditionError):
            theorem_bound(scaling_n2(), "multc")  # missing d1
        with pytest.raises(PreconditionError):
            theorem_bound(scaling_n2(), "nope")


class TestCrossOracle:
    def test_min_polys_agree_on_scaling(self):
        f = scaling_n2()
        a = sf_compute(f).coordinates[1].min_poly
        b = coordinate_min_poly_resultant(f, 1)
        assert a.canonical() == b.rebase(a.ctx).canonical()

    def test_content_in_the_coordinate_stays_with_domain_equations(self):
        # on y^2 = 0 the coordinate y is algebraic, and its relation y is
        # its own content over Q[y]
        f = pmap(CXY, "x", domain=Ideal(CXY, [parse_poly("y^2", CXY)]))
        assert str(coordinate_min_poly_resultant(f, 1)) == "y"

    def test_components_agree_up_to_radical(self):
        for f in (scaling_n2(), twist(2), twist(3), hyperbola(),
                  pmap(C2, "x1", "x2"), pmap(C2, "x1^2", "x2^2")):
            sf = sf_compute(f)
            res = sf_components_resultant(f)
            assert len(res) == len(sf.components)
            for c in sf.components:
                assert any(
                    all(vanishes_on(g, d) for g in c.canonical_generators())
                    and all(vanishes_on(g, c) for g in d.canonical_generators())
                    for d in res
                )

    @pytest.mark.parametrize("comps, forbidden", [
        # planar: sf_compute took the resultant kernel, so the check must not
        (("x + (x*y)^2", "x*y"), "coordinate_min_poly_resultant"),
        # three variables: sf_compute took elimination bases, so the check must not
        (("x + (x*y)^2", "x*y", "z + x"), "coordinate_min_poly_groebner"),
    ], ids=["planar", "three_variables"])
    def test_independent_components_take_the_other_path(self, monkeypatch, comps, forbidden):
        ctx = CXY if len(comps) == 2 else Context(("x", "y", "z"))
        f = pmap(ctx, *comps)
        want = sf_compute(f).component_strings()

        def refuse(f, j):
            raise AssertionError(f"{forbidden} called")

        monkeypatch.setattr(properness, forbidden, refuse)
        got = independent_components(f)
        assert [[str(g) for g in c.canonical_generators()] for c in got] == want == [["y1 - y2^2"]]


class TestDenseMap:
    def test_dense_cubic_map_is_proper(self):
        # each relation's squarefree step is one coprime gcd; the
        # pseudo-remainder sequence alone took over a minute on it
        f = pmap(CXY, "x^3*y^2 + x - y", "x^2*y + 2*y^2 + x")
        sf = sf_compute(f)
        assert sf.is_empty
        assert [cd.degree for cd in sf.coordinates] == [8, 8]
        assert [str(cd.lead_coeff) for cd in sf.coordinates] == ["1", "1"]
        assert sf_components_resultant(f) == []


class TestNonDominantImage:
    def test_embedded_curve_map(self):
        # t -> (t, t^2): proper, image closure is the parabola
        C1 = Context(("x1",))
        f = PolyMap(C1, (parse_poly("x1", C1), parse_poly("x1^2", C1)))
        sf = sf_compute(f)
        assert sf.is_empty
        assert not sf.dominant
        assert [str(g) for g in sf.image_ideal.generators] == ["y1^2 - y2"]
        assert is_proper_at(f, (1, 1), sf)
        # points off the image closure are reported not-proper-on-image
        assert not is_proper_at(f, (1, 5), sf)
        assert sf_components_resultant(f) == []


class TestTwoComponents:
    def test_independent_scalings(self):
        C4 = Context(("x1", "x2", "x3", "x4"))
        f = PolyMap(C4, tuple(parse_poly(t, C4)
                              for t in ("x1", "x1*x2", "x3", "x3*x4")))
        sf = sf_compute(f)
        assert sf.component_strings() == [["y1"], ["y3"]]
        assert sf.hypersurface_ok
        assert len(sf_components_resultant(f)) == 2

    def test_duplicate_components_merge(self):
        C3_ = Context(("x1", "x2", "x3"))
        f = PolyMap(C3_, tuple(parse_poly(t, C3_) for t in ("x1", "x1*x2", "x1*x3")))
        sf = sf_compute(f)
        assert len(sf.components) == 1


class TestPolyMapValidation:
    def test_image_name_collision(self):
        ctx = Context(("y1", "x"))
        with pytest.raises(PreconditionError, match="collide"):
            PolyMap(ctx, (parse_poly("y1", ctx), parse_poly("x", ctx)))

    def test_needs_component(self):
        with pytest.raises(PreconditionError):
            PolyMap(C2, ())

    def test_degree_property(self):
        assert twist(3).degree == 6
        assert scaling_n2().degree == 2


def _benchmark_sf_maps(seed):
    """(label, map) of the twist and dense sf jobs of the benchmark's elim
    workload (perfbench/workloads.py) at one seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for i, (cmd, _, prob, expect) in enumerate(workloads.generate("elim", seed)):
        if cmd == "sf" and expect["kind"] in ("twist", "dense"):
            yield f"elim job {i}", problem_from_dict({"format": 1, **prob}).polymap()


def test_image_ideal_read_off_equals_image_closure():
    """sf_compute reads J off the first coordinate's elimination basis;
    it must be the reduced lex basis image_closure computes."""
    cases = [(e.name, e.load().polymap()) for e in CORPUS if "map" in e.problem]
    cases += list(_benchmark_sf_maps(1))
    # maps whose image closure is a proper subvariety, so J is not zero
    C1 = Context(("x1",))
    cases += [
        ("parabola", pmap(C1, "x1", "x1^2")),
        ("cone", pmap(CXY, "x^2", "x*y", "y^2")),
        ("graph of x*y + x^3", pmap(CXY, "x", "y", "x*y + x^3")),
        ("hyperbola", pmap(C3, "x1", "x2",
                           domain=Ideal(C3, [parse_poly(g, C3) for g in ("x1*x2 - 1", "x3")]))),
    ]
    assert len(cases) == 55
    for label, f in cases:
        J = sf_compute(f).image_ideal
        assert J.canonical_generators() == image_closure(f).canonical_generators(), label


@st.composite
def affine_maps(draw):
    """Maps on affine space in 2 or 3 variables with m = n or n + 1
    components.  Each component is a nonconstant monomial plus, at times,
    a second term, with coefficients in -3..3.  Monomials go up to degree
    3 for m = n = 2 and up to degree 2 otherwise, where degree 3 can make
    a single elimination run for minutes."""
    n = draw(st.integers(min_value=2, max_value=3))
    m = n + draw(st.integers(min_value=0, max_value=1))
    ctx = Context(("x1", "x2", "x3")[:n])
    deg = 3 if m == n == 2 else 2
    monos = [e for e in product(range(deg + 1), repeat=n) if sum(e) <= deg]  # monos[0] = 1
    coeffs = st.integers(min_value=-3, max_value=3).filter(bool)
    comps = []
    for _ in range(m):
        terms = {draw(st.sampled_from(monos[1:])): draw(coeffs)}
        if draw(st.booleans()):
            terms[draw(st.sampled_from(monos))] = draw(coeffs)
        comps.append(MPoly(ctx, terms))
    return PolyMap(ctx, tuple(comps))


def test_reduced_basis_relations_are_squarefree_on_affine_space():
    """On affine space the graph ideal is prime, so each member of a
    coordinate elimination's reduced basis is irreducible and hence
    squarefree in the coordinate; the Groebner relation path, which takes
    no gcd there, equals the squarefree part of the lowest basis relation.  A
    draw that is not generically finite gives no verdict."""
    counts = {"verdicts": 0, "relations": 0, "non_principal": 0}

    @settings(max_examples=200, derandomize=True, database=None)
    @given(affine_maps())
    def check(f):
        elims = [_coordinate_elimination(f, j) for j in range(f.n)]
        relations = [_relations(e, name) for e, name in zip(elims, f.ctx.names)]
        if not all(relations):
            return
        counts["verdicts"] += 1
        for j, (elim, name, rels) in enumerate(zip(elims, f.ctx.names, relations)):
            counts["non_principal"] += len(elim.generators) > 1
            for g in rels:
                counts["relations"] += 1
                assert squarefree_part(g, name) == g
            assert (coordinate_min_poly_groebner(f, j)
                    == squarefree_part(_lowest_in(rels, name), name))

    check()
    assert counts["verdicts"] >= 100
    assert counts["relations"] >= 300
    assert counts["non_principal"] >= 100


def planar_draws(seed, count):
    """Seeded maps (x, y) -> (f1, f2): each component has up to three terms
    of degree at most 3 and at times a linear term, with coefficients -2,
    -1, 1 or 2."""
    rng = random.Random(seed)
    monos = [e for e in product(range(4), repeat=2) if sum(e) <= 3]
    coeffs = (-2, -1, 1, 2)
    for _ in range(count):
        comps = []
        for _ in range(2):
            terms = {rng.choice(monos): rng.choice(coeffs) for _ in range(rng.randint(1, 3))}
            if rng.random() < 0.5:
                linear = rng.choice(((1, 0), (0, 1)))
                terms[linear] = terms.get(linear, 0) + rng.choice(coeffs)
            comps.append(MPoly(CXY, terms))
        yield PolyMap(CXY, tuple(comps))


def jacobian_is_zero(f):
    (a, b), (c, d) = [[g.derivative(v) for v in f.ctx.names] for g in f.components]
    return (a * d - b * c).is_zero()


def test_resultant_oracle_equals_groebner_relation_on_planar_maps():
    """On affine space with m = n = 2 the resultant path, cut to its
    squarefree part and divided by its content over Q[x_j], returns the
    relation of the Groebner path.  A zero Jacobian gives no verdict."""
    verdicts = 0
    for f in planar_draws(1, 60):
        if jacobian_is_zero(f):
            continue
        verdicts += 1
        for j in range(2):
            assert (coordinate_min_poly_resultant(f, j)
                    == coordinate_min_poly_groebner(f, j)), (f.components, j)
    assert verdicts >= 50


class TestPlanarRelation:
    """sf_compute takes each relation of a planar map from one resultant
    (``_planar_relation``); these tests hold it to the Groebner path."""

    @staticmethod
    def count_fallbacks(monkeypatch):
        calls = []
        exact = properness.squarefree_part
        monkeypatch.setattr(properness, "squarefree_part",
                            lambda p, name: calls.append(name) or exact(p, name))
        return calls

    def test_sf_relations_equal_groebner_relations(self, monkeypatch):
        """Seeded draws: every planar relation of sf_compute equals the
        explicit Groebner path's.  A zero Jacobian gives no verdict; a
        relation whose certificate fails takes the squarefree_part
        fallback, and both counts have floors."""
        fallbacks = self.count_fallbacks(monkeypatch)
        verdicts = 0
        for f in planar_draws(2, 480):
            if jacobian_is_zero(f):
                continue
            assert properness._is_planar(f)
            verdicts += 1
            sf = sf_compute(f)
            for j, cd in enumerate(sf.coordinates):
                assert cd.min_poly == coordinate_min_poly_groebner(f, j), (f.components, j)
        assert verdicts >= 400
        assert len(fallbacks) >= 30

    def test_relation_with_a_square_takes_the_fallback(self, monkeypatch):
        # Res_y(y^2 + 2 - y1, 2*x*y^2 - y2) = (2*x*(y1 - 2) - y2)^2, so the
        # relation of x has k = 2; y^2 + 2 - y1 is free of x and is y's
        fallbacks = self.count_fallbacks(monkeypatch)
        f = pmap(CXY, "y^2 + 2", "2*x*y^2")
        relations = [cd.min_poly for cd in sf_compute(f).coordinates]
        assert "x" in fallbacks
        assert [str(phi) for phi in relations] == ["2*x*y1 - 4*x - y2", "y^2 - y1 + 2"]
        assert relations == [coordinate_min_poly_groebner(f, j) for j in range(2)]

    def test_content_that_is_not_a_power_of_the_coordinate(self, monkeypatch):
        divisions = []
        exact = properness.udiv
        monkeypatch.setattr(properness, "udiv",
                            lambda a, b: divisions.append(b) or exact(a, b))
        f = pmap(CXY, "-x*y - y^2 + x", "2*x^2*y - 2*x^2")
        assert sf_compute(f).coordinates[1].min_poly == coordinate_min_poly_groebner(f, 1)
        assert divisions and all(len(b) > 1 for b in divisions)

    def test_zero_jacobian_takes_the_groebner_path(self, monkeypatch):
        monkeypatch.setattr(properness, "_planar_relation", None)
        f = pmap(CXY, "x + y", "(x + y)^2")
        assert not properness._is_planar(f)
        with pytest.raises(PreconditionError, match="not generically finite"):
            sf_compute(f)

    def test_jacobian_zero_at_every_point_tried_is_expanded(self):
        # the determinant (x - 2)*(x - 5)*(x + 11) vanishes at three
        # integer points and is still not identically zero
        f = pmap(CXY, "x", "y*(x - 2)*(x - 5)*(x + 11)")
        assert properness._is_planar(f)
        for j, cd in enumerate(sf_compute(f).coordinates):
            assert cd.min_poly == coordinate_min_poly_groebner(f, j)
