"""Non-properness sets of generically finite polynomial maps.

For a map f = (f_1..f_m) on an affine variety X, the target points near
which f fails to be proper form a closed set inside the closure of the
image.  This module computes that set exactly for rational-coefficient
maps: eliminate the source variables from the graph ideal to get, for
each source coordinate, a minimal-degree relation with the image
variables; the vanishing of its leading coefficient (restricted to the
image closure) cuts out the components where that coordinate can escape
to infinity.

Exactness is guaranteed for dominant maps on affine space.  There the
graph ideal is prime (its quotient ring is Q[x]), so every coordinate
elimination ideal is prime, principal or not, and each member of its
reduced basis is irreducible.  For maps with a proper subvariety as
image the leading-coefficient criterion is best-effort and is
cross-checked by an independent resultant-based elimination and by the
numeric tracker.

Which path a map takes is a property of the input.  A planar map (two
variables, two components, affine space, a Jacobian determinant not
identically zero; ``_is_planar``) takes each relation from one integer
subresultant, Res_{x_o}(f_1 - y_1, f_2 - y_2) cut to the principal
generator of its elimination ideal (``_planar_relation``), and runs no
elimination at all: its image ideal is zero.  Every other map (domain
equations, m != n, n >= 3, a zero Jacobian) takes its relations and its
image ideal from block-order elimination bases (``_min_poly``).  Both
give the same canonical relation where both apply.

Only this module makes the choice: ``sf_compute`` takes the path above,
and the cross-oracle ``independent_components`` the other one, so the two
share no relation kernel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .errors import PreconditionError
from .groebner import Ideal, dimension, eliminate, vanishes_on
from .mpoly import (
    Context,
    MPoly,
    _clear_denominators,
    _content_in,
    _coprime_image,
    _quotient,
    _resultant_rows,
    _rows,
    resultant,
    squarefree_full,
    squarefree_part,
)
from .orders import GREVLEX, LEX
from .record import Record
from .unipoly import udiv, ugcd


def _image_names(m, taken):
    """y1 .. ym, which must not be source variable names."""
    names = tuple(f"y{j + 1}" for j in range(m))
    clash = set(names) & set(taken)
    if clash:
        raise PreconditionError(
            f"image variable names {sorted(clash)} collide with source names"
        )
    return names


class PolyMap(Record):
    """A polynomial map on an affine variety.

    ``domain`` is the ideal of the source variety inside the source
    context (the zero ideal for all of affine space); ``components`` are
    the coordinate functions.  ``mode`` is "complex" or "real" and only
    affects how results are interpreted downstream.  ``image_names``
    (y1 .. ym) is derived from the components and is not a field.
    """

    ctx: Context
    components: tuple
    domain: Ideal = None
    mode: str = "complex"

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise PreconditionError("a map needs at least one component")
        for f in comps:
            if f.ctx.names != self.ctx.names:
                raise PreconditionError("component context mismatch")
        object.__setattr__(self, "components", comps)
        if self.domain is None:
            object.__setattr__(self, "domain", Ideal(self.ctx, []))
        elif self.domain.ctx.names != self.ctx.names:
            raise PreconditionError("domain ideal context mismatch")
        if self.mode not in ("complex", "real"):
            raise PreconditionError(f"unknown field mode {self.mode!r}")
        object.__setattr__(self, "image_names", _image_names(len(comps), self.ctx.names))
        if self.degree < 1:
            raise PreconditionError("map degree must be at least 1")

    @property
    def m(self):
        return len(self.components)

    @property
    def n(self):
        return self.ctx.arity

    @property
    def degree(self):
        return max(f.total_degree() for f in self.components)

    def domain_is_affine_space(self):
        return self.domain.is_zero_ideal()

    def image_context(self):
        return Context(self.image_names, LEX)

    def joined_context(self):
        return Context(self.ctx.names + self.image_names, GREVLEX)

    def evaluate(self, point):
        return tuple(f.evaluate(point) for f in self.components)


def graph_ideal(f: PolyMap) -> Ideal:
    """Ideal of the graph of f in the joined (source, image) context:
    the domain ideal together with component - image_variable."""
    big = f.joined_context()
    gens = [g.rebase(big) for g in f.domain.generators]
    for comp, name in zip(f.components, f.image_names):
        gens.append(comp.rebase(big) - big.var(name))
    return Ideal(big, gens)


def image_closure(f: PolyMap) -> Ideal:
    """Ideal of the Zariski closure of the image: eliminate all source
    variables from the graph ideal."""
    return eliminate(graph_ideal(f), set(f.image_names))


def _coordinate_elimination(f, j):
    """Reduced lex basis of graph_ideal restricted to (x_j, image vars).

    Invariant: ``eliminate`` keeps the joined context's order, in which
    source names precede image names, so x_j is the largest variable of
    this lex basis.  Its members free of x_j are therefore the reduced lex
    basis of the image ideal, the basis ``image_closure`` computes, and
    ``sf_compute`` reads J off it (``_image_ideal``)."""
    name = f.ctx.names[j]
    return eliminate(graph_ideal(f), set(f.image_names) | {name})


def _image_ideal(f, elim, name):
    """The image ideal read off the elimination basis of coordinate
    ``name``: its members free of the coordinate, rebased to the image
    context."""
    yctx = f.image_context()
    gens = [g.rebase(yctx) for g in elim.generators if g.degree_in(name) == 0]
    return Ideal(yctx, gens)


def _relations(elim, name):
    """Generators of a coordinate elimination basis that involve the
    coordinate itself."""
    return [g for g in elim.generators if g.degree_in(name) > 0]


def _lowest_in(polys, name):
    """The polynomial of least degree in ``name``, ties broken by the
    smallest leading monomial under its context order."""
    return min(polys, key=lambda g: (g.degree_in(name), g.ctx.order.key(g.leading_monomial())))


def _min_poly(f, elim, name):
    """The relation of a coordinate, taken from its elimination basis: the
    path of every map that is not planar (``_is_planar``), and the
    Groebner side of the planar cross-oracle (``independent_components``).

    On affine space the lowest relation is returned as it is.  The graph
    ideal is prime there, so the elimination ideal I is prime too.  If a
    member g of I's reduced basis factors as g = u*v, one factor, say u,
    lies in I.  Some basis leading monomial divides lm(u), which divides
    lm(g); reducedness makes that member g itself, so v is a constant
    (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2 §7
    and ch. 3 §1).  An irreducible g is prime to its derivative in the
    coordinate and the basis is canonical, so ``squarefree_part`` would
    return g unchanged.  With domain equations the graph ideal need not
    be prime (on y^2 = 0 the relation of y is y^2), so there the relation
    is cut to its squarefree part in the coordinate.  Nor need the image
    ideal J be radical, so a basis relation can have a leading
    coefficient that vanishes on the whole image (on x^2 = 0 the map
    (x, x*y) gives y the relation y*y1 - y2, and y1 vanishes there).
    Such a relation bounds nothing, so the lowest relation whose leading
    coefficient does not vanish on V(J) is taken, and if there is none
    the map is treated as not generically finite."""
    candidates = _relations(elim, name)
    if candidates and f.domain_is_affine_space():
        return _lowest_in(candidates, name)
    if not candidates and elim.is_unit():
        raise PreconditionError("the domain is empty: its equations have no common zero")
    J = _image_ideal(f, elim, name)
    while candidates:
        phi = _lowest_in(candidates, name)
        if not vanishes_on(phi.coeffs_in(name)[phi.degree_in(name)].rebase(J.ctx), J):
            return squarefree_part(phi, name)
        candidates.remove(phi)
    raise PreconditionError(
        f"map is not generically finite: coordinate {name!r} is not "
        "algebraic over the image"
    )


def _is_planar(f):
    """True for n = m = 2 on affine space with a Jacobian determinant that
    is not identically zero, the maps whose relations ``_planar_relation``
    computes.  The determinant is expanded exactly."""
    if f.n != 2 or f.m != 2 or not f.domain_is_affine_space():
        return False
    (a, b), (c, d) = [[g.derivative(v) for v in f.ctx.names] for g in f.components]
    return a * d != b * c


def _planar_relation(f, j):
    """The relation of coordinate x_j of a planar map (``_is_planar``),
    from one resultant and no elimination.

    Why it is exact.  The map is dominant, since its Jacobian determinant
    is not identically zero (characteristic 0).  The elimination ideal of
    the graph in Q[x_j, y] is prime (the graph ideal is, on affine space)
    and of height one in a UFD, so it is principal: (phi), and its reduced
    lex basis is phi alone.  R = Res_{x_o}(f_1 - y_1, f_2 - y_2), x_o the
    other source variable, lies in it (Cox, Little & O'Shea, *Ideals,
    Varieties, and Algorithms*, ch. 3 §6), and it is nonzero, because
    f_1 - y_1 is linear in y_1; if one component is free of x_o, R is that
    generator itself.  y occurs only in the coefficients free of x_o, so
    both leading coefficients in x_o lie in Q[x_j].  Off V(phi), R
    vanishes only where both of them vanish, so R = c*phi^k*u(x_j).  phi
    is irreducible and involves both x_j and y (x_j is transcendental over
    Q, and over Q(y) it is algebraic), so it is primitive over Q[x_j], and
    dividing R by its content over Q[x_j] leaves c*phi^k.  That content
    is taken in two steps: the lowest power of x_j, then the gcd of the
    coefficients of the monomials in y, skipped when one of them is a
    constant.

    k = 1 is certified by one image (``_coprime_image``): take the first
    of a few integer points of y that keeps the degree in x_j mod
    P = 2^31 - 1.  If the image there is prime to its derivative in x_j,
    then k = 1, since for k >= 2 the image of phi has positive degree and
    its power k - 1 divides both.  If no point keeps the degree, or the
    image has a repeated factor, the exact ``squarefree_part`` in x_j
    gives phi.  The result is canonical, so it equals the Groebner path's
    relation term for term."""
    name, o = f.ctx.names[j], 1 - j
    gens = []
    for k, comp in enumerate(f.components):
        # D*(f_k - y_k) keyed (x_j, y_1, y_2); x_o's exponent borrows the
        # slot of the image variable it lacks, which _rows then clears
        den, terms = _clear_denominators(comp.terms)
        g = {(m[j], m[o], 0) if k else (m[j], 0, m[o]): c for m, c in terms.items()}
        g[(0, 0, 1) if k else (0, 1, 0)] = -den
        gens.append(_rows(g, 2 - k))
    free = [rows[0] for rows in gens if len(rows) == 1]
    R = free[0] if free else _resultant_rows(*gens)
    low = min(m[0] for m in R)
    groups = {}
    for (e, a, b), c in R.items():
        groups.setdefault((a, b), {})[e - low] = c
    groups = {ab: [g.get(e, 0) for e in range(max(g) + 1)] for ab, g in groups.items()}
    content = []
    if all(len(cs) > 1 for cs in groups.values()):  # no constant coefficient
        for cs in groups.values():
            content = ugcd(content, [Fraction(c) for c in cs])
            if len(content) == 1:
                break
    if len(content) > 1:
        groups = {ab: udiv(cs, content) for ab, cs in groups.items()}
    R = {(e, a, b): c for (a, b), cs in groups.items() for e, c in enumerate(cs) if c}
    phi = MPoly(Context((name,) + f.image_names, LEX), R)
    if _coprime_image(phi, phi.derivative(name), 0):
        return phi.canonical()
    return squarefree_part(phi, name)


def coordinate_min_poly_groebner(f: PolyMap, j) -> MPoly:
    """The relation of coordinate j from its elimination basis
    (``_min_poly``) on every map, planar or not; the Groebner side of the
    cross-oracle for planar maps (``independent_components``).

    On affine space no gcd is taken: the elimination ideal is prime, so
    every member of its reduced basis is irreducible (``_min_poly``)."""
    return _min_poly(f, _coordinate_elimination(f, j), f.ctx.names[j])


class CoordinateData(Record):
    """Per-coordinate elimination result: the relation, its leading
    coefficient in the coordinate, and its coordinate degree."""

    name: str
    min_poly: MPoly
    lead_coeff: MPoly  # in the image context, squarefree, canonical
    degree: int


class SfResult(Record):
    """The computed non-properness set.

    ``components`` are ideals in the image context; their union is the
    set.  ``hypersurface_ok`` records whether every nonempty component
    has codimension one in the image closure.
    """

    image_ideal: Ideal
    coordinates: tuple
    components: tuple
    dominant: bool
    hypersurface_ok: bool
    real_superset_warning: bool

    @property
    def is_empty(self):
        return not self.components

    def component_strings(self):
        return [[str(g) for g in comp.canonical_generators()] for comp in self.components]


def _leads(f, relations):
    """The squarefree canonical leading coefficient, in the image context,
    of each coordinate's relation in that coordinate."""
    yctx = f.image_context()
    return [squarefree_full(phi.coeffs_in(name)[phi.degree_in(name)].rebase(yctx))
            for name, phi in zip(f.ctx.names, relations)]


def _assemble_components(J, leads):
    """Components of the non-properness set from the image ideal J and the
    squarefree canonical leading coefficients of the coordinates.

    A constant coefficient, one vanishing on the whole image, or one that
    cuts the empty set from the image yields no component.  Returns the
    components with duplicates dropped."""
    components = []
    seen = set()
    base = J.groebner()
    for a in leads:
        if a.constant_value() is not None:
            continue  # coordinate stays finite over the image
        if not J.is_zero_ideal() and vanishes_on(a, J):
            continue  # degenerate: coefficient vanishes on the whole image
        comp = Ideal(J.ctx, base + [a])
        if comp.is_unit():
            continue  # the coefficient cuts the empty set from the image
        key = tuple(str(g) for g in comp.canonical_generators())
        if key not in seen:
            seen.add(key)
            components.append(comp)
    return components


def sf_compute(f: PolyMap) -> SfResult:
    """Compute the non-properness set of a generically finite map.

    Components arise from source coordinates whose minimal relation has a
    nonconstant leading coefficient; each component ideal is the image
    ideal plus the squarefree part of that coefficient.  An empty result
    means the map is proper (finite over its image closure).

    This is the one relation dispatcher.  A relation is integer-primitive
    and squarefree in its coordinate, of least degree in it among the
    computed relations whose leading coefficient does not vanish on the
    image.  A planar map (``_is_planar``) is dominant, so J is the zero
    ideal, and each relation is the principal generator of its elimination
    ideal, taken from one resultant (``_planar_relation``, where the proof
    is).  Every other map reads J off the first coordinate's elimination
    basis (``_image_ideal``), so J costs no elimination of its own; it
    equals ``image_closure(f)``.  On affine space each relation is then
    taken from its basis without a squarefree gcd: the graph ideal is
    prime, so every reduced basis member of an elimination ideal is
    irreducible (``_min_poly``).

    Either way the leading coefficient goes through ``squarefree_full``
    (``_leads``), since an irreducible relation can have a leading
    coefficient with repeated factors (the criterion is Jelonek's, Ann.
    Polon. Math. 58, 1993).
    """
    if _is_planar(f):
        J = Ideal(f.image_context(), [])  # the map is dominant
        relations = [_planar_relation(f, j) for j in range(2)]
    else:
        elims = [_coordinate_elimination(f, j) for j in range(f.n)]
        J = _image_ideal(f, elims[0], f.ctx.names[0])
        relations = [_min_poly(f, elim, name) for name, elim in zip(f.ctx.names, elims)]
    leads = _leads(f, relations)
    coords = [CoordinateData(name, phi, lead, phi.degree_in(name))
              for name, phi, lead in zip(f.ctx.names, relations, leads)]
    components = _assemble_components(J, leads)
    dim_image = dimension(J)
    hypersurface_ok = all(dimension(c) == dim_image - 1 for c in components)
    return SfResult(
        image_ideal=J,
        coordinates=tuple(coords),
        components=tuple(components),
        dominant=J.is_zero_ideal(),
        hypersurface_ok=hypersurface_ok,
        real_superset_warning=(f.mode == "real" and bool(components)),
    )


def is_proper_at(f: PolyMap, point, sf: SfResult = None) -> bool:
    """True iff the point lies on the image closure and on no component
    of the non-properness set (exact evaluation of the generators)."""
    if sf is None:
        sf = sf_compute(f)
    point = [Fraction(x) for x in point]
    if len(point) != f.m:
        raise PreconditionError("point arity must match the number of components")
    for g in sf.image_ideal.generators:
        if g.evaluate(point) != 0:
            return False
    for comp in sf.components:
        if all(g.evaluate(point) == 0 for g in comp.canonical_generators()):
            return False
    return True


# -- degree-of-uniruledness bound table ---------------------------------------

BOUND_MODES = ("cn", "wn", "multc", "cn1", "multc1")


def theorem_bound(f: PolyMap, mode, d1=None) -> int:
    """Integer bound on the degree of uniruledness of the non-properness
    set, per bound rule.

    cn / cn1:  deg(f) - 1; requires the domain to be all of affine space
               (complex / real statement).
    wn:        min over source variables of the max per-component degree
               in that variable; requires affine-space domain.
    multc:     d1 * deg(f) where d1 bounds the uniruledness degree of the
               domain (complex).
    multc1:    2 * d1 * deg(f) (real).
    """
    if mode not in BOUND_MODES:
        raise PreconditionError(f"unknown bound mode {mode!r}")
    if mode in ("cn", "cn1", "wn"):
        if not f.domain_is_affine_space():
            raise PreconditionError(f"mode {mode!r} requires the full affine space as domain")
    if mode in ("cn", "cn1"):
        return f.degree - 1
    if mode == "wn":
        return min(
            max(comp.degree_in(name) for comp in f.components)
            for name in f.ctx.names
        )
    if d1 is None:
        raise PreconditionError(f"mode {mode!r} needs the domain uniruledness degree d1")
    if d1 < 0:
        raise PreconditionError("d1 must be nonnegative")
    if mode == "multc":
        return d1 * f.degree
    return 2 * d1 * f.degree


# -- independent resultant-based elimination (cross-oracle) --------------------


def _eliminate_var_resultants(polys, name):
    """One resultant elimination step: drop every polynomial's dependence
    on one variable via pairwise resultants with a minimal-degree pivot."""
    with_var = [p for p in polys if p.degree_in(name) > 0]
    without = [p for p in polys if p.degree_in(name) == 0 and not p.is_zero()]
    if len(with_var) <= 1:
        return without
    pivot = _lowest_in(with_var, name)
    out = list(without)
    for p in with_var:
        if p is pivot:
            continue
        r = resultant(pivot, p, name)
        if not r.is_zero():
            out.append(r)
    return out


def coordinate_min_poly_resultant(f: PolyMap, j) -> MPoly:
    """Resultant-path analogue of sf_compute's relation of coordinate j,
    used as an independent oracle: iterated resultants eliminate the other
    source variables, and the lowest result is cut to its squarefree part
    in x_j.

    On affine space that part is divided by its content over Q[x_j].  x_j
    is transcendental there, so the irreducible relation has no factor in
    Q[x_j] alone, and the leading coefficient in x_j changes only by a
    constant.  With domain equations x_j can be algebraic (on y^2 = 0 the
    relation of y is y), so the content stays.  Extraneous factors remain
    only with domain equations or n >= 3."""
    big = f.joined_context()
    polys = [g.rebase(big) for g in graph_ideal(f).generators]
    keep_name = f.ctx.names[j]
    for name in f.ctx.names:
        if name != keep_name:
            polys = _eliminate_var_resultants(polys, name)
    candidates = [p for p in polys if p.degree_in(keep_name) > 0]
    if not candidates:
        raise PreconditionError(
            f"resultant elimination found no relation for coordinate {keep_name!r}"
        )
    phi = squarefree_part(_lowest_in(candidates, keep_name), keep_name)
    if f.domain_is_affine_space():
        phi = _quotient(phi, reduce(_content_in, f.image_names, phi))
    sub = Context(tuple([keep_name]) + f.image_names, LEX)
    return phi.rebase(sub).canonical()


def _components_from(f, relation):
    """Non-properness components from the image closure and the relation
    ``relation(f, j)`` of each coordinate."""
    relations = [relation(f, j) for j in range(f.n)]
    return _assemble_components(image_closure(f), _leads(f, relations))


def sf_components_resultant(f: PolyMap):
    """Non-properness components via the resultant path, for cross-oracle
    comparison with sf_compute."""
    return _components_from(f, coordinate_min_poly_resultant)


def independent_components(f: PolyMap):
    """Non-properness components from the relation path sf_compute did not
    take, for the cross-oracle: elimination bases for a planar map, whose
    sf_compute relations share ``sf_components_resultant``'s kernel, and
    iterated resultants for every other map."""
    if _is_planar(f):
        return _components_from(f, coordinate_min_poly_groebner)
    return sf_components_resultant(f)
