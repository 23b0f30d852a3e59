"""Buchberger Groebner engine with elimination orders.

The kernel works over the integers.  Every basis element is an
``(lm, lc, terms)`` triple: its leading monomial, its leading coefficient
and an int term dict, divided by its content so that its coefficients are
coprime (integer-primitive) and its leading coefficient is positive.  The
S-polynomial of two triples scales each by the other's cofactor, lc_g/h
and lc_f/h with h = gcd(lc_f, lc_g), so the leading terms cancel without
division.  Reduction of a term c*m by a triple multiplies everything
still pending, and the remainder built so far, by lc // gcd(c, lc) before
subtracting (c // gcd(c, lc)) times the shifted element; the remainder
therefore comes back with the integer ``scale`` it was multiplied by in
total.  The reduced basis is unique up to one scalar per element, so
these integer multiples change nothing but the scalars: the basis is
canonicalized once, at the end (positive leading coefficient,
integer-primitive), and only then built as ``MPoly``.  ``reduce_poly``
clears the denominators of its input, reduces, and divides by the
denominator times the scale; at every step it takes the same divisor as
division over the rationals, so it returns the same ``Fraction``
remainder.

Normal pair selection: pending pairs wait in a heap keyed by lcm degree,
ties broken by the active order on lcms, and each key is computed once,
when its pair is created.  Popped pairs are pruned by the two textbook
criteria: coprime leading monomials, and the chain criterion, which skips
(i, j) when the leading monomial of some k divides their lcm and the
pairs (i, k) and (j, k) are both done.  Every pair of existing elements
is queued when the later one is appended, so a pair that is not pending
has been popped; the record the criterion reads is therefore, per
element i, the set of k whose pair with i has been popped, and the
candidates for k are the intersection of two such sets.  Reduction takes
the next term from a heap keyed by the order's negated key
(``neg_key``, a flat int tuple), built once, when the monomial enters.

``Ideal`` is the one door to a basis.  An ideal is immutable and keeps
one cache, the reduced basis per order tag, written once; recomputation
is idempotent, so concurrent readers are safe.  The unit ideal is the one
whose reduced basis is [1] (``Ideal.is_unit``), and a normal form is
``reduce_poly`` against the cached basis.  Only ``eliminate`` also calls
``buchberger``: its generators are the reduced lex basis by definition.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import add, le, sub

from .errors import PreconditionError
from .mpoly import Context, MPoly, _clear_denominators, _lead, _primitive
from .orders import LEX, block_order


def _lcm(m1, m2):
    return tuple(map(max, m1, m2))


def _mono_mul(m1, m2):
    return tuple(map(add, m1, m2))


def _mono_sub(m1, m2):
    return tuple(map(sub, m1, m2))


def _reduce(terms, lead, order):
    """Full remainder of an int term dict on division by the elements of
    `lead`, a list of (lm, lc, terms) triples, as (remainder, scale): the
    remainder of scale*terms, an int term dict, and the positive int
    scale.  The remainder's terms come in descending order, so its first
    key is its leading monomial."""
    neg_key = order.neg_key
    push, pop = heapq.heappush, heapq.heappop
    rest = dict(terms)  # every monomial on the heap; cancelled ones hold 0
    get = rest.get
    heap = [(neg_key(m), m) for m in rest]
    heapq.heapify(heap)
    remainder = {}
    scale = 1
    while heap:
        m = pop(heap)[1]
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
        g = gcd(c, lc)
        a = lc // g
        if a != 1:
            rest = {k: v * a for k, v in rest.items()}
            get = rest.get
            remainder = {k: v * a for k, v in remainder.items()}
            scale *= a
        q = c // g
        for bm, bc in b.items():
            if bm == lm:
                continue
            mm = tuple(map(add, shift, bm))
            old = get(mm)
            if old is None:
                rest[mm] = -q * bc
                push(heap, (neg_key(mm), mm))
            else:
                rest[mm] = old - q * bc
    return remainder, scale


def reduce_poly(p, basis, order):
    """Full remainder of multivariate division of p by a list of
    polynomials: no remainder term is divisible by any basis leading
    monomial."""
    if not basis:
        return p
    den, terms = _clear_denominators(p.terms)
    r, scale = _reduce(terms, [_lead(b, order) for b in basis], order)
    den *= scale
    return MPoly(p.ctx, {m: Fraction(c, den) for m, c in r.items()})


def _spoly_terms(f, g):
    """Int term dict of the S-polynomial of two (lm, lc, terms) triples,
    each scaled by the other's cofactor of gcd(lc_f, lc_g)."""
    lf, cf, pf = f
    lg, cg, pg = g
    h = gcd(cf, cg)
    af, ag = cg // h, cf // h
    L = _lcm(lf, lg)
    sf, sg = _mono_sub(L, lf), _mono_sub(L, lg)
    out = {_mono_mul(sf, m): af * c for m, c in pf.items() if m != lf}
    for m, c in pg.items():
        if m == lg:
            continue
        mm = _mono_mul(sg, m)
        s = out.get(mm, 0) - ag * c
        if s:
            out[mm] = s
        else:
            del out[mm]
    return out


def buchberger(gens, order):
    """Reduced Groebner basis, canonicalized and sorted by decreasing
    leading monomial.  The unit ideal yields [1]; the zero ideal []."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ctx = gens[0].ctx
    G = [_lead(g, order) for g in gens]
    key = order.key
    done = [set() for _ in G]  # done[i]: every k whose pair (i, k) has been popped
    queue = []  # heap of (lcm degree, order key of lcm, i, j, lcm)

    def add_pairs(new):
        lmn = G[new][0]
        for t in range(new):
            L = _lcm(G[t][0], lmn)
            heapq.heappush(queue, (sum(L), key(L), t, new, L))

    for new in range(1, len(G)):
        add_pairs(new)
    while queue:
        _, _, i, j, L = heapq.heappop(queue)
        done[i].add(j)
        done[j].add(i)
        if L == _mono_mul(G[i][0], G[j][0]):
            continue  # coprime leading monomials
        # chain criterion: some lm[k] divides L, and (i, k), (j, k) are done
        if any(all(map(le, G[k][0], L)) for k in done[i] & done[j]):
            continue
        r = _reduce(_spoly_terms(G[i], G[j]), G, order)[0]
        if r:
            G.append(_primitive(next(iter(r)), r))
            done.append(set())
            add_pairs(len(G) - 1)

    # minimalize
    keep, kept = [], set()
    for i in range(len(G)):
        if not any(j != i and all(map(le, G[j][0], G[i][0])) and (j in kept or j > i) for j in range(len(G))):
            keep.append(i)
            kept.add(i)
    minimal = [G[i] for i in keep]
    # interreduce fully; each leading term survives, so canonicalizing
    # once (content, sign) gives the canonical form of each element
    out = []
    for i, (lm, _, g) in enumerate(minimal):
        r = _reduce(g, minimal[:i] + minimal[i + 1:], order)[0]
        out.append((key(lm), MPoly(ctx, _primitive(lm, r)[2])))
    out.sort(key=lambda t: t[0], reverse=True)
    return [g for _, g in out]


def is_groebner(basis, order):
    """Buchberger criterion: every S-polynomial reduces to zero."""
    lead = [_lead(b, order) for b in basis]
    for i in range(len(lead)):
        for j in range(i + 1, len(lead)):
            if _reduce(_spoly_terms(lead[i], lead[j]), lead, order)[0]:
                return False
    return True


class Ideal:
    """Ideal of a polynomial context, with cached reduced bases.

    ``Ideal(ctx, [])`` is the zero ideal.
    """

    __slots__ = ("ctx", "generators", "_bases")

    def __init__(self, ctx, generators):
        generators = tuple(generators)
        for g in generators:
            if g.ctx.names != ctx.names:
                raise PreconditionError("generator context mismatch")
        self.ctx = ctx
        self.generators = generators
        self._bases = {}  # order tag -> reduced basis

    def groebner(self, order=None):
        order = order or self.ctx.order
        tag = order.tag
        if tag not in self._bases:
            self._bases[tag] = tuple(buchberger(list(self.generators), order))
        return list(self._bases[tag])

    def normal_form(self, p, order=None):
        order = order or self.ctx.order
        return reduce_poly(p, self.groebner(order), order)

    def contains(self, p):
        return self.normal_form(p).is_zero()

    def is_zero_ideal(self):
        """True iff every generator is zero; no basis is computed."""
        return all(g.is_zero() for g in self.generators)

    def is_unit(self):
        return self.groebner() == [self.ctx.one()]

    def equals(self, other):
        if self.ctx.names != other.ctx.names:
            return False
        return all(self.contains(g) for g in other.generators) and all(
            other.contains(g) for g in self.generators
        )

    def canonical_generators(self):
        basis = self.groebner()
        return basis if basis else [self.ctx.zero()]

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal({gens})"


def eliminate(I, keep):
    """Generators of the elimination ideal in the kept variables.

    Computes a two-block basis and restricts it to the members free of
    the eliminated variables.  The result lives in a fresh context on the
    kept names (in their original relative order) under lex, which is
    the order elimination results are printed and compared in.
    """
    keep = set(keep)
    names = I.ctx.names
    unknown = keep - set(names)
    if unknown:
        raise PreconditionError(f"cannot keep unknown variables {sorted(unknown)}")
    elim = [n for n in names if n not in keep]
    kept_names = tuple(n for n in names if n in keep)
    sub = Context(kept_names, LEX)
    if not elim:
        members = I.groebner()
    else:
        order = block_order(names, elim)
        basis = I.groebner(order)
        members = [g for g in basis if g.support_vars() <= keep]
    return Ideal(sub, buchberger([g.rebase(sub) for g in members], LEX))


def vanishes_on(p, I):
    """True iff p vanishes on the complex zero set of I (radical
    membership via the Rabinowitsch trick)."""
    if p.ctx.names != I.ctx.names:
        raise PreconditionError("context mismatch in vanishes_on")
    if p.is_zero():
        return True
    fresh = "z_"
    while fresh in I.ctx.names:
        fresh += "_"
    big = Context(I.ctx.names + (fresh,))
    gens = [g.rebase(big) for g in I.generators]
    gens.append(big.one() - big.var(fresh) * p.rebase(big))
    return Ideal(big, gens).is_unit()


def dimension(I):
    """Krull dimension of the zero set, by the independent-set count on
    the leading monomials of a Groebner basis; -1 for the unit ideal."""
    basis = I.groebner()
    if not basis:
        return I.ctx.arity
    if I.is_unit():
        return -1
    lms = [g.leading_monomial(I.ctx.order) for g in basis]
    n = I.ctx.arity
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if all(any(e and i not in s for i, e in enumerate(lm)) for lm in lms):
                return size
    return 0
