"""Monomial orders: graded reverse lexicographic, lexicographic, and
two-block elimination orders.

Each order defines one key, ``neg_key(exponents)``: a flat tuple of ints
that compares smaller for larger monomials, so ``min`` picks the leading
monomial and the Groebner kernel's min-heaps pop the largest monomial
first.  ``key(exponents)`` is that tuple negated entry by entry, comparing
larger for larger monomials.  Both are injective.  ``tag`` is a stable
string used for basis caching.
"""

from functools import cached_property
from operator import itemgetter, neg

from .record import Record


def _picker(positions):
    """A callable returning the tuple of the entries at the positions
    (``itemgetter`` alone returns a bare entry for one position, and
    takes no empty list)."""
    if len(positions) == 1:
        (i,) = positions
        return lambda exps: (exps[i],)
    return itemgetter(*positions) if positions else lambda exps: ()


class MonomialOrder(Record):
    tag = "abstract"

    def neg_key(self, exps):
        raise NotImplementedError

    def key(self, exps):
        """``neg_key(exps)`` negated entry by entry."""
        return tuple(map(neg, self.neg_key(exps)))

    def __repr__(self):
        return f"<order {self.tag}>"


class GrevLex(MonomialOrder):
    tag = "grevlex"

    def neg_key(self, exps):
        """(-deg, e_n, ..., e_1)."""
        return (-sum(exps), *exps[::-1])


class Lex(MonomialOrder):
    tag = "lex"

    def neg_key(self, exps):
        return tuple(map(neg, exps))


class BlockElim(MonomialOrder):
    """Eliminate the masked variables: compare their exponents grevlex
    first, then the remaining block grevlex.  Any monomial containing an
    eliminated variable dominates every monomial free of them, which is
    what makes basis restriction compute elimination ideals.  The key is
    the concatenation of the two grevlex keys; the first has a fixed
    length, so comparing the concatenation compares block by block.
    """

    mask: tuple  # True at eliminated variable positions

    @property
    def tag(self):
        elim = ",".join(str(i) for i, b in enumerate(self.mask) if b)
        return f"block[{elim}]"

    @cached_property
    def _pickers(self):
        """For the eliminated and for the kept block, a callable taking the
        tuple of its exponents, last variable first."""
        back = range(len(self.mask) - 1, -1, -1)
        return (_picker([i for i in back if self.mask[i]]),
                _picker([i for i in back if not self.mask[i]]))

    def neg_key(self, exps):
        pf, ps = self._pickers
        f, s = pf(exps), ps(exps)
        return (-sum(f), *f, -sum(s), *s)


GREVLEX = GrevLex()
LEX = Lex()


def block_order(ctx_names, eliminate):
    """Two-block order eliminating the named variables of a context."""
    elim = set(eliminate)
    unknown = elim - set(ctx_names)
    if unknown:
        raise ValueError(f"unknown variables in block order: {sorted(unknown)}")
    return BlockElim(tuple(n in elim for n in ctx_names))
