"""Monomial orders: graded reverse lexicographic, lexicographic, and
two-block elimination orders.

An order exposes ``key(exponents)``: a flat tuple of ints that compares
larger for larger monomials, so negating it entry by entry reverses the
order.  ``neg_key(exponents)`` builds that negated key directly, without
the intermediate tuple; the Groebner kernel's min-heaps pop the largest
monomial first by it.  ``tag`` is a stable string used for basis caching.
"""

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, neg


def _grevlex_key(exps):
    """(deg, -e_n, ..., -e_1)."""
    return (sum(exps), *[-e for e in reversed(exps)])


def _picker(positions):
    """A callable returning the tuple of the entries at the positions
    (``itemgetter`` alone returns a bare entry for one position, and
    takes no empty list)."""
    if len(positions) == 1:
        (i,) = positions
        return lambda exps: (exps[i],)
    return itemgetter(*positions) if positions else lambda exps: ()


class MonomialOrder:
    tag = "abstract"

    def key(self, exps):
        raise NotImplementedError

    def neg_key(self, exps):
        """``key(exps)`` negated entry by entry."""
        raise NotImplementedError

    def __repr__(self):
        return f"<order {self.tag}>"


@dataclass(frozen=True, repr=False)
class GrevLex(MonomialOrder):
    tag = "grevlex"

    def key(self, exps):
        return _grevlex_key(exps)

    def neg_key(self, exps):
        return (-sum(exps), *exps[::-1])


@dataclass(frozen=True, repr=False)
class Lex(MonomialOrder):
    tag = "lex"

    def key(self, exps):
        return tuple(exps)

    def neg_key(self, exps):
        return tuple(map(neg, exps))


@dataclass(frozen=True, repr=False)
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
    def _blocks(self):
        """Positions of the eliminated and of the kept variables, each
        listed last variable first."""
        back = range(len(self.mask) - 1, -1, -1)
        return [i for i in back if self.mask[i]], [i for i in back if not self.mask[i]]

    def key(self, exps):
        first, second = self._blocks
        f = [-exps[i] for i in first]
        s = [-exps[i] for i in second]
        return (-sum(f), *f, -sum(s), *s)

    @cached_property
    def _pickers(self):
        """Per block, a callable taking the tuple of its exponents, last
        variable first."""
        return tuple(map(_picker, self._blocks))

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
