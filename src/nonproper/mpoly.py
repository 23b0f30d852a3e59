"""Exact multivariate polynomials over arbitrary-precision rationals.

This is the carrier type for everything symbolic in the package: map
components, ideal generators, ansatz coefficient equations.  A polynomial
is a finite map from exponent vectors to nonzero ``Fraction`` values,
attached to a ``Context`` (an ordered tuple of variable names plus the
active monomial order).  Values are immutable after construction and all
operations are pure, so concurrent reads are always safe.

The module holds the one kernel of each term-dict primitive: the product
``_tmul``, the composition ``expand_along``, and the integer-primitive
form ``_clear_denominators``, ``_primitive`` and ``_lead``.  ``MPoly``'s
product, substitution and canonical form run on them, and so do the
Groebner kernel (``groebner.py``, on int term dicts that are
integer-primitive multiples of these polynomials) and the curve ansatz
(``curves.py``).  The gcd (``mpoly_gcd``) and the resultant share one
pseudo-remainder, ``_pseudo_rem``, and ``exact_div`` and the resultant one
exact division, ``_idiv``; both run on int term dicts, a polynomial in the
chosen variable held as one int term dict per power of it.  The gcd's
sequence makes each remainder integer-primitive, and the resultant's is
the subresultant sequence.  The gcd's coprimality certificate evaluates
univariate images as int lists mod the prime 2^31 - 1.

Canonical form: an integer-primitive scalar multiple with positive leading
coefficient under the active order.  Golden-value tests compare canonical
forms bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from heapq import heapify, heappop, heappush
from operator import add, sub

from .errors import PreconditionError
from .orders import GREVLEX, MonomialOrder
from .record import Record

# -- term-dict kernels ---------------------------------------------------------


def _tmul(a, b):
    """Product of two term dicts keyed by exponent tuples; cancelled
    terms stay as zero values."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(map(add, ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return out


def expand_along(p, coords, width):
    """p(c_1, ..., c_n) expanded, as a term dict without zero values.

    Each coordinate c_i is a term dict keyed by exponent tuples of length
    ``width`` with int or Fraction values, and the result has the same
    keys; an unused coordinate may be empty.  The curve machinery keys
    by (t power, *exponents of the unknowns).  The powers of each
    coordinate are built once per call."""
    zero = (0,) * width
    powers = []
    for i, c in enumerate(coords):
        top = max((m[i] for m in p.terms), default=0)
        row = [None, c]
        while len(row) <= top:
            row.append(_tmul(row[-1], c))
        powers.append(row)
    total = {}
    for mono, c in p.terms.items():
        if c.denominator == 1:
            c = c.numerator
        term = None
        for row, e in zip(powers, mono):
            if e:
                term = row[e] if term is None else _tmul(term, row[e])
        for k, v in ({zero: 1} if term is None else term).items():
            total[k] = total.get(k, 0) + c * v
    return {k: v for k, v in total.items() if v}


def _clear_denominators(terms):
    """(D, D*terms) for a term dict with int or Fraction values, D the lcm
    of their denominators; D*terms has int values."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {m: c.numerator * (den // c.denominator) for m, c in terms.items()}


def _primitive(lm, terms):
    """The (lm, lc, terms) triple of an int term dict divided by its
    content, signed so that the coefficient of lm is positive."""
    g = gcd(*terms.values())
    if terms[lm] < 0:
        g = -g
    if g != 1:
        terms = {m: c // g for m, c in terms.items()}
    return lm, terms[lm], terms


def _lead(p, order):
    """The integer-primitive triple of a nonzero MPoly."""
    return _primitive(p.leading_monomial(order), _clear_denominators(p.terms)[1])


class Context(Record):
    """Ordered variable names plus the context's default monomial order."""

    names: tuple
    order: MonomialOrder = GREVLEX

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        if not all(isinstance(n, str) and n for n in self.names):
            raise ValueError("variable names must be nonempty strings")

    @property
    def arity(self):
        return len(self.names)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} in context {self.names}") from None

    def zero(self):
        return MPoly(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return MPoly(self, {(0,) * self.arity: c})

    def var(self, name):
        e = [0] * self.arity
        e[self.index(name)] = 1
        return MPoly(self, {tuple(e): Fraction(1)})

    def with_order(self, order):
        return Context(self.names, order)


class MPoly:
    """Immutable sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        clean = {}
        n = ctx.arity
        for mono, c in terms.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c == 0:
                continue
            if len(mono) != n or any(e < 0 for e in mono):
                raise ValueError(f"bad monomial {mono} for arity {n}")
            clean[tuple(mono)] = c
        self.terms = clean

    # -- basics ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.ctx.names != self.ctx.names:
                raise PreconditionError(
                    f"context mismatch: {self.ctx.names} vs {other.ctx.names}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.ctx.names == other.ctx.names and self.terms == other.terms

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    def __hash__(self):
        return hash((self.ctx.names, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MPoly(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MPoly(self.ctx, _tmul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- structure -------------------------------------------------------

    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def degree_in(self, name):
        i = self.ctx.index(name)
        if not self.terms:
            return 0
        return max(m[i] for m in self.terms)

    def degrees(self):
        """(max total degree, per-variable max exponents)."""
        per = tuple(self.degree_in(n) for n in self.ctx.names)
        return self.total_degree(), per

    def support_vars(self):
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(self.ctx.names[i])
        return used

    def sorted_terms(self):
        order = self.ctx.order
        return sorted(self.terms.items(), key=lambda t: order.neg_key(t[0]))

    def leading_monomial(self, order=None):
        if not self.terms:
            raise PreconditionError("zero polynomial has no leading monomial")
        order = order or self.ctx.order
        return min(self.terms, key=order.neg_key)

    def constant_value(self):
        """The Fraction value if constant, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            if not any(m):
                return c
        return None

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, point):
        """Exact value at a rational point (length = context arity)."""
        point = [Fraction(x) for x in point]
        if len(point) != self.ctx.arity:
            raise PreconditionError(
                f"arity mismatch: point of length {len(point)} for {self.ctx.arity} variables"
            )
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v *= x ** e
            total += v
        return total

    def subs(self, target_ctx, images):
        """Substitute polynomials for variables.

        ``images`` maps variable names of this context to MPoly values in
        ``target_ctx``.  Every variable actually used must have an image.
        """
        for name in self.support_vars():
            if name not in images or images[name].ctx.names != target_ctx.names:
                raise PreconditionError(f"no substitution image in {target_ctx.names} for {name!r}")
        coords = [images[n].terms if n in images else {} for n in self.ctx.names]
        return MPoly(target_ctx, expand_along(self, coords, target_ctx.arity))

    def coeffs_in(self, name):
        """Coefficients of powers of one variable (index = power; ``_rows``),
        as MPoly in the same context; [0] for the zero polynomial."""
        i = self.ctx.index(name)
        rows = _rows(self.terms, i) if self.terms else [{}]
        return [MPoly(self.ctx, row) for row in rows]

    def derivative(self, name):
        i = self.ctx.index(name)
        out = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            mm = list(m)
            mm[i] -= 1
            out[tuple(mm)] = c * m[i]
        return MPoly(self.ctx, out)

    # -- context moves -----------------------------------------------------

    def rebase(self, new_ctx):
        """Re-express in another context by variable name.

        Dropped variables must be unused; new variables are allowed.
        """
        pos = {n: i for i, n in enumerate(new_ctx.names)}
        out = {}
        for m, c in self.terms.items():
            mm = [0] * new_ctx.arity
            for i, e in enumerate(m):
                if not e:
                    continue
                name = self.ctx.names[i]
                if name not in pos:
                    raise PreconditionError(
                        f"variable {name!r} is used but absent from target context"
                    )
                mm[pos[name]] = e
            out[tuple(mm)] = c
        return MPoly(new_ctx, out)

    # -- canonical form ----------------------------------------------------

    def canonical(self, order=None):
        """Integer-primitive multiple with positive leading coefficient."""
        if not self.terms:
            return self
        return MPoly(self.ctx, _lead(self, order)[2])

    # -- printing ----------------------------------------------------------

    def to_str(self):
        """Canonical text: terms in descending active order, explicit `*`
        and `^`, rationals as p/q.  Round-trips through parse_poly."""
        if not self.terms:
            return "0"
        parts = []
        for k, (m, c) in enumerate(self.sorted_terms()):
            factors = []
            for name, e in zip(self.ctx.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if k == 0:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"MPoly({self.to_str()!r})"


# -- exact division; gcd and resultant on one pseudo-remainder ---------------
#
# The kernels below run on int term dicts.  A polynomial in one chosen
# variable is a list of rows, the int term dict of each power of the
# variable (index = power), keyed with the variable's exponent left at 0.


def _imul(a, b):
    """Product of two int term dicts, without zero values."""
    return {k: v for k, v in _tmul(a, b).items() if v}


def _imul_sub(a, x, b, y):
    """a*x - b*y of int term dicts, without zero values."""
    out = _tmul(a, x)
    for k, v in _tmul(b, y).items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v}


def _ipow(a, e, one):
    out = one
    for _ in range(e):
        out = _imul(out, a)
    return out


def _idiv(p, q):
    """Exact quotient over Z of int term dicts p / q, by division in lex
    order (the order of the exponent tuples); raises if q does not divide
    p with an integer quotient."""
    if len(q) == 1:
        (qm, qc), = q.items()
        quot = {}
        for m, c in p.items():
            k = tuple(map(sub, m, qm))
            d, r = divmod(c, qc)
            if r or min(k) < 0:
                raise PreconditionError("not an exact polynomial division")
            quot[k] = d
        return quot
    qlm = max(q)
    qlc = q[qlm]
    tail = [(m, c) for m, c in q.items() if m != qlm]
    rest = dict(p)
    heap = [tuple([-e for e in m]) for m in rest]
    heapify(heap)
    quot = {}
    while heap:
        m = tuple([-e for e in heappop(heap)])
        c = rest.pop(m, 0)
        if not c:  # a cancelled term, or a second heap entry of one
            continue
        k = tuple(map(sub, m, qlm))
        d, r = divmod(c, qlc)
        if r or min(k) < 0:
            raise PreconditionError("not an exact polynomial division")
        quot[k] = d
        for qm, qc in tail:  # every k*qm is below m, so no popped key returns
            mm = tuple(map(add, k, qm))
            old = rest.get(mm)
            if old is None:
                heappush(heap, tuple([-e for e in mm]))
                old = 0
            v = old - d * qc
            if v:
                rest[mm] = v
            else:
                del rest[mm]
    return quot


def _rows(terms, i):
    """A nonempty term dict as rows in variable i, the one split of a
    polynomial by powers of a variable; ``_unrows`` joins them again."""
    rows = [{} for _ in range(max(m[i] for m in terms) + 1)]
    for m, c in terms.items():
        rows[m[i]][m[:i] + (0,) + m[i + 1:]] = c
    return rows


def _unrows(ctx, rows, i):
    """The MPoly in ctx of rows in variable i."""
    return MPoly(ctx, {m[:i] + (e,) + m[i + 1:]: c
                       for e, row in enumerate(rows) for m, c in row.items()})


def exact_div(p, q):
    """Exact quotient p/q in the polynomial ring; raises if q does not
    divide p.

    With p = P/D_p and q = g*Q/D_q, where P and Q have integer
    coefficients and Q is primitive, p/q = (P/Q) * D_q/(g*D_p).  If q
    divides p, Gauss's lemma makes P/Q a polynomial over Z, so it is
    computed by the int division ``_idiv``."""
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    dp, P = _clear_denominators(p.terms)
    dq, Q = _clear_denominators(q.terms)
    g = gcd(*Q.values())
    scale = Fraction(dq, g * dp)
    quot = _idiv(P, {m: c // g for m, c in Q.items()})
    return MPoly(p.ctx, {m: c * scale for m, c in quot.items()})


def _content_in(p, name):
    """gcd of the coefficients of p viewed as univariate in ``name``.

    One if some coefficient is a nonzero constant; otherwise the gcd folded
    from the smallest coefficient (by term count) up, stopping at a unit.
    Every gcd is canonical, so the order of the fold changes nothing."""
    coeffs = [c for c in p.coeffs_in(name) if not c.is_zero()]
    if any(c.constant_value() is not None for c in coeffs):
        return p.ctx.one()
    coeffs.sort(key=lambda c: len(c.terms))
    g = p.ctx.zero()
    for c in coeffs:
        g = mpoly_gcd(g, c)
        if g.constant_value() is not None:  # a unit cannot get smaller
            break
    return g


def _quotient(p, c):
    """The exact quotient p / c, skipping the division when c is a unit."""
    return p if c.constant_value() is not None else exact_div(p, c)


def _pseudo_rem(a, b):
    """(r, e) with lc(b)^e * r the full pseudo-remainder
    lc(b)^(deg a - deg b + 1) * a mod b of two rows, deg a >= deg b.
    A step on a zero leading coefficient is skipped without scaling and
    counted in e; the gcd reads r alone."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    e = len(a) - db
    for _ in range(len(a) - db):
        while r and not r[-1]:
            r.pop()
        if len(r) - 1 < db:
            break
        lr = r.pop()
        shift = len(r) - db
        r = [_imul(c, lb) if k < shift else _imul_sub(c, lb, lr, b[k - shift])
             for k, c in enumerate(r)]
        e -= 1
    while r and not r[-1]:
        r.pop()
    return r, e


_P = 2**31 - 1  # the prime of the coprimality certificate
_POINT_TRIES = 3


def _image(p, i, powers):
    """Coefficient list mod _P, in variable i, of p with every other
    variable j set to the integer whose powers mod _P are ``powers[j]``;
    one pass over the terms.  No denominator of p may be divisible by _P."""
    out = [0] * (max(m[i] for m in p.terms) + 1)
    for m, c in p.terms.items():
        v = c.numerator
        if c.denominator != 1:
            v *= pow(c.denominator, -1, _P)
        for j, e in enumerate(m):
            if e and j != i:
                v = v * powers[j][e] % _P
        out[m[i]] += v
    return [v % _P for v in out]


def _gcd_degree_mod(a, b):
    """Degree of the gcd over Z/_P of two coefficient lists (constant term
    first); a has a nonzero leading coefficient."""
    b = list(b)
    while b and not b[-1]:
        b.pop()
    a = list(a)
    while b:
        inv = pow(b[-1], -1, _P)
        db = len(b) - 1
        while len(a) > db:  # a <- a mod b
            q = a.pop() * inv % _P
            shift = len(a) - db
            for k in range(db):
                a[shift + k] = (a[shift + k] - q * b[k]) % _P
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _coprime_image(a, b, i):
    """True if an image mod _P at an integer point of the other variables
    proves that the primitive parts a and b have no common factor of
    positive degree in variable i; False if the images do not decide it."""
    if any(c.denominator % _P == 0 for c in (*a.terms.values(), *b.terms.values())):
        return False
    monos = (*a.terms, *b.terms)
    tops = [max(m[j] for m in monos) for j in range(a.ctx.arity)]
    for k in range(_POINT_TRIES):
        powers = [[pow(j + 1 + k ** (j + 1), e, _P) for e in range(d + 1)]
                  for j, d in enumerate(tops)]
        ia = _image(a, i, powers)
        if ia[-1]:  # lc_i(a) does not vanish at the point mod _P
            return _gcd_degree_mod(ia, _image(b, i, powers)) == 0
    return False


def mpoly_gcd(p, q):
    """Canonical gcd: an early coprimality exit, else the integer-primitive
    pseudo-remainder sequence.

    A nonzero constant argument gives 1 at once.  Otherwise the contents
    c_p, c_q in the main variable v are split off first, so gcd(p, q) =
    gcd(c_p, c_q) * G with G = gcd(a, b) of the primitive parts a and b.
    Then a and b are mapped to Z/P, P = 2^31 - 1, at one integer point of
    the other variables: the variables take 1, 2, 3, ..., and if lc_v(a)
    vanishes there mod P the point moves to 2, 3, 4, ... and then to 3, 6,
    11, ... (try k sets variable j to j + 1 + k^(j+1)).  The images are
    taken only if P divides no denominator of a or b.  By Gauss's lemma
    over the integers localized at P, G can be chosen with coefficients
    there and G divides both a and b there; lc_v(G) divides lc_v(a), which
    does not vanish at the point mod P, so the image of G has degree
    deg_v G and divides both images.  If the gcd of the images over Z/P is
    constant, deg_v G = 0, so G is free of v and divides the primitive a:
    G is a unit and the answer is exactly the content gcd.  The sequence
    still runs when the images share a factor (a common factor of a and b,
    or an unlucky point or prime), when P divides a denominator, or when
    lc_v(a) vanishes mod P at every point tried.  Each remainder of the
    sequence is divided by its content and made integer-primitive, so its
    integer coefficients do not swell from step to step.

    The result is integer-primitive with positive leading coefficient. The
    gcd of two nonzero constants is 1 (constants are units over Q).
    """
    if p.is_zero():
        return q.canonical()
    if q.is_zero():
        return p.canonical()
    ctx = p.ctx
    if p.constant_value() is not None or q.constant_value() is not None:
        return ctx.one()
    used = p.support_vars() | q.support_vars()
    name = next(n for n in reversed(ctx.names) if n in used)
    dp, dq = p.degree_in(name), q.degree_in(name)
    # a common divisor cannot involve a variable absent from one side
    if dp == 0:
        return mpoly_gcd(p, _content_in(q, name))
    if dq == 0:
        return mpoly_gcd(_content_in(p, name), q)
    cp, cq = _content_in(p, name), _content_in(q, name)
    c = mpoly_gcd(cp, cq)
    a = _quotient(p, cp)
    b = _quotient(q, cq)
    if _coprime_image(a, b, ctx.index(name)):
        return c
    if a.degree_in(name) < b.degree_in(name):
        a, b = b, a
    i = ctx.index(name)
    while True:
        r, _ = _pseudo_rem(_rows(_clear_denominators(a.terms)[1], i),
                           _rows(_clear_denominators(b.terms)[1], i))
        r = _unrows(ctx, r, i)
        if r.is_zero():
            return (c * b).canonical()  # b is primitive in v
        if r.degree_in(name) == 0:
            return c
        a, b = b, _quotient(r, _content_in(r, name)).canonical()


def squarefree_part(p, name):
    """p / gcd(p, dp/dname), integer-primitive, positive leading
    coefficient under the context order."""
    if p.is_zero():
        raise PreconditionError("squarefree part of the zero polynomial")
    return _quotient(p, mpoly_gcd(p, p.derivative(name))).canonical()


def squarefree_full(p):
    """Product of the distinct irreducible factors of p (char 0), via
    gcd with all partial derivatives."""
    if p.is_zero():
        raise PreconditionError("squarefree part of the zero polynomial")
    g = p.ctx.zero()
    for n in sorted(p.support_vars()):
        g = mpoly_gcd(g, p.derivative(n))
    if g.is_zero():  # constant polynomial
        return p.ctx.one()
    return _quotient(p, mpoly_gcd(p, g)).canonical()


def _resultant_rows(a, b):
    """Res(a, b) of two rows of positive degree, the Sylvester determinant
    with the rows of a on top, as an int term dict.  The subresultant PRS
    (Collins, JACM 14, 1967; Brown & Traub, JACM 18, 1971; Cohen, GTM 138,
    Alg. 3.3.7, without content extraction) runs on ``_pseudo_rem``, each
    full remainder divided exactly by g*h^delta."""
    one = {(0,) * len(next(iter(a[-1]))): 1}
    da, db = len(a) - 1, len(b) - 1
    s = 1
    if da < db:
        a, b, da, db = b, a, db, da
        s = -1 if da % 2 and db % 2 else 1
    g = h = one
    while db:
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        r, e = _pseudo_rem(a, b)
        if not r:
            return {}
        lb = b[-1]
        if e:
            r = [_imul(c, _ipow(lb, e, one)) for c in r]
        div = _imul(g, _ipow(h, delta, one))
        a, b = b, r if div == one else [_idiv(c, div) for c in r]
        g = lb
        if delta:
            h = _idiv(_ipow(g, delta, one), _ipow(h, delta - 1, one))
        da, db = db, len(b) - 1
    res = _idiv(_ipow(b[0], da, one), _ipow(h, da - 1, one))
    return res if s == 1 else {m: -c for m, c in res.items()}


def resultant(p, q, name):
    """Res(q, p) = (-1)^(deg p * deg q) * Res(p, q) in one variable, the
    Sylvester determinant with the rows of q on top; it vanishes at a
    parameter point iff p and q share a root there (or both leading
    coefficients vanish).  It is ``_resultant_rows`` on the integer
    multiples P = D_p*p and Q = D_q*q, divided by
    D_q^(deg p) * D_p^(deg q).  No canonicalization is applied, so value
    and sign are exact."""
    dp, dq = p.degree_in(name), q.degree_in(name)
    if dp == 0 or dq == 0:
        raise PreconditionError("resultant requires positive degree in the variable")
    i = p.ctx.index(name)
    Dp, P = _clear_denominators(p.terms)
    Dq, Q = _clear_denominators(q.terms)
    den = Dq ** dp * Dp ** dq
    res = _resultant_rows(_rows(Q, i), _rows(P, i))
    return MPoly(p.ctx, {m: Fraction(c, den) for m, c in res.items()})
