from fractions import Fraction as Q

import pytest
from hypothesis import given

from nonproper.errors import PreconditionError
from nonproper.unipoly import (
    count_real_roots,
    nonneg_on_line,
    sturm_chain,
    sturm_count,
    udeg,
    udivmod,
    umul,
    utrim,
    yun_squarefree,
)

from conftest import coeff_lists


def U(*cs):
    return [Q(c) for c in cs]


class TestSturmOracle:
    def test_chain_for_t2_minus_2_by_hand(self):
        # hand Sturm chain: t^2 - 2, 2t, 2
        chain = sturm_chain([Q(-2), Q(0), Q(1)])
        assert chain == [[Q(-2), Q(0), Q(1)], [Q(0), Q(2)], [Q(2)]]
        # variations: at -3 signs (+,-,+) -> 2; at 3 signs (+,+,+) -> 0
        assert sturm_count(chain, Q(-3), Q(3)) == 2

    def test_isolation_t2_minus_2(self):
        assert count_real_roots(U(-2, 0, 1)) == 2

    def test_no_real_roots(self):
        assert count_real_roots(U(1, 0, 1)) == 0

    def test_double_root(self):
        assert count_real_roots(U(1, -2, 1)) == 1  # (t-1)^2

    def test_rational_root_collapses(self):
        assert count_real_roots(U(0, 1)) == 1  # t

    def test_zero_polynomial_rejected(self):
        with pytest.raises(PreconditionError):
            count_real_roots(U(0))

    def test_clustered_roots_separate(self):
        eps = Q(1, 10**6)
        p = umul([Q(-1), Q(1)], umul([Q(-1), Q(1)], [-(1 + eps), Q(1)]))
        assert count_real_roots(p) == 2

    def test_mixed_multiplicities(self):
        # t^2 (t-1)^3 (t+2)
        p = umul(umul([Q(0), Q(0), Q(1)], umul([Q(-1), Q(1)], umul([Q(-1), Q(1)], [Q(-1), Q(1)]))), [Q(2), Q(1)])
        assert count_real_roots(p) == 3

    @given(coeff_lists(max_degree=5))
    def test_count_bounded_by_degree(self, cs):
        u = utrim(cs)
        if not u:
            return
        assert count_real_roots(u) <= udeg(u)


class TestNonneg:
    def test_square(self):
        assert nonneg_on_line(U(0, 0, 1))

    def test_cube(self):
        assert not nonneg_on_line(U(0, 0, 0, 1))

    def test_even_multiplicity_roots(self):
        # (t^2 - 1)^2: all real roots have even multiplicity
        p = umul([Q(-1), Q(0), Q(1)], [Q(-1), Q(0), Q(1)])
        assert nonneg_on_line(p)

    def test_negative_constant(self):
        assert not nonneg_on_line(U(-3))

    def test_zero_polynomial(self):
        assert nonneg_on_line(U(0))

    @given(coeff_lists(max_degree=3))
    def test_squares_are_nonnegative(self, cs):
        sq = umul(cs, cs) if any(c != 0 for c in cs) else []
        assert nonneg_on_line(sq)


class TestYun:
    def test_splits_multiplicities(self):
        # t^3 (t - 1): factors t (mult 3), t-1 (mult 1)
        p = umul([Q(0), Q(0), Q(0), Q(1)], [Q(-1), Q(1)])
        out = dict()
        for f, m in yun_squarefree(p):
            out[m] = f
        assert out[3] == [Q(0), Q(1)]
        assert out[1] == [Q(-1), Q(1)]

    @given(coeff_lists(max_degree=3, min_degree=1), coeff_lists(max_degree=2, min_degree=1))
    def test_reassembles(self, a, b):
        if not a or a[-1] == 0 or not b or b[-1] == 0:
            return
        p = umul(umul(a, a), b)  # a^2 b
        prod = [Q(1)]
        for f, m in yun_squarefree(p):
            for _ in range(m):
                prod = umul(prod, f)
        lead = p[-1]
        assert [c * lead for c in prod] == p


class TestArithmetic:
    def test_divmod(self):
        q, r = udivmod([Q(-2), Q(0), Q(1)], [Q(-1), Q(1)])
        assert q == [Q(1), Q(1)]
        assert r == [Q(-1)]
