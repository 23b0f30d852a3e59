import hypothesis
from fractions import Fraction
from hypothesis import strategies as st

from nonproper.mpoly import Context, MPoly

hypothesis.settings.register_profile("suite", max_examples=25, deadline=None)
hypothesis.settings.load_profile("suite")

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
small_nonzero = small_fractions.filter(lambda q: q != 0)


@st.composite
def mpolys(draw, names=("x", "y"), max_terms=4, max_exp=2, ctx=None):
    ctx = ctx or Context(tuple(names))
    nterms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(nterms):
        mono = tuple(
            draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(ctx.arity)
        )
        terms[mono] = draw(small_fractions)
    return MPoly(ctx, terms)


@st.composite
def coeff_lists(draw, max_degree=4, min_degree=0):
    deg = draw(st.integers(min_value=min_degree, max_value=max_degree))
    return [draw(small_fractions) for _ in range(deg + 1)]


def pt(*vals):
    return tuple(Fraction(v) for v in vals)
