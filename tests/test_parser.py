from fractions import Fraction

import pytest
from hypothesis import given

from nonproper.errors import ParseError
from nonproper.mpoly import Context
from nonproper.orders import LEX
from nonproper.parser import parse_poly
from nonproper.problem import path_from_spec

from conftest import mpolys


class TestGrammar:
    def test_power_binds_tightest(self):
        ctx = Context(("x", "y"))
        assert parse_poly("x + (x*y)^2", ctx) == parse_poly("x + x^2*y^2", ctx)

    def test_three_variable_context(self):
        ctx = Context(("x1", "x2", "x3"))
        p = parse_poly("x1*x2 - 1", ctx)
        assert p.evaluate([2, 3, 99]) == 5
        assert p.degree_in("x3") == 0

    def test_unary_minus_of_zero_power(self):
        assert parse_poly("-(y - 2)^0", Context(("y",))) == -1

    def test_rational_literals(self):
        ctx = Context(("x",))
        p = parse_poly("3/4*x - 1/2", ctx)
        assert p.evaluate([2]) == 1

    def test_nested_parens_and_minus(self):
        ctx = Context(("x", "y"))
        p = parse_poly("-(x - (y - 1))^2", ctx)
        assert p == -(parse_poly("x - y + 1", ctx) ** 2)

    def test_chained_powers(self):
        ctx = Context(("x",))
        assert parse_poly("x^2^3", ctx) == parse_poly("x^6", ctx)


    def test_nesting_at_the_cap_parses(self):
        # 100 levels of '(' and unary '-'; one more is a parse error
        # (tests/test_cli.py)
        ctx = Context(("x",))
        assert parse_poly("(" * 99 + "-x" + ")" * 99, ctx) == -parse_poly("x", ctx)


class TestErrors:
    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as e:
            parse_poly("x + * y", Context(("x", "y")))
        assert e.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable 'z'"):
            parse_poly("x + z", Context(("x", "y")))

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_poly("x^-2", Context(("x",)))

    def test_division_is_not_an_operator(self):
        with pytest.raises(ParseError):
            parse_poly("x/2", Context(("x",)))

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_poly("1/0", Context(("x",)))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("x + 1)", Context(("x",)))

    def test_unexpected_end(self):
        with pytest.raises(ParseError):
            parse_poly("x +", Context(("x",)))


class TestRoundTrip:
    @given(mpolys(max_terms=5, max_exp=3))
    def test_print_parse_roundtrip(self, p):
        assert parse_poly(str(p), p.ctx) == p

    @given(mpolys(names=("y1", "y2"), max_terms=5, max_exp=3,
                  ctx=Context(("y1", "y2"), LEX)))
    def test_roundtrip_lex_context(self, p):
        assert parse_poly(p.to_str(), p.ctx) == p


def path_value(text, k):
    """The value at k of a one-coordinate path from a problem file."""
    return path_from_spec({"point": [text]}, 4).point_fn(k)[0]


class TestPathExpressions:
    @pytest.mark.parametrize("text, k, value", [
        ("2/3^2", 2, Fraction(2, 9)),  # no rational literals: '^' binds first
        ("2^3^2", 2, 64),  # '^' is left-associative
        ("-k^2", 3, -9),
        ("(k+1)/(k-1)", 3, 2),
        ("- -k", 2, 2),
        ("1/k^2", 4, Fraction(1, 16)),
    ])
    def test_value(self, text, k, value):
        v = path_value(text, k)
        assert v == value and type(v) is Fraction

    @pytest.mark.parametrize("text", ["x", "1/k^", "k^k", "k 2", "1.5", "(k", "k)", ""])
    def test_malformed_text_names_the_expression(self, text):
        with pytest.raises(ParseError) as e:
            path_value(text, 2)
        assert f"path expression {text!r}" in str(e.value)
