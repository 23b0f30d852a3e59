"""Recursive-descent parser for polynomial text and path expressions.

Polynomial grammar: rational literals (``3``, ``3/4``), variable names,
``+ - * ^`` with ``^`` binding tightest, unary minus, parentheses.
Exponents are nonnegative integer literals.  ``/`` appears only inside
rational literals, never as a general operator.  The canonical printer in
``mpoly`` emits exactly this grammar, so print/parse round-trips.

Path expressions (``paths[].point`` in a problem file) use the same
tokenizer and the same rules, except that ``/`` divides at the level of
``*``, integer literals are plain integers, and ``k`` is the only name;
they evaluate to exact rationals.

Nesting of ``(`` and unary ``-`` is capped at 100 levels in both, so deep
text is a ParseError, never a stack overflow.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"\s*(?:(\d+)|({NAME.pattern})|([-+*^()/]))")
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text, ctx):
        self.text = text
        self.ctx = ctx
        self.tokens = self.tokenize()

    def error(self, message, pos):
        return ParseError(message, pos)

    def tokenize(self):
        text = self.text
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise self.error(f"unexpected character {stripped[0]!r}", at)
            if m.group(1) is not None:
                tokens.append(("int", m.group(1), m.start(1)))
            elif m.group(2) is not None:
                tokens.append(("name", m.group(2), m.start(2)))
            else:
                tokens.append(("op", m.group(3), m.start(3)))
            pos = m.end()
        tokens.append(("end", "", len(text)))
        return tokens

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise self.error(f"expected {op!r}, found {val!r}", pos)

    def parse(self):
        self.i = 0
        self.depth = 0
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise self.error(f"unexpected {val!r}", pos)
        return p

    def expr(self):
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        kind, val, pos = self.peek()
        if kind != "op" or val not in "-(":
            return self.power()
        if self.depth == _MAX_NESTING:
            raise self.error(f"more than {_MAX_NESTING} nested '(' and unary '-'", pos)
        self.depth += 1
        if val == "-":
            self.next()
            p = -self.factor()
        else:
            p = self.power()
        self.depth -= 1
        return p

    def power(self):
        p = self.atom()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                self.next()
                ekind, eval_, epos = self.next()
                if ekind == "op" and eval_ == "-":
                    raise self.error("negative exponent", epos)
                if ekind != "int":
                    raise self.error(f"expected integer exponent, found {eval_!r}", epos)
                p = p ** int(eval_)
            else:
                return p

    def atom(self):
        kind, val, pos = self.next()
        if kind == "int":
            num = int(val)
            k2, v2, p2 = self.peek()
            if k2 == "op" and v2 == "/":
                self.next()
                k3, v3, p3 = self.next()
                if k3 != "int":
                    raise self.error(f"expected integer denominator, found {v3!r}", p3)
                if int(v3) == 0:
                    raise self.error("zero denominator", p3)
                return self.ctx.const(Fraction(num, int(v3)))
            return self.ctx.const(num)
        if kind == "name":
            if val not in self.ctx.names:
                raise self.error(f"unknown variable {val!r}", pos)
            return self.ctx.var(val)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise self.error(f"unexpected {val!r}" if val else "unexpected end of input", pos)


class _PathParser(_Parser):
    """Path expressions: exact rationals in the index ``k``, which is set
    before each ``parse``."""

    def __init__(self, text):
        super().__init__(text, None)
        self.k = None

    def error(self, message, pos):
        return ParseError(f"{message} in path expression {self.text!r}", pos)

    def term(self):
        v = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind != "op" or val not in "*/":
                return v
            self.next()
            w = self.factor()
            if val == "*":
                v = v * w
            elif w == 0:
                raise self.error("division by zero", pos)
            else:
                v = Fraction(v) / w

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "int":
            self.next()
            return int(val)
        if kind == "name":
            self.next()
            if val != "k":
                raise self.error(f"unknown name {val!r} (only 'k' is bound)", pos)
            return self.k
        return super().atom()  # a parenthesized expression, or the error


def parse_poly(text, ctx):
    """Parse polynomial text over the variables of a Context.

    Syntax errors, unknown variables, and negative exponents raise
    ParseError with the character position.
    """
    return _Parser(text, ctx).parse()


def path_expression(text):
    """The function k -> exact Fraction value of a path expression.

    The text is tokenized once and checked at k = 2.  Malformed text, and a
    division by zero at whatever k it is evaluated, raise a ParseError
    naming the expression.
    """
    parser = _PathParser(text)

    def at(k):
        parser.k = Fraction(k)
        return Fraction(parser.parse())

    at(2)
    return at
