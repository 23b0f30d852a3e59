"""Recursive-descent parser for polynomial text.

Grammar: rational literals (``3``, ``3/4``), variable names, ``+ - * ^``
with ``^`` binding tightest, unary minus, parentheses.  Exponents are
nonnegative integer literals.  ``/`` appears only inside rational
literals, never as a general operator.  The canonical printer in
``mpoly`` emits exactly this grammar, so print/parse round-trips.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()/]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, ctx):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", pos)

    def parse(self):
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
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
        if kind == "op" and val == "-":
            self.next()
            return -self.factor()
        return self.power()

    def power(self):
        p = self.atom()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                self.next()
                ekind, eval_, epos = self.next()
                if ekind == "op" and eval_ == "-":
                    raise ParseError("negative exponent", epos)
                if ekind != "int":
                    raise ParseError(f"expected integer exponent, found {eval_!r}", epos)
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
                    raise ParseError(f"expected integer denominator, found {v3!r}", p3)
                if int(v3) == 0:
                    raise ParseError("zero denominator", p3)
                return self.ctx.const(Fraction(num, int(v3)))
            return self.ctx.const(num)
        if kind == "name":
            if val not in self.ctx.names:
                raise ParseError(f"unknown variable {val!r}", pos)
            return self.ctx.var(val)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", pos)


def parse_poly(text, ctx):
    """Parse polynomial text over the variables of a Context.

    Syntax errors, unknown variables, and negative exponents raise
    ParseError with the character position.
    """
    return _Parser(text, ctx).parse()
