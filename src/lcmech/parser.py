"""Recursive-descent parser for the expression grammar.

Grammar (standard precedence, ``^`` binds tightest and right-associates)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ('^' exponent)?
    primary := number | call | symbol | '(' expr ')'
    call    := ('exp' | 'sin' | 'cos') '(' expr ')' | 'atan2' '(' expr ',' expr ')'
    symbol  := IDENT derivative-suffix?

Identifiers match ``[A-Za-z][A-Za-z0-9_]*``.  A coordinate name may carry a
derivative suffix: one to three apostrophes, or ``(k)`` for order k.  Any
other identifier denotes a named parameter.  Numeric literals are integers
or decimals; decimals are converted to exact rationals.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .nodes import (
    Angle,
    Expr,
    FUNCTIONS,
    Func,
    Jet,
    JetSpace,
    Num,
    Param,
    Pow,
    add,
    mul,
)

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*|\.\d+|\d+)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<quotes>'{1,3})"
    r"|(?P<op>[-+*/^(),]))"
)


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int):
        self.kind, self.text, self.position = kind, text, position


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        for kind in ("number", "ident", "quotes", "op"):
            if m.group(kind):
                tokens.append(_Token(kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, space: JetSpace, names: list[str]):
        if len(names) != space.dim:
            raise ValueError("coordinate name list must have length dim")
        self.tokens = _tokenize(text)
        self.space = space
        self.names = {name: i + 1 for i, name in enumerate(names)}
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.position)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.position)
        return e

    def expr(self) -> Expr:
        # One flat Add, not a left-nested chain that long sums make deep.
        terms = [self.term()]
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self.term()
            terms.append(rhs if op == "+" else -rhs)
        return add(*terms)

    def term(self) -> Expr:
        factors = [self.unary()]
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            rhs = self.unary()
            factors.append(rhs if op == "*" else Pow(rhs, -1))
        return mul(*factors)

    def unary(self) -> Expr:
        if self.peek().text == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        if self.peek().text == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> int:
        tok = self.peek()
        sign = 1
        parenthesized = False
        if tok.text == "(":
            self.advance()
            parenthesized = True
            tok = self.peek()
        if tok.text == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "number" or "." in tok.text:
            raise ParseError("exponent must be an integer", tok.position)
        self.advance()
        if parenthesized:
            self.expect(")")
        return sign * int(tok.text)

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "number":
            self.advance()
            return Num(Fraction(tok.text))
        if tok.kind == "ident":
            return self.symbol_or_call()
        raise ParseError(
            f"expected expression, found {tok.text or 'end of input'!r}", tok.position
        )

    def symbol_or_call(self) -> Expr:
        tok = self.advance()
        name = tok.text
        if name == "atan2":
            self.expect("(")
            y = self.expr()
            self.expect(",")
            x = self.expr()
            self.expect(")")
            return Angle(y, x)
        if name in FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Func(name, arg)
        index = self.names.get(name)
        if index is None:
            if self.peek().kind == "quotes":
                raise ParseError(f"unknown coordinate {name!r}", tok.position)
            return Param(name)
        order = 0
        nxt = self.peek()
        if nxt.kind == "quotes":
            self.advance()
            order = len(nxt.text)
        elif nxt.text == "(" and self._looks_like_order():
            self.advance()
            order_tok = self.advance()
            order = int(order_tok.text)
            self.expect(")")
        if order > self.space.max_jet:
            raise ParseError(
                f"derivative order {order} exceeds max_jet={self.space.max_jet}",
                tok.position,
            )
        return Jet(index, order)

    def _looks_like_order(self) -> bool:
        # Distinguish x(4) from a parenthesized product x*(...): only an
        # integer literal directly followed by ')' is a derivative suffix.
        a = self.tokens[self.k + 1] if self.k + 1 < len(self.tokens) else None
        b = self.tokens[self.k + 2] if self.k + 2 < len(self.tokens) else None
        return (
            a is not None
            and b is not None
            and a.kind == "number"
            and "." not in a.text
            and b.text == ")"
        )


def parse_expression(text: str, space: JetSpace, names: list[str]) -> Expr:
    """Parse ``text`` into an Expr, resolving coordinate names to jets."""
    return _Parser(text, space, names).parse()
