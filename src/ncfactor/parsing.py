"""Expression parser for non-commutative polynomials.

Grammar (whitespace insignificant):

    expr   :=  [sign] term { ('+' | '-') term }
    term   :=  atom { '*' atom }
    atom   :=  coeff | var ['^' INT] | '(' expr ')'
    coeff  :=  INT ['/' INT]
    var    :=  identifier declared in the alphabet

'*' is the non-commutative concatenation product; '^' repeats a single
variable, at most MAX_EXPONENT times.  Coefficients are integers or integer
ratios of at most MAX_COEFFICIENT_DIGITS significant digits each, reduced
into the coefficient field (a ratio whose denominator vanishes mod p is
rejected).
Errors carry the offending position and the expected-token set.  The
grammar has no extension symbols, so subexpressions are scalar word dicts
(`freealg.ScalarTerms`): each '*' is one `scalar_product`.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError
from .freealg import FreeAlgebra, NCPoly, ScalarTerms, from_scalar_terms, scalar_product

# The largest N in `x^N`: the power is one N-letter word, allocated at once.
MAX_EXPONENT = 10**6
# The most significant digits in a coefficient literal; Python's int() refuses
# longer decimal strings by default.
MAX_COEFFICIENT_DIGITS = 4300

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/]))"
)


class _Token(NamedTuple):
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_pos]!r}", bad_pos)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


def identifiers_in(text: str) -> list[str]:
    """Distinct identifiers in source order; used to infer an alphabet."""
    seen: dict[str, None] = {}
    for tok in _tokenize(text):
        if tok.kind == "ident":
            seen[tok.text] = None
    return list(seen)


class _Parser:
    """Recursive descent on scalar word dicts (see freealg); the result is wrapped once."""

    def __init__(self, text: str, algebra: FreeAlgebra):
        self.text = text
        self.algebra = algebra
        self.reduce = algebra.field.reduce
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input", tok.pos, (repr(op),))
        return self.advance()

    def parse(self) -> NCPoly:
        terms = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos, ("'+'", "'-'", "'*'", "end of input"))
        return from_scalar_terms(self.algebra, terms)

    def expr(self) -> ScalarTerms:
        acc: ScalarTerms = {}
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        while True:
            for word, v in self.term().items():
                acc[word] = acc.get(word, 0) + sign * v
            tok = self.peek()
            if tok.kind != "op" or tok.text not in "+-":
                return {word: r for word, v in acc.items() if (r := self.reduce(v))}
            self.advance()
            sign = -1 if tok.text == "-" else 1

    def term(self) -> ScalarTerms:
        acc = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                acc = scalar_product(acc, self.atom(), self.reduce)
            else:
                return acc

    def atom(self) -> ScalarTerms:
        tok = self.peek()
        if tok.kind == "int":
            return self.coefficient()
        if tok.kind == "ident":
            self.advance()
            try:
                letter = self.algebra.alphabet.index(tok.text)
            except KeyError:
                raise ParseError(f"unknown identifier {tok.text!r}", tok.pos) from None
            power = 1
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "^":
                self.advance()
                exp_tok = self.peek()
                if exp_tok.kind != "int":
                    raise ParseError("exponent must be an integer", exp_tok.pos, ("INT",))
                self.advance()
                # compare digit counts first: a huge literal is never converted
                digits = exp_tok.text.lstrip("0")
                if len(digits) > len(str(MAX_EXPONENT)) or int(exp_tok.text) > MAX_EXPONENT:
                    raise ParseError(f"exponent exceeds {MAX_EXPONENT}", exp_tok.pos)
                power = int(exp_tok.text)
            return {(letter,) * power: self.algebra.field.one}
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "^":
                raise ParseError("'^' applies to a single variable", nxt.pos)
            return inner
        raise ParseError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
            ("INT", "identifier", "'('"),
        )

    def integer(self, tok: _Token) -> int:
        # count digits first: int() raises ValueError on an overlong literal
        digits = tok.text.lstrip("0")
        if len(digits) > MAX_COEFFICIENT_DIGITS:
            raise ParseError(f"coefficient exceeds {MAX_COEFFICIENT_DIGITS} digits", tok.pos)
        return int(digits or "0")

    def coefficient(self) -> ScalarTerms:
        tok = self.advance()
        num = self.integer(tok)
        nxt = self.peek()
        if nxt.kind == "op" and nxt.text == "/":
            self.advance()
            den_tok = self.peek()
            if den_tok.kind != "int":
                raise ParseError("denominator must be an integer", den_tok.pos, ("INT",))
            self.advance()
            den = self.integer(den_tok)
            if den == 0:
                raise ParseError("zero denominator", den_tok.pos)
            from fractions import Fraction

            try:
                value = self.algebra.field.coerce(Fraction(num, den))
            except ZeroDivisionError:
                raise ParseError(
                    f"coefficient {num}/{den} is not reducible in {self.algebra.field!r}",
                    tok.pos,
                ) from None
        else:
            value = self.algebra.field.coerce(num)
        return {(): value} if value else {}


def parse_expression(text: str, algebra: FreeAlgebra) -> NCPoly:
    """Parse expression text into an NCPoly over the given algebra."""
    return _Parser(text, algebra).parse()
