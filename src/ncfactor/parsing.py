"""Expression parser for non-commutative polynomials.

Grammar (whitespace insignificant):

    expr   :=  [sign] term { ('+' | '-') term }
    term   :=  atom { '*' atom }
    atom   :=  coeff | var ['^' INT] | '(' expr ')'
    coeff  :=  INT ['/' INT]
    var    :=  identifier declared in the alphabet

'*' is the non-commutative concatenation product; '^' repeats a single
variable, at most MAX_EXPONENT times; groups nest at most MAX_NESTING deep.
Coefficients are integers or integer ratios of at most
MAX_COEFFICIENT_DIGITS significant digits each, reduced into the
coefficient field (a ratio whose denominator vanishes mod p is rejected).
Errors carry the offending position and the expected-token set.  One
regular expression scans the text once (`scan`), a catch-all alternative
making any other character an error; a caller that infers the alphabet
from the identifiers first hands the same scan to the parser.  Recursive
descent runs by token index on scalar word dicts (`freealg.ScalarTerms`;
the grammar has no symbols).  A term is one coefficient and one word until
a group appears, and then a dict that each '*' multiplies by
`scalar_product`.
"""

from __future__ import annotations

import re
import string
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import ParseError
from .fields import Scalar
from .freealg import FreeAlgebra, NCPoly, ScalarTerms, Word, from_scalar_terms, scalar_product

# The largest N in `x^N`: the power is one N-letter word, allocated at once.
MAX_EXPONENT = 10**6
# The most significant digits in a coefficient literal; Python's int() refuses
# longer decimal strings by default.
MAX_COEFFICIENT_DIGITS = 4300
# The deepest nesting of parenthesized groups; each level is two frames of the
# recursive descent, so the bound keeps it far from the interpreter's limit.
MAX_NESTING = 200

# Whitespace, then one token; the last alternative catches every other character.
_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*^()/]|\S)")
# A token's kind by its first character: "int", "ident" or the operator itself.
# Any other first character is a non-ASCII decimal digit (an "int") or bad.
_KIND = dict.fromkeys(string.digits, "int") | dict.fromkeys(string.ascii_letters + "_", "ident")
_KIND |= {op: op for op in "-+*^()/"}
_ATOM = ("INT", "identifier", "'('")


class Tokens(NamedTuple):
    """A scanned text: the kinds and texts of its tokens, closed by an "end" token."""

    text: str
    kinds: list[str]
    texts: list[str]


def scan(text: str) -> Tokens:
    """The tokens of text; a character no token starts with is a ParseError."""
    texts = _TOKEN_RE.findall(text)
    kinds = [_KIND.get(tok[0]) or ("int" if tok.isdecimal() else "bad") for tok in texts]
    if "bad" in kinds:
        i = kinds.index("bad")
        raise ParseError(f"unexpected character {texts[i]!r}", _position(text, i))
    return Tokens(text, kinds + ["end"], texts + [""])


def _position(text: str, i: int) -> int:
    """The position of token i of text (the end token's is len(text)); read for errors only."""
    return ([m.start(1) for m in _TOKEN_RE.finditer(text)] + [len(text)])[i]


def identifiers_in(source: Union[str, Tokens]) -> list[str]:
    """Distinct identifiers in source order; used to infer an alphabet."""
    _, kinds, texts = source if isinstance(source, Tokens) else scan(source)
    return list(dict.fromkeys(tok for kind, tok in zip(kinds, texts) if kind == "ident"))


class _Parser:
    """Recursive descent by token index on scalar word dicts; the result is wrapped once."""

    def __init__(self, tokens: Tokens, algebra: FreeAlgebra):
        self.text, self.kinds, self.texts = tokens
        self.algebra = algebra
        self.field = algebra.field
        self.reduce = algebra.field.reduce

    def error(self, i: int, message: str = "", expected: tuple[str, ...] = ()) -> ParseError:
        # without a message: the token at i was not expected
        if not message:
            message = f"unexpected {self.texts[i]!r}" if self.kinds[i] != "end" else "unexpected end of input"
        return ParseError(message, _position(self.text, i), expected)

    def parse(self) -> NCPoly:
        terms, i = self.expr(0, 0)
        if self.kinds[i] != "end":
            raise self.error(i, f"trailing input {self.texts[i]!r}", ("'+'", "'-'", "'*'", "end of input"))
        return from_scalar_terms(self.algebra, terms)

    def expr(self, i: int, depth: int) -> tuple[ScalarTerms, int]:
        """The sum at token i, reduced once per word, and the index after it."""
        kinds = self.kinds
        acc: ScalarTerms = {}
        sign = 1
        if kinds[i] == "+" or kinds[i] == "-":
            sign = -1 if kinds[i] == "-" else 1
            i += 1
        while True:
            i = self.term(i, depth, sign, acc)
            if kinds[i] != "+" and kinds[i] != "-":
                reduce = self.reduce
                return {word: r for word, v in acc.items() if (r := reduce(v))}, i
            sign = -1 if kinds[i] == "-" else 1
            i += 1

    def term(self, i: int, depth: int, sign: int, acc: ScalarTerms) -> int:
        """Add sign times the term at token i to acc; returns the index after it."""
        kinds, reduce = self.kinds, self.reduce
        coeff = self.field.one
        word: Word = ()
        terms = None  # the term as a dict, once a group has appeared
        while True:
            if kinds[i] == "int":
                value, i = self.coefficient(i)
                if terms is None:
                    coeff = reduce(coeff * value)
                else:
                    terms = scalar_product(terms, {(): value} if value else {}, reduce)
            elif kinds[i] == "ident":
                letters, i = self.power(i)
                if terms is None:
                    word += letters
                else:
                    terms = scalar_product(terms, {letters: self.field.one}, reduce)
            elif kinds[i] == "(":
                if depth == MAX_NESTING:
                    raise self.error(i, f"parentheses nest deeper than {MAX_NESTING}")
                inner, i = self.expr(i + 1, depth + 1)
                if kinds[i] != ")":
                    raise self.error(i, "", ("')'",))
                if kinds[i + 1] == "^":
                    raise self.error(i + 1, "'^' applies to a single variable")
                i += 1
                if terms is None:
                    terms = {word: coeff} if coeff else {}
                terms = scalar_product(terms, inner, reduce)
            else:
                raise self.error(i, "", ("INT", "identifier", "'('"))
            if kinds[i] != "*":
                break
            i += 1
        if terms is None:
            if coeff:
                acc[word] = acc.get(word, 0) + sign * coeff
        else:
            for w, v in terms.items():
                acc[w] = acc.get(w, 0) + sign * v
        return i

    def power(self, i: int) -> tuple[Word, int]:
        """The word of `var ['^' INT]` at token i, and the index after it."""
        try:
            letter = self.algebra.alphabet.index(self.texts[i])
        except KeyError:
            raise self.error(i, f"unknown identifier {self.texts[i]!r}") from None
        if self.kinds[i + 1] != "^":
            return (letter,), i + 1
        i += 2
        if self.kinds[i] != "int":
            raise self.error(i, "exponent must be an integer", ("INT",))
        text = self.texts[i]
        # compare digit counts first: a huge literal is never converted
        if len(text.lstrip("0")) > len(str(MAX_EXPONENT)) or int(text) > MAX_EXPONENT:
            raise self.error(i, f"exponent exceeds {MAX_EXPONENT}")
        return (letter,) * int(text), i + 1

    def integer(self, i: int) -> int:
        # count digits first: int() raises ValueError on an overlong literal
        digits = self.texts[i].lstrip("0")
        if len(digits) > MAX_COEFFICIENT_DIGITS:
            raise self.error(i, f"coefficient exceeds {MAX_COEFFICIENT_DIGITS} digits")
        return int(digits or "0")

    def coefficient(self, i: int) -> tuple[Scalar, int]:
        """The field value of `INT ['/' INT]` at token i, and the index after it."""
        num = self.integer(i)
        if self.kinds[i + 1] != "/":
            return self.field.coerce(num), i + 1
        if self.kinds[i + 2] != "int":
            raise self.error(i + 2, "denominator must be an integer", ("INT",))
        den = self.integer(i + 2)
        if den == 0:
            raise self.error(i + 2, "zero denominator")
        try:
            return self.field.coerce(Fraction(num, den)), i + 3
        except ZeroDivisionError:
            raise self.error(i, f"coefficient {num}/{den} is not reducible in {self.field!r}") from None


def parse_expression(source: Union[str, Tokens], algebra: FreeAlgebra) -> NCPoly:
    """Parse expression text, or its `scan`, into an NCPoly over the given algebra."""
    return _Parser(source if isinstance(source, Tokens) else scan(source), algebra).parse()
