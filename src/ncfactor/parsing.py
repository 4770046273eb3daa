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
Errors carry the offending position and the expected-token set.

The text is read once (`read`).  A flat sum (no group, ratio or non-ASCII
character, every term a '*' product of integers and `var ['^' INT]`) is
read term by term: split at its signs and then at '*', with each distinct
factor text resolved once, so a term costs one dict lookup per factor.
Anything else, every error included, goes unchanged to the grammar: one
regular expression scans it into tokens (`scan`), a catch-all alternative
making any other character an error, and recursive descent runs by token
index on an NCPoly's scalar word dicts (`freealg.ScalarTerms`).  There a
term is one coefficient and one word until a group appears, and then a
dict that each '*' multiplies by `scalar_product`.  A caller that infers
the alphabet from the identifiers hands the same reading to the parser.
"""

from __future__ import annotations

import re
import string
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Optional, Union

from .errors import ParseError
from .fields import Scalar
from .freealg import FreeAlgebra, NCPoly, ScalarTerms, Word, scalar_product

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
# Texts the flat reader leaves to the grammar: those with a character outside
# its ASCII set, and those with whitespace between two word characters ("x y",
# "2 3"), which dropping the whitespace would join.
_NOT_FLAT = re.compile(r"[^\w*^+\s-]", re.ASCII)
_GAP = re.compile(r"\s(?<=\w\s)\s*\w", re.ASCII)


class FlatSum(NamedTuple):
    """A flat sum read term by term: each term's factor texts, in order.

    A term's sign rides on its first factor ("-3", "-x^2").  `factors` maps
    each distinct factor text, in source order, to (coefficient, identifier,
    exponent): (c, "", 0) for an integer c, (+-1, name, n) for `name^n`.
    """

    text: str
    terms: list[list[str]]
    factors: dict[str, tuple[int, str, int]]


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


def _literal(digits: str, max_digits: int) -> Optional[int]:
    """The value of a decimal literal, or None past max_digits significant digits.

    The digits are counted first: int() raises ValueError on an overlong literal.
    """
    significant = digits.lstrip("0")
    return int(significant or "0") if len(significant) <= max_digits else None


def _exponent(digits: str) -> Optional[int]:
    """The value of an exponent literal, or None above MAX_EXPONENT."""
    n = _literal(digits, len(str(MAX_EXPONENT)))
    return n if n is not None and n <= MAX_EXPONENT else None


def _factor(text: str) -> Optional[tuple[int, str, int]]:
    """What one factor of a flat term is (see FlatSum), or None to leave it to the grammar.

    text holds word characters, '^' and at most a leading '-'.
    """
    sign = -1 if text[:1] == "-" else 1
    body = text[1:] if sign < 0 else text
    if body.isdigit():
        value = _literal(body, MAX_COEFFICIENT_DIGITS)
        return None if value is None else (sign * value, "", 0)
    name, caret, exponent = body.partition("^")
    if not name or name[0].isdigit():
        return None
    if not caret:
        return sign, name, 1
    n = _exponent(exponent) if exponent.isdigit() else None
    return None if n is None else (sign, name, n)


def read(text: str) -> Union[FlatSum, Tokens]:
    """The text read once: term by term when it is a flat sum, else its `scan`."""
    if _NOT_FLAT.search(text) or _GAP.search(text):
        return scan(text)
    # every '-' starts a term, so splitting at '+' keeps each sign on its term
    pieces = "".join(text.split()).replace("-", "+-").split("+")
    if not pieces[0] and len(pieces) > 1:
        del pieces[0]  # the sign in front of the first term
    terms = [piece.split("*") for piece in pieces]
    factors = {}
    # an empty term or factor ("x + - y", "x**y", "x *", "") is an empty or "-" factor text
    for factor in dict.fromkeys(chain.from_iterable(terms)):
        kind = _factor(factor)
        if kind is None:
            return scan(text)
        factors[factor] = kind
    return FlatSum(text, terms, factors)


def _position(text: str, i: int) -> int:
    """The position of token i of text (the end token's is len(text)); read for errors only."""
    return ([m.start(1) for m in _TOKEN_RE.finditer(text)] + [len(text)])[i]


def identifiers_in(source: Union[str, FlatSum, Tokens]) -> list[str]:
    """Distinct identifiers in source order; used to infer an alphabet."""
    if isinstance(source, str):
        source = read(source)
    if isinstance(source, FlatSum):
        return list(dict.fromkeys(name for _, name, _ in source.factors.values() if name))
    _, kinds, texts = source
    return list(dict.fromkeys(tok for kind, tok in zip(kinds, texts) if kind == "ident"))


class _Parser:
    """Recursive descent by token index on scalar word dicts, which the result keeps."""

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
        return NCPoly(self.algebra, terms)

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
        n = _exponent(self.texts[i])
        if n is None:
            raise self.error(i, f"exponent exceeds {MAX_EXPONENT}")
        return (letter,) * n, i + 1

    def integer(self, i: int) -> int:
        value = _literal(self.texts[i], MAX_COEFFICIENT_DIGITS)
        if value is None:
            raise self.error(i, f"coefficient exceeds {MAX_COEFFICIENT_DIGITS} digits")
        return value

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


def _flat_poly(flat: FlatSum, algebra: FreeAlgebra) -> Optional[NCPoly]:
    """The polynomial of a flat sum, or None when it names a letter outside the alphabet.

    Coefficients stay integers, reduced per factor over F_p, until each
    word's sum is coerced into the field once.
    """
    field, index = algebra.field, algebra.alphabet.index
    values: dict[str, tuple[int, Word]] = {}
    for factor, (coeff, name, n) in flat.factors.items():
        try:
            values[factor] = field.reduce(coeff), ((index(name),) * n if name else ())
        except KeyError:
            return None
    acc: dict[Word, int] = {}
    for factors in flat.terms:
        coeff, word = 1, ()
        for factor in factors:
            c, w = values[factor]
            coeff *= c
            word += w
        # as in the grammar, a term that is 0 in the field adds no word; a
        # product of residues is 0 only when one of them is
        if coeff:
            acc[word] = acc.get(word, 0) + coeff
    coerce = field.coerce
    return NCPoly(algebra, {word: r for word, v in acc.items() if (r := coerce(v))})


def parse_expression(source: Union[str, FlatSum, Tokens], algebra: FreeAlgebra) -> NCPoly:
    """Parse expression text, or its `read`, into an NCPoly over the given algebra."""
    if isinstance(source, str):
        source = read(source)
    if isinstance(source, FlatSum):
        poly = _flat_poly(source, algebra)
        if poly is not None:
            return poly
        source = scan(source.text)  # the grammar reports the unknown identifier
    return _Parser(source, algebra).parse()
