"""Words over a declared alphabet and sparse non-commutative polynomials.

A word is a tuple of alphabet indices; multiplication is concatenation.
NCPoly maps words to nonzero field scalars ({word: scalar}, `ScalarTerms`):
the input and every concrete factor are polynomials over the field.  Its
sums run on `commutative.axpy` and its products on `scalar_product`; the
same kernel holds `left_divide`, exact left division, so every polynomial
on the factoring path lives on these dicts from the parse to the answer.

Canonical word order is degree first, then lexicographic by alphabet
position; "leading word" always means the maximum in this order.

Extension symbols occur only in the symbolic factor pairs of `factoring`,
whose coefficients are commutative polynomials in the symbols, held as
plain dicts ({word: {monomial: scalar}}, `WordTerms`).  The recovery steps
and `assemble_constraints` multiply them with `add_word_product`, and
`evaluate_terms` takes them to scalar terms at a point of the symbols.  A
fact's symbolic G and H are `SymbolicPoly` values: they render, compare
and evaluate (to an NCPoly, through `evaluate_terms`), and have no
arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .commutative import (
    CPoly,
    Reduce,
    SymbolRing,
    TermDict,
    _is_constant,
    add_product,
    axpy,
    join_terms,
)
from .errors import ContextMismatchError
from .fields import Scalar

Word = tuple[int, ...]
# A symbolic polynomial's terms as plain dicts.  `add_word_product` updates
# acc's coefficient dicts in place, so those must be acc's own.
WordTerms = dict[Word, TermDict]
# An NCPoly's terms as plain scalars, none of them zero.
ScalarTerms = dict[Word, Scalar]

EMPTY_WORD: Word = ()


def left_quotient(m: Word, g: Word) -> Optional[Word]:
    """w with m = g*w when g is a prefix of m, else None."""
    if len(g) <= len(m) and m[: len(g)] == g:
        return m[len(g) :]
    return None


def overlap_lengths(g: Word, h: Word) -> tuple[int, ...]:
    """Every j >= 1 where the length-j suffix of g equals the length-j prefix of h."""
    return tuple(j for j in range(1, min(len(g), len(h)) + 1) if g[len(g) - j :] == h[:j])


def word_key(w: Word) -> tuple[int, Word]:
    return (len(w), w)


def add_word_product(
    acc: WordTerms, s: Scalar, a: WordTerms, b: WordTerms, reduce: Reduce
) -> None:
    """acc += s*a*b, in place: words concatenate, coefficients multiply."""
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            word = w1 + w2
            t = acc.setdefault(word, {})
            add_product(t, s, c1, c2, reduce)
            if not t:
                del acc[word]


def scalar_product(a: ScalarTerms, b: ScalarTerms, reduce: Reduce) -> ScalarTerms:
    """a*b: words concatenate, scalars multiply; one `reduce` per output word."""
    acc: ScalarTerms = {}
    for w1, v1 in a.items():
        for w2, v2 in b.items():
            word = w1 + w2
            acc[word] = acc.get(word, 0) + v1 * v2
    return {word: r for word, v in acc.items() if (r := reduce(v))}


def evaluate_terms(terms: WordTerms, point: tuple[Scalar, ...], reduce: Reduce) -> ScalarTerms:
    """The scalar terms of a polynomial whose coefficients are evaluated at point.

    `point` holds one field element per symbol slot of the monomials.
    """
    out: ScalarTerms = {}
    for word, c in terms.items():
        total = 0
        for mono, v in c.items():
            for x, e in zip(point, mono):
                if e:
                    v *= x**e
            total += v
        total = reduce(total)
        if total:
            out[word] = total
    return out


def left_divide(a: ScalarTerms, d: ScalarTerms, reduce: Reduce) -> Optional[ScalarTerms]:
    """q with a = d*q exactly, or None when d does not left-divide a.

    d must be monic in its leading word.  The leading word is multiplicative,
    so each step cancels the remainder's leading term against d times one
    term of q; a leading word without d's as a prefix leaves a remainder.
    The remainder is keyed by (length, word), the `word_key` order, so
    `max` finds its leading word comparing tuples, with no key function.
    """
    n, lead = max(zip(map(len, d), d))
    # d is monic: its leading term cancels the remainder's, so only the rest is subtracted
    tail = [(len(w) - n, w, v) for w, v in d.items() if w != lead]
    r = {(len(w), w): v for w, v in a.items()}
    q: ScalarTerms = {}
    while r:
        top = max(r)
        length, word = top
        if word[:n] != lead:
            return None
        rest = word[n:]
        c = q[rest] = r.pop(top)
        for shift, w, v in tail:
            key = (length + shift, w + rest)
            nv = reduce(r.get(key, 0) - c * v)
            if nv:
                r[key] = nv
            else:
                r.pop(key, None)
    return q


class Alphabet:
    """Ordered tuple of distinct variable names; order fixes word comparison."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        if not self.names:
            raise ValueError("alphabet must not be empty")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        self._index = {name: i for i, name in enumerate(self.names)}

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown variable {name!r} (have {self.names})")
        return self._index[name]

    def word(self, letters: Union[str, Iterable[str]]) -> Word:
        """Build a word from a name sequence; a plain string is read per character."""
        return tuple(self.index(name) for name in letters)

    def format_word(self, word: Word) -> str:
        """The word as a product of letter runs, "x^2*y"; "" for the empty word."""
        names = self.names
        parts: list[str] = []
        run, prev = 0, None
        for letter in word:
            if letter == prev:
                run += 1
                continue
            if run:
                parts.append(names[prev] if run == 1 else f"{names[prev]}^{run}")
            run, prev = 1, letter
        if run:
            parts.append(names[prev] if run == 1 else f"{names[prev]}^{run}")
        return "*".join(parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and other.names == self.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet{self.names}"


class FreeAlgebra:
    """Context for NCPoly: an alphabet over the field of a symbol-free ring."""

    __slots__ = ("alphabet", "ring")

    def __init__(self, alphabet: Alphabet, ring: SymbolRing):
        if ring.symbols:
            raise ValueError(
                f"algebra declares symbols {ring.symbols}; coefficients are field scalars, "
                "so give a symbol-free ring"
            )
        self.alphabet = alphabet
        self.ring = ring

    @property
    def field(self):
        return self.ring.field

    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    def one(self) -> "NCPoly":
        return self.monomial(EMPTY_WORD, self.field.one)

    def variable(self, name: str) -> "NCPoly":
        return self.monomial((self.alphabet.index(name),), self.field.one)

    def monomial(self, word: Word, coeff: Scalar) -> "NCPoly":
        c = self.field.coerce(coeff)
        return NCPoly(self, {tuple(word): c} if c else {})

    def poly(self, terms: dict[Word, Scalar]) -> "NCPoly":
        coerce = self.field.coerce
        return NCPoly(self, {tuple(word): v for word, c in terms.items() if (v := coerce(c))})

    def from_text(self, text: str) -> "NCPoly":
        """Parse expression text in this algebra (see the parsing module)."""
        from .parsing import parse_expression

        return parse_expression(text, self)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, FreeAlgebra)
            and other.alphabet == self.alphabet
            and other.ring == self.ring
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.ring))

    def __repr__(self) -> str:
        return f"FreeAlgebra({self.alphabet!r}, {self.ring!r})"


def _check_same_algebra(a: "NCPoly", b: "NCPoly") -> None:
    if a.algebra != b.algebra:
        raise ContextMismatchError(f"algebras differ: {a.algebra!r} vs {b.algebra!r}")


class NCPoly:
    """Sparse non-commutative polynomial over a field; no stored scalar is zero."""

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: FreeAlgebra, terms: ScalarTerms):
        self.algebra = algebra
        self._terms = terms

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> list[tuple[Word, Scalar]]:
        """Terms in descending canonical (degree, lex) word order."""
        return sorted(self._terms.items(), key=lambda t: word_key(t[0]), reverse=True)

    def words(self) -> list[Word]:
        return sorted(self._terms, key=word_key)

    def coefficient(self, word: Word) -> Scalar:
        return self._terms.get(tuple(word), self.algebra.field.zero)

    def degree(self) -> int:
        if not self._terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(len(w) for w in self._terms)

    def is_homogeneous(self) -> bool:
        if not self._terms:
            return True
        lengths = {len(w) for w in self._terms}
        return len(lengths) == 1

    def homogeneous_part(self, d: int) -> "NCPoly":
        return NCPoly(self.algebra, {w: c for w, c in self._terms.items() if len(w) == d})

    def leading_word(self) -> Word:
        if not self._terms:
            raise ValueError("zero polynomial has no leading word")
        return max(self._terms, key=word_key)

    def leading_coefficient(self) -> Scalar:
        return self._terms[self.leading_word()]

    # -- arithmetic --------------------------------------------------------

    def _coerce_operand(self, other) -> "NCPoly":
        if isinstance(other, NCPoly):
            _check_same_algebra(self, other)
            return other
        return self.algebra.monomial(EMPTY_WORD, other)

    def _plus(self, other, s: int) -> "NCPoly":
        other = self._coerce_operand(other)
        terms = dict(self._terms)
        axpy(terms, s, other._terms, self.algebra.field.reduce)
        return NCPoly(self.algebra, terms)

    def __add__(self, other) -> "NCPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "NCPoly":
        return self.scale(-1)

    def __sub__(self, other) -> "NCPoly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "NCPoly":
        return self._coerce_operand(other) - self

    def __mul__(self, other) -> "NCPoly":
        """Concatenation product, bilinear over the field."""
        other = self._coerce_operand(other)
        return NCPoly(self.algebra, scalar_product(self._terms, other._terms, self.algebra.field.reduce))

    def __rmul__(self, other) -> "NCPoly":
        return self._coerce_operand(other) * self

    def scale(self, coeff: Scalar) -> "NCPoly":
        fld = self.algebra.field
        terms: ScalarTerms = {}
        axpy(terms, fld.coerce(coeff), self._terms, fld.reduce)
        return NCPoly(self.algebra, terms)

    # -- structure maps ------------------------------------------------------

    def commutative_image(self) -> CPoly:
        """Letter-counting ring homomorphism into K[alphabet names]."""
        ring = SymbolRing(self.algebra.field, self.algebra.alphabet.names)
        terms: TermDict = {}
        for word, coeff in self._terms.items():
            expo = [0] * ring.nsymbols
            for letter in word:
                expo[letter] += 1
            axpy(terms, 1, {tuple(expo): coeff}, ring.field.reduce)
        return CPoly(ring, terms)

    # -- equality and display -----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    def __hash__(self) -> int:
        # terms only: equal polynomials hash equal, and __eq__ separates algebras
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        """The terms in descending (degree, lex) word order, each word as letter runs."""
        fmt, terms = self.algebra.alphabet.format_word, self._terms
        return join_terms([(terms[w], fmt(w)) for w in sorted(terms, key=word_key, reverse=True)])

    def __repr__(self) -> str:
        return f"NCPoly({self})"


class SymbolicPoly:
    """A symbolic factor: words of `algebra` with coefficients in `ring`'s symbols.

    `terms` maps each word to its nonzero coefficient's term dict and is
    read only.  The value renders, compares and hashes as a polynomial
    does (`==` also compares the algebra and the ring), and evaluates at a
    point of the symbols; it has no arithmetic.
    """

    __slots__ = ("algebra", "ring", "terms")

    def __init__(self, algebra: FreeAlgebra, ring: SymbolRing, terms: WordTerms):
        self.algebra = algebra
        self.ring = ring
        self.terms = terms

    def evaluate(self, assignment: dict[str, Scalar]) -> NCPoly:
        """The polynomial with every coefficient evaluated at a full symbol assignment."""
        fld = self.ring.field
        point = tuple(fld.coerce(assignment[s]) for s in self.ring.symbols)
        return NCPoly(self.algebra, evaluate_terms(self.terms, point, fld.reduce))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicPoly):
            return NotImplemented
        return self.algebra == other.algebra and self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset((w, frozenset(c.items())) for w, c in self.terms.items()))

    def __str__(self) -> str:
        """As an NCPoly prints, with each non-constant coefficient in parentheses before its word."""
        fmt, one = self.algebra.alphabet.format_word, self.ring.field.one
        shown: list[tuple[Scalar, str]] = []
        for word in sorted(self.terms, key=word_key, reverse=True):
            coeff, unit = self.terms[word], fmt(word)
            if _is_constant(coeff):
                shown.append((next(iter(coeff.values())), unit))
            else:
                # a unit magnitude prints its unit alone, with a '+'
                text = f"({CPoly(self.ring, coeff)})"
                shown.append((one, f"{text}*{unit}" if unit else text))
        return join_terms(shown)

    def __repr__(self) -> str:
        return f"SymbolicPoly({self})"


def normalize_pair(g: NCPoly, h: NCPoly) -> tuple[NCPoly, NCPoly]:
    """Fix the scalar gauge of a factor pair: g monic in its leading word.

    (c*G, c^-1*H) all describe one factorization; this picks the member with
    G's leading-word coefficient equal to 1 and leaves the product unchanged.
    """
    c = g.leading_coefficient()
    return g.scale(g.algebra.field.inv(c)), h.scale(c)
