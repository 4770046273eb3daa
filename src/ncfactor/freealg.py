"""Words over a declared alphabet and sparse non-commutative polynomials.

A word is a tuple of alphabet indices; multiplication is concatenation.
NCPoly maps words to commutative-polynomial coefficients (CPoly), so the
same type covers plain polynomials (no symbols) and symbolic factor
candidates whose coefficients involve extension symbols.

Canonical word order is degree first, then lexicographic by alphabet
position; "leading word" always means the maximum in this order.

NCPoly arithmetic runs on plain dicts, {word: {monomial: scalar}}, through
`add_terms` and `add_word_product`, which take coefficient sums and products
with the commutative module's kernel; the recovery steps of `factoring`
and their residuals compute on the same dicts with the same functions.

Symbol-free polynomials also have a scalar kernel on {word: scalar} dicts
(`ScalarTerms`): `scalar_product`, `left_divide` and `evaluate_terms`, which
takes symbolic terms to scalar ones at a point and is the one evaluation
path (`NCPoly.substitute_symbols` wraps it).  Every symbol-free polynomial
on the factoring path lives on these dicts from the parse to the answer:
`parsing` builds the input on them, `homogeneous` splits its top part,
`factoring` multiplies its concrete factor pairs back and divides the
divisors of its cover graph, and NCPoly values (`from_scalar_terms`) are
built once per parsed input, top pair, returned fact and cover quotient.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .commutative import (
    CPoly,
    Reduce,
    SymbolRing,
    TermDict,
    add_product,
    axpy,
    join_terms,
    scalar_term,
)
from .errors import ContextMismatchError
from .fields import Scalar

Word = tuple[int, ...]
# An NCPoly's terms as plain dicts.  The functions below update acc's
# coefficient dicts in place, so those must be acc's own.
WordTerms = dict[Word, TermDict]
# A symbol-free NCPoly's terms as plain scalars, none of them zero.
ScalarTerms = dict[Word, Scalar]

EMPTY_WORD: Word = ()


def concat(u: Word, v: Word) -> Word:
    return u + v


def left_quotient(m: Word, g: Word) -> Optional[Word]:
    """w with m = g*w when g is a prefix of m, else None."""
    if len(g) <= len(m) and m[: len(g)] == g:
        return m[len(g) :]
    return None


def right_quotient(m: Word, h: Word) -> Optional[Word]:
    """w with m = w*h when h is a suffix of m, else None."""
    if len(h) <= len(m) and (not h or m[-len(h) :] == h):
        return m[: len(m) - len(h)]
    return None


def overlap_lengths(g: Word, h: Word) -> tuple[int, ...]:
    """Every j >= 1 where the length-j suffix of g equals the length-j prefix of h."""
    return tuple(j for j in range(1, min(len(g), len(h)) + 1) if g[len(g) - j :] == h[:j])


def word_key(w: Word) -> tuple[int, Word]:
    return (len(w), w)


def add_terms(
    acc: WordTerms, s: Scalar, terms: Iterable[tuple[Word, TermDict]], reduce: Reduce
) -> None:
    """acc += s * (the sum of terms), in place; a word may occur more than once."""
    for word, c in terms:
        t = acc.setdefault(word, {})
        axpy(t, s, c, reduce)
        if not t:
            del acc[word]


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
    """
    lead = max(d, key=word_key)
    r = dict(a)
    q: ScalarTerms = {}
    while r:
        rest = left_quotient(max(r, key=word_key), lead)
        if rest is None:
            return None
        c = q[rest] = r[lead + rest]
        for w, v in d.items():
            word = w + rest
            nv = reduce(r.get(word, 0) - c * v)
            if nv:
                r[word] = nv
            else:
                r.pop(word, None)
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

    def word_str(self, w: Word, sep: str = "") -> str:
        return sep.join(self.names[i] for i in w)

    def extend(self, name: str) -> "Alphabet":
        if name in self._index:
            raise ValueError(f"variable {name!r} already in alphabet")
        return Alphabet(self.names + (name,))

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and other.names == self.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet{self.names}"


class FreeAlgebra:
    """Context for NCPoly: an alphabet plus a coefficient ring."""

    __slots__ = ("alphabet", "ring")

    def __init__(self, alphabet: Alphabet, ring: SymbolRing):
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

    def monomial(self, word: Word, coeff: Union[CPoly, Scalar]) -> "NCPoly":
        c = self._coerce_coeff(coeff)
        if c.is_zero():
            return NCPoly(self, {})
        return NCPoly(self, {tuple(word): c})

    def poly(self, terms: dict[Word, Union[CPoly, Scalar]]) -> "NCPoly":
        acc: WordTerms = {}
        pairs = ((tuple(word), self._coerce_coeff(c)._terms) for word, c in terms.items())
        add_terms(acc, 1, pairs, self.field.reduce)
        return from_term_dicts(self, acc)

    def from_text(self, text: str) -> "NCPoly":
        """Parse expression text in this algebra (see the parsing module)."""
        from .parsing import parse_expression

        return parse_expression(text, self)

    def _coerce_coeff(self, coeff: Union[CPoly, Scalar]) -> CPoly:
        if isinstance(coeff, CPoly):
            if coeff.ring != self.ring:
                raise ContextMismatchError(
                    f"coefficient ring {coeff.ring!r} differs from {self.ring!r}"
                )
            return coeff
        return self.ring.constant(coeff)

    def extend_symbols(self, names: Iterable[str]) -> "FreeAlgebra":
        return FreeAlgebra(self.alphabet, self.ring.extend(names))

    def extend_alphabet(self, name: str) -> "FreeAlgebra":
        return FreeAlgebra(self.alphabet.extend(name), self.ring)

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
    """Sparse non-commutative polynomial; no stored coefficient is zero."""

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: FreeAlgebra, terms: dict[Word, CPoly]):
        self.algebra = algebra
        self._terms = terms

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> list[tuple[Word, CPoly]]:
        """Terms in descending canonical (degree, lex) word order."""
        return sorted(self._terms.items(), key=lambda t: word_key(t[0]), reverse=True)

    def words(self) -> list[Word]:
        return sorted(self._terms, key=word_key)

    def coefficient(self, word: Word) -> CPoly:
        return self._terms.get(tuple(word), self.algebra.ring.zero())

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

    def leading_coefficient(self) -> CPoly:
        return self._terms[self.leading_word()]

    def has_constant_coefficients(self) -> bool:
        return all(c.is_constant() for c in self._terms.values())

    # -- arithmetic --------------------------------------------------------

    def _coerce_operand(self, other) -> "NCPoly":
        if isinstance(other, NCPoly):
            _check_same_algebra(self, other)
            return other
        return self.algebra.monomial(EMPTY_WORD, other)

    def _plus(self, other, s: int) -> "NCPoly":
        other = self._coerce_operand(other)
        terms = dict(self._terms)
        for word, c in other._terms.items():
            old = terms.get(word)
            total = old._plus(c, s) if old is not None else (c if s > 0 else -c)
            if total:
                terms[word] = total
            else:
                terms.pop(word, None)
        return NCPoly(self.algebra, terms)

    def __add__(self, other) -> "NCPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.algebra, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other) -> "NCPoly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "NCPoly":
        return self._coerce_operand(other) - self

    def __mul__(self, other) -> "NCPoly":
        """Concatenation product, bilinear over the coefficient ring."""
        other = self._coerce_operand(other)
        terms: WordTerms = {}
        add_word_product(terms, 1, term_dicts(self), term_dicts(other), self.algebra.field.reduce)
        return from_term_dicts(self.algebra, terms)

    def __rmul__(self, other) -> "NCPoly":
        return self._coerce_operand(other) * self

    def scale(self, coeff: Union[CPoly, Scalar]) -> "NCPoly":
        return self * self.algebra.monomial(EMPTY_WORD, coeff)

    # -- structure maps ------------------------------------------------------

    def commutative_image(self) -> CPoly:
        """Letter-counting ring homomorphism into K[alphabet names].

        Requires constant coefficients (no extension symbols).
        """
        if not self.has_constant_coefficients():
            raise ValueError("commutative image needs constant coefficients")
        ring = SymbolRing(self.algebra.field, self.algebra.alphabet.names)
        terms: TermDict = {}
        for word, coeff in self._terms.items():
            expo = [0] * ring.nsymbols
            for letter in word:
                expo[letter] += 1
            axpy(terms, 1, {tuple(expo): coeff.constant_value()}, ring.field.reduce)
        return CPoly(ring, terms)

    def substitute_symbols(self, assignment: dict[str, Scalar]) -> "NCPoly":
        """Evaluate every coefficient at a full symbol assignment.

        The result lives in the symbol-free algebra over the same alphabet.
        """
        fld = self.algebra.field
        base = FreeAlgebra(self.algebra.alphabet, SymbolRing(fld, ()))
        point = tuple(fld.coerce(assignment[s]) for s in self.algebra.ring.symbols)
        return from_scalar_terms(base, evaluate_terms(term_dicts(self), point, fld.reduce))

    def substitute_variable_one(self, name: str) -> "NCPoly":
        """Set one alphabet variable to 1, deleting its letters from every word."""
        idx = self.algebra.alphabet.index(name)
        acc: WordTerms = {}
        stripped = ((tuple(l for l in w if l != idx), c._terms) for w, c in self._terms.items())
        add_terms(acc, 1, stripped, self.algebra.field.reduce)
        return from_term_dicts(self.algebra, acc)

    def lift(self, algebra: FreeAlgebra) -> "NCPoly":
        """Re-express in an algebra extending this one's alphabet and symbols."""
        own = self.algebra.alphabet.names
        if algebra.alphabet.names[: len(own)] != own:
            raise ContextMismatchError(
                f"alphabet {algebra.alphabet!r} does not extend {self.algebra.alphabet!r}"
            )
        return NCPoly(algebra, {w: c.lift(algebra.ring) for w, c in self._terms.items()})

    # -- equality and display -----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    def __hash__(self) -> int:
        # terms only: equal polynomials hash equal, and __eq__ separates algebras
        return hash(frozenset(self._terms.items()))

    def _format_word(self, word: Word) -> str:
        names = self.algebra.alphabet.names
        parts: list[str] = []
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            run = j - i
            parts.append(names[word[i]] if run == 1 else f"{names[word[i]]}^{run}")
            i = j
        return "*".join(parts)

    def __str__(self) -> str:
        fld = self.algebra.field
        if not self.algebra.ring.symbols:
            # symbol-free: every coefficient is a nonzero scalar at monomial ()
            return join_terms(scalar_term(fld, c._terms[()], self._format_word(w)) for w, c in self.terms())

        def term(word: Word, coeff: CPoly) -> tuple[bool, str]:
            word_str = self._format_word(word)
            if coeff.is_constant():
                return scalar_term(fld, coeff.constant_value(), word_str)
            return False, f"({coeff})*{word_str}" if word_str else f"({coeff})"

        return join_terms(term(word, coeff) for word, coeff in self.terms())

    def __repr__(self) -> str:
        return f"NCPoly({self})"


def term_dicts(f: NCPoly) -> WordTerms:
    """f's terms as plain dicts; they are f's own, so read them only."""
    return {w: c._terms for w, c in f._terms.items()}


def from_term_dicts(algebra: FreeAlgebra, terms: WordTerms) -> NCPoly:
    """The NCPoly with these terms, none of them empty; the dicts become its own."""
    ring = algebra.ring
    return NCPoly(algebra, {w: CPoly(ring, c) for w, c in terms.items()})


def scalar_terms(f: NCPoly) -> ScalarTerms:
    """The terms of f, which lives in a symbol-free algebra, as scalars."""
    if f.algebra.ring.symbols:
        raise ValueError("scalar terms need a symbol-free algebra")
    return {w: c._terms[()] for w, c in f._terms.items()}


def from_scalar_terms(algebra: FreeAlgebra, terms: ScalarTerms) -> NCPoly:
    """The NCPoly with these nonzero scalar terms as constant coefficients."""
    ring = algebra.ring
    zero = (0,) * ring.nsymbols
    return NCPoly(algebra, {w: CPoly(ring, {zero: v}) for w, v in terms.items()})


def normalize_pair(g: NCPoly, h: NCPoly) -> tuple[NCPoly, NCPoly]:
    """Fix the scalar gauge of a factor pair: g monic in its leading word.

    (c*G, c^-1*H) all describe one factorization; this picks the member with
    G's leading-word coefficient equal to 1 and leaves the product unchanged.
    """
    lc = g.leading_coefficient()
    if not lc.is_constant():
        raise ValueError("cannot normalize: leading coefficient is symbolic")
    c = lc.constant_value()
    fld = g.algebra.field
    return g.scale(fld.inv(c)), h.scale(c)


def homogenize(f: NCPoly, name: str) -> NCPoly:
    """Right-pad every term with powers of a new variable up to deg f.

    Homogenization in a free algebra is convention-dependent: x^2 - 1
    right-pads to x^2 - z^2 (irreducible), while the alternative
    x^2 + x*z - z*x - z^2 = (x - z)(x + z) keeps the factorization of
    x^2 - 1 visible.  This function implements the right-padding convention
    only; the result is homogeneous of degree deg f and restricts to f when
    the new variable is set to 1.
    """
    alg = f.algebra.extend_alphabet(name)
    if f.is_zero():
        return alg.zero()
    n = f.degree()
    z = alg.alphabet.index(name)
    terms: dict[Word, CPoly] = {}
    for word, coeff in f._terms.items():
        padded = word + (z,) * (n - len(word))
        terms[padded] = coeff.lift(alg.ring)
    return NCPoly(alg, terms)
