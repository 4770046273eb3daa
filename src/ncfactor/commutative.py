"""Commutative polynomial algebra over exact fields.

Sparse multivariate polynomials in a fixed ordered tuple of symbols, under
pure lexicographic monomial order (first declared symbol most significant).
Provides the term-dict arithmetic kernel (`axpy`, `add_product`) that CPoly,
NCPoly (through `freealg.add_word_product`) and the pivot attempts of
`factoring` all compute with, ring arithmetic, multivariate division,
Buchberger's algorithm, the reduced lexicographic Groebner basis, and the
exact solution set of a system over a prime field: univariate equations are
peeled off by gcd and root finding, and only a system with no univariate
equation branches over the values of a symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from itertools import compress
from operator import add
from typing import Callable, Iterable

from .errors import (
    ContextMismatchError,
    NotAGroebnerBasisError,
    SearchSpaceTooLargeError,
    UnsupportedFieldError,
)
from .fields import Field, Scalar

# A monomial is an exponent vector, one slot per ring symbol.
Monomial = tuple[int, ...]


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_quotient(b: Monomial, a: Monomial) -> Monomial:
    """b / a, assuming a divides b."""
    return tuple(y - x for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_degree(a: Monomial) -> int:
    return sum(a)


# -- term-dict arithmetic: every sum and product of polynomial coefficients is
# taken here, on dicts of nonzero scalars; a zero sum leaves the dict.

TermDict = dict[Monomial, Scalar]  # a CPoly's terms
Reduce = Callable[[Scalar], Scalar]


def axpy(acc: dict, s: Scalar, c: dict, reduce: Reduce) -> None:
    """acc += s*c, in place; the keys may be monomials or anything else."""
    for m, v in c.items():
        nv = reduce(acc.get(m, 0) + s * v)
        if nv:
            acc[m] = nv
        else:
            acc.pop(m, None)


def add_product(acc: TermDict, s: Scalar, a: TermDict, b: TermDict, reduce: Reduce) -> None:
    """acc += s*a*b, in place."""
    for m1, v1 in a.items():
        sv1 = s * v1
        for m2, v2 in b.items():
            m = monomial_mul(m1, m2)
            nv = reduce(acc.get(m, 0) + sv1 * v2)
            if nv:
                acc[m] = nv
            else:
                acc.pop(m, None)


class SymbolRing:
    """Context for CPoly: a coefficient field plus an ordered symbol list."""

    __slots__ = ("field", "symbols", "_index")

    def __init__(self, field: Field, symbols: Iterable[str] = ()):
        self.field = field
        self.symbols = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbols in {self.symbols}")
        self._index = {name: i for i, name in enumerate(self.symbols)}

    @property
    def nsymbols(self) -> int:
        return len(self.symbols)

    def zero(self) -> "CPoly":
        return CPoly(self, {})

    def one(self) -> "CPoly":
        return self.constant(self.field.one)

    def constant(self, value: Scalar) -> "CPoly":
        v = self.field.coerce(value)
        if v == 0:
            return CPoly(self, {})
        return CPoly(self, {(0,) * self.nsymbols: v})

    def symbol(self, name: str) -> "CPoly":
        if name not in self._index:
            raise KeyError(f"unknown symbol {name!r} (have {self.symbols})")
        expo = [0] * self.nsymbols
        expo[self._index[name]] = 1
        return CPoly(self, {tuple(expo): self.field.one})

    def poly(self, terms: dict[Monomial, Scalar]) -> "CPoly":
        clean: dict[Monomial, Scalar] = {}
        for mono, coeff in terms.items():
            if len(mono) != self.nsymbols:
                raise ValueError(f"monomial {mono} has wrong length for {self.symbols}")
            c = self.field.coerce(coeff)
            if c != 0:
                clean[tuple(mono)] = c
        return CPoly(self, clean)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, SymbolRing)
            and other.field == self.field
            and other.symbols == self.symbols
        )

    def __hash__(self) -> int:
        return hash((self.field, self.symbols))

    def __repr__(self) -> str:
        return f"SymbolRing({self.field!r}, symbols={self.symbols})"


def scalar_term(field: Field, value: Scalar, unit: str) -> tuple[bool, str]:
    """(negative, body) of the term value*unit; `unit` is "" for a constant.

    Only a negative rational prints with a sign; a unit magnitude is left out
    in front of a nonempty unit.
    """
    negative = not isinstance(value, int) and value < 0
    mag = -value if negative else value
    if not unit:
        return negative, str(mag)
    if mag == field.one:
        return negative, unit
    return negative, f"{mag}*{unit}"


def join_terms(terms: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, body) terms as "-a + b - c"; no terms print as "0"."""
    chunks: list[str] = []
    for negative, body in terms:
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks) if chunks else "0"


def _check_same_ring(a: "CPoly", b: "CPoly") -> None:
    if a.ring != b.ring:
        raise ContextMismatchError(f"rings differ: {a.ring!r} vs {b.ring!r}")


class CPoly:
    """Sparse commutative polynomial; invariant: no stored coefficient is zero."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: SymbolRing, terms: dict[Monomial, Scalar]):
        self.ring = ring
        self._terms = terms

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in descending lexicographic monomial order."""
        return sorted(self._terms.items(), key=lambda t: t[0], reverse=True)

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(mono, self.ring.field.zero)

    def total_degree(self) -> int:
        if not self._terms:
            raise ValueError("total degree of the zero polynomial is undefined")
        return max(monomial_degree(m) for m in self._terms)

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms)

    def leading_coefficient(self) -> Scalar:
        return self._terms[self.leading_monomial()]

    # -- arithmetic --------------------------------------------------------

    def _coerce_operand(self, other) -> "CPoly":
        if isinstance(other, CPoly):
            _check_same_ring(self, other)
            return other
        return self.ring.constant(other)

    def _plus(self, other, s: int) -> "CPoly":
        other = self._coerce_operand(other)
        terms = dict(self._terms)
        axpy(terms, s, other._terms, self.ring.field.reduce)
        return CPoly(self.ring, terms)

    def __add__(self, other) -> "CPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    # Multiplying by a nonzero scalar or shifting by a monomial cancels
    # nothing, so negation and `mul_term` only reduce each term.

    def __neg__(self) -> "CPoly":
        reduce = self.ring.field.reduce
        return CPoly(self.ring, {m: reduce(-c) for m, c in self._terms.items()})

    def __sub__(self, other) -> "CPoly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "CPoly":
        return self._coerce_operand(other) - self

    def __mul__(self, other) -> "CPoly":
        other = self._coerce_operand(other)
        terms: TermDict = {}
        add_product(terms, 1, self._terms, other._terms, self.ring.field.reduce)
        return CPoly(self.ring, terms)

    __rmul__ = __mul__

    def scale(self, s: Scalar) -> "CPoly":
        return self.mul_term((0,) * self.ring.nsymbols, s)

    def monic(self) -> "CPoly":
        if not self._terms:
            raise ValueError("cannot normalize the zero polynomial")
        return self.scale(self.ring.field.inv(self.leading_coefficient()))

    def mul_term(self, mono: Monomial, coeff: Scalar) -> "CPoly":
        f = self.ring.field
        coeff = f.coerce(coeff)
        if coeff == 0:
            return CPoly(self.ring, {})
        return CPoly(
            self.ring, {monomial_mul(m, mono): f.reduce(c * coeff) for m, c in self._terms.items()}
        )

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, assignment: dict[str, Scalar]) -> Scalar:
        """Evaluate at a full symbol assignment; returns a field scalar."""
        values = tuple(self.ring.field.coerce(assignment[s]) for s in self.ring.symbols)
        return self.evaluate_tuple(values)

    def evaluate_tuple(self, values: tuple[Scalar, ...]) -> Scalar:
        f = self.ring.field
        acc = f.zero
        for mono, coeff in self._terms.items():
            term = coeff
            for v, e in zip(values, mono):
                if e:
                    term = f.reduce(term * v**e)
            acc = f.reduce(acc + term)
        return acc

    # -- equality and display -----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, CPoly):
            if isinstance(other, (int,)) or hasattr(other, "denominator"):
                return self == self.ring.constant(other)
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        # terms only: equal polynomials hash equal, and __eq__ separates rings
        return hash(frozenset(self._terms.items()))

    def _format_monomial(self, mono: Monomial) -> str:
        parts = []
        for name, e in zip(self.ring.symbols, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        f = self.ring.field
        return join_terms(
            scalar_term(f, coeff, self._format_monomial(mono)) for mono, coeff in self.terms()
        )

    def __repr__(self) -> str:
        return f"CPoly({self})"


@dataclass(frozen=True)
class ConstraintSystem:
    """Polynomial equations (each CPoly = 0) over shared symbols; `texts` renders them once."""

    ring: SymbolRing
    equations: tuple[CPoly, ...] = dataclass_field(default_factory=tuple)

    def __post_init__(self):
        for eq in self.equations:
            if eq.ring != self.ring:
                raise ContextMismatchError("equation ring differs from system ring")

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.ring.symbols

    @cached_property
    def texts(self) -> tuple[str, ...]:
        return tuple(str(eq) for eq in self.equations)

    def __str__(self) -> str:
        if not self.equations:
            return "<empty system>"
        return "; ".join(f"{text} = 0" for text in self.texts)


# -- division and Groebner bases ---------------------------------------------


def normal_form(f: CPoly, basis: Iterable[CPoly]) -> CPoly:
    """Remainder of multivariate division of f by the basis under lex order.

    No monomial of the result is divisible by any basis leading monomial.
    """
    divisors = []
    for g in basis:
        _check_same_ring(f, g)
        if g.is_zero():
            raise ValueError("zero polynomial in division basis")
        divisors.append((g.leading_monomial(), g.leading_coefficient(), g))
    fld = f.ring.field
    p = dict(f._terms)
    remainder: TermDict = {}
    while p:
        lm = max(p)
        for gm, gc, g in divisors:
            if monomial_divides(gm, lm):
                quotient = {monomial_quotient(lm, gm): 1}
                add_product(p, -fld.div(p[lm], gc), quotient, g._terms, fld.reduce)
                break
        else:
            remainder[lm] = p.pop(lm)
    return CPoly(f.ring, remainder)


def s_polynomial(f: CPoly, g: CPoly) -> CPoly:
    _check_same_ring(f, g)
    fld = f.ring.field
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = monomial_lcm(lmf, lmg)
    left = f.mul_term(monomial_quotient(lcm, lmf), fld.inv(f.leading_coefficient()))
    right = g.mul_term(monomial_quotient(lcm, lmg), fld.inv(g.leading_coefficient()))
    return left - right


def buchberger(gens: Iterable[CPoly]) -> list[CPoly]:
    """Groebner basis of the ideal generated by gens, under lex order.

    Naive pair queue with the coprime-leading-monomial skip; the constraint
    systems this library produces are tiny, so no further criteria are used.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("empty generator list")
    basis = [g for g in gens if not g.is_zero()]
    for g in basis:
        _check_same_ring(basis[0], g)
    if not basis:
        return []
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        lmi, lmj = basis[i].leading_monomial(), basis[j].leading_monomial()
        if monomial_lcm(lmi, lmj) == monomial_mul(lmi, lmj):
            continue  # coprime leading monomials: S-poly reduces to zero
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(r)
            pairs.extend((i, len(basis) - 1) for i in range(len(basis) - 1))
    return basis


def is_groebner_basis(basis: list[CPoly]) -> bool:
    for j in range(len(basis)):
        for i in range(j):
            if not normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero():
                return False
    return True


def reduce_groebner(basis: Iterable[CPoly]) -> list[CPoly]:
    """The unique reduced Groebner basis for the ideal of a Groebner basis.

    Elements come out monic, fully reduced against each other, and sorted by
    ascending leading monomial.  The input is interreduced first (replacing
    each element by its normal form against the rest preserves the ideal),
    so a set that becomes a Groebner basis under tail reduction is accepted;
    if even the interreduced set has an S-polynomial that does not reduce to
    zero, the input was not a Groebner basis and an error is raised.
    """
    work = []
    for g in basis:
        if not g.is_zero() and g.monic() not in work:
            work.append(g.monic())
    work.sort(key=lambda g: g.leading_monomial())
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            g = work[i]
            others = work[:i] + work[i + 1 :]
            if not others:
                continue
            r = normal_form(g, others)
            if r.is_zero():
                work = others
                changed = True
                break
            r = r.monic()
            if r != g:
                work[i] = r
                changed = True
        work.sort(key=lambda g: g.leading_monomial())
    if not is_groebner_basis(work):
        raise NotAGroebnerBasisError("an S-polynomial does not reduce to zero")
    return work


# -- solving over F_p ------------------------------------------------------------
#
# A dense univariate polynomial over F_p is its coefficient list, lowest degree
# first, without trailing zeros; the zero polynomial is [].


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the nonzero b."""
    r = _trim(a[:])
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(r) - db, 0)
    while len(r) > db:
        c = r[-1] * inv % p
        shift = len(r) - 1 - db
        q[shift] = c
        for i in range(db):
            r[shift + i] = (r[shift + i] - c * b[i]) % p
        r.pop()
        _trim(r)
    return q, r


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b; [] when both are zero."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _poly_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_divmod([c % p for c in prod], m, p)[1]


def _poly_powmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    """base**e modulo m, for m of degree at least 1."""
    result = [1]
    base = _poly_divmod(base, m, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, m, p)
        e >>= 1
        if e:
            base = _poly_mulmod(base, base, m, p)
    return result


def _horner(g: list[int], t: int, p: int) -> int:
    v = 0
    for c in reversed(g):
        v = (v * t + c) % p
    return v


def roots_mod_p(coeffs: list[int], p: int) -> list[int]:
    """The distinct roots in F_p of a nonzero dense polynomial, ascending.

    Where a scan of F_p costs no more than computing t^p mod g (p at most
    deg * bits of p), every element is tried by Horner's rule.  Otherwise the
    product of the linear factors, gcd(g, t^p - t), is split by equal-degree
    factorization with the deterministic shifts d = 0, 1, ...
    """
    g = _poly_gcd(_trim([c % p for c in coeffs]), [], p)
    d = len(g) - 1
    if d < 1:
        return []
    if d == 1:
        return [-g[0] % p]
    if p <= d * p.bit_length():
        return [t for t in range(p) if _horner(g, t, p) == 0]
    tp = _poly_powmod([0, 1], p, g, p) + [0, 0]
    tp[1] -= 1
    roots: list[int] = []
    _split_linear(_poly_gcd(g, _trim([c % p for c in tp]), p), p, roots)
    return sorted(roots)


def _split_linear(h: list[int], p: int, out: list[int]) -> None:
    """Append the roots of h, a monic product of distinct linear factors, p odd.

    For roots r != s some shift d makes exactly one of r + d, s + d a nonzero
    square, so gcd(h, (t + d)^((p-1)/2) - 1) is a proper factor of h.
    """
    if len(h) == 2:
        out.append(-h[0] % p)
        return
    if len(h) < 2:
        return
    for d in range(p):
        w = _poly_powmod([d, 1], (p - 1) // 2, h, p) or [0]
        w[0] = (w[0] - 1) % p
        f = _poly_gcd(h, _trim(w), p)
        if 1 < len(f) < len(h):
            _split_linear(f, p, out)
            _split_linear(_poly_divmod(h, f, p)[0], p, out)
            return


def _support(eq: dict[Monomial, int]) -> set[int]:
    return {i for mono in eq for i, e in enumerate(mono) if e}


def _is_constant(eq: dict[Monomial, int]) -> bool:
    """Whether a nonzero equation is a nonzero constant, which no point satisfies."""
    return len(eq) == 1 and not any(next(iter(eq)))


def _substitute(eq: dict[Monomial, int], i: int, value: int, p: int) -> tuple[dict[Monomial, int], set[int]]:
    """eq with symbol i set to value, without zero terms, and its support."""
    out: dict[Monomial, int] = {}
    for mono, c in eq.items():
        e = mono[i]
        if e:
            c = c * pow(value, e, p)
            mono = mono[:i] + (0,) + mono[i + 1 :]
        out[mono] = (out.get(mono, 0) + c) % p
    kept = {m: c for m, c in out.items() if c}
    return kept, {j for m in kept for j in compress(range(len(m)), m)}


def _gcd_in(eqs: list[dict[Monomial, int]], x: int, p: int) -> list[int]:
    """The monic gcd of equations that involve no symbol but x, as a dense polynomial."""
    g: list[int] = []
    for eq in eqs:
        dense = [0] * (max(m[x] for m in eq) + 1)
        for m, c in eq.items():
            dense[m[x]] = c
        g = _poly_gcd(g, dense, p)
        if len(g) == 1:
            break  # a nonzero constant: no roots
    return g


def _solve(
    eqs: list[tuple[dict[Monomial, int], set[int]]],
    free: frozenset[int],
    point: dict[int, int],
    p: int,
    cap: int,
    out: list[tuple[int, ...]],
) -> None:
    """Append to `out` every completion of `point` over the `free` symbols.

    `eqs` pairs each nonconstant equation, the assigned symbols substituted,
    with its support, which `_substitute` returns where the equation held
    the symbol just assigned.  A symbol with a univariate equation takes the
    roots of the gcd of all its univariate equations; otherwise the last
    free symbol takes every value.
    """
    if not free:
        out.append(tuple(v for _, v in sorted(point.items())))
        return
    values: Iterable[int]
    univariate = [(max(map(max, eq)), *sup) for eq, sup in eqs if len(sup) == 1]
    if univariate:
        x = min(univariate)[1]
        peeled = [eq for eq, sup in eqs if sup == {x}]
        values = roots_mod_p(_gcd_in(peeled, x, p), p)
        rest = [(eq, sup) for eq, sup in eqs if sup != {x}]
    else:
        k = len(free)
        if p**k > cap:
            raise SearchSpaceTooLargeError(p**k, cap)
        x = max(free)
        values, rest = range(p), eqs
    free = free - {x}
    for v in values:
        sub = []
        for eq, sup in rest:
            if x in sup:
                eq, sup = _substitute(eq, x, v, p)
                if not eq:
                    continue
                if not sup:
                    break  # a nonzero constant: no point extends this value
            sub.append((eq, sup))
        else:
            _solve(sub, free, {**point, x: v}, p, cap, out)


def enumerate_solutions(
    system: ConstraintSystem, cap: int = 10**6
) -> list[dict[str, Scalar]]:
    """All points of F_p^s where every equation vanishes, in lex order.

    Exact, without a Groebner basis: a symbol with a univariate equation is
    peeled off by the roots of the gcd of its univariate equations, each root
    is substituted, and the rest is solved recursively.  Only where no
    equation is univariate does the last symbol take every value of F_p;
    that branching raises SearchSpaceTooLargeError when p**k exceeds the cap
    for the k symbols left.  Raises UnsupportedFieldError over the rationals.
    """
    fld = system.ring.field
    if not fld.is_finite:
        raise UnsupportedFieldError("cannot enumerate solutions over Q")
    eqs = [dict(eq._terms) for eq in system.equations if eq]
    if any(_is_constant(eq) for eq in eqs):
        return []
    points: list[tuple[int, ...]] = []
    symbols = frozenset(range(len(system.symbols)))
    _solve([(eq, _support(eq)) for eq in eqs], symbols, {}, fld.p, cap, points)
    return [dict(zip(system.symbols, pt)) for pt in sorted(points)]
