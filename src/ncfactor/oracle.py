"""Brute-force reference factorization and deterministic test-case generators.

Everything here is written to be obviously correct rather than fast, and it
deliberately shares no code path with the factorization pipeline it is used
to check: one factor is enumerated and the other divided out, by long
division on raw word -> residue dictionaries.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterable, Optional

from .errors import BudgetExceededError, UnsupportedFieldError
from .fields import PrimeField, Scalar
from .freealg import Alphabet, FreeAlgebra, NCPoly, Word, normalize_pair, word_key
from .commutative import SymbolRing

RawPoly = dict[Word, int]


def _raw_left_divide(f: RawPoly, g: RawPoly, p: int) -> Optional[RawPoly]:
    """q with g*q = f, or None when g does not left-divide f.

    Long division by leading word: g*q leads with lead(g)*lead(q) in the
    degree-then-lex order, so the leading word of every remainder must start
    with lead(g), and each step cancels it exactly.
    """
    lead = max(g, key=word_key)
    inv = pow(g[lead], -1, p)
    r = dict(f)
    q: RawPoly = {}
    while r:
        m = max(r, key=word_key)
        if m[: len(lead)] != lead:
            return None
        w = m[len(lead) :]
        c = r[m] * inv % p
        q[w] = c
        for wg, cg in g.items():
            key = wg + w
            v = (r.get(key, 0) - c * cg) % p
            if v:
                r[key] = v
            else:
                r.pop(key, None)
    return q


def _reversed(raw: RawPoly) -> RawPoly:
    return {w[::-1]: c for w, c in raw.items()}


def _to_raw(f: NCPoly) -> RawPoly:
    return dict(f.terms())


def _candidate_words(f: NCPoly, max_degree: int, prefixes: bool) -> list[Word]:
    words = {(): None}
    for w in f.words():
        for d in range(1, min(len(w), max_degree) + 1):
            words[w[:d] if prefixes else w[len(w) - d :]] = None
    return sorted(words, key=word_key)


def _all_words(alphabet: Alphabet, max_degree: int) -> list[Word]:
    words: list[Word] = [()]
    for d in range(1, max_degree + 1):
        words.extend(product(range(alphabet.size), repeat=d))
    return sorted(words, key=word_key)


def _left_factors(
    raw_f: RawPoly,
    words: list[Word],
    degree: int,
    quotient_words: list[Word],
    p: int,
    budget: int,
) -> list[tuple[RawPoly, RawPoly]]:
    """Every (G, H) with G*H = f, deg G = degree and the given supports.

    G runs over every coefficient vector on `words`; H is the exact quotient
    of f by G, kept when it is supported on `quotient_words`.
    """
    needed = p ** len(words)
    if needed > budget:
        raise BudgetExceededError(needed, budget)
    allowed = set(quotient_words)
    pairs = []
    for coeffs in product(range(p), repeat=len(words)):
        if not any(c and len(w) == degree for w, c in zip(words, coeffs)):
            continue
        g = {w: c for w, c in zip(words, coeffs) if c}
        quotient = _raw_left_divide(raw_f, g, p)
        if quotient is not None and set(quotient) <= allowed:
            pairs.append((g, quotient))
    return pairs


def brute_force_factor(
    f: NCPoly,
    split: tuple[int, int],
    support_cap: int = 64,
    budget: int = 10**6,
    exhaustive: bool = False,
) -> set[tuple[NCPoly, NCPoly]]:
    """All pairs (G, H) over F_p with G*H = f at the given degree split.

    Candidate supports are the prefixes (for G) and suffixes (for H) of the
    words of f, or every word of bounded degree in exhaustive mode; each
    support list is truncated at support_cap in canonical order.  Every
    coefficient assignment over F_p is tried for the factor with fewer
    candidate words, so the search space has size p**(that many words);
    exceeding the budget raises.  The other factor is the exact quotient of
    f by it (right division runs on reversed words), kept when its support
    lies in its own candidate list.  Results are monic-normalized and
    deduplicated.
    """
    h, k = split
    if h < 1 or k < 1:
        raise ValueError(f"factor degrees must be >= 1, got ({h}, {k})")
    fld = f.algebra.field
    if not isinstance(fld, PrimeField):
        raise UnsupportedFieldError("brute force enumeration needs a prime field")
    if f.is_zero() or f.degree() != h + k:
        raise ValueError("degree of f does not match the requested split")
    p = fld.p
    if exhaustive:
        g_words = _all_words(f.algebra.alphabet, h)
        h_words = _all_words(f.algebra.alphabet, k)
    else:
        g_words = _candidate_words(f, h, prefixes=True)
        h_words = _candidate_words(f, k, prefixes=False)
    g_words = g_words[:support_cap]
    h_words = h_words[:support_cap]
    if len(g_words) <= len(h_words):
        pairs = _left_factors(_to_raw(f), g_words, h, h_words, p, budget)
    else:
        # G*H = f exactly when rev(H)*rev(G) = rev(f): enumerate rev(H) on the left
        rev_h, rev_g = ([w[::-1] for w in words] for words in (h_words, g_words))
        pairs = [
            (_reversed(g_raw), _reversed(h_raw))
            for h_raw, g_raw in _left_factors(_reversed(_to_raw(f)), rev_h, k, rev_g, p, budget)
        ]
    return {
        normalize_pair(f.algebra.poly(g_raw), f.algebra.poly(h_raw)) for g_raw, h_raw in pairs
    }


def chain_family(field: PrimeField, roots: Iterable[Scalar]) -> tuple[NCPoly, list[tuple[NCPoly, ...]]]:
    """Polynomial y*f(xy) for f(t) = prod (t - r_i), with its predicted chains.

    For k distinct roots the y factor can sit at any of the k+1 positions:
    chain i is f_1(yx) ... f_i(yx) * y * f_{i+1}(xy) ... f_k(xy).  Every
    chain is verified to multiply back to the polynomial before returning.
    """
    roots = [field.coerce(r) for r in roots]
    if len(set(roots)) != len(roots):
        raise ValueError(f"roots must be distinct, got {roots}")
    algebra = FreeAlgebra(Alphabet(("x", "y")), SymbolRing(field, ()))
    x = algebra.variable("x")
    y = algebra.variable("y")
    xy_factors = [x * y - algebra.one().scale(r) for r in roots]
    yx_factors = [y * x - algebra.one().scale(r) for r in roots]
    f = y
    for factor in xy_factors:
        f = f * factor
    k = len(roots)
    chains: list[tuple[NCPoly, ...]] = []
    for i in range(k + 1):
        chain = tuple(yx_factors[:i]) + (y,) + tuple(xy_factors[i:])
        prod_chain = algebra.one()
        for part in chain:
            prod_chain = prod_chain * part
        if prod_chain != f:
            raise AssertionError(f"predicted chain {i} does not multiply back to f")
        chains.append(chain)
    return f, chains


def _random_poly(
    rng: random.Random,
    algebra: FreeAlgebra,
    degree: int,
    max_terms: int,
    homogeneous: bool,
) -> NCPoly:
    fld = algebra.field
    size = algebra.alphabet.size

    def nonzero() -> Scalar:
        if isinstance(fld, PrimeField):
            return rng.randrange(1, fld.p)
        return fld.coerce(rng.choice([-3, -2, -1, 1, 2, 3]))

    lead = tuple(rng.randrange(size) for _ in range(degree))
    poly = algebra.monomial(lead, nonzero())
    for _ in range(rng.randrange(max_terms)):
        d = degree if homogeneous else rng.randrange(degree + 1)
        word = tuple(rng.randrange(size) for _ in range(d))
        poly = poly + algebra.monomial(word, nonzero())
    if poly.is_zero() or poly.degree() != degree:
        # additions may have cancelled the top term; restore it
        poly = poly + algebra.monomial(lead, nonzero())
    if poly.is_zero() or poly.degree() != degree:
        poly = algebra.monomial(lead, nonzero())
    return poly


def random_factorable(
    seed: int,
    field,
    deg_g: int,
    deg_h: int,
    term_cap: int,
    n_vars: int = 2,
    homogeneous: bool = False,
) -> tuple[NCPoly, NCPoly, NCPoly]:
    """Deterministic pseudo-random (F, G, H) with F = G*H by construction."""
    if deg_g < 1 or deg_h < 1:
        raise ValueError("factor degrees must be >= 1")
    if term_cap < 1:
        raise ValueError("term cap must be >= 1")
    rng = random.Random(seed)
    names = ("x", "y", "z", "u", "v", "w")[:n_vars]
    algebra = FreeAlgebra(Alphabet(names), SymbolRing(field, ()))
    g = _random_poly(rng, algebra, deg_g, term_cap, homogeneous)
    h = _random_poly(rng, algebra, deg_h, term_cap, homogeneous)
    return g * h, g, h
