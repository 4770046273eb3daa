"""Factorization of homogeneous polynomials at a prescribed degree split.

For homogeneous F of degree h + k every word splits uniquely into a
length-h prefix and a length-k suffix, so the product G*H has no
cancellation and the factor pair at a given split is unique up to a scalar.
The factor-recovery scan splits the leading word of F into a pivot prefix
and suffix, reads H off the left-quotients by the prefix and G off the
right-quotients by the suffix in one pass over F's terms, scales G monic
and checks the product term by term, without forming it (G*H has one word
per pair of their words), all on an NCPoly's scalar word dicts
(`freealg.ScalarTerms`).  `factor_homogeneous` checks f and wraps the scan,
`factor_homogeneous_terms`.  Which word is the pivot does not matter for
the normalized pair; pivot choice for the inhomogeneous recovery belongs to
`factoring`.  `refine` glues two factorizations of one homogeneous F into a
common three-factor chain.
"""

from __future__ import annotations

from typing import Optional

from .errors import RefinementError
from .fields import Field
from .freealg import NCPoly, ScalarTerms, left_quotient, word_key


def factor_homogeneous(f: NCPoly, h: int, k: int) -> Optional[tuple[NCPoly, NCPoly]]:
    """Factor homogeneous f as G*H with deg G = h, deg H = k, if possible.

    Returns the pair normalized with G monic in its leading word, or None
    when no such factorization exists.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if h < 1 or k < 1:
        raise ValueError(f"factor degrees must be >= 1, got ({h}, {k})")
    if not f.is_homogeneous():
        raise ValueError("polynomial is not homogeneous")
    if f.degree() != h + k:
        raise ValueError(f"degree {f.degree()} != {h} + {k}")
    pair = factor_homogeneous_terms(f._terms, h, f.algebra.field)
    return None if pair is None else tuple(NCPoly(f.algebra, terms) for terms in pair)


def factor_homogeneous_terms(terms: ScalarTerms, h: int, fld: Field) -> Optional[tuple[ScalarTerms, ScalarTerms]]:
    """`factor_homogeneous` on the terms of nonzero homogeneous f, deg f > h, unchecked.

    The raw quotient sums reproduce G and H only up to the pivot coefficients,
    so the pair is rescaled to make the product match f before it is checked.
    """
    pivot = max(terms, key=word_key)
    g_hat, h_hat = pivot[:h], pivot[h:]
    g_terms: ScalarTerms = {}
    h_terms: ScalarTerms = {}
    for word, c in terms.items():
        if word[:h] == g_hat:
            h_terms[word[h:]] = c
        if word[h:] == h_hat:
            g_terms[word[:h]] = c
    # For the true pair, g_terms = eta*G and h_terms = gamma*H (gamma, eta the
    # pivot coefficients in G, H).  The pivot is f's leading word, so g_hat
    # leads g_terms with coefficient gamma*eta: dividing by it makes G monic.
    inv = fld.inv(g_terms[g_hat])
    g_terms = {w: fld.reduce(c * inv) for w, c in g_terms.items()}
    # G*H has |G|*|H| distinct words, so it is f when each of them is f's
    if len(terms) != len(g_terms) * len(h_terms):
        return None
    for u, a in g_terms.items():
        for v, b in h_terms.items():
            if terms.get(u + v) != fld.reduce(a * b):
                return None
    return g_terms, h_terms


def refine(g1: NCPoly, h1: NCPoly, g2: NCPoly, h2: NCPoly) -> NCPoly:
    """Common refinement J of two factorizations G1*H1 = G2*H2 of one F.

    Requires deg G1 < deg G2 and both G factors monic in their leading
    words; returns J with G2 = G1*J and H1 = J*H2, so F = G1*J*H2.  J is
    read off as the left-quotient by G1's leading word of the part of G2
    left-divisible by that word.
    """
    f = g1 * h1
    if g2 * h2 != f:
        raise RefinementError("the two pairs do not multiply to the same polynomial")
    for p in (g1, h1, g2, h2):
        if p.is_zero() or not p.is_homogeneous():
            raise RefinementError("refinement needs nonzero homogeneous factors")
    if g1.degree() >= g2.degree():
        raise RefinementError("need deg G1 < deg G2")
    for g in (g1, g2):
        if g.leading_coefficient() != 1:
            raise RefinementError("G factors must be monic in their leading words")
    anchor = g1.leading_word()
    if left_quotient(g2.leading_word(), anchor) is None:
        raise RefinementError("no common leading-word prefix relation")
    # distinct words with the prefix `anchor` have distinct quotients, so no
    # two terms of J meet
    j = NCPoly(
        f.algebra,
        {r: c for word, c in g2._terms.items() if (r := left_quotient(word, anchor)) is not None},
    )
    if g1 * j != g2 or j * h2 != h1:
        raise RefinementError("refinement identities G2 = G1*J, H1 = J*H2 fail")
    return j
