"""General two-factor factorization with extension symbols, plus drivers.

The top homogeneous part of F fixes the top parts of both factors; lower
parts are recovered degree by degree from the relation between homogeneous
parts of F and of the factors.  Where the pivot words of the two top parts
overlap, one coefficient split is genuinely ambiguous, so a fresh extension
symbol is introduced for it and the final coefficient-matching system over
all symbols is solved exactly.  One pivot attempt settles each split and
finds every pair of it (`factor_bidegree`): over F_p its facts are the
answer, and over Q a merge keeps the concrete facts that the attempts
before it report.  A step (`_solve_step`) returns the new G and H parts and
its residuals.  The row of a word holds H_new[x] iff the word is u*x for a
G-top word u, and G_new[y] iff it is y*v for an H-top word v, so only a
word u*v[j:] where u's last j letters are v's first j holds both.  Unless
such a row couples two unknowns the overlap symbol leaves free, one pass
reads the step off: an unknown's first row in word order gives its value,
and its other rows, less their share of it, are residuals.  A coupled step
eliminates (`_eliminate`) in one pass over its rows in word order, each
reduced by the pivot rows before it.  Either way every reduction subtracts
an earlier row from a later one, as in the column-by-column rule, so all
three keep the first basis of the rows in word order, and with it the same
parts and residuals: the fact digests pin that basis, not which routine
computes it.  The recovery runs on plain coefficient dicts ({word:
{monomial: scalar}}, residues mod p over F_p, Fractions over Q) with
`freealg.add_word_product`, `commutative.axpy` and the field's `reduce`,
down to degree 0; the coefficients of g*h - f it leaves are the system, so
G and H are not multiplied again (`assemble_constraints` is the
reference).  The drivers check f and split its scalar terms ({word:
scalar}, an NCPoly's own) by degree once (`_prepare`); each split splits
the top part (`homogeneous.factor_homogeneous_terms`), and evaluates
(`freealg.evaluate_terms`) and multiplies back (`freealg.scalar_product`)
each point's pair on such dicts.  Symbolic G and H, over Q only, are
`freealg.SymbolicPoly` values on the recovery's dicts.  A residual that is
a nonzero constant ends its attempt before the solver: that equation is an
exact consequence of g*h - f = 0 for every value of the symbols.  Over F_p
the points of a one-symbol system are the common roots of its residuals,
kept as each step returns them, so its attempt ends at the first residual
that leaves none; any other system is solved by elimination
(`commutative.enumerate_solutions`):
peeling univariate equations by their roots, substituting a symbol out of
a linear equation, and the roots of a resultant of two equations in two
symbols; only where none applies does it branch over a symbol's values.
Over Q the reduced lex Groebner basis of a system with symbols both decides
the unit ideal (no factorization) and describes the admissible symbol
values; over F_p it is never needed for the answer and computed only when
read.

`factor_all` tries only the splits that f's Newton polygon and its extreme
words allow when f's words use two letters (`newton_splits`): graded by
letter counts, the polygon of a product is the Minkowski sum of its
factors' polygons, so NP(G) is a lattice summand of f's polygon, and at
each vertex of NP(f) NP(G)'s vertex is the letter counts of a prefix that
f's largest and smallest words there share.

`factor_completely` walks the lattice of the input's left divisors: a free
algebra is a domain, so the divisors of a factor L^-1*M are the quotients
by L of the divisors between L and M.  A `factor_all` whose facts are all
concrete lists every divisor of its input, so the walk factors an
interval's sub-intervals again only where the interval's own facts
include a symbolic split, which over Q hides divisors; over F_p one
`factor_all` of the input suffices.  Exact left division on scalar dicts
(`freealg.left_divide`) relates the divisors where transitivity does not,
and the chains are the paths of their cover graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from itertools import accumulate, product
from math import gcd
from typing import NamedTuple, Optional, Union

from .commutative import (
    CPoly,
    ConstraintSystem,
    Monomial,
    Reduce,
    SymbolRing,
    TermDict,
    _dense,
    _horner,
    _is_constant,
    add_product,
    axpy,
    buchberger,
    enumerate_solutions,
    monomial_degree,
    monomial_divides,
    monomial_quotient,
    reduce_groebner,
    roots_mod_p,
)
from .errors import ContextMismatchError
from .fields import PrimeField, Scalar
from .freealg import (
    NCPoly,
    ScalarTerms,
    SymbolicPoly,
    Word,
    WordTerms,
    add_word_product,
    evaluate_terms,
    left_divide,
    overlap_lengths,
    scalar_product,
    word_key,
)
# factor_homogeneous is unused here: the layer trace (perfbench/spans.py) wraps this name
from .homogeneous import factor_homogeneous, factor_homogeneous_terms


class DegreeSplit(NamedTuple):
    h: int
    k: int


Assignment = dict[str, Scalar]


@dataclass(frozen=True)
class SymbolicFactorization:
    """One factorization candidate at a fixed degree split.

    Over F_p, `left` and `right` are the concrete pair obtained by
    substituting one solution of the constraint system (recorded in
    `solutions`).  Over Q with symbols they stay symbolic (`SymbolicPoly`)
    and `solutions` is None; the reduced Groebner basis then describes all
    admissible symbol values.

    `reduced_basis` is the reduced lex Groebner basis of `system` (None for an
    empty system), computed on first read and cached; the facts of one pivot
    attempt share one system and one cache, so it is computed once per system.
    Over Q the solver reads it on every attempt with symbols, to reject the
    unit ideal, except where f uses one letter and the ideal is never (1)
    (an attempt with a constant residual computes none); over F_p, and for
    one-letter f over Q, only callers that display it do.
    """

    left: Union[NCPoly, SymbolicPoly]
    right: Union[NCPoly, SymbolicPoly]
    system: ConstraintSystem
    solutions: Optional[tuple[Assignment, ...]]
    pivots: tuple[Word, Word]
    _cache: dict = dataclass_field(default_factory=dict, compare=False, repr=False)

    @property
    def reduced_basis(self) -> Optional[tuple[CPoly, ...]]:
        if "basis" not in self._cache:
            equations = list(self.system.equations)
            self._cache["basis"] = tuple(reduce_groebner(buchberger(equations))) if equations else None
        return self._cache["basis"]

    @property
    def is_concrete(self) -> bool:
        # a fact with symbols has its overlap symbol as a coefficient of G
        return self.solutions is not None


@dataclass(frozen=True)
class FactorChain:
    """A maximal multiplication chain: irreducible factors and their `str()` texts."""

    factors: tuple[NCPoly, ...]
    texts: tuple[str, ...] = dataclass_field(compare=False)
    # always True: every chain is maximal (callers and the JSON report read it)
    complete = True


@dataclass(frozen=True)
class FactorOptions:
    """Tuning knobs shared by the factorization drivers."""

    enumeration_cap: int = 10**6

    def __post_init__(self):
        if self.enumeration_cap < 1:
            raise ValueError("enumeration cap must be positive")


DEFAULT_OPTIONS = FactorOptions()


def assemble_constraints(f: NCPoly, g: SymbolicPoly, h: SymbolicPoly) -> ConstraintSystem:
    """Coefficient-matching system for f = g*h; the reference for `_attempt_pivot`'s.

    Expands g*h - f on the symbolic pair's coefficient dicts and returns one
    equation per word with a nonzero coefficient (possibly a nonzero
    constant, which makes the system inconsistent), in descending word
    order.  Empty system means g*h = f identically.
    """
    ring = g.ring
    if not f.algebra == g.algebra == h.algebra or h.ring != ring or ring.field != f.algebra.field:
        raise ContextMismatchError(f"the pair over {ring!r} does not live in {f.algebra!r}")
    reduce = ring.field.reduce
    zero = (0,) * ring.nsymbols
    diff = {w: {zero: reduce(-c)} for w, c in f._terms.items()}
    add_word_product(diff, 1, g.terms, h.terms, reduce)
    return ConstraintSystem(
        ring, tuple(CPoly(ring, diff[w]) for w in sorted(diff, key=word_key, reverse=True))
    )


_NO_WORDS: dict[Word, Scalar] = {}


def _solve_step(
    fhat: WordTerms,
    g_words: dict[Word, Scalar],
    h_words: dict[Word, Scalar],
    h_minus_j: int,
    k_minus_j: int,
    known: dict[tuple[str, Word], TermDict],
    fld,
) -> Optional[tuple[WordTerms, WordTerms, list[TermDict]]]:
    """Solve one degree step of the recovery for the unknown factor parts.

    The relation fhat = G_top * H_new + G_new * H_top is linear in the
    coefficients of G_new and H_new: the monomial M contributes the equation

        fhat[M] = G_top[M[:h]] * H_new[M[h:]] + G_new[M[:h-j]] * H_top[M[h-j:]]

    because words concatenate uniquely at a fixed cut; `g_words` and
    `h_words` map the head words of G_top and H_top to their coefficients.
    So the row of a word holds at most one unknown of each factor, and an
    unknown of H (of G) lies in one row per head word of G_top (of H_top).
    Right-hand sides may involve extension symbols from earlier steps, and
    `known` holds unknowns the overlap symbol fixes; their rows are read
    too, with the known parts moved to the right-hand side.

    A row holds H_new[x] iff it is u*x for a head word u of G_top, and
    G_new[y] iff it is y*v for a head word v of H_top, so it holds both iff
    it is u*v[j:] where u's last j letters are v's first j: only where head
    words overlap can a row couple a G and an H unknown.  Unless some row
    reached from fhat and `known` couples two unknowns that `known` leaves
    free, every unknown has rows of its own and one pass reads the step
    off.  An unknown's value is its first row in word order, the one at its
    factor's least head word (u0*x for H_new[x], y*v0 for G_new[y]),
    divided by that head word's coefficient; with one head word that row
    is read off as it comes.  Its other rows, less their head coefficient
    times the value, and each row without an unknown are residuals.  A
    coupled step goes to `_eliminate`.  Both keep the first basis of the
    step's rows in word order, which is what the fact digests pin, not
    which routine computes it: no reduction of the read-off involves two
    unknowns.

    Returns (G_new, H_new, residuals): each part's nonzero coefficients by
    word, sharing dicts with fhat and `known`, which stay unchanged, and
    minus the right-hand sides of the rows left without an unknown, the
    nonzero coefficients of g*h - f in this degree, in descending word
    order.  Returns None as soon as a residual is a nonzero constant, which
    no value of the symbols satisfies.
    """
    reduce = fld.reduce
    h = len(next(iter(g_words)))
    # the head words whose rows hold an unknown: G_top's where H_new has
    # words, H_top's where G_new has, and none otherwise
    g_heads = g_words if k_minus_j >= 0 else _NO_WORDS
    h_heads = h_words if h_minus_j >= 0 else _NO_WORDS
    g_new: WordTerms = {}
    h_new: WordTerms = {}
    rows = fhat
    known_h = known_g = False  # whether `known` fixes an H or a G unknown
    if known:
        for (kind, word), value in known.items():
            if kind == "H":
                known_h = True
            else:
                known_g = True
            if value:
                (g_new if kind == "G" else h_new)[word] = value
            # the rows of a known unknown are read too
            for head in g_words if kind == "H" else h_words:
                m = head + word if kind == "H" else word + head
                if m not in rows:
                    if rows is fhat:
                        rows = dict(fhat)
                    rows[m] = {}
    # the rows read so far of each free unknown whose factor's top part has
    # several words, by head word
    shared: dict[tuple[str, Word], dict[Word, TermDict]] = {}
    residual_rows = []
    for m, rhs in rows.items():
        c = g_heads.get(m[:h])
        d = h_heads.get(m[h_minus_j:])
        if known_h and c is not None and (value := known.get(("H", m[h:]))) is not None:
            rhs = dict(rhs)
            axpy(rhs, -c, value, reduce)
            c = None
        if known_g and d is not None and (value := known.get(("G", m[:h_minus_j]))) is not None:
            rhs = dict(rhs)
            axpy(rhs, -d, value, reduce)
            d = None
        if d is None:
            if c is None:
                if rhs:
                    if _is_constant(rhs):
                        return None
                    residual_rows.append((m, rhs))
            elif len(g_words) > 1:
                shared.setdefault(("H", m[h:]), {})[m[:h]] = rhs
            elif rhs:
                h_new[m[h:]] = rhs if c == 1 else _scaled(rhs, fld.inv(c), reduce)
        elif c is None:
            if len(h_words) > 1:
                shared.setdefault(("G", m[:h_minus_j]), {})[m[h_minus_j:]] = rhs
            elif rhs:
                g_new[m[:h_minus_j]] = rhs if d == 1 else _scaled(rhs, fld.inv(d), reduce)
        else:
            return _eliminate(fhat, g_words, h_words, h_minus_j, k_minus_j, known, fld)
    if shared:
        # each such unknown's rows in word order; one not read above holds
        # no known part, so it couples the step if it holds the other
        # factor's unknown too
        for (kind, x), by_head in shared.items():
            heads = g_words if kind == "H" else h_words
            value = None
            for u in sorted(heads):
                m = u + x if kind == "H" else x + u
                rhs = by_head.get(u)
                if rhs is None:
                    if (m[h_minus_j:] in h_heads) if kind == "H" else (m[:h] in g_heads):
                        return _eliminate(fhat, g_words, h_words, h_minus_j, k_minus_j, known, fld)
                    rhs = {}
                c = heads[u]
                if value is None:
                    value = rhs if c == 1 else _scaled(rhs, fld.inv(c), reduce)
                    if value:
                        (h_new if kind == "H" else g_new)[x] = value
                else:
                    rest = dict(rhs)
                    axpy(rest, -c, value, reduce)
                    if rest:
                        if _is_constant(rest):
                            return None
                        residual_rows.append((m, rest))
    if not residual_rows:
        return g_new, h_new, []
    residual_rows.sort(reverse=True)  # by word alone: no word is read twice
    return g_new, h_new, [{mono: reduce(-c) for mono, c in rhs.items()} for _, rhs in residual_rows]


def _scaled(terms: TermDict, s: Scalar, reduce: Reduce) -> TermDict:
    """s*terms, as a new dict."""
    return {mono: reduce(c * s) for mono, c in terms.items()}


def _eliminate(fhat, g_words, h_words, h_minus_j, k_minus_j, known, fld):
    """`_solve_step` by elimination over the base field: same arguments, same result.

    `_solve_step` calls it only for a step in which some reached row
    couples a G and an H unknown that `known` leaves free.

    The rows reached from fhat and `known` through every head word are
    visited once, in word order.  Each is reduced by the pivot rows found so
    far, smallest column first, and becomes the pivot row of its first
    unknown left; a row with no unknown left is a residual.  Every reduction
    subtracts an earlier row from a later one, so the pivot rows are the
    first basis of the rows in word order, with the leading columns, parts
    and residuals of the rule the fact digests pin: columns in sorted order,
    each pivoting on its first remaining row in word order.  Unknowns left
    free are zero: one can be free only at a free degree, where in the
    attempt that settles a split its pair's symbol fixes it (see
    `factor_bidegree`).
    """
    reduce = fld.reduce
    h = len(next(iter(g_words)))

    # The unknowns in the row of each word reached, H's first, with their
    # head coefficients, and its right-hand side.  Entries in `known` move
    # to the right-hand side; they are nonzero data, so their rows are read
    # too, as are the other rows of an unknown.
    equations: dict[Word, tuple[dict[tuple[str, Word], Scalar], TermDict]] = {}
    pending = list(fhat)
    for kind, word in known:
        pending += [u + word for u in g_words] if kind == "H" else [word + v for v in h_words]
    while pending:
        m = pending.pop()
        if m in equations:
            continue
        coeffs, rhs = {}, fhat.get(m, {})
        if k_minus_j >= 0 and (c := g_words.get(m[:h])) is not None:
            unk = ("H", m[h:])
            if unk in known:
                rhs = dict(rhs)
                axpy(rhs, -c, known[unk], reduce)
            else:
                coeffs[unk] = c
                pending += [u + unk[1] for u in g_words]
        if h_minus_j >= 0 and (c := h_words.get(m[h_minus_j:])) is not None:
            unk = ("G", m[:h_minus_j])
            if unk in known:
                rhs = dict(rhs)
                axpy(rhs, -c, known[unk], reduce)
            else:
                coeffs[unk] = c
                pending += [unk[1] + v for v in h_words]
        equations[m] = coeffs, rhs

    # One pass in word order; a pivot row holds its own column, with
    # coefficient 1, and later ones.
    pivots: dict[tuple[str, Word], tuple[dict, TermDict]] = {}
    residuals: list[TermDict] = []  # in word order
    for _, (coeffs, rhs) in sorted(equations.items()):
        if coeffs:
            rhs = dict(rhs)  # reduced in place
        while reducible := [unk for unk in coeffs if unk in pivots]:
            col = min(reducible)
            pivot_coeffs, pivot_rhs = pivots[col]
            factor = coeffs[col]
            axpy(coeffs, -factor, pivot_coeffs, reduce)
            axpy(rhs, -factor, pivot_rhs, reduce)
        if coeffs:
            col = min(coeffs)
            inv = fld.inv(coeffs[col])
            pivots[col] = (
                {unk: reduce(c * inv) for unk, c in coeffs.items()},
                {mono: reduce(v * inv) for mono, v in rhs.items()},
            )
        elif rhs:
            if _is_constant(rhs):
                return None
            residuals.append(rhs)

    # Back-substitute; a column without a pivot row is zero.
    solution = dict(known)
    for col in sorted(pivots, reverse=True):
        coeffs, rhs = pivots[col]
        value = dict(rhs)
        for unk, c in coeffs.items():
            if unk != col and unk in solution:
                axpy(value, -c, solution[unk], reduce)
        solution[col] = value
    g_new = {word: value for (kind, word), value in solution.items() if kind == "G" and value}
    h_new = {word: value for (kind, word), value in solution.items() if kind == "H" and value}
    return g_new, h_new, [{mono: reduce(-v) for mono, v in rhs.items()} for rhs in reversed(residuals)]


# A checked input of the drivers: f and its scalar terms by degree.
_Input = tuple[NCPoly, dict[int, ScalarTerms]]


def _prepare(f: NCPoly) -> _Input:
    """Check nonzero f once for the drivers and split its terms by degree."""
    reserved = [name for name in f.algebra.alphabet.names if re.fullmatch("a[0-9]+", name)]
    if reserved:
        raise ValueError(f"variable names {tuple(reserved)} are reserved for extension symbols")
    parts: dict[int, ScalarTerms] = {}
    for w, c in f._terms.items():
        parts.setdefault(len(w), {})[w] = c
    return f, parts


Pivot = tuple[Word, Word, tuple[int, ...]]  # (g_hat, h_hat, overlap lengths)


def _attempt_pivot(
    view: _Input,
    g_head: dict[Word, Scalar],
    h_head: dict[Word, Scalar],
    pivot: Pivot,
    options: FactorOptions,
) -> Optional[list[SymbolicFactorization]]:
    """Run the degree-by-degree recovery for one pivot pair.

    Returns the attempt's factorizations, or None when its system is
    inconsistent.  The attempt that settles a split zeroes no free
    coefficient (see `factor_bidegree`), so any pair another attempt finds,
    it finds too.

    The steps run on plain coefficient dicts, and f (its terms and the
    prepared view's degree parts) and each concrete pair on scalar dicts.  The
    head coefficients are those of the top pair `factor_homogeneous_terms`
    returns, so G_top is monic and G_top*H_top is f's top part.  The
    convolution of the recovered parts runs on down to degree 0; below the
    recovered degrees a step reaches no unknown, and its residuals are
    -fhat.  The steps' residuals (see `_solve_step`) are the system, the
    equations `assemble_constraints` builds, in their order.  A nonzero
    constant residual ends the attempt before enumeration or the basis over
    Q; an attempt without symbols has only constant residuals.  Over F_p an
    attempt with one symbol keeps the common roots of its residuals as they
    arrive, ends at the first residual that leaves none, and takes them,
    ascending, as its points; `enumerate_solutions` solves every other F_p
    system, a one-symbol one without residuals included.  Over Q an
    attempt with symbols returns one symbolic fact, described by its reduced
    basis; every other attempt returns its concrete pairs, each multiplied
    back to f; a solved point whose pair does not do so raises
    AssertionError.
    """
    f, f_parts = view
    g_hat, h_hat, overlaps = pivot
    h, k = len(g_hat), len(h_hat)
    n = h + k
    fld = f.algebra.field
    reduce = fld.reduce
    symbols = tuple(f"a{i + 1}" for i in range(len(overlaps)))
    zero = (0,) * len(symbols)
    # each overlap's symbol, as a coefficient
    symbol_at = {j: {zero[:s] + (1,) + zero[s + 1 :]: fld.one} for s, j in enumerate(overlaps)}
    eta = h_head[h_hat]
    inv_gamma = fld.inv(g_head[g_hat]) if overlaps else None
    g_parts: dict[int, WordTerms] = {h: {w: {zero: c} for w, c in g_head.items()}}
    h_parts: dict[int, WordTerms] = {k: {w: {zero: c} for w, c in h_head.items()}}
    equations: list[TermDict] = []
    roots: Optional[list[int]] = None  # of the residuals so far, for one symbol over F_p
    one_symbol = fld.is_finite and len(symbols) == 1

    for j in range(1, n + 1):
        fhat = {w: {zero: c} for w, c in f_parts.get(n - j, {}).items()}
        for dg, g_part in g_parts.items():
            if dg < h and (dh := n - j - dg) < k and dh in h_parts:
                add_word_product(fhat, -1, g_part, h_parts[dh], reduce)
        known: dict[tuple[str, Word], TermDict] = {}
        if j in symbol_at:
            # The fused word g_hat * h_hat[j:] is left-divisible by g_hat and
            # right-divisible by h_hat at once, so its coefficient c splits
            # into a free part alpha (to G) and (c - alpha*eta)/gamma (to H)
            # for a fresh symbol alpha.  With one G head word the fused
            # word's row is the only one of that H unknown, and the step
            # reads (c - alpha*eta)/gamma off it; with several it need not
            # be the first, so the H part is fixed here, at the fused word.
            alpha = symbol_at[j]
            known[("G", g_hat[: h - j])] = alpha
            if len(g_head) > 1:
                rest = dict(fhat.get(g_hat + h_hat[j:], {}))
                axpy(rest, -eta, alpha, reduce)
                known[("H", h_hat[j:])] = rest if inv_gamma == 1 else _scaled(rest, inv_gamma, reduce)
        elif not fhat:
            continue  # every unknown of the step is zero
        step = _solve_step(fhat, g_head, h_head, h - j, k - j, known, fld)
        if step is None:
            return None
        g_new, h_new, residuals = step
        equations.extend(residuals)
        if one_symbol:
            for eq in residuals:
                dense = _dense(eq, 0)
                if roots is None:
                    roots = roots_mod_p(dense, fld.p)
                else:
                    roots = [t for t in roots if not _horner(dense, t, fld.p)]
                if not roots:
                    return None
        if g_new:
            g_parts[h - j] = g_new
        if h_new:
            h_parts[k - j] = h_new

    # parts of one factor have distinct degrees, so their words never collide
    g_terms = {w: c for part in g_parts.values() for w, c in part.items()}
    h_terms = {w: c for part in h_parts.values() for w, c in part.items()}
    ring = SymbolRing(fld, symbols) if symbols else f.algebra.ring
    system = ConstraintSystem(ring, tuple(CPoly(ring, eq) for eq in equations))
    if not symbols:
        solutions = [{}]
    elif not fld.is_finite:
        g_sym, h_sym = SymbolicPoly(f.algebra, ring, g_terms), SymbolicPoly(f.algebra, ring, h_terms)
        fact = SymbolicFactorization(g_sym, h_sym, system, None, (g_hat, h_hat))
        # An f in one letter is in K[x] and splits into linear factors over
        # the algebraic closure, so every split has a pair there and its
        # ideal is never (1): the basis stays unread.
        one_letter = len({a for w in f._terms for a in w}) == 1
        if not one_letter and fact.reduced_basis == (ring.one(),):
            return None  # unit ideal: no admissible symbol values
        return [fact]
    elif roots is not None:
        solutions = [{symbols[0]: t} for t in roots]
    else:
        solutions = enumerate_solutions(system, cap=options.enumeration_cap)
        if not solutions:
            return None
    # G_top's leading coefficient, 1, leads every concrete G: the pairs are
    # in the gauge of `normalize_pair` as evaluated
    cache: dict = {}
    results: list[SymbolicFactorization] = []
    for sol in solutions:
        point = tuple(sol[name] for name in symbols)
        left = evaluate_terms(g_terms, point, reduce)
        right = evaluate_terms(h_terms, point, reduce)
        if scalar_product(left, right, reduce) != f._terms:
            raise AssertionError("solved factor pair fails to multiply back to f")
        results.append(
            SymbolicFactorization(
                NCPoly(f.algebra, left), NCPoly(f.algebra, right),
                system, (sol,), (g_hat, h_hat), _cache=cache,
            )
        )
    return results


def factor_bidegree(
    f: NCPoly,
    split: Union[DegreeSplit, tuple[int, int]],
    options: FactorOptions = DEFAULT_OPTIONS,
) -> list[SymbolicFactorization]:
    """All factorizations f = G*H with deg G = h and deg H = k.

    Empty list means no factorization exists at this split.  f is checked
    and read once (`_prepare`), and the split runs on that view in
    `_factor_split`, the path `factor_all` takes at every split.  The top
    parts are forced by the homogeneous algorithm, and with them the head
    coefficients and every pivot pair's overlaps; pivots are chosen there
    and nowhere else.

    One attempt settles the split, and it zeroes no free coefficient.  Call
    j a free degree when G_top = A*E and H_top = E*B for a homogeneous E of
    degree j.  Recovery step j has a free coefficient only when
    G_top*Y = -X*H_top has a nonzero solution (X, Y) of degrees
    (h - j, k - j).  Free algebras are rigid (P. M. Cohn, Free Rings and
    Their Relations), so then j is a free degree (A = -X, B = Y), with E
    unique up to a scalar because the top pair at a split is unique, and
    the free direction (A, -B) is one-dimensional.  Each word of A*E splits
    uniquely at h - j, so supp(G_top) = supp(A) x supp(E): a pair (u, v)
    that overlaps at j puts its symbol on G's coefficient at u[:h - j],
    which the free direction moves, since A[u[:h - j]] != 0.  So the
    attempt of a pair that overlaps at every free degree finds every pair
    of the split, and when it answers nothing neither does the split.  The
    leading head pair (lead G_top, lead H_top) = (lead A*lead E,
    lead E*lead B) overlaps at every free degree, so only its overlaps are
    tried (`_free_degrees`).

    Pivot pairs are ordered by increasing overlap count.  The overlapping
    pair settles when only one overlaps, and the first pair when none does.
    With two or more overlapping pairs the first pair that overlaps at
    every free degree settles over F_p, and the leading pair over Q.  The
    settling pair fixes each fact's `solutions`, which the benchmark pools
    pin (`perfbench/workloads.py::cli_answer`).  Its facts are the answer,
    except over Q with two or more overlapping pairs: a settling attempt
    with symbols returns one symbolic fact, so a merge runs the pairs in
    order, keeps each pair from the first attempt that reports it, reuses
    the settling result at its turn, and stops once it holds every pair of
    the settling attempt.  It finds no factorization the settling attempt
    misses, but keeps the concrete facts that earlier attempts report
    (settling on an earlier pair lost 32 of the 4622 facts of the first
    3000 `scripts/fact_digest.py` inputs).
    """
    h, k = split
    if h < 1 or k < 1:
        raise ValueError(f"factor degrees must be >= 1, got ({h}, {k})")
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    view = _prepare(f)
    if f.degree() != h + k:
        raise ValueError(f"degree {f.degree()} != {h} + {k}")
    return _factor_split(view, h, options)


def _factor_split(view: _Input, h: int, options: FactorOptions) -> list[SymbolicFactorization]:
    """`factor_bidegree` at the split (h, deg f - h) of a prepared input."""
    f, parts = view
    alg = f.algebra
    top = factor_homogeneous_terms(parts[max(parts)], h, alg.field)
    if top is None:
        return []
    g_head, h_head = top
    lead = (max(g_head, key=word_key), max(h_head, key=word_key))
    if len(parts) == 1:
        # nothing below the top: the homogeneous pair is the whole answer
        pair = (NCPoly(alg, g_head), NCPoly(alg, h_head))
        return [SymbolicFactorization(*pair, ConstraintSystem(alg.ring, ()), ({},), lead)]
    if len(g_head) == len(h_head) == 1:
        # one-word top parts: their only pair settles
        return _attempt_pivot(view, g_head, h_head, (*lead, overlap_lengths(*lead)), options) or []
    pivots = sorted(
        ((u, v, overlap_lengths(u, v)) for u in g_head for v in h_head),
        key=lambda pivot: (len(pivot[2]), pivot[0], pivot[1]),
    )
    overlapping = [pivot for pivot in pivots if pivot[2]]
    if len(overlapping) > 1:
        settling = next(pivot for pivot in pivots if pivot[:2] == lead)
        if alg.field.is_finite:
            free = _free_degrees(g_head, h_head, settling[2], alg.field)
            settling = next(pivot for pivot in pivots if free.issubset(pivot[2]))
    else:
        settling = (overlapping or pivots)[0]
    settled = _attempt_pivot(view, g_head, h_head, settling, options)
    if not settled or len(overlapping) <= 1 or alg.field.is_finite:
        return settled or []
    wanted = {(fact.left, fact.right) for fact in settled}
    merged: dict[tuple[NCPoly, NCPoly], SymbolicFactorization] = {}
    for pivot in pivots:
        if pivot is settling:
            facts = settled
        else:
            facts = _attempt_pivot(view, g_head, h_head, pivot, options) or ()
        for fact in facts:
            merged.setdefault((fact.left, fact.right), fact)
        if wanted <= merged.keys():
            break
    return list(merged.values())


def _monic(terms: ScalarTerms, fld) -> ScalarTerms:
    """Nonzero terms scaled to coefficient 1 at their leading word."""
    inv = fld.inv(terms[max(terms, key=word_key)])
    return {w: fld.reduce(c * inv) for w, c in terms.items()}


def _free_degrees(g_head: ScalarTerms, h_head: ScalarTerms, overlaps: tuple[int, ...], fld) -> set[int]:
    """The free degrees of a top pair: the j with G_top = A*E and H_top = E*B, deg E = j.

    Every free degree is an overlap of the leading head words, lead(A)*lead(E)
    and lead(E)*lead(B), so only `overlaps`, the leading pair's, are tried:
    j is free when G_top's right factor of degree j and H_top's left factor
    of degree j (`factor_homogeneous_terms`) agree once both are monic.
    """
    h, k = len(next(iter(g_head))), len(next(iter(h_head)))
    free = set()
    for j in overlaps:
        g_split = (None, g_head) if j == h else factor_homogeneous_terms(g_head, h - j, fld)
        h_split = (h_head, None) if j == k else factor_homogeneous_terms(h_head, j, fld)
        if g_split and h_split and _monic(g_split[1], fld) == _monic(h_split[0], fld):
            free.add(j)
    return free


def _exact_quotient(target: TermDict, lead: Monomial, rest: TermDict, reduce: Reduce) -> Optional[TermDict]:
    """The quotient of target by the monic lead + rest, or None when there is a remainder."""
    r = dict(target)
    quotient: TermDict = {}
    while r:
        lm = max(r)
        if not monomial_divides(lead, lm):
            return None
        q = monomial_quotient(lm, lead)
        coeff = quotient[q] = r.pop(lm)
        add_product(r, -coeff, {q: 1}, rest, reduce)
    return quotient


def _smallest_divisor(
    terms: TermDict, deg: int, nsymbols: int, fld: PrimeField, budget: int
) -> tuple[int, Optional[TermDict], int]:
    """(d, quotient, budget left) for the first monic candidate of degree d that divides terms.

    Candidates run by increasing degree d <= deg/2, then by lead in
    descending lex order, then over every coefficient vector on the
    monomials below the lead; each lead spends p**(their number) of the
    budget.  Returns at once when the budget left turns negative, and
    (deg, None, budget left) when no candidate divides: terms is irreducible.
    """
    lead_t = max(terms)
    for d in range(1, deg // 2 + 1):
        monos = sorted(
            (m for m in product(range(d + 1), repeat=nsymbols) if monomial_degree(m) <= d), reverse=True
        )
        # a lead after the last monomial of degree d leaves the candidate below degree d
        last = max(i for i, m in enumerate(monos) if monomial_degree(m) == d)
        for i, lead in enumerate(monos[: last + 1]):
            # the leading monomial is multiplicative, so a divisor's must
            # divide the dividend's
            if not monomial_divides(lead, lead_t):
                continue
            tail = monos[i + 1 :]
            budget -= fld.p ** len(tail)
            if budget < 0:
                return d, None, budget
            for coeffs in product(range(fld.p), repeat=len(tail)):
                rest = {m: coeff for m, coeff in zip(tail, coeffs) if coeff}
                if max(map(monomial_degree, (lead, *rest))) == d:
                    quotient = _exact_quotient(terms, lead, rest, fld.reduce)
                    if quotient is not None:
                        return d, quotient, budget
    return deg, None, budget


def commutative_factor_degrees(c: CPoly, budget: int = 500_000) -> Optional[list[int]]:
    """Total degrees of the irreducible factors of c over F_p, with multiplicity.

    Brute-force trial division: monomial content first, then monic candidate
    divisors of increasing degree (`_smallest_divisor`).  Returns None when
    the candidate space exceeds the budget (callers must then treat every
    split as admissible).
    """
    if c.is_zero():
        raise ValueError("zero polynomial has no factor degrees")
    fld = c.ring.field
    if not isinstance(fld, PrimeField):
        return None
    # Peel off the monomial content: each variable power is a linear factor.
    content = tuple(min(m[i] for m in c._terms) for i in range(c.ring.nsymbols))
    degrees = [1] * monomial_degree(content)
    terms = {tuple(e - ct for e, ct in zip(m, content)): v for m, v in c._terms.items()}
    while True:
        deg = max(map(monomial_degree, terms))
        if deg <= 1:
            return sorted(degrees + [1] * deg)
        d, terms, budget = _smallest_divisor(terms, deg, c.ring.nsymbols, fld, budget)
        if budget < 0:
            return None
        degrees.append(d)
        if terms is None:
            return sorted(degrees)


def knapsack_splits(f: NCPoly) -> set[DegreeSplit]:
    """Degree splits admissible by the commutative-image degree filter.

    The image of a product factors as the product of the images, so a
    non-commutative factor degree must be a subset sum of the irreducible
    factor degrees of the commutative image (of f itself when the image
    keeps full degree, of the top homogeneous part otherwise).  This is a
    necessary condition only; when the image vanishes or the trial
    factorization blows `commutative_factor_degrees`' default budget, every
    split is returned.
    """
    if f.is_zero():
        raise ValueError("cannot filter splits of the zero polynomial")
    n = f.degree()
    all_splits = {DegreeSplit(b, n - b) for b in range(1, n)}
    image = f.commutative_image()
    if image.is_zero() or image.total_degree() < n:
        image = f.homogeneous_part(n).commutative_image()
        if image.is_zero():
            return all_splits
    parts = commutative_factor_degrees(image)
    if parts is None:
        return all_splits
    sums = {0}
    for a in parts:
        sums |= {s + a for s in sums}
    return {DegreeSplit(b, n - b) for b in sums if 1 <= b <= n - 1}


def newton_splits(f: NCPoly) -> set[DegreeSplit]:
    """Degree splits that the Newton polygon of f and its extreme words allow, for two letters.

    Graded by letter counts (#x, #y), K<x,y> is a domain, so in every
    direction the extreme graded component of G*H is the product of those
    of G and H, which is nonzero.  Hence the Newton polygon of G*H, the
    convex hull of the points (#x(w), #y(w)) of its words, is the Minkowski
    sum NP(G) + NP(H) (Ostrowski; S. Gao, Absolute irreducibility of
    polynomials via Newton polytopes).  So P = NP(G) is a lattice summand of
    NP(f): walking NP(f)'s vertices v_i counterclockwise, P's matching
    vertices p_i move along the same primitive edge directions u_i by
    integer lengths 0 <= c_i <= g_i, NP(f)'s, and close up.

    f's words also place each p_i.  f's component at a vertex v is G's
    component at p times H's at v - p, and each holds words of one length.
    Lex order on words of one length is compatible with concatenation on
    both sides, so f's largest word with counts v is G's largest word with
    counts p times H's, and likewise for the smallest.  So p is the letter
    counts of a prefix that f's largest and smallest words at v share in
    length, with the same counts in both; it lies in [0, v], so P and
    NP(f) - P lie in N^2.  deg G is |p| at a vertex of NP(f) where a + b is
    largest, since p is then largest on P in that direction too.

    The walk starts at such a vertex with a bit per allowed position of its
    p, and along each edge keeps, per allowed position, the bits of the
    starts that reach it; a start whose bit comes back to it closes a
    summand, and its |p| is an allowed deg G.  One letter allows every
    split, and so do three or more letters: planar projections of that
    grading cost more than they save.
    """
    if f.is_zero():
        raise ValueError("cannot filter splits of the zero polynomial")
    terms = f._terms
    n = max(map(len, terms))
    letters = set().union(*terms)
    if len(letters) != 2:
        return {DegreeSplit(b, n - b) for b in range(1, n)}
    x = min(letters)
    extremes: dict[tuple[int, int], list[Word]] = {}  # point -> [largest word, smallest word]
    for w in terms:
        a = w.count(x)
        point = (a, len(w) - a)
        pair = extremes.get(point)
        if pair is None:
            extremes[point] = [w, w]
        elif w > pair[0]:
            pair[0] = w
        elif w < pair[1]:
            pair[1] = w
    points = sorted(extremes)

    def half_hull(points):
        # the lower hull of points sorted ascending, the upper one of points
        # sorted descending, counterclockwise without its last vertex
        out = []
        for a, b in points:
            while len(out) > 1 and (out[-1][0] - out[-2][0]) * (b - out[-2][1]) <= (out[-1][1] - out[-2][1]) * (
                a - out[-2][0]
            ):
                out.pop()
            out.append((a, b))
        return out[:-1]

    def prefixes(v):
        # length -> #x of the prefixes that v's largest and smallest words share in length and counts
        high, low = extremes[v]
        counts = accumulate(map(x.__eq__, high), initial=0)
        if high is low:
            return dict(enumerate(counts))
        return {i: a for i, (a, b) in enumerate(zip(counts, accumulate(map(x.__eq__, low), initial=0))) if a == b}

    hull = half_hull(points) + half_hull(points[::-1]) or points
    top = hull.index(max(hull, key=sum))
    hull = hull[top:] + hull[:top]
    allowed = [prefixes(v) for v in hull]
    # a start is p's length at the first vertex, its bit in the mask of every position it reaches;
    # lengths 0 and n always close (G or H a constant) and are no split
    reach = {i: 1 << i for i in allowed[0] if 0 < i < n}
    # the edges from hull[k - 1] to hull[k], the last one back to hull[0]; a point has none
    for k in range(1 - len(hull), 1) if len(hull) > 1 else ():
        (a0, b0), (a1, b1) = hull[k - 1], hull[k]
        g = gcd(a1 - a0, b1 - b0)
        ua, du = (a1 - a0) // g, (a1 - a0 + b1 - b0) // g  # per primitive step: #x and length
        current, following = allowed[k - 1], allowed[k]
        extended: dict[int, int] = {}
        for i, mask in reach.items():
            a = current[i]
            for c in range(g + 1):
                j = i + c * du
                if following.get(j) == a + c * ua:
                    extended[j] = extended.get(j, 0) | mask
        reach = extended
    return {DegreeSplit(i, n - i) for i, mask in reach.items() if mask >> i & 1}


def factor_all(
    f: NCPoly, options: FactorOptions = DEFAULT_OPTIONS
) -> dict[DegreeSplit, list[SymbolicFactorization]]:
    """Factorizations of f at every split, keyed by split; empty splits are left out.

    Only the splits `newton_splits` allows are tried; the others have no
    factorization.  `knapsack_splits` is not consulted: it never changes an
    answer, and its trial division costs more than the top-part check every
    split starts with.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree() < 2:
        raise ValueError("need degree >= 2 for a nontrivial split")
    view = _prepare(f)
    return {split: facts for split in sorted(newton_splits(f)) if (facts := _factor_split(view, split.h, options))}


def factor_completely(f: NCPoly, options: FactorOptions = DEFAULT_OPTIONS) -> list[FactorChain]:
    """Maximal factorization chains of f: the maximal chains of its left divisors.

    A chain is a path 1 = D_0 | D_1 | ... | D_m = f through the monic left
    divisors of f whose steps D_(i-1)^-1*D_i are irreducible.  A free algebra
    is a domain, so the left divisors of a factor L^-1*M are L^-1*D for the
    left divisors D of f with L | D | M (P. M. Cohn, Free Rings and Their
    Relations), and a step is irreducible exactly when D_(i-1) is a lower
    cover of D_i.  One walk serves both fields: it starts from
    `factor_all(f)`, and an interval (L, M) of found divisors has its
    quotient factored again only when the facts of the interval around it
    include a symbolic split.  A `factor_all` whose facts are all concrete
    lists every divisor of its input, because the attempt that settles a
    split finds every pair of it (see `factor_bidegree`); over F_p every
    fact is concrete, so `factor_all` runs once.  Then `_cover_paths`
    relates the divisors and lists the paths from 1 to f in their cover
    graph, each built once.

    Every step lowers the degree, so the walk ends without a cap.  Chains
    are distinct, sorted by the text of their factors, and carry that text.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    found = factor_all(f, options) if f.degree() >= 2 else {}
    return _complete_chains(f, found, options)


def _complete_chains(
    f: NCPoly,
    found: dict[DegreeSplit, list[SymbolicFactorization]],
    options: FactorOptions,
) -> list[FactorChain]:
    """`factor_completely` for f, given `found = factor_all(f, options)`."""
    # each monic left divisor of f found, with its right cofactor when a fact of f gives it
    cofactors: dict[NCPoly, Optional[NCPoly]] = {}
    walked: set[tuple[NCPoly, NCPoly]] = set()

    def walk(lower: NCPoly, q: NCPoly, facts: dict[DegreeSplit, list[SymbolicFactorization]]) -> None:
        # the divisors lower*L that the concrete facts L*R of q = lower^-1*upper give
        # only the root's quotient is f (the others have lower degree), and its lower is 1
        root = q is f
        splits = [
            (fact.left if root else lower * fact.left, fact.left, fact.right)
            for split_facts in facts.values()
            for fact in split_facts
            if fact.is_concrete
        ]
        for d, _, right in splits:
            cofactors.setdefault(d, right if root else None)
        if len(splits) == sum(map(len, facts.values())):
            return  # concrete facts list every divisor of q
        for d, left, right in splits:
            for start, part in ((lower, left), (d, right)):
                if part.degree() >= 2 and (start, part) not in walked:
                    walked.add((start, part))
                    walk(start, part, factor_all(part, options))

    walk(f.algebra.one(), f, found)
    return _cover_paths(f, cofactors)


def _cover_paths(f: NCPoly, cofactors: dict[NCPoly, Optional[NCPoly]]) -> list[FactorChain]:
    """The chains of f, the paths from 1 to f through the cover graph of its divisors.

    `cofactors` holds the monic left divisors of f that were found (over
    F_p all of them, over Q those that concrete pairs show), each with its
    right cofactor in f where a fact of f gives one.  Each divisor's
    down-set is filled in ascending degree, and so is the scan over its
    candidates: a candidate i with a divisor known not to divide m cannot
    divide m, so only the candidates whose own down-set lies in m's are
    divided, and the down-set keeps each quotient divided out, as a term
    dict.  The lower covers of m are the maximal members of its down-set.
    A step above 1 is the divisor itself, and a step below f is the
    cofactor, divided out only where there is none.  Only cover steps
    become factors: each distinct step is built as an NCPoly and rendered
    once per call, however many cover edges share it.  The paths up to f
    are memoized per divisor, so each chain is built once.
    """
    alg = f.algebra
    reduce = alg.field.reduce
    elems = [alg.one(), *sorted(cofactors, key=NCPoly.degree), f]
    terms = [d._terms for d in elems]
    top = len(elems) - 1
    degree = [d.degree() for d in elems]
    # below[m] maps each index i of a divisor of elems[m] to the terms of elems[i]^-1 * elems[m]
    below: list[dict[int, Optional[ScalarTerms]]] = [{}]
    for m in range(1, top):
        down: dict[int, Optional[ScalarTerms]] = {0: terms[m]}
        for i in range(1, m):
            if degree[i] >= degree[m]:
                break
            if below[i].keys() <= down.keys():
                q = left_divide(terms[m], terms[i], reduce)
                if q is not None:
                    down[i] = q
        below.append(down)
    cofactor_terms = {i: None if (c := cofactors[elems[i]]) is None else c._terms for i in range(1, top)}
    below.append({0: f._terms, **cofactor_terms})
    # each distinct step, keyed by its terms, as (factor, text)
    steps: dict[frozenset, tuple[NCPoly, str]] = {}
    above: list[list[tuple[int, tuple[NCPoly, str]]]] = [[] for _ in elems]
    for m, down in enumerate(below):
        for i in set(down).difference(*map(below.__getitem__, down)):
            q = down[i]
            if q is None:
                q = left_divide(f._terms, terms[i], reduce)
            key = frozenset(q.items())
            step = steps.get(key)
            if step is None:
                factor = NCPoly(alg, q)
                step = steps[key] = (factor, str(factor))
            above[i].append((m, step))
    # (texts, factors) of each path from a divisor up to f
    up: list[list[tuple[tuple[str, ...], tuple[NCPoly, ...]]]] = [[] for _ in elems]
    up[top] = [((), ())]
    for i in reversed(range(top)):
        up[i] = [((text, *texts), (q, *factors)) for m, (q, text) in above[i] for texts, factors in up[m]]
    return [FactorChain(factors, texts) for texts, factors in sorted(up[0], key=lambda path: path[0])]
