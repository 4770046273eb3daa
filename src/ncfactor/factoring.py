"""General two-factor factorization with extension symbols, plus drivers.

The top homogeneous part of F fixes the top parts of both factors; lower
parts are recovered degree by degree from the relation between homogeneous
parts of F and of the factors.  Where the pivot words of the two top parts
overlap, one coefficient split is genuinely ambiguous, so a fresh extension
symbol is introduced for it and the final coefficient-matching system over
all symbols is solved exactly.  The recovery steps and the assembly of the
system compute on plain coefficient dicts ({word: {monomial: scalar}},
residues mod p over F_p, Fractions over Q) with the arithmetic NCPoly and
CPoly use (`freealg.add_word_product`, `commutative.axpy` and the field's
`reduce`); NCPoly and CPoly values are built once per attempt, for what it
returns.  A step with an equation that reduces to a nonzero constant ends
its attempt before assembly: that equation is an exact consequence of
g*h - f = 0 for every value of the symbols, so the system would be
inconsistent.  Over F_p every point is found by peeling univariate
equations (their gcd, then its roots) and branching over a symbol's values
only where no equation is univariate.  Over Q the reduced lex Groebner basis
of a system with symbols both decides the unit ideal (no factorization) and
describes the admissible symbol values; a system without symbols is empty
or a nonzero constant, and needs no basis.  Over F_p the basis is never
needed for the answer and is computed only when read.

`factor_completely` walks the lattice of the input's left divisors: a free
algebra is a domain, so the divisors of a factor L^-1*M are the quotients
by L of the divisors between L and M.  Over F_p one `factor_all` of the
input lists them all and exact left division relates them; over Q a split
with symbols stays symbolic and hides divisors, so each quotient on a chain
is factored on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import product
from typing import NamedTuple, Optional, Union

from .commutative import (
    CPoly,
    ConstraintSystem,
    Monomial,
    TermDict,
    _is_constant,
    add_product,
    axpy,
    buchberger,
    enumerate_solutions,
    monomial_degree,
    monomial_divides,
    monomial_quotient,
    reduce_groebner,
)
from .errors import ContextMismatchError
from .fields import PrimeField, Scalar
from .freealg import (
    NCPoly,
    Word,
    WordTerms,
    add_word_product,
    from_term_dicts,
    left_divide,
    normalize_pair,
    overlap_lengths,
    term_dicts,
    word_key,
)
from .homogeneous import factor_homogeneous


class DegreeSplit(NamedTuple):
    h: int
    k: int


Assignment = dict[str, Scalar]


@dataclass(frozen=True)
class SymbolicFactorization:
    """One factorization candidate at a fixed degree split.

    Over F_p, `left` and `right` are the concrete pair obtained by
    substituting one solution of the constraint system (recorded in
    `solutions`).  Over Q with a nonempty system they stay symbolic and
    `solutions` is None; the reduced Groebner basis then describes all
    admissible symbol values.

    `reduced_basis` is the reduced lex Groebner basis of `system` (None for an
    empty system), computed on first read and cached; the facts of one pivot
    attempt share one system and one cache, so it is computed once per system.
    Over Q the solver reads it on every attempt with symbols (an attempt
    stopped at a contradictory recovery step computes none); over F_p only
    callers that display it do.
    """

    left: NCPoly
    right: NCPoly
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
        return self.left.has_constant_coefficients() and self.right.has_constant_coefficients()


@dataclass(frozen=True)
class FactorChain:
    """A maximal multiplication chain; `complete` is False when the depth cap cut it."""

    factors: tuple[NCPoly, ...]
    complete: bool


@dataclass(frozen=True)
class FactorOptions:
    """Tuning knobs shared by the factorization drivers."""

    enumeration_cap: int = 10**6

    def __post_init__(self):
        if self.enumeration_cap < 1:
            raise ValueError("enumeration cap must be positive")


DEFAULT_OPTIONS = FactorOptions()
DEFAULT_DEPTH_CAP = 8


def assemble_constraints(f: NCPoly, g: NCPoly, h: NCPoly) -> ConstraintSystem:
    """Coefficient-matching system for f = g*h.

    Expands g*h - f and returns one equation per word with a nonzero
    coefficient (possibly a nonzero constant, which makes the system
    inconsistent), in descending word order.  Empty system means g*h = f
    identically.  The expansion runs on plain coefficient dicts.
    """
    if g.algebra != h.algebra:
        raise ContextMismatchError("factors live in different algebras")
    if not f.has_constant_coefficients():
        raise ValueError("f must have constant coefficients")
    ring = g.algebra.ring
    own = f.algebra.alphabet.names
    if g.algebra.alphabet.names[: len(own)] != own or f.algebra.field != ring.field:
        raise ContextMismatchError(f"{g.algebra!r} does not extend {f.algebra!r}")
    reduce = ring.field.reduce
    zero = (0,) * ring.nsymbols
    diff = {w: {zero: reduce(-c.constant_value())} for w, c in f._terms.items()}
    add_word_product(diff, 1, term_dicts(g), term_dicts(h), reduce)
    return ConstraintSystem(
        ring, tuple(CPoly(ring, diff[w]) for w in sorted(diff, key=word_key, reverse=True))
    )


def _solve_step(
    fhat: WordTerms,
    g_words: dict[Word, Scalar],
    h_words: dict[Word, Scalar],
    h_minus_j: int,
    k_minus_j: int,
    known: dict[tuple[str, Word], TermDict],
    fld,
) -> Optional[dict[tuple[str, Word], TermDict]]:
    """Solve one degree step of the recovery for the unknown factor parts.

    The relation fhat = G_top * H_new + G_new * H_top is linear in the
    coefficients of G_new and H_new: the monomial M contributes the equation

        fhat[M] = G_top[M[:h]] * H_new[M[h:]] + G_new[M[:h-j]] * H_top[M[h-j:]]

    because words concatenate uniquely at a fixed cut; `g_words` and
    `h_words` map the head words of G_top and H_top to their coefficients.
    Unknowns reachable from the support of fhat (directly or through
    cancellation against other head words) are collected by closure and the
    sparse system is solved by Gaussian elimination over the base field;
    right-hand sides may involve extension symbols from earlier steps.
    Unconstrained unknowns are set to zero; entries fixed by the overlap
    symbol arrive through `known`.  Coefficients are plain dicts
    (`TermDict`).  An unknown can be free only at a j where the leading
    head words overlap; in the attempt that settles a split, the leading
    pair's symbol fixes it (see `factor_bidegree`).

    Returns None when an equation of the step reduces to a nonzero
    constant: a word left with no unknown once the `known` entries are
    substituted, or a row that elimination empties.  That equation is an
    exact consequence of g*h - f = 0 in this degree for every value of the
    symbols, so no factorization with these top parts and these earlier
    steps exists.  Otherwise returns the solution.
    """
    reduce = fld.reduce
    h = len(next(iter(g_words)))

    def equation_monomials(unknown: tuple[str, Word]) -> list[Word]:
        kind, word = unknown
        if kind == "H":
            return [u + word for u in g_words]
        return [word + v for v in h_words]

    def monomial_unknowns(m: Word) -> list[tuple[tuple[str, Word], Scalar]]:
        # the unknowns in the equation of m, with their head coefficients
        out = []
        if k_minus_j >= 0 and m[:h] in g_words:
            out.append((("H", m[h:]), g_words[m[:h]]))
        if h_minus_j >= 0 and m[h_minus_j:] in h_words:
            out.append((("G", m[:h_minus_j]), h_words[m[h_minus_j:]]))
        return out

    unknowns: set[tuple[str, Word]] = set()
    frontier: list[tuple[str, Word]] = []

    def discover(unk: tuple[str, Word]) -> None:
        if unk not in known and unk not in unknowns:
            unknowns.add(unk)
            frontier.append(unk)

    for word in fhat:
        for unk, _ in monomial_unknowns(word):
            discover(unk)
    # Entries fixed by the overlap symbol are nonzero data: equations through
    # them can reach unknowns invisible in the support of fhat.
    frontier.extend(known)
    while frontier:
        for m in equation_monomials(frontier.pop()):
            for other, _ in monomial_unknowns(m):
                discover(other)

    monomials: set[Word] = set()
    for unk in unknowns:
        monomials.update(equation_monomials(unk))
    order = sorted(unknowns)
    index = {unk: i for i, unk in enumerate(order)}

    def equation(m: Word) -> tuple[dict[int, Scalar], TermDict]:
        # scalar coefficients on the unknowns; the right-hand side may hold
        # symbols from earlier overlap steps
        coeffs: dict[int, Scalar] = {}
        rhs = dict(fhat.get(m, {}))
        for unk, c in monomial_unknowns(m):
            if unk in known:
                axpy(rhs, -c, known[unk], reduce)
            else:
                coeffs[index[unk]] = c
        return coeffs, rhs

    # Words with no unknown left are conditions on the symbols alone.
    conditions = set(fhat)
    for unk in known:
        conditions.update(equation_monomials(unk))
    for m in conditions - monomials:
        if _is_constant(equation(m)[1]):
            return None
    rows = [equation(m) for m in sorted(monomials)]

    # Forward elimination to row echelon form.  Rows that empty out state
    # conditions on earlier symbols; they reappear in the final
    # coefficient-matching system, so they are dropped here unless they are
    # a nonzero constant.
    echelon: dict[int, tuple[dict[int, Scalar], TermDict]] = {}
    for col in range(len(order)):
        sel = next((ri for ri, (coeffs, _) in enumerate(rows) if col in coeffs), None)
        if sel is None:
            continue
        coeffs, rhs = rows.pop(sel)
        inv = fld.inv(coeffs[col])
        coeffs = {i: reduce(c * inv) for i, c in coeffs.items()}
        rhs = {m: reduce(v * inv) for m, v in rhs.items()}
        echelon[col] = (coeffs, rhs)
        remaining = []
        for other_coeffs, other_rhs in rows:
            if col in other_coeffs:
                factor = other_coeffs[col]
                merged = dict(other_coeffs)
                axpy(merged, -factor, coeffs, reduce)
                other_rhs = dict(other_rhs)
                axpy(other_rhs, -factor, rhs, reduce)
                if merged:
                    remaining.append((merged, other_rhs))
                elif _is_constant(other_rhs):
                    return None
            else:
                remaining.append((other_coeffs, other_rhs))
        rows = remaining

    # Back-substitute; free unknowns stay zero.
    solution: dict[tuple[str, Word], TermDict] = dict(known)
    for unk in order:
        solution.setdefault(unk, {})
    for col in sorted(echelon, reverse=True):
        coeffs, rhs = echelon[col]
        value = dict(rhs)
        for i, c in coeffs.items():
            if i != col:
                axpy(value, -c, solution[order[i]], reduce)
        solution[order[col]] = value
    return solution


Pivot = tuple[Word, Word, tuple[int, ...]]  # (g_hat, h_hat, overlap lengths)


def _attempt_pivot(
    f: NCPoly,
    g_top: NCPoly,
    h_top: NCPoly,
    g_head: dict[Word, Scalar],
    h_head: dict[Word, Scalar],
    pivot: Pivot,
    options: FactorOptions,
) -> Optional[list[SymbolicFactorization]]:
    """Run the degree-by-degree recovery for one pivot pair.

    Returns the attempt's factorizations, or None when its system is
    inconsistent.  The attempt that settles a split zeroes no free
    coefficient (see `factor_bidegree`); in a merge that is the leading
    pair's attempt, and any pair another attempt finds, it finds too.

    The steps run on plain coefficient dicts; NCPoly and CPoly values are
    built once, for the symbolic pair, its system and the facts.  A step
    with a contradictory equation (see `_solve_step`) ends the attempt
    before assembly.  Over Q an attempt with symbols returns one symbolic
    fact, described by its reduced basis; every other attempt returns its
    concrete pairs, each multiplied back to f.
    """
    g_hat, h_hat, overlaps = pivot
    n = f.degree()
    h, k = g_top.degree(), h_top.degree()
    fld = f.algebra.field
    symbols = tuple(f"a{i + 1}" for i in range(len(overlaps)))
    symbol_at = {j: i for i, j in enumerate(overlaps)}
    zero = (0,) * len(symbols)
    f_parts: dict[int, WordTerms] = {}
    for w, c in f._terms.items():
        f_parts.setdefault(len(w), {})[w] = {zero: c.constant_value()}
    gamma = g_head[g_hat]
    eta = h_head[h_hat]
    g_parts: dict[int, WordTerms] = {h: {w: {zero: c} for w, c in g_head.items()}}
    h_parts: dict[int, WordTerms] = {k: {w: {zero: c} for w, c in h_head.items()}}

    for j in range(1, max(h, k) + 1):
        fhat = {w: dict(c) for w, c in f_parts.get(n - j, {}).items()}
        for i in range(1, j):
            if h - i in g_parts and k - j + i in h_parts:
                add_word_product(fhat, -1, g_parts[h - i], h_parts[k - j + i], fld.reduce)
        known: dict[tuple[str, Word], TermDict] = {}
        if j in symbol_at:
            # The fused word g_hat * h_hat[j:] is left-divisible by g_hat and
            # right-divisible by h_hat at once, so its coefficient c splits
            # into a free part alpha (to G) and (c - alpha*eta)/gamma (to H)
            # for a fresh symbol alpha.
            alpha = {tuple(int(i == symbol_at[j]) for i in range(len(symbols))): fld.one}
            rest = dict(fhat.get(g_hat + h_hat[j:], {}))
            axpy(rest, -eta, alpha, fld.reduce)
            inv_gamma = fld.inv(gamma)
            known[("G", g_hat[: h - j])] = alpha
            known[("H", h_hat[j:])] = {m: fld.reduce(v * inv_gamma) for m, v in rest.items()}
        solution = _solve_step(fhat, g_head, h_head, h - j, k - j, known, fld)
        if solution is None:
            return None
        parts: dict[str, WordTerms] = {"G": {}, "H": {}}
        for (kind, word), value in solution.items():
            if value:
                parts[kind][word] = value
        if h - j >= 0:
            g_parts[h - j] = parts["G"]
        if k - j >= 0:
            h_parts[k - j] = parts["H"]

    # parts of one factor have distinct degrees, so their words never collide
    alg = f.algebra.extend_symbols(symbols)
    g_sym = from_term_dicts(alg, {w: c for part in g_parts.values() for w, c in part.items()})
    h_sym = from_term_dicts(alg, {w: c for part in h_parts.values() for w, c in part.items()})

    system = assemble_constraints(f, g_sym, h_sym)

    if fld.is_finite:
        solutions = enumerate_solutions(system, cap=options.enumeration_cap)
    elif symbols:
        fact = SymbolicFactorization(g_sym, h_sym, system, None, (g_hat, h_hat))
        if fact.reduced_basis == (alg.ring.one(),):
            return None  # unit ideal: no admissible symbol values
        return [fact]
    else:
        # no symbols: every equation is a nonzero constant
        solutions = [] if system.equations else [{}]
    if not solutions:
        return None
    cache: dict = {}
    results: list[SymbolicFactorization] = []
    seen: set[tuple[NCPoly, NCPoly]] = set()
    for sol in solutions:
        left = g_sym.substitute_symbols(sol)
        right = h_sym.substitute_symbols(sol)
        left, right = normalize_pair(left, right)
        if left * right != f:
            raise AssertionError("solved factor pair fails to multiply back to f")
        if (left, right) in seen:
            continue
        seen.add((left, right))
        results.append(
            SymbolicFactorization(left, right, system, (sol,), (g_hat, h_hat), _cache=cache)
        )
    return results


def factor_bidegree(
    f: NCPoly,
    split: Union[DegreeSplit, tuple[int, int]],
    options: FactorOptions = DEFAULT_OPTIONS,
) -> list[SymbolicFactorization]:
    """All factorizations f = G*H with deg G = h and deg H = k.

    Empty list means no factorization exists at this split.  The top parts
    are forced by the homogeneous algorithm, and with them the head
    coefficients and every pivot pair's overlaps; pivots are chosen here
    and nowhere else.  When at most one head pair overlaps, one attempt
    settles the split: the overlapping pair's if there is one, otherwise
    the first pair's.

    That attempt zeroes no free coefficient.  Recovery step j has a free
    coefficient only when G_top*Y = -X*H_top has a nonzero solution (X, Y)
    of degrees (h - j, k - j).  Free algebras are rigid (P. M. Cohn, Free
    Rings and Their Relations), so then G_top = -X*E and H_top = E*Y for
    some E of degree j, unique up to a scalar because the top pair at a
    split is unique.  The kernel is therefore one-dimensional and the
    leading words of G_top and H_top overlap at j: that is the settling
    pair, and its overlap symbol at j fixes the free coefficient.

    With two or more overlapping pairs the same argument makes the leading
    pair's attempt, (lead G_top, lead H_top), complete on its own: every
    free coefficient sits at an overlap of the leading words, where its
    symbol fixes it, so any pair another attempt finds, it finds too.
    That attempt runs first, and when it answers nothing neither does the
    split.  Otherwise the pivot pairs run in order of increasing overlap
    count, the leading pair's result is reused at its turn, and each pair
    is kept from the first attempt that reports it.  Over F_p the merge
    stops once it holds as many pairs as the leading attempt returned: no
    later attempt can add a pair or change which attempt reported one.
    Over Q symbolic facts differ from pair to pair, so the merge runs to
    the end.
    """
    h, k = split
    if h < 1 or k < 1:
        raise ValueError(f"factor degrees must be >= 1, got ({h}, {k})")
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.algebra.ring.symbols:
        raise ValueError(
            f"input algebra declares symbols {f.algebra.ring.symbols}; "
            "factor over a symbol-free algebra"
        )
    if f.degree() != h + k:
        raise ValueError(f"degree {f.degree()} != {h} + {k}")

    top = factor_homogeneous(f.homogeneous_part(f.degree()), h, k)
    if top is None:
        return []
    g_top, h_top = top
    if f.is_homogeneous():
        # nothing below the top: the homogeneous pair is the whole answer
        ring = f.algebra.ring
        system = ConstraintSystem(ring, ())
        return [
            SymbolicFactorization(
                g_top, h_top, system, (dict(),),
                (g_top.leading_word(), h_top.leading_word()),
            )
        ]

    g_head = {w: g_top.coefficient(w).constant_value() for w in g_top.words()}
    h_head = {w: h_top.coefficient(w).constant_value() for w in h_top.words()}
    pivots = sorted(
        ((u, v, overlap_lengths(u, v)) for u in g_head for v in h_head),
        key=lambda pivot: (len(pivot[2]), pivot[0], pivot[1]),
    )
    overlapping = [pivot for pivot in pivots if pivot[2]]
    if len(overlapping) <= 1:
        settling = (overlapping or pivots)[0]
        return _attempt_pivot(f, g_top, h_top, g_head, h_head, settling, options) or []
    lead = (g_top.leading_word(), h_top.leading_word())
    leading = next(pivot for pivot in pivots if pivot[:2] == lead)
    lead_facts = _attempt_pivot(f, g_top, h_top, g_head, h_head, leading, options)
    if not lead_facts:
        return []
    merged: dict[tuple[NCPoly, NCPoly], SymbolicFactorization] = {}
    for pivot in pivots:
        if pivot is leading:
            facts = lead_facts
        else:
            facts = _attempt_pivot(f, g_top, h_top, g_head, h_head, pivot, options) or ()
        for fact in facts:
            merged.setdefault((fact.left, fact.right), fact)
        if f.algebra.field.is_finite and len(merged) == len(lead_facts):
            break
    return list(merged.values())


def commutative_factor_degrees(c: CPoly, budget: int = 500_000) -> Optional[list[int]]:
    """Total degrees of the irreducible factors of c over F_p, with multiplicity.

    Brute-force trial division: monomial content first, then monic candidate
    divisors of increasing degree.  Returns None when the candidate space
    exceeds the budget (callers must then treat every split as admissible).
    """
    if c.is_zero():
        raise ValueError("zero polynomial has no factor degrees")
    fld = c.ring.field
    if not isinstance(fld, PrimeField):
        return None
    degrees: list[int] = []
    # Peel off the monomial content: each variable power is a linear factor.
    content = tuple(min(m[i] for m in c._terms) for i in range(c.ring.nsymbols))
    if any(content):
        degrees.extend([1] * monomial_degree(content))
        c = CPoly(
            c.ring,
            {tuple(e - ct for e, ct in zip(m, content)): v for m, v in c._terms.items()},
        )
    trials = 0
    monomials_by_degree: dict[int, list] = {}

    def monomials_up_to(d: int):
        if d not in monomials_by_degree:
            monos = [
                m
                for m in product(range(d + 1), repeat=c.ring.nsymbols)
                if monomial_degree(m) <= d
            ]
            monos.sort(reverse=True)
            monomials_by_degree[d] = monos
        return monomials_by_degree[d]

    def raw_divides(
        target: dict[Monomial, int], rest: dict[Monomial, int], lead: Monomial
    ) -> Optional[dict[Monomial, int]]:
        # exact division on plain dicts by the candidate lead + rest: the
        # quotient's terms, or None when there is a remainder
        r = dict(target)
        quotient: dict[Monomial, int] = {}
        while r:
            lm = max(r)
            if not monomial_divides(lead, lm):
                return None
            q = monomial_quotient(lm, lead)
            coeff = r.pop(lm)
            quotient[q] = coeff
            add_product(r, -coeff, {q: 1}, rest, fld.reduce)
        return quotient

    while True:
        deg = c.total_degree()
        if deg <= 1:
            if deg == 1:
                degrees.append(1)
            return sorted(degrees)
        lead_c = c.leading_monomial()
        raw_target = dict(c._terms)
        found = None
        for d in range(1, deg // 2 + 1):
            monos = monomials_up_to(d)
            for lead_idx, lead in enumerate(monos):
                if monomial_degree(lead) != d and all(
                    monomial_degree(m) != d for m in monos[lead_idx + 1 :]
                ):
                    break
                # the leading monomial is multiplicative, so a divisor's must
                # divide the dividend's
                if not monomial_divides(lead, lead_c):
                    continue
                tail = monos[lead_idx + 1 :]
                trials += fld.p ** len(tail)
                if trials > budget:
                    return None
                for coeffs in product(fld.elements(), repeat=len(tail)):
                    rest = {m: coeff for m, coeff in zip(tail, coeffs) if coeff}
                    if max(map(monomial_degree, (lead, *rest))) != d:
                        continue
                    quotient = raw_divides(raw_target, rest, lead)
                    if quotient is not None:
                        found = CPoly(c.ring, {lead: fld.one, **rest})
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            degrees.append(deg)
            return sorted(degrees)
        degrees.append(found.total_degree())
        c = CPoly(c.ring, quotient)


def knapsack_splits(
    f: NCPoly, budget: int = 500_000
) -> set[DegreeSplit]:
    """Degree splits admissible by the commutative-image degree filter.

    The image of a product factors as the product of the images, so a
    non-commutative factor degree must be a subset sum of the irreducible
    factor degrees of the commutative image (of f itself when the image
    keeps full degree, of the top homogeneous part otherwise).  This is a
    necessary condition only; when the image vanishes or the trial
    factorization blows its budget, every split is returned.
    """
    if f.is_zero():
        raise ValueError("cannot filter splits of the zero polynomial")
    if not f.has_constant_coefficients():
        raise ValueError("input must have constant coefficients")
    n = f.degree()
    all_splits = {DegreeSplit(b, n - b) for b in range(1, n)}
    image = f.commutative_image()
    if image.is_zero() or image.total_degree() < n:
        image = f.homogeneous_part(n).commutative_image()
        if image.is_zero():
            return all_splits
    parts = commutative_factor_degrees(image, budget=budget)
    if parts is None:
        return all_splits
    sums = {0}
    for a in parts:
        sums |= {s + a for s in sums}
    return {DegreeSplit(b, n - b) for b in sums if 1 <= b <= n - 1}


def factor_all(
    f: NCPoly, options: FactorOptions = DEFAULT_OPTIONS
) -> dict[DegreeSplit, list[SymbolicFactorization]]:
    """Factorizations of f at every split, keyed by split; empty splits are left out.

    `knapsack_splits` is not consulted: it never changes an answer, and its
    trial division costs more than the top-part check every split starts with.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree() < 2:
        raise ValueError("need degree >= 2 for a nontrivial split")
    n = f.degree()
    out: dict[DegreeSplit, list[SymbolicFactorization]] = {}
    for b in range(1, n):
        split = DegreeSplit(b, n - b)
        results = factor_bidegree(f, split, options)
        if results:
            out[split] = results
    return out


def factor_completely(
    f: NCPoly, depth_cap: int = DEFAULT_DEPTH_CAP, options: FactorOptions = DEFAULT_OPTIONS
) -> list[FactorChain]:
    """Maximal factorization chains of f, recursing over intervals of its divisors.

    A free algebra is a domain, so the left divisors of a factor L^-1*M are
    L^-1*D for the left divisors D of f with L | D | M (P. M. Cohn, Free
    Rings and Their Relations).  A chain is a path 1 = D_0 | D_1 | ... | D_m
    = f with irreducible steps D_(i-1)^-1*D_i, and the recursion runs over
    intervals (D, M) of these divisors.  Over F_p `factor_all(f)` lists every
    monic left divisor of f, so it runs once, and an interval's inner
    divisors are found by exact left division among them.  Over Q it reports
    splits with symbols symbolically, so the root's concrete facts miss
    divisors; there an interval's inner divisors come from the concrete
    facts of `factor_all` on its quotient, once per distinct quotient.

    Chains are deduplicated and sorted by the text of their factors; a branch
    cut by the depth cap is reported as an incomplete chain rather than an
    error.
    """
    if depth_cap < 1:
        raise ValueError("depth cap must be >= 1")
    found = factor_all(f, options) if f.degree() >= 2 else {}
    return _complete_chains(f, found, depth_cap, options)


def _complete_chains(
    f: NCPoly,
    found: dict[DegreeSplit, list[SymbolicFactorization]],
    depth_cap: int,
    options: FactorOptions,
) -> list[FactorChain]:
    """`factor_completely` for f, given `found = factor_all(f, options)`."""
    alg = f.algebra
    reduce = alg.field.reduce
    # divisors by index: 1 and f first, then each monic left divisor as found
    elems = [alg.one(), f]
    degree = [0, f.degree()]
    position: dict[NCPoly, int] = {}
    # quotient elems[i]^-1 * elems[j] per interval (i, j), None when there is none
    quotients: dict[tuple[int, int], Optional[NCPoly]] = {(0, 1): f}
    found_at: dict[NCPoly, dict[DegreeSplit, list[SymbolicFactorization]]] = {f: found}
    inner: dict[tuple[int, int], list[int]] = {}

    def add_divisor(i: int, j: int, left: NCPoly, right: NCPoly) -> int:
        # the index of elems[i]*left, which splits (i, j) into left and right
        d = elems[i] * left if i else left
        m = position.setdefault(d, len(elems))
        if m == len(elems):
            elems.append(d)
            degree.append(d.degree())
        quotients[(i, m)] = left
        quotients[(m, j)] = right
        return m

    def quotient(i: int, j: int) -> Optional[NCPoly]:
        if (i, j) not in quotients:
            q = left_divide(term_dicts(elems[j]), term_dicts(elems[i]), reduce)
            quotients[(i, j)] = None if q is None else from_term_dicts(alg, q)
        return quotients[(i, j)]

    def divisors_between(i: int, j: int) -> list[int]:
        if (i, j) not in inner:
            if alg.field.is_finite and (i, j) != (0, 1):
                inner[(i, j)] = [
                    m
                    for m in range(2, len(elems))
                    if degree[i] < degree[m] < degree[j]
                    and quotient(i, m) is not None
                    and quotient(m, j) is not None
                ]
            else:
                q = quotients[(i, j)]
                if q not in found_at:
                    found_at[q] = factor_all(q, options)
                inner[(i, j)] = []
                for facts in found_at[q].values():
                    for fact in facts:
                        if fact.is_concrete:
                            inner[(i, j)].append(add_divisor(i, j, fact.left, fact.right))
        return inner[(i, j)]

    memo: dict = {}

    def chains(i: int, j: int, budget: int) -> dict[tuple[int, ...], bool]:
        # boundary index paths i, ..., j -> complete
        gap = degree[j] - degree[i]
        if gap < 2:
            return {(i, j): True}
        if budget <= 0:
            return {(i, j): False}
        # a maximal chain has at most gap factors, so a budget of at least the
        # gap can never truncate and the answer is budget-free
        memo_key = (i, j, budget if budget < gap else None)
        if memo_key in memo:
            return memo[memo_key]
        collected: dict[tuple[int, ...], bool] = {}
        for m in divisors_between(i, j):
            left, right = chains(i, m, budget - 1), chains(m, j, budget - 1)
            for lpath, lcomplete in left.items():
                for rpath, rcomplete in right.items():
                    path = lpath + rpath[1:]
                    collected[path] = collected.get(path, False) or (lcomplete and rcomplete)
        # no inner divisor: the interval's quotient is irreducible
        memo[memo_key] = collected or {(i, j): True}
        return memo[memo_key]

    texts: dict[tuple[int, int], str] = {}

    def text(step: tuple[int, int]) -> str:
        if step not in texts:
            texts[step] = str(quotients[step])
        return texts[step]

    paths = sorted(
        chains(0, 1, depth_cap).items(),
        key=lambda item: tuple(text(step) for step in zip(item[0], item[0][1:])),
    )
    return [
        FactorChain(tuple(quotients[step] for step in zip(path, path[1:])), complete)
        for path, complete in paths
    ]
