import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncfactor import factoring
from ncfactor.cli import Request, run
from ncfactor.commutative import SymbolRing
from ncfactor.errors import BudgetExceededError, SearchSpaceTooLargeError
from ncfactor.factoring import (
    DEFAULT_OPTIONS,
    DegreeSplit,
    FactorOptions,
    assemble_constraints,
    commutative_factor_degrees,
    factor_all,
    factor_bidegree,
    factor_completely,
    knapsack_splits,
)
from ncfactor.fields import PrimeField, RationalField
from ncfactor.freealg import Alphabet, FreeAlgebra, normalize_pair, overlap_lengths
from ncfactor.homogeneous import factor_homogeneous
from ncfactor.oracle import brute_force_factor, chain_family, random_factorable
from ncfactor.commutative import reduce_groebner, buchberger


def algebra(p=5):
    field = PrimeField(p) if p else RationalField()
    return FreeAlgebra(Alphabet(("x", "y")), SymbolRing(field, ()))


ALG = algebra()
W = ALG.alphabet.word


def one_letter(p):
    return FreeAlgebra(Alphabet(("x",)), SymbolRing(PrimeField(p), ()))


def product_of(factors):
    prod = factors[0]
    for part in factors[1:]:
        prod = prod * part
    return prod


def pair_set(facts):
    return {(f.left, f.right) for f in facts}


class TestFactorBidegree:
    @pytest.mark.parametrize("p", [5, 7])
    def test_quintic_example(self, p):
        alg = algebra(p)
        f = alg.from_text("y*x*y*x*y - y")
        facts = factor_bidegree(f, (2, 3))
        assert len(facts) == 2
        expected = {
            (alg.from_text("y*x - 1"), alg.from_text("y*x*y + y")),
            (alg.from_text("y*x + 1"), alg.from_text("y*x*y - y")),
        }
        assert pair_set(facts) == expected
        ring = facts[0].system.ring
        a = ring.symbol("a1")
        assert list(facts[0].reduced_basis) == [a * a - 1]

    def test_degree_one_split(self):
        f = ALG.from_text("y*x*y*x*y - y")
        facts = factor_bidegree(f, (1, 4))
        assert pair_set(facts) == {
            (ALG.from_text("y"), ALG.from_text("x*y*x*y - 1"))
        }
        assert facts[0].system.equations == ()

    def test_irreducible_head_prunes_split(self):
        assert factor_bidegree(ALG.from_text("x*x - y*y"), (1, 1)) == []

    @pytest.mark.parametrize(
        "p,text,split,pivots,pairs",
        [
            # head pairs (xy, x) and (yy, x); neither overlaps, so the first
            # pair's attempt settles the split
            (
                5, "(x*y + y*y + 1)*(x + 2)", (2, 1),
                [(W("xy"), W("x"), ())],
                [("y^2 + x*y + 1", "x + 2")],
            ),
            # head pairs (x, yx) and (y, yx); only the second overlaps, so its
            # attempt settles the split without running the first
            (
                5, "(x + y + 1)*(y*x + 2)", (1, 2),
                [(W("y"), W("yx"), (1,))],
                [("y + x + 1", "y*x + 2")],
            ),
            # (x, xy) and (y, yy) both overlap: the leading pair (y, yy) runs
            # first, then the others in order, and its result is reused
            (
                5, "(y + x + 1)*(y^2 + x*y)", (1, 2),
                [
                    (W("y"), W("yy"), (1,)),
                    (W("x"), W("yy"), ()),
                    (W("y"), W("xy"), ()),
                    (W("x"), W("xy"), (1,)),
                ],
                [("y + x + 1", "y^2 + x*y"), ("y + x", "y^2 + x*y + y")],
            ),
            # the same heads, and the leading pair's attempt answers nothing,
            # so no other attempt runs (the exhaustive oracle finds no pair
            # over F_5 either)
            (
                5, "(y + x + 1)*(y^2 + x*y) + x", (1, 2),
                [(W("y"), W("yy"), (1,))],
                [],
            ),
            (
                None, "(y + x + 1)*(y^2 + x*y) + x", (1, 2),
                [(W("y"), W("yy"), (1,))],
                [],
            ),
            # (x, xy) and (x, xx) overlap, so the leading pair (y, xy) settles;
            # the merge runs (y, xx), reaches the settling result and stops,
            # on both fields, once it holds every pair of the settling attempt
            (
                None, "(y - 3*x - 1)*(3*x*y - 2*x^2)", (1, 2),
                [(W("y"), W("xy"), ()), (W("y"), W("xx"), ())],
                [("y - 3*x - 1", "3*x*y - 2*x^2")],
            ),
            (
                5, "(y - 3*x - 1)*(3*x*y - 2*x^2)", (1, 2),
                [(W("y"), W("xy"), ()), (W("y"), W("xx"), ())],
                [("y + 2*x + 4", "3*x*y + 3*x^2")],
            ),
        ],
        ids=[
            "no-overlap", "one-overlap", "two-overlaps",
            "leading-answers-nothing-F5", "leading-answers-nothing-Q",
            "merge-stops-Q", "merge-stops-F5",
        ],
    )
    def test_only_the_settling_pivot_runs(self, p, text, split, pivots, pairs, monkeypatch):
        calls = []
        attempt = factoring._attempt_pivot

        def counted(*args):
            calls.append(args[5])
            return attempt(*args)

        monkeypatch.setattr(factoring, "_attempt_pivot", counted)
        facts = factor_bidegree(algebra(p).from_text(text), split)
        assert calls == pivots
        assert [(str(fact.left), str(fact.right)) for fact in facts] == pairs

    @pytest.mark.parametrize("p", [2, 5, None])
    def test_contradictory_step_ends_the_attempt(self, p, monkeypatch):
        # the top x*y factors as x * y, but the degree-1 word z has no
        # unknown in the first recovery step: no system is assembled or solved
        calls = []

        def counting(name):
            fn = getattr(factoring, name)

            def counted(*args):
                calls.append(name)
                return fn(*args)

            return counted

        for name in ("assemble_constraints", "enumerate_solutions", "buchberger"):
            monkeypatch.setattr(factoring, name, counting(name))
        field = PrimeField(p) if p else RationalField()
        alg = FreeAlgebra(Alphabet(("x", "y", "z")), SymbolRing(field, ()))
        assert factor_bidegree(alg.from_text("x*y + z"), (1, 1)) == []
        assert calls == []

    def test_split_must_match_degree(self):
        with pytest.raises(ValueError):
            factor_bidegree(ALG.from_text("x*y"), (2, 2))

    @pytest.mark.parametrize("symbol", ["b", "a1"])
    def test_algebra_declaring_symbols_rejected(self, symbol):
        alg = FreeAlgebra(Alphabet(("x", "y")), SymbolRing(PrimeField(5), (symbol,)))
        f = alg.from_text("y*x*y*x*y - y")
        with pytest.raises(ValueError, match="declares symbols"):
            factor_bidegree(f, (2, 3))
        with pytest.raises(ValueError, match="declares symbols"):
            factor_all(f)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_bidegree(ALG.zero(), (1, 1))

    def test_round_trip_of_every_result(self):
        for seed in range(40):
            f, g, h = random_factorable(seed, PrimeField(3), 2, 2, term_cap=3)
            for fact in factor_bidegree(f, (2, 2)):
                assert fact.left * fact.right == f
                assert fact.left.leading_coefficient() == f.algebra.ring.one()

    def test_enumeration_cap_propagates(self):
        # no equation of the (2,2) system is univariate: solving it branches
        f = ALG.from_text("(3*y*y + 1 + 2*y)*(4*y*y + 2 + 3*y)")
        with pytest.raises(SearchSpaceTooLargeError):
            factor_bidegree(f, (2, 2), FactorOptions(enumeration_cap=4))

    def test_rationals_concrete_when_no_symbols(self):
        alg = algebra(None)
        f = alg.from_text("y*x*y*x*y - y")
        facts = factor_bidegree(f, (1, 4))
        assert len(facts) == 1 and facts[0].is_concrete
        assert facts[0].solutions == ({},)

    def test_rationals_symbolic_description(self):
        alg = algebra(None)
        f = alg.from_text("y*x*y*x*y - y")
        facts = factor_bidegree(f, (2, 3))
        assert len(facts) == 1
        fact = facts[0]
        assert fact.solutions is None
        assert not fact.is_concrete
        ring = fact.system.ring
        a = ring.symbol("a1")
        assert list(fact.reduced_basis) == [a * a - 1]
        # substituting either admissible value of the symbol gives a factorization
        for value in (1, -1):
            left = fact.left.substitute_symbols({"a1": value})
            right = fact.right.substitute_symbols({"a1": value})
            assert left * right == f

    @pytest.mark.parametrize(
        "text,split",
        [
            ("y*x*y*x*y - y + x", (2, 3)),  # the system in a1 is the unit ideal
            ("x*y + 1", (1, 1)),  # no symbols; the system is a nonzero constant
        ],
    )
    def test_rationals_unit_ideal_has_no_factorization(self, text, split):
        assert factor_bidegree(algebra(None).from_text(text), split) == []

    def test_rationals_without_symbols_take_no_basis(self, monkeypatch):
        # a system without symbols is empty or a nonzero constant
        def no_basis(*args):
            raise AssertionError("Groebner basis of a symbol-free system")

        monkeypatch.setattr(factoring, "buchberger", no_basis)
        assert factor_bidegree(algebra(None).from_text("x*y + 1"), (1, 1)) == []
        facts = factor_bidegree(algebra(None).from_text("y*x*y*x*y - y"), (1, 4))
        assert [(str(fact.left), str(fact.right)) for fact in facts] == [("y", "x*y*x*y - 1")]

    def test_symbol_economy(self):
        # pivots minimize the overlap count and produce one symbol per overlap
        f = ALG.from_text("y*x*y*x*y - y")
        facts = factor_bidegree(f, (2, 3))
        g_hat, h_hat = facts[0].pivots
        assert len(facts[0].system.symbols) == len(overlap_lengths(g_hat, h_hat))
        from ncfactor.homogeneous import factor_homogeneous

        g_top, h_top = factor_homogeneous(f.homogeneous_part(5), 2, 3)
        minimum = min(
            len(overlap_lengths(u, v))
            for u in g_top.words()
            for v in h_top.words()
        )
        assert len(facts[0].system.symbols) == minimum


class TestScanAmbiguities:
    """Inputs where a monomial is explainable through a non-pivot head word.

    A naive quotient scan forces wrong coefficients on these; the per-step
    linear solve and the merge across pivot attempts recover the full
    solution set.  Each case is cross-checked against the exhaustive oracle.
    """

    def _check(self, f, split, exhaustive=True):
        mine = pair_set(factor_bidegree(f, split))
        oracle = {
            (g, h)
            for g, h in brute_force_factor(
                f, split, exhaustive=exhaustive, budget=10**7
            )
        }
        assert mine == oracle
        return mine

    def test_cross_assignment_through_nonpivot_head_word(self):
        alg = algebra(2)
        f = alg.from_text("(y^2 + x*y + 1) * (y + 1)")
        assert len(self._check(f, (2, 1))) == 1

    def test_underdetermined_step_needs_overlap_pivot(self):
        # (y+x+1)(y^2+xy) = (y+x)(y^2+xy+y): the overlap-free pivot pair sees
        # only one member of the family; the overlap pair parametrizes both
        alg = algebra(2)
        f = alg.from_text("(y + x + 1) * (y^2 + x*y)")
        assert len(self._check(f, (1, 2))) == 2

    def test_leading_pair_answering_nothing(self):
        # (x, xy) and (y, yy) both overlap and the leading pair (y, yy)
        # answers nothing, so factor_bidegree runs no other attempt
        f = ALG.from_text("(y + x + 1)*(y^2 + x*y) + x")
        assert self._check(f, (1, 2)) == set()

    def test_cancellation_kernel_invisible_in_support(self):
        # (y^3+yxy)(y^3+1) = (y^3+yxy+y^2+yx)(y^3+y^2+y): the second pair's
        # middle parts cancel entirely in degree 5, so the step system is
        # seeded only through the overlap symbol
        alg = algebra(2)
        f = alg.from_text("(y^3 + y*x*y) * (y^3 + 1)")
        # exhaustive enumeration is out of budget at degree 6; the
        # prefix/suffix-restricted oracle covers both pairs here
        assert len(self._check(f, (3, 3), exhaustive=False)) == 2


def _random_poly(draw, alg, degree, max_terms):
    """A word of the given degree plus up to max_terms - 1 terms of at most that degree."""
    letters = st.integers(0, alg.alphabet.size - 1)
    if alg.field.is_finite:
        coeff = st.integers(1, alg.field.p - 1)
    else:
        coeff = st.sampled_from([-2, -1, 1, 2])

    def word(d):
        return tuple(draw(st.lists(letters, min_size=d, max_size=d)))

    f = alg.monomial(word(degree), draw(coeff))
    for _ in range(draw(st.integers(0, max_terms - 1))):
        f = f + alg.monomial(word(draw(st.integers(0, degree))), draw(coeff))
    return f


@st.composite
def products_and_perturbations(draw, primes=(2, 3, 5)):
    # a prime of None draws the product over Q
    p = draw(st.sampled_from(primes))
    names = ("x", "y", "z")[: draw(st.integers(2, 3))]
    alg = FreeAlgebra(Alphabet(names), SymbolRing(PrimeField(p) if p else RationalField(), ()))
    if draw(st.booleans()):
        # factors sharing a middle part E (G_top = A*E, H_top = E*B): the
        # shape whose recovery steps can be underdetermined
        e = draw(st.integers(1, 2))
        a, b = draw(st.integers(0, 3 - e)), draw(st.integers(0, 3 - e))
        middle = _random_poly(draw, alg, e, 2)
        left = _random_poly(draw, alg, a, 2) * middle + _random_poly(draw, alg, a + e - 1, 2)
        right = middle * _random_poly(draw, alg, b, 2) + _random_poly(draw, alg, e + b - 1, 2)
        f, h, k = left * right, a + e, e + b
    else:
        h, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        f = _random_poly(draw, alg, h, 3) * _random_poly(draw, alg, k, 3)
    if draw(st.booleans()):
        f = f + _random_poly(draw, alg, draw(st.integers(0, h + k)), 1)
    return f, (h, k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(products_and_perturbations())
def test_factor_bidegree_matches_oracle(case):
    # equal to the exhaustive oracle where it fits its budget; otherwise no
    # pair of the prefix/suffix-restricted oracle may be missing
    f, split = case
    assume(not f.is_zero() and f.degree() == sum(split))
    mine = pair_set(factor_bidegree(f, split))
    try:
        exhaustive = brute_force_factor(f, split, exhaustive=True, budget=3000)
    except BudgetExceededError:
        pass
    else:
        assert mine == exhaustive
        return
    try:
        restricted = brute_force_factor(f, split, budget=3000)
    except BudgetExceededError:
        return
    assert restricted <= mine


def _every_pivot_attempt(f, split):
    """The leading pair's attempt and every pivot's attempt at a split, or None
    when the split has no top pair or nothing below it."""
    top = factor_homogeneous(f.homogeneous_part(f.degree()), *split)
    if top is None or f.is_homogeneous():
        return None
    g_top, h_top = top
    g_head = {w: g_top.coefficient(w).constant_value() for w in g_top.words()}
    h_head = {w: h_top.coefficient(w).constant_value() for w in h_top.words()}
    attempts = {
        (u, v): factoring._attempt_pivot(
            f, g_top, h_top, g_head, h_head, (u, v, overlap_lengths(u, v)), DEFAULT_OPTIONS
        )
        for u in g_head
        for v in h_head
    }
    return attempts[g_top.leading_word(), h_top.leading_word()], attempts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(products_and_perturbations())
def test_leading_pair_attempt_is_complete(case):
    # every pair any pivot attempt finds, the leading pair's attempt finds,
    # and factor_bidegree returns exactly those pairs
    f, split = case
    assume(not f.is_zero() and f.degree() == sum(split))
    found = _every_pivot_attempt(f, split)
    assume(found is not None)
    leading, attempts = found
    union = set().union(*(pair_set(facts or ()) for facts in attempts.values()))
    assert pair_set(leading or ()) == union
    assert pair_set(factor_bidegree(f, split)) == union


@settings(max_examples=40, deadline=None, derandomize=True)
@given(products_and_perturbations(primes=(None,)))
def test_leading_pair_answering_nothing_over_rationals(case):
    f, split = case
    assume(not f.is_zero() and f.degree() == sum(split))
    found = _every_pivot_attempt(f, split)
    assume(found is not None)
    leading, attempts = found
    if leading is None:
        assert all(facts is None for facts in attempts.values())
        assert factor_bidegree(f, split) == []


def _is_point_of(pair, fact):
    """Whether a concrete pair is the symbolic fact at a root of its system."""
    left, right = pair
    # each symbol is the fact's G-coefficient at one word; read its value off left
    point = {
        name: left.coefficient(w).constant_value()
        for name in fact.system.symbols
        for w in fact.left.words()
        if fact.left.coefficient(w) == fact.system.ring.symbol(name)
    }
    return (
        len(point) == len(fact.system.symbols)
        and all(eq.evaluate(point) == 0 for eq in fact.system.equations)
        and (fact.left.substitute_symbols(point), fact.right.substitute_symbols(point)) == pair
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(products_and_perturbations(primes=(None,)))
def test_merge_over_rationals_keeps_every_reported_pair(case):
    # every fact of the settling attempt, and every concrete pair any pivot
    # attempt returns, appears in factor_bidegree's answer; only a split
    # settled by one attempt may describe such a pair by its symbolic fact
    f, split = case
    assume(not f.is_zero() and f.degree() == sum(split))
    found = _every_pivot_attempt(f, split)
    assume(found is not None)
    leading, attempts = found
    overlapping = [pivot for pivot in attempts if overlap_lengths(*pivot)]
    settled = leading if len(overlapping) > 1 else attempts[min(overlapping or attempts)]
    facts = factor_bidegree(f, split)
    answer = pair_set(facts)
    assert pair_set(settled or ()) <= answer
    for attempt in attempts.values():
        for fact in attempt or ():
            if fact.is_concrete and (fact.left, fact.right) not in answer:
                assert len(overlapping) <= 1
                assert any(_is_point_of((fact.left, fact.right), kept) for kept in facts)


class TestAssembleConstraints:
    def test_quintic_overlap_system(self):
        sym = ALG.extend_symbols(("a1",))
        a = sym.ring.symbol("a1")
        g = sym.from_text("y*x") - sym.monomial((), a)
        h = sym.from_text("y*x*y") + sym.monomial(sym.alphabet.word("y"), a)
        f = ALG.from_text("y*x*y*x*y - y")
        system = assemble_constraints(f, g, h)
        assert len(system.equations) == 1
        assert reduce_groebner(buchberger(list(system.equations))) == [a * a - 1]

    def test_exact_product_gives_empty_system(self):
        g = ALG.from_text("y*x - 1")
        h = ALG.from_text("y*x*y + y")
        f = g * h
        assert assemble_constraints(f, g, h).equations == ()

    @pytest.mark.parametrize("p", [2, 5, 101, None])
    def test_matches_ncpoly_expansion(self, p):
        # seeded symbolic pairs with 0-3 symbols; f keeps the constant part of
        # g*h, so some words cancel, plus one random monomial
        field = PrimeField(p) if p else RationalField()
        base = FreeAlgebra(Alphabet(("x", "y")), SymbolRing(field, ()))
        for seed in range(40):
            rng = random.Random(seed)
            sym = base.extend_symbols(tuple(f"a{i + 1}" for i in range(seed % 4)))
            ring = sym.ring

            def coeff():
                value = ring.constant(rng.choice([-2, -1, 1, 2, 3]))
                for name in ring.symbols:
                    if rng.random() < 0.4:
                        value = value + ring.symbol(name) * rng.randint(1, 3)
                return value

            def poly(degree):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    word = tuple(rng.randrange(2) for _ in range(rng.randint(0, degree)))
                    terms[word] = coeff()
                return sym.poly(terms)

            g, h = poly(2), poly(3)
            zero = (0,) * ring.nsymbols
            f = base.poly({w: c.coefficient(zero) for w, c in (g * h)._terms.items()})
            f = f + base.monomial(tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))), 1)
            if f.is_zero():
                f = base.one()
            expected = tuple(c for _, c in (g * h - f.lift(sym)).terms())
            assert assemble_constraints(f, g, h).equations == expected

    def test_wrong_product_gives_constant_contradiction(self):
        g = ALG.from_text("y*x")
        h = ALG.from_text("y*x*y")
        f = ALG.from_text("y*x*y*x*y - y")
        system = assemble_constraints(f, g, h)
        assert any(eq.is_constant() and not eq.is_zero() for eq in system.equations)


class TestKnapsackSplits:
    def test_irreducible_image_leaves_no_splits(self):
        # x*y + 1 has irreducible commutative image of full degree
        f = ALG.from_text("x*y + 1")
        assert knapsack_splits(f) == set()

    def test_quintic_splits(self):
        f = ALG.from_text("y*x*y*x*y - y")
        assert knapsack_splits(f) == {
            DegreeSplit(1, 4),
            DegreeSplit(2, 3),
            DegreeSplit(3, 2),
            DegreeSplit(4, 1),
        }

    def test_commutative_factorization_drives_splits(self):
        f = ALG.from_text("x*x + x*y - y*x - y*y")  # image x^2 - y^2
        assert knapsack_splits(f) == {DegreeSplit(1, 1)}

    def test_vanishing_image_falls_back_to_top_part(self):
        # image of x*y - y*x is 0; the top part is the whole polynomial here,
        # so every split of the degree survives
        f = ALG.from_text("x*y - y*x")
        assert knapsack_splits(f) == {DegreeSplit(1, 1)}

    def test_filter_soundness_on_random_products(self):
        for seed in range(60):
            dg = 1 + seed % 2
            dh = 1 + (seed // 2) % 2
            f, g, h = random_factorable(seed, PrimeField(2), dg, dh, term_cap=3)
            splits = knapsack_splits(f)
            n = f.degree()
            for b in range(1, n):
                found = brute_force_factor(f, (b, n - b), budget=10**6)
                if found:
                    assert DegreeSplit(b, n - b) in splits


class TestCommutativeFactorDegrees:
    def test_quintic_image_degrees(self):
        img = ALG.from_text("y*x*y*x*y - y").commutative_image()
        assert commutative_factor_degrees(img) == [1, 2, 2]

    def test_monomial_content(self):
        ring = SymbolRing(PrimeField(5), ("x", "y"))
        c = ring.poly({(2, 1): 3})
        assert commutative_factor_degrees(c) == [1, 1, 1]

    def test_budget_exhaustion_returns_none(self):
        img = ALG.from_text("y*x*y*x*y - y").commutative_image()
        assert commutative_factor_degrees(img, budget=10) is None

    def test_rationals_unsupported(self):
        alg = algebra(None)
        img = alg.from_text("x*y + 1").commutative_image()
        assert commutative_factor_degrees(img) is None


class TestFactorAll:
    def test_quintic_all_splits(self):
        f = ALG.from_text("y*x*y*x*y - y")
        result = factor_all(f)
        assert set(result) == {
            DegreeSplit(1, 4),
            DegreeSplit(2, 3),
            DegreeSplit(3, 2),
            DegreeSplit(4, 1),
        }
        assert pair_set(result[DegreeSplit(1, 4)]) == {
            (ALG.from_text("y"), ALG.from_text("x*y*x*y - 1"))
        }
        assert pair_set(result[DegreeSplit(4, 1)]) == {
            (ALG.from_text("y*x*y*x - 1"), ALG.from_text("y"))
        }
        assert len(result[DegreeSplit(2, 3)]) == 2
        assert len(result[DegreeSplit(3, 2)]) == 2

    def test_factor_all_tries_every_split(self):
        # factor_all is factor_bidegree at every split, and the degree filter
        # still admits every split that has an answer
        polys = [ALG.from_text("y*x*y*x*y - y")]
        for seed in range(40):
            field = PrimeField(2 + seed % 2)
            f, _, _ = random_factorable(seed, field, 1 + seed % 3, 1 + (seed // 3) % 3, term_cap=3)
            polys.append(f)
        for f in polys:
            n = f.degree()
            expected = {}
            for b in range(1, n):
                facts = factor_bidegree(f, (b, n - b))
                if facts:
                    expected[DegreeSplit(b, n - b)] = pair_set(facts)
            result = factor_all(f)
            assert {s: pair_set(v) for s, v in result.items()} == expected
            assert set(result) <= knapsack_splits(f)

    def test_skipped_attempt_cannot_stop_the_input(self):
        # a merge attempt after the leading pair's needs 101^3 points here;
        # the leading pair's attempt answers every split without it
        alg = algebra(101)
        f = alg.from_text(
            "26*x^5*y + 41*x^6 + 92*x^4*y + 16*x^5 + 65*x^4 + 6*x^2*y + 25*x^3 + 24*x^2"
        )
        result = factor_all(f)
        assert {tuple(split): len(facts) for split, facts in result.items()} == {
            (1, 5): 2, (2, 4): 3, (3, 3): 3, (4, 2): 2, (5, 1): 1,
        }
        for facts in result.values():
            for fact in facts:
                assert fact.left * fact.right == f

    def test_irreducible_polynomial_empty(self):
        assert factor_all(ALG.from_text("x*x - y*y")) == {}

    def test_monomial(self):
        result = factor_all(ALG.from_text("x*x"))
        assert set(result) == {DegreeSplit(1, 1)}
        assert pair_set(result[DegreeSplit(1, 1)]) == {
            (ALG.from_text("x"), ALG.from_text("x"))
        }

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            factor_all(ALG.from_text("x"))


class TestFactorCompletely:
    def test_quintic_chains(self):
        f = ALG.from_text("y*x*y*x*y - y")
        chains = factor_completely(f)
        rendered = {tuple(str(p) for p in ch.factors) for ch in chains if ch.complete}
        assert ("y", "x*y + 4", "x*y + 1") in rendered
        assert ("y*x + 4", "y", "x*y + 1") in rendered
        assert ("y*x + 4", "y*x + 1", "y") in rendered
        assert all(ch.complete and product_of(ch.factors) == f for ch in chains)

    def test_irreducible_single_chain(self):
        f = ALG.from_text("x*x - y*y")
        chains = factor_completely(f)
        assert len(chains) == 1
        assert chains[0].factors == (f,) and chains[0].complete

    def test_monomial_cube(self):
        f = ALG.from_text("x*x*x")
        chains = factor_completely(f)
        assert len(chains) == 1
        assert tuple(str(p) for p in chains[0].factors) == ("x", "x", "x")

    def test_ten_factors_make_one_whole_chain(self):
        # a chain longer than any fixed depth is listed whole, never cut
        f = one_letter(2).from_text("x^10")
        chains = factor_completely(f)
        assert len(chains) == 1 and chains[0].complete
        assert tuple(str(p) for p in chains[0].factors) == ("x",) * 10

    def test_repeated_factor_chains_are_the_orderings_of_its_factors(self):
        # x^9 * (x^2 + x + 1) over F_2: one chain per place of the quadratic
        alg = one_letter(2)
        f = alg.from_text("x^11 + x^10 + x^9")
        chains = factor_completely(f)
        assert len(chains) == 10 and all(ch.complete for ch in chains)
        for ch in chains:
            assert sorted(str(p) for p in ch.factors) == ["x"] * 9 + ["x^2 + x + 1"]
            assert product_of(ch.factors) == f

    # sympy warns from its own sort of the factors it returns mod p
    @pytest.mark.filterwarnings("ignore:(?s).*Ordered comparisons with modular integers")
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_one_letter_chain_counts_match_sympy(self, p):
        # K<x> is K[x], a UFD: the maximal chains are the distinct orderings
        # of the irreducible factors, (sum m_i)! / prod m_i! of them
        sympy = pytest.importorskip("sympy")
        alg = one_letter(p)
        rng = random.Random(p)
        for _ in range(40):
            degree = rng.randint(2, 8)
            coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(degree)]
            f = alg.zero()
            for k, c in enumerate(reversed(coeffs)):
                f = f + alg.monomial((0,) * k, c)
            x = sympy.Symbol("x")
            _, factors = sympy.factor_list(sum(c * x**k for k, c in enumerate(reversed(coeffs))), modulus=p)
            mults = [m for _, m in factors]
            expected = math.factorial(sum(mults)) // math.prod(math.factorial(m) for m in mults)
            chains = factor_completely(f)
            assert len(chains) == expected, f
            assert all(product_of(ch.factors) == f for ch in chains)

    def test_one_factor_all_over_fp(self, monkeypatch):
        # factor_all(f) lists every monic left divisor of f, and the chains
        # are paths through them: no sub-factor is factored again
        calls = []
        real = factoring.factor_all
        monkeypatch.setattr(
            factoring, "factor_all", lambda poly, options: calls.append(poly) or real(poly, options)
        )
        f, _ = chain_family(PrimeField(7), [1, 2, 3, 4])
        chains = factor_completely(f)
        assert calls == [f]
        assert len(chains) == 120
        assert all(ch.complete and product_of(ch.factors) == f for ch in chains)

    @pytest.mark.parametrize(
        "text,quotient,expected",
        [
            ("3*y*x^2 - 3*x^2", "3*x^2", ("y - 1", "x", "3*x")),
            ("y^3*x + 2*y^3", "y^3", ("y", "y", "y", "x + 2")),
        ],
    )
    def test_rationals_factor_each_quotient(self, monkeypatch, text, quotient, expected):
        # the root answers some splits only symbolically, so its concrete
        # facts miss divisors; a quotient's own concrete split supplies them
        # (chains as recorded before the divisor-interval recursion)
        alg = algebra(None)
        calls = []
        real = factoring.factor_all
        monkeypatch.setattr(
            factoring, "factor_all", lambda poly, options: calls.append(poly) or real(poly, options)
        )
        f = alg.from_text(text)
        chains = factor_completely(f)
        assert [(tuple(str(p) for p in ch.factors), ch.complete) for ch in chains] == [
            (expected, True)
        ]
        assert calls[0] == f and alg.from_text(quotient) in calls[1:]


class TestChainFamilyProperty:
    @pytest.mark.parametrize(
        "p,roots", [(5, [1, -1]), (7, [1, 2]), (7, [1, 2, 3]), (7, [1, 2, 3, 4])]
    )
    def test_every_chain_boundary_is_found(self, p, roots):
        field = PrimeField(p)
        f, chains = chain_family(field, roots)
        found = factor_all(f)
        for chain in chains:
            for cut in range(1, len(chain)):
                left = chain[0]
                for part in chain[1:cut]:
                    left = left * part
                right = chain[cut]
                for part in chain[cut + 1 :]:
                    right = right * part
                split = DegreeSplit(left.degree(), right.degree())
                assert split in found
                assert normalize_pair(left, right) in pair_set(found[split])


def test_finite_field_computes_no_groebner_basis_unless_read(monkeypatch):
    def refuse(gens):
        raise AssertionError("Groebner basis computed but never read")

    monkeypatch.setattr("ncfactor.factoring.buchberger", refuse)
    f = ALG.from_text("y*x*y*x*y - y")
    result = factor_all(f)
    assert {split: len(facts) for split, facts in result.items()} == {
        DegreeSplit(1, 4): 1,
        DegreeSplit(2, 3): 2,
        DegreeSplit(3, 2): 2,
        DegreeSplit(4, 1): 1,
    }
    request = Request(
        expression="y*x*y*x*y - y",
        field=PrimeField(5),
        variables=None,
        degrees=None,
        json_mode=True,
    )
    assert run(request)[0] == 0

    monkeypatch.undo()
    fact = result[DegreeSplit(2, 3)][0]
    a = fact.system.ring.symbol("a1")
    assert list(fact.reduced_basis) == [a * a + 4]


def test_groebner_basis_computed_once_per_system(monkeypatch):
    # the two F_5 factorizations at (2,3) come from one system, and so do the
    # two at (3,2): --groebner needs one basis for each
    calls = []

    def counting(gens):
        calls.append(gens)
        return buchberger(gens)

    monkeypatch.setattr("ncfactor.factoring.buchberger", counting)
    request = Request(
        expression="y*x*y*x*y - y",
        field=PrimeField(5),
        variables=None,
        degrees=None,
        groebner=True,
    )
    code, report = run(request)
    assert code == 0
    assert report.count("reduced basis: a1^2 + 4") == 2
    assert len(calls) == 2
