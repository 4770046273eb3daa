import copy
import hashlib
import importlib.util
import math
from fractions import Fraction
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncfactor import factoring
from ncfactor.cli import Request, run
from ncfactor.commutative import ConstraintSystem, CPoly, SymbolRing, enumerate_solutions
from ncfactor.errors import BudgetExceededError, ContextMismatchError, SearchSpaceTooLargeError
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
from ncfactor.freealg import (
    Alphabet,
    FreeAlgebra,
    NCPoly,
    SymbolicPoly,
    left_divide,
    normalize_pair,
    overlap_lengths,
    word_key,
)
from ncfactor.homogeneous import factor_homogeneous
from ncfactor.oracle import brute_force_factor, chain_family, random_factorable
from ncfactor.commutative import _is_constant, axpy, buchberger, reduce_groebner


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


def _record_solver_calls(monkeypatch):
    """The names of the assembly and solver functions `factoring` calls, in order."""
    calls = []

    def counting(name):
        fn = getattr(factoring, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    for name in ("assemble_constraints", "enumerate_solutions", "buchberger"):
        monkeypatch.setattr(factoring, name, counting(name))
    return calls


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
            # (x, xy) and (y, yy) both overlap, and the tops y + x and
            # (y + x)*y make 1 a free degree: over F_p the first pair in
            # pivot order that overlaps at 1, (x, xy), settles, and its
            # attempt alone answers the split
            (
                5, "(y + x + 1)*(y^2 + x*y)", (1, 2),
                [(W("x"), W("xy"), (1,))],
                [("y + x", "y^2 + x*y + y"), ("y + x + 1", "y^2 + x*y")],
            ),
            # the same heads, and the settling attempt answers nothing, so no
            # other attempt runs (the exhaustive oracle finds no pair over F_5
            # either); over Q the leading pair (y, yy) settles
            (
                5, "(y + x + 1)*(y^2 + x*y) + x", (1, 2),
                [(W("x"), W("xy"), (1,))],
                [],
            ),
            (
                None, "(y + x + 1)*(y^2 + x*y) + x", (1, 2),
                [(W("y"), W("yy"), (1,))],
                [],
            ),
            # (x, xy) and (x, xx) overlap; over Q the leading pair (y, xy)
            # settles, and the merge runs (y, xx), reaches the settling result
            # and stops once it holds every pair of the settling attempt
            (
                None, "(y - 3*x - 1)*(3*x*y - 2*x^2)", (1, 2),
                [(W("y"), W("xy"), ()), (W("y"), W("xx"), ())],
                [("y - 3*x - 1", "3*x*y - 2*x^2")],
            ),
            # over F_5 the tops y + 2*x and x*(3*y + 3*x) share no factor, so
            # there is no free degree and the first pair in pivot order,
            # (y, xx), settles and alone answers the split
            (
                5, "(y - 3*x - 1)*(3*x*y - 2*x^2)", (1, 2),
                [(W("y"), W("xx"), ())],
                [("y + 2*x + 4", "3*x*y + 3*x^2")],
            ),
        ],
        ids=[
            "no-overlap", "one-overlap", "two-overlaps",
            "leading-answers-nothing-F5", "leading-answers-nothing-Q",
            "merge-stops-Q", "no-free-degree-F5",
        ],
    )
    def test_only_the_settling_pivot_runs(self, p, text, split, pivots, pairs, monkeypatch):
        calls = []
        attempt = factoring._attempt_pivot

        def counted(view, g_head, h_head, pivot, options):
            calls.append(pivot)
            return attempt(view, g_head, h_head, pivot, options)

        monkeypatch.setattr(factoring, "_attempt_pivot", counted)
        facts = factor_bidegree(algebra(p).from_text(text), split)
        assert calls == pivots
        assert [(str(fact.left), str(fact.right)) for fact in facts] == pairs

    @pytest.mark.parametrize("p", [2, 5, None])
    def test_contradictory_step_ends_the_attempt(self, p, monkeypatch):
        # the top x*y factors as x * y, but the degree-1 word z has no
        # unknown in the first recovery step: no system is assembled or solved
        calls = _record_solver_calls(monkeypatch)
        field = PrimeField(p) if p else RationalField()
        alg = FreeAlgebra(Alphabet(("x", "y", "z")), SymbolRing(field, ()))
        assert factor_bidegree(alg.from_text("x*y + z"), (1, 1)) == []
        assert calls == []

    @pytest.mark.parametrize("p", [2, 5])
    def test_constant_residual_below_the_steps_ends_the_attempt(self, p, monkeypatch):
        # x * (x*y) overlaps in x, so G_0 = a1 and H_1 = -a1*y; the steps
        # leave the residual -a1^2 at y, and H_0 = 0 leaves the constant -1
        # in degree 0, so no point is enumerated
        calls = _record_solver_calls(monkeypatch)
        assert factor_bidegree(algebra(p).from_text("x*x*y + 1"), (1, 2)) == []
        assert calls == []

    def test_split_must_match_degree(self):
        with pytest.raises(ValueError):
            factor_bidegree(ALG.from_text("x*y"), (2, 2))

    @pytest.mark.parametrize("symbol", ["b", "a1"])
    def test_algebra_declaring_symbols_rejected(self, symbol):
        # coefficients are field scalars, so no input can carry a symbol
        with pytest.raises(ValueError, match="declares symbols"):
            FreeAlgebra(Alphabet(("x", "y")), SymbolRing(PrimeField(5), (symbol,)))

    @pytest.mark.parametrize("p", [5, None])
    @pytest.mark.parametrize("name", ["a1", "a12", "a0"])
    def test_extension_symbol_names_rejected_as_variables(self, p, name):
        # a variable named like a symbol could not be told apart from it in
        # the pairs and systems that are reported
        field = PrimeField(p) if p else RationalField()
        alg = FreeAlgebra(Alphabet(("x", name)), SymbolRing(field, ()))
        f = alg.from_text(f"{name}*x*{name}*x - 1")
        with pytest.raises(ValueError, match="reserved for extension symbols"):
            factor_bidegree(f, (2, 2))
        with pytest.raises(ValueError, match="reserved for extension symbols"):
            factor_all(f)
        code, report = run(Request(f"{name}*x*{name}*x - 1", field, None, None))
        assert (code, report) == (2, f"error: variable names ('{name}',) are reserved for extension symbols")

    @pytest.mark.parametrize("name", ["a", "ab1", "xa1", "a1b"])
    def test_names_near_the_symbol_names_accepted(self, name):
        alg = FreeAlgebra(Alphabet(("x", name)), SymbolRing(PrimeField(5), ()))
        f = alg.from_text(f"{name}*x - 1") * alg.from_text(f"x*{name} + 2")
        assert {(fact.left * fact.right) for fact in factor_bidegree(f, (2, 2))} == {f}

    def test_pair_that_fails_to_multiply_back_raises(self, monkeypatch):
        # a1 = 2 is not a root of the (2, 3) system 4*a1^2 + 1 = 0 (its roots
        # over F_5 are 1 and 4), so the pair substituted there is not a
        # factorization of f; a one-symbol attempt takes its points from the
        # roots of its residuals
        f = ALG.from_text("y*x*y*x*y - y")
        residuals = []
        monkeypatch.setattr(factoring, "roots_mod_p", lambda coeffs, p: residuals.append(coeffs) or [2])
        with pytest.raises(AssertionError, match="fails to multiply back"):
            factor_bidegree(f, (2, 3))
        assert residuals == [[1, 0, 4]]

    def test_two_symbol_pair_that_fails_to_multiply_back_raises(self, monkeypatch):
        # the (2, 2) attempt of (x^2 + y)*(x^2 + 1) has the two symbols of the
        # overlaps of x^2 with itself, and its system goes to the solver,
        # whose only point is a1 = a2 = 0
        f = ALG.from_text("(x*x + y)*(x*x + 1)")
        systems = []
        monkeypatch.setattr(
            factoring,
            "enumerate_solutions",
            lambda system, cap: systems.append(system) or [{"a1": 1, "a2": 0}],
        )
        with pytest.raises(AssertionError, match="fails to multiply back"):
            factor_bidegree(f, (2, 2))
        assert [system.symbols for system in systems] == [("a1", "a2")]

    @pytest.mark.parametrize("p", [5, None])
    def test_attempt_without_symbols_is_decided_by_its_multiply_back(self, p, monkeypatch):
        # x*y = x * y has no overlap and the one recovery step has no word,
        # so the degree-0 residual of the pair (x, y), the constant -1,
        # decides the attempt: it returns nothing, and nothing is assembled
        # or solved
        calls, answers = _record_solver_calls(monkeypatch), []
        attempt = factoring._attempt_pivot
        monkeypatch.setattr(factoring, "_attempt_pivot", lambda *args: answers.append(attempt(*args)) or answers[-1])
        alg = algebra(p)
        assert factor_bidegree(alg.from_text("x*y + 1"), (1, 1)) == []
        assert answers == [None]
        # an attempt without symbols that multiplies back keeps an empty system
        (fact,) = factor_bidegree(alg.from_text("y*x*y*x*y - y"), (1, 4))
        assert fact.system == ConstraintSystem(alg.ring, ()) and fact.solutions == ({},)
        assert calls == []

    def test_zero_rejected(self):
        # every driver checks for zero first, before asking for its degree
        for driver in (lambda f: factor_bidegree(f, (1, 1)), factor_all, factor_completely):
            with pytest.raises(ValueError, match="cannot factor the zero polynomial"):
                driver(ALG.zero())

    def test_round_trip_of_every_result(self):
        for seed in range(40):
            f, g, h = random_factorable(seed, PrimeField(3), 2, 2, term_cap=3)
            for fact in factor_bidegree(f, (2, 2)):
                assert fact.left * fact.right == f
                assert fact.left.leading_coefficient() == 1

    def test_enumeration_cap_propagates(self):
        # no equation of the (2,2) system is univariate or linear in a symbol,
        # and F_5 has too few points for the resultant of its two equations
        # in a1 and a2 (degree up to 7): solving it branches
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
            left = fact.left.evaluate({"a1": value})
            right = fact.right.evaluate({"a1": value})
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

    def test_rationals_one_letter_reads_no_basis_and_none_is_the_unit_ideal(self, monkeypatch):
        # f in one letter is in K[x] and splits into linear factors over the
        # algebraic closure, so every split has a pair there: no system is the
        # unit ideal, and the solver leaves the basis unread
        def refuse(gens):
            raise AssertionError("Groebner basis computed for a one-letter input")

        inputs = [
            random_factorable(seed, RationalField(), 1 + seed % 2, 1 + seed % 3, term_cap=4, n_vars=1)[0]
            for seed in range(30)
        ]
        inputs.append(algebra(None).from_text("x^4 - 1"))  # one letter of two
        symbolic = []
        for f in inputs:
            with monkeypatch.context() as patch:
                patch.setattr(factoring, "buchberger", refuse)
                found = factor_all(f)
            symbolic += [fact for facts in found.values() for fact in facts if not fact.is_concrete]
        assert len(symbolic) > 30
        assert all(fact.reduced_basis != (fact.system.ring.one(),) for fact in symbolic)

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
    linear solve in the settling pivot attempt recovers the full solution
    set.  Each case is cross-checked against the exhaustive oracle.
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
        # (x, xy) and (y, yy) both overlap and the settling pair (x, xy)
        # answers nothing, so the split has no factorization
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
    g_head, h_head = dict(g_top.terms()), dict(h_top.terms())
    view = factoring._prepare(f)
    attempts = {
        (u, v): factoring._attempt_pivot(
            view, g_head, h_head, (u, v, overlap_lengths(u, v)), DEFAULT_OPTIONS
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
    ring = fact.system.ring
    point = {
        name: left.coefficient(w)
        for name in ring.symbols
        for w, c in fact.left.terms.items()
        if c == ring.symbol(name)._terms
    }
    return (
        len(point) == len(ring.symbols)
        and all(eq.evaluate(point) == 0 for eq in fact.system.equations)
        and (fact.left.evaluate(point), fact.right.evaluate(point)) == pair
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


def test_settling_pair_finds_the_leading_pairs_pairs(monkeypatch):
    # Over F_p a split with two or more overlapping head pairs settles on the
    # first pair in pivot order that overlaps at every free degree; its
    # attempt is the only one factor_bidegree runs, and it returns the
    # leading pair's pair set.  The inputs are the F_p inputs among the first
    # 400 digest inputs (the shared-middle kind has free degrees) and 100
    # three-letter F_101 (3,4) products.
    make_input = _load_script("fact_digest").make_input
    inputs = [make_input(index) for index in range(400) if index % 5 != 4]
    inputs += [random_factorable(seed, PrimeField(101), 3, 4, term_cap=8, n_vars=3)[0] for seed in range(100)]
    attempt = factoring._attempt_pivot
    runs = []

    def recorded(view, g_head, h_head, pivot, options):
        facts = attempt(view, g_head, h_head, pivot, options)
        runs.append((pivot, facts))
        return facts

    monkeypatch.setattr(factoring, "_attempt_pivot", recorded)
    checked = moved = 0
    for f in inputs:
        if f.is_zero() or f.degree() < 2 or f.is_homogeneous():
            continue
        n = f.degree()
        for b in range(1, n):
            top = factor_homogeneous(f.homogeneous_part(n), b, n - b)
            if top is None:
                continue
            g_head, h_head = (dict(part.terms()) for part in top)
            if sum(bool(overlap_lengths(u, v)) for u in g_head for v in h_head) < 2:
                continue
            lead = (top[0].leading_word(), top[1].leading_word())
            runs.clear()
            try:
                factor_bidegree(f, (b, n - b))
                leading = attempt(
                    factoring._prepare(f), g_head, h_head, (*lead, overlap_lengths(*lead)), DEFAULT_OPTIONS
                )
            except SearchSpaceTooLargeError:
                continue
            assert len(runs) == 1, (f, b, [pivot for pivot, _ in runs])
            settling, settled = runs[0]
            assert pair_set(settled or ()) == pair_set(leading or ()), (f, b, settling)
            checked += 1
            moved += settling[:2] != lead
    assert (checked, moved) == (240, 225)


def _has_free_direction(g_top, h_top, j):
    """Whether G_top*Y + X*H_top = 0 has a nonzero solution with deg X = h - j, deg Y = k - j.

    Builds the homogeneous linear system on the coefficients of X and Y,
    one equation per word of degree h + k - j, and eliminates it over F_p.
    """
    alg = g_top.algebra
    p = alg.field.p
    h, k = g_top.degree(), h_top.degree()
    x_words = list(product(range(alg.alphabet.size), repeat=h - j))
    y_words = list(product(range(alg.alphabet.size), repeat=k - j))
    unknowns = [("X", w) for w in x_words] + [("Y", w) for w in y_words]
    rows = {}
    for u, c in g_top.terms():
        for y in y_words:
            rows.setdefault(u + y, {})[("Y", y)] = c
    for v, c in h_top.terms():
        for x in x_words:
            rows.setdefault(x + v, {})[("X", x)] = c
    matrix = [[row.get(unk, 0) for unk in unknowns] for row in rows.values()]
    rank = 0
    for col in range(len(unknowns)):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = pow(matrix[rank][col], -1, p)
        matrix[rank] = [v * inv % p for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [(a - factor * b) % p for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank < len(unknowns)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_free_degrees_are_the_kernel_degrees(p):
    # the helper, which tries only the leading pair's overlaps, returns
    # exactly the j at which the recovery step has a free direction, on tops
    # built as A*E and c*E*B (one free degree at least) and on random tops
    rng = random.Random(p)
    alg = FreeAlgebra(Alphabet(("x", "y", "z")[: 2 + p % 2]), SymbolRing(PrimeField(p), ()))

    def homogeneous(d):
        poly = alg.zero()
        while poly.is_zero():
            for _ in range(rng.randint(1, 3)):
                word = tuple(rng.randrange(alg.alphabet.size) for _ in range(d))
                poly = poly + alg.monomial(word, rng.randrange(1, p))
        return poly

    seen = set()
    for trial in range(60):
        if trial % 2:
            e = homogeneous(rng.randint(1, 2))
            g_top = homogeneous(rng.randint(0, 2)) * e
            h_top = e.scale(rng.randrange(1, p)) * homogeneous(rng.randint(0, 2))
        else:
            g_top, h_top = homogeneous(rng.randint(1, 3)), homogeneous(rng.randint(1, 3))
        g_head, h_head = dict(g_top.terms()), dict(h_top.terms())
        overlaps = overlap_lengths(g_top.leading_word(), h_top.leading_word())
        free = factoring._free_degrees(g_head, h_head, overlaps, alg.field)
        degrees = range(1, min(g_top.degree(), h_top.degree()) + 1)
        kernel = {j for j in degrees if _has_free_direction(g_top, h_top, j)}
        assert free == kernel, (g_top, h_top)
        seen.add(bool(free))
    assert seen == {True, False}


def symbolic(ring, coeffs):
    """The symbolic value over ring in x, y with these CPoly coefficients, zeros left out."""
    alg = FreeAlgebra(Alphabet(("x", "y")), SymbolRing(ring.field, ()))
    return SymbolicPoly(alg, ring, {w: c._terms for w, c in coeffs.items() if c})


def as_symbolic(f):
    """f as a symbolic value over the symbol-free ring."""
    ring = f.algebra.ring
    return SymbolicPoly(f.algebra, ring, {w: {(): c} for w, c in f.terms()})


class TestAssembleConstraints:
    def test_quintic_overlap_system(self):
        ring = SymbolRing(PrimeField(5), ("a1",))
        a = ring.symbol("a1")
        g = symbolic(ring, {W("yx"): ring.one(), (): -a})
        h = symbolic(ring, {W("yxy"): ring.one(), W("y"): a})
        f = ALG.from_text("y*x*y*x*y - y")
        system = assemble_constraints(f, g, h)
        assert len(system.equations) == 1
        assert reduce_groebner(buchberger(list(system.equations))) == [a * a - 1]

    def test_pair_outside_the_algebra_rejected(self):
        # G and H share f's algebra and one symbol ring over f's field
        ring = SymbolRing(PrimeField(5), ("a1",))
        g = symbolic(ring, {W("yx"): ring.one()})
        h = symbolic(ring, {W("yxy"): ring.symbol("a1")})
        f = ALG.from_text("y*x*y*x*y - y")
        assert assemble_constraints(f, g, h).symbols == ("a1",)
        other, seven = SymbolRing(PrimeField(5), ("a1", "a2")), SymbolRing(PrimeField(7), ("a1",))
        for g2, h2 in (
            (g, symbolic(other, {W("yxy"): other.symbol("a2")})),
            (SymbolicPoly(algebra(7), ring, g.terms), h),
            (SymbolicPoly(ALG, seven, g.terms), SymbolicPoly(ALG, seven, h.terms)),
        ):
            with pytest.raises(ContextMismatchError):
                assemble_constraints(f, g2, h2)

    def test_exact_product_gives_empty_system(self):
        g = ALG.from_text("y*x - 1")
        h = ALG.from_text("y*x*y + y")
        f = g * h
        assert assemble_constraints(f, as_symbolic(g), as_symbolic(h)).equations == ()

    @pytest.mark.parametrize("p", [2, 5, 101, None])
    def test_matches_ncpoly_expansion(self, p):
        # seeded symbolic pairs with 0-3 symbols against sympy's expansion of
        # G*H - F in non-commutative x, y over commutative a1..a3; f keeps the
        # constant part of g*h, so some words cancel, plus one random monomial
        sympy = pytest.importorskip("sympy")
        field = PrimeField(p) if p else RationalField()
        base = algebra(p)
        letters = sympy.symbols("x y", commutative=False)

        def expanded(expr, names):
            # the coefficients of a non-commutative expression, {word: {monomial: Fraction}}
            out = {}
            for term in sympy.Add.make_args(sympy.expand(expr)):
                c, nc = term.args_cnc()
                word = ()
                for factor in nc:
                    letter, power = factor.as_base_exp()
                    word += (letters.index(letter),) * int(power)
                coeff = sympy.Mul(*c)
                pairs = sympy.Poly(coeff, *names).terms() if names else [((), coeff)]
                for mono, v in pairs:
                    t = out.setdefault(word, {})
                    t[mono] = t.get(mono, 0) + Fraction(int(sympy.numer(v)), int(sympy.denom(v)))
            return out

        def to_sympy(terms, names):
            # {word: {monomial: scalar}} as a sympy expression
            return sympy.Add(*(
                sympy.Rational(v.numerator, v.denominator)
                * sympy.Mul(*(s**e for s, e in zip(names, mono)))
                * sympy.Mul(*(letters[i] for i in word))
                for word, t in terms.items()
                for mono, v in t.items()
            ))

        for seed in range(40):
            rng = random.Random(seed)
            ring = SymbolRing(field, tuple(f"a{i + 1}" for i in range(seed % 4)))
            names = sympy.symbols(ring.symbols) if ring.symbols else ()

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
                return symbolic(ring, terms)

            g, h = poly(2), poly(3)
            product = to_sympy(g.terms, names) * to_sympy(h.terms, names)
            zero = (0,) * ring.nsymbols
            f = base.poly({w: c.get(zero, 0) for w, c in expanded(product, names).items()})
            f = f + base.monomial(tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))), 1)
            if f.is_zero():
                f = base.one()
            f_terms = {w: {zero: Fraction(v)} for w, v in f.terms()}
            diff = expanded(product - to_sympy(f_terms, names), names)
            reduced = {w: {m: v for m, c in t.items() if (v := field.coerce(c))} for w, t in diff.items()}
            words = sorted((w for w in reduced if reduced[w]), key=word_key, reverse=True)
            expected = tuple(ring.poly(reduced[w]) for w in words)
            assert assemble_constraints(f, g, h).equations == expected, seed

    def test_symbolic_facts_carry_the_reference_system(self):
        # an attempt reads its system off the recovery's residuals; over Q
        # every symbolic fact's system is the one assembled from its G and H
        field = RationalField()
        inputs = [algebra(None).from_text("x*x - 1")]
        for seed in range(60):
            split = ((2, 2), (1, 3), (2, 3))[seed % 3]
            inputs.append(random_factorable(seed, field, *split, term_cap=3, n_vars=1 + seed % 2)[0])
        symbolic = [
            (f, fact)
            for f in inputs
            for facts in factor_all(f).values()
            for fact in facts
            if not fact.is_concrete
        ]
        assert len(symbolic) > 100 and any(fact.system.equations for _, fact in symbolic)
        for f, fact in symbolic:
            assert fact.system == assemble_constraints(f, fact.left, fact.right)

    def test_wrong_product_gives_constant_contradiction(self):
        g = ALG.from_text("y*x")
        h = ALG.from_text("y*x*y")
        f = ALG.from_text("y*x*y*x*y - y")
        system = assemble_constraints(f, as_symbolic(g), as_symbolic(h))
        assert any(eq and eq.total_degree() == 0 for eq in system.equations)


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

    def test_seeded_images_give_the_recorded_degrees(self):
        # 300 nonzero images of seeded products over F_2, F_3, F_5 and F_7,
        # half of them plus one monomial (mostly irreducible), in one to three
        # variables; half the budgets are small, so 36 of them fall back to
        # None and the digest pins the trial count as well as the degrees
        rng = random.Random(2024)
        outputs = []
        seed = 0
        while len(outputs) < 300:
            field = PrimeField((2, 3, 5, 7)[seed % 4])
            dg, dh = rng.randint(1, 3), rng.randint(1, 3)
            f, _, _ = random_factorable(seed, field, dg, dh, term_cap=4, n_vars=rng.choice((1, 2, 3)))
            seed += 1
            if rng.random() < 0.5:
                word = tuple(rng.randrange(f.algebra.alphabet.size) for _ in range(rng.randint(0, f.degree())))
                f = f + f.algebra.monomial(word, 1)
            image = f.commutative_image()
            if image.is_zero():
                continue
            outputs.append(commutative_factor_degrees(image, budget=rng.choice((rng.randint(1, 2000), 8_000))))
        assert sum(out is None for out in outputs) == 36
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        assert digest == "0b157da4332365ce6336c1a2701ccff2a6d519aa28d96657d3cc77f2d4cdfe8f"


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

    def test_two_letter_product_at_mersenne_prime_answers(self):
        # the (2,5) system has no univariate equation; a linear one eliminates
        # a2 and leaves a1^3 = c, and c is not a cube mod 2^31 - 1
        f, g, h = random_factorable(27, PrimeField(2**31 - 1), 3, 4, term_cap=8, n_vars=2)
        found = factor_all(f)
        pairs = {split: [(fact.left, fact.right) for fact in facts] for split, facts in found.items()}
        assert pairs == {DegreeSplit(3, 4): [normalize_pair(g, h)]}

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
        # a factor_all whose facts are all concrete lists every monic left
        # divisor of its input, and the chains are paths through them: over
        # F_p no sub-factor is factored again, and over Q only the intervals
        # under a symbolic split are
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
        rationals = FreeAlgebra(Alphabet(("x", "y", "z")), SymbolRing(RationalField(), ()))
        # factoring every interval of found divisors makes 3, 6 and 4 calls
        for text, count in [("-y*z*y - z*y", 1), ("2*y*x^3", 1), ("-9*z^2*y*z + 3*z^2", 4)]:
            calls.clear()
            f = rationals.from_text(text)
            chains = factor_completely(f)
            assert calls[0] == f and len(calls) == count, text
            assert all(product_of(ch.factors) == f for ch in chains)

    def test_divisions_only_where_transitivity_does_not_decide(self, monkeypatch):
        # y*(xy - 1)(xy - 2)(xy - 3)(xy - 4) over F_7 has 32 monic left
        # divisors; a pair is divided only when the pairs already decided do
        # not decide it by transitivity
        calls = []
        real = factoring.left_divide
        monkeypatch.setattr(
            factoring, "left_divide", lambda a, d, reduce: calls.append(d) or real(a, d, reduce)
        )
        f, _ = chain_family(PrimeField(7), [1, 2, 3, 4])
        chains = factor_completely(f)
        assert len(chains) == 120
        assert len(calls) == 209

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

    @pytest.mark.parametrize(
        "names,text,expected",
        [
            (
                ("x", "y"),
                "3*y*x*y - 2*y*x^2 - 9*x^2*y + 6*x^3 - 3*x*y + 2*x^2",
                [("y - 3*x - 1", "x", "3*y - 2*x")],
            ),
            (
                ("y", "z"),
                "-9*z^2*y*z + 3*z^2",
                [("z", "z", "-9*y*z + 3"), ("z", "z*y - 1/3", "-9*z")],
            ),
        ],
    )
    def test_rationals_list_no_chain_beside_its_refinement(self, names, text, expected):
        # (y*x - 3*x^2 - x) * (3*y - 2*x) and (z^2*y - 1/3*z) * (-9*z) have
        # a first step with a concrete split, so they are not maximal
        alg = FreeAlgebra(Alphabet(names), SymbolRing(RationalField(), ()))
        chains = factor_completely(alg.from_text(text))
        assert [tuple(str(p) for p in ch.factors) for ch in chains] == expected

    def test_rationals_chains_are_maximal(self):
        # no chain's divisors are a proper subset of another chain's, on
        # the Q inputs of the fact digest (every fifth index)
        make_input = _load_script("fact_digest").make_input

        def divisors(chain):
            out, prefix = set(), chain.factors[0]
            for part in chain.factors[1:]:
                out.add(prefix.scale(1 / prefix.leading_coefficient()))
                prefix = prefix * part
            return frozenset(out)

        for index in range(4, 1000, 5):
            f = make_input(index)
            if f.is_zero() or f.degree() < 2:
                continue
            sets = [divisors(ch) for ch in factor_completely(f)]
            assert not any(a < b for a in sets for b in sets), (index, f)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: chain_family(PrimeField(7), [1, 2, 3, 4])[0],
            lambda: one_letter(5).from_text("x^12 - 1"),
            lambda: algebra(None).from_text("3*y*x^2 - 3*x^2"),
            lambda: FreeAlgebra(Alphabet(("y", "z")), SymbolRing(RationalField(), ())).from_text(
                "-9*z^2*y*z + 3*z^2"
            ),
        ],
        ids=["chain-family-F7", "x12-F5", "Q-quotient", "Q-refined"],
    )
    def test_chain_texts_render_the_factors(self, make):
        # a chain's factors are shared by cover step, so each object is
        # rendered once here, independently of the texts the chains carry
        chains = factor_completely(make())
        rendered: dict[int, str] = {}
        for ch in chains:
            for p in ch.factors:
                if id(p) not in rendered:
                    rendered[id(p)] = str(p)
        assert all(ch.texts == tuple(rendered[id(p)] for p in ch.factors) for ch in chains)


def _load_script(name):
    # a module of scripts/, which is not a package
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_is_concrete_reads_the_solutions():
    # a fact with symbols has its overlap symbol as a coefficient of G, so a
    # fact is concrete exactly when it records its points; the first 500
    # digest inputs cycle through F_2, F_3, F_5, F_101 and Q
    make_input = _load_script("fact_digest").make_input
    seen = set()
    for index in range(500):
        f = make_input(index)
        if f.is_zero() or f.degree() < 2:
            continue
        try:
            found = factor_all(f)
        except SearchSpaceTooLargeError:
            continue
        for fact in (fact for facts in found.values() for fact in facts):
            pair = (fact.left, fact.right)
            constant = all(isinstance(p, NCPoly) or all(map(_is_constant, p.terms.values())) for p in pair)
            assert fact.is_concrete == constant, (index, fact)
            seen.add((f.algebra.field.is_finite, constant))
    assert seen == {(True, True), (False, True), (False, False)}


def test_factor_all_agrees_with_factor_bidegree_at_every_split():
    # both drivers run one per-split path on one prepared view of f: on the
    # first 500 digest inputs (F_2, F_3, F_5, F_101 and Q in turn; none stops
    # at the enumeration cap) factor_all holds exactly the splits where
    # factor_bidegree answers, with the same facts in the same order
    make_input = _load_script("fact_digest").make_input

    def fields(facts):
        return [(f.left, f.right, f.system.equations, f.solutions, f.pivots) for f in facts]

    answered = 0
    for index in range(500):
        f = make_input(index)
        if f.is_zero() or f.degree() < 2:
            continue
        n = f.degree()
        by_split = {(b, n - b): fields(factor_bidegree(f, (b, n - b))) for b in range(1, n)}
        found = [(tuple(split), fields(facts)) for split, facts in factor_all(f).items()]
        assert found == [(split, facts) for split, facts in by_split.items() if facts], index
        answered += bool(found)
    assert answered == 381


def _reference_solve_step(fhat, g_words, h_words, h_minus_j, k_minus_j, known, fld):
    """`factoring._solve_step` as column-order elimination, the reference for both its paths.

    Collects every unknown reachable from the support of fhat and the
    known entries by closure, sorts them, and eliminates column by column,
    each column pivoting on its first remaining row in word order; free
    unknowns are zero.  Returns (solution, residuals), or None where the
    package's returns None; `_reference_parts` gives the package's form.
    """
    reduce = fld.reduce
    h = len(next(iter(g_words)))
    row_of = {}
    unknowns = set()
    spread = list(known)
    words = list(fhat)
    while True:
        for m in words:
            if m in row_of:
                continue
            row = row_of[m] = []
            if k_minus_j >= 0 and (c := g_words.get(m[:h])) is not None:
                row.append((("H", m[h:]), c))
            if h_minus_j >= 0 and (c := h_words.get(m[h_minus_j:])) is not None:
                row.append((("G", m[:h_minus_j]), c))
            for unk, _ in row:
                if unk not in known and unk not in unknowns:
                    unknowns.add(unk)
                    spread.append(unk)
        if not spread:
            break
        kind, word = spread.pop()
        words = [u + word for u in g_words] if kind == "H" else [word + v for v in h_words]

    order = sorted(unknowns)
    index = {unk: i for i, unk in enumerate(order)}
    rows, leftover = [], []
    for m in sorted(row_of):
        coeffs = {}
        rhs = dict(fhat.get(m, {}))
        for unk, c in row_of[m]:
            if unk in known:
                axpy(rhs, -c, known[unk], reduce)
            else:
                coeffs[index[unk]] = c
        if coeffs:
            rows.append((m, coeffs, rhs))
        elif rhs:
            if _is_constant(rhs):
                return None
            leftover.append((m, rhs))

    echelon = {}
    for col in range(len(order)):
        sel = next((ri for ri, (_, coeffs, _) in enumerate(rows) if col in coeffs), None)
        if sel is None:
            continue
        _, coeffs, rhs = rows.pop(sel)
        inv = fld.inv(coeffs[col])
        coeffs = {i: reduce(c * inv) for i, c in coeffs.items()}
        rhs = {mono: reduce(v * inv) for mono, v in rhs.items()}
        echelon[col] = (coeffs, rhs)
        remaining = []
        for m, other_coeffs, other_rhs in rows:
            if col in other_coeffs:
                factor = other_coeffs[col]
                axpy(other_coeffs, -factor, coeffs, reduce)
                axpy(other_rhs, -factor, rhs, reduce)
                if other_coeffs:
                    remaining.append((m, other_coeffs, other_rhs))
                elif other_rhs:
                    if _is_constant(other_rhs):
                        return None
                    leftover.append((m, other_rhs))
            else:
                remaining.append((m, other_coeffs, other_rhs))
        rows = remaining

    solution = dict(known)
    for unk in order:
        solution[unk] = {}
    for col in sorted(echelon, reverse=True):
        coeffs, rhs = echelon[col]
        value = dict(rhs)
        for i, c in coeffs.items():
            if i != col:
                axpy(value, -c, solution[order[i]], reduce)
        solution[order[col]] = value
    leftover.sort(reverse=True, key=lambda entry: entry[0])
    return solution, [{mono: reduce(-v) for mono, v in rhs.items()} for _, rhs in leftover]


def _reference_parts(step):
    """`_reference_solve_step` on step, as `_solve_step` returns it: (G_new, H_new, residuals)."""
    result = _reference_solve_step(*step)
    if result is None:
        return None
    solution, residuals = result
    parts = {"G": {}, "H": {}}
    for (kind, word), value in solution.items():
        if value:
            parts[kind][word] = value
    return parts["G"], parts["H"], residuals


def _replayed(step):
    """`_solve_step` on deep copies of step, after checking it leaves them unchanged."""
    copied = copy.deepcopy(step)
    result = factoring._solve_step(*copied)
    assert copied == step, step
    return result


@pytest.mark.parametrize(
    "field", [PrimeField(2), PrimeField(101), PrimeField(2**31 - 1), RationalField()], ids=repr
)
def test_solve_step_matches_the_column_order_elimination(field, monkeypatch):
    # every recovery step of factor_all on 100 digest inputs built over the
    # field: the parts (free unknowns zero) and the residuals, in order, are
    # the reference's, so the pivot rule the digests pin holds here too.
    # The read-off returns dicts of fhat and `known` as parts, so each step
    # is also replayed on deep copies, which it must leave unchanged, and
    # its arguments, copied at the call, must be unchanged after the run.
    # No step whose top parts are single words reaches the elimination.
    make_input = _load_script("fact_digest").make_input
    solve, eliminate = factoring._solve_step, factoring._eliminate
    steps, eliminated = [], []

    def recorded(*step):
        steps.append((step, copy.deepcopy(step[0]), copy.deepcopy(step[5])))
        return solve(*step)

    monkeypatch.setattr(factoring, "_solve_step", recorded)
    monkeypatch.setattr(factoring, "_eliminate", lambda *step: eliminated.append(step) or eliminate(*step))
    for index in range(100):
        f = make_input(index, field)
        if f.degree() >= 2:
            try:
                factor_all(f)
            except SearchSpaceTooLargeError:
                pass
    monkeypatch.undo()
    assert eliminated and all(len(g_words) + len(h_words) > 2 for _, g_words, h_words, *_ in eliminated)
    kinds = set()
    coupled = 0
    for step, fhat, known in steps:
        assert (step[0], step[5]) == (fhat, known), step
        assert _replayed(step) == _reference_parts(step), step
        _, g_words, h_words, h_minus_j, k_minus_j, known, fld = step
        one_word_tops = len(g_words) == len(h_words) == 1
        kinds.add((one_word_tops, bool(known)))
        if one_word_tops and known:
            # Without its known entries the overlap word's row holds both
            # unknowns: the step eliminates, and the free one is zero.
            (g_hat,), (h_hat,) = g_words, h_words
            coupled += g_hat + h_hat[len(g_hat) - h_minus_j :] in fhat
            unknown = (fhat, g_words, h_words, h_minus_j, k_minus_j, {}, fld)
            assert _replayed(unknown) == _reference_parts(unknown), step
    assert kinds == {(True, False), (True, True), (False, False), (False, True)}
    assert coupled


class _CountingInverses:
    """A field whose inversions are counted: the reference inverts once per pivot."""

    def __init__(self, fld):
        self.reduce, self._inv, self.inverses = fld.reduce, fld.inv, 0

    def inv(self, a):
        self.inverses += 1
        return self._inv(a)


def _synthetic_step(rng, fld, nsymbols):
    """A recovery step with 2-3 head words in both top parts, over two letters."""
    h, k = rng.randint(1, 3), rng.randint(1, 3)
    j = rng.randint(1, max(h, k))
    scalars = [c for c in map(fld.coerce, (1, -1, 2, Fraction(1, 3))) if c]

    def words(length, count):
        return rng.sample(list(product((0, 1), repeat=length)), min(count, 2**length))

    def terms():
        monomials = list(product(range(3), repeat=nsymbols))
        return {mono: rng.choice(scalars) for mono in rng.sample(monomials, min(rng.randint(1, 2), len(monomials)))}

    g_words = {w: rng.choice(scalars) for w in words(h, rng.randint(2, 3))}
    h_words = {w: rng.choice(scalars) for w in words(k, rng.randint(2, 3))}
    fhat = {w: terms() for w in words(h + k - j, rng.randint(0, 3))}
    known = {}
    for kind, length in (("G", h - j), ("H", k - j)):
        if length >= 0 and rng.random() < 0.3:
            known[(kind, words(length, 1)[0])] = terms()
    return fhat, g_words, h_words, h - j, k - j, known, fld


def test_eliminate_matches_the_column_order_elimination_on_synthetic_steps(monkeypatch):
    # Steps the digest corpora never reach: 2-3 head words in both top
    # parts, `known` entries there, right-hand sides in 0-2 symbols, over
    # F_2, F_5, F_(2^31 - 1) and Q.  `_eliminate` visits the rows in word
    # order and the reference eliminates column by column; their parts and
    # residuals, in order, agree, and the step is left unchanged.  The
    # reference's inversions (one per pivot) and reductions show that the
    # set holds a free column, a reduction that adds an unknown to a row
    # and a constant-residual exit.
    shapes = {"free column": 0, "fill-in": 0, "constant residual": 0}
    plain_axpy = axpy

    def counted_axpy(acc, s, c, reduce):
        before = set(acc)
        plain_axpy(acc, s, c, reduce)
        # only the reference's coefficient rows are keyed by column index
        shapes["fill-in"] += any(isinstance(key, int) for key in set(acc) - before)

    monkeypatch.setitem(globals(), "axpy", counted_axpy)
    rng = random.Random(35)
    for fld in (PrimeField(2), PrimeField(5), PrimeField(2**31 - 1), RationalField()):
        for _ in range(400):
            step = _synthetic_step(rng, fld, rng.randint(0, 2))
            copied = copy.deepcopy(step)
            assert factoring._eliminate(*copied) == _reference_parts(step) and copied == step, step
            counting = _CountingInverses(fld)
            result = _reference_solve_step(*step[:-1], counting)
            if result is None:
                shapes["constant residual"] += 1
            else:
                shapes["free column"] += counting.inverses < len(result[0]) - len(step[5])
    assert all(shapes.values()), shapes


def _record_steps(monkeypatch):
    """The results of the `_solve_step` calls `factoring` makes, in order."""
    solve, steps = factoring._solve_step, []
    monkeypatch.setattr(factoring, "_solve_step", lambda *step: steps.append(solve(*step)) or steps[-1])
    return steps


@pytest.mark.parametrize("field, count", [(None, 400), (PrimeField(2**31 - 1), 200)], ids=["digest", "p2147483647"])
def test_one_symbol_points_are_the_enumerated_ones(field, count, monkeypatch):
    # Over F_p a one-symbol attempt takes its points from the common roots
    # of its residuals and ends at the first step that leaves none.  On
    # every such attempt of the digest inputs its points are the solver's
    # on the residuals it saw; an attempt that ended early has none there
    # (nor, then, in its whole system), and had some before its last step.
    make_input = _load_script("fact_digest").make_input
    steps = _record_steps(monkeypatch)
    attempt = factoring._attempt_pivot
    ended = {"answered": 0, "early": 0}

    def points(results):
        ring = SymbolRing(f.algebra.field, ("a1",))
        equations = tuple(CPoly(ring, eq) for *_, eqs in results for eq in eqs)
        return enumerate_solutions(ConstraintSystem(ring, equations))

    def checked(view, g_head, h_head, pivot, options):
        steps.clear()
        facts = attempt(view, g_head, h_head, pivot, options)
        if not f.algebra.field.is_finite or len(pivot[2]) != 1 or steps[-1] is None:
            return facts  # not one symbol over F_p, or a constant residual ended it
        if facts is None:
            before = steps[:-1]
            assert points(steps) == [] and (not any(eqs for *_, eqs in before) or points(before)), (f, pivot)
            ended["early"] += 1
        else:
            assert [fact.solutions[0] for fact in facts] == points(steps), (f, pivot)
            ended["answered"] += 1
        return facts

    monkeypatch.setattr(factoring, "_attempt_pivot", checked)
    for index in range(count):
        f = make_input(index, field)
        if not f.is_zero() and f.degree() >= 2:
            factor_all(f)
    assert ended == ({"answered": 130, "early": 33} if field else {"answered": 217, "early": 45})


def test_one_symbol_attempt_ends_at_a_residual_without_roots(monkeypatch):
    # (x^2 + x + 1)*y + x over F_2 at (1, 2): the tops x and x*y overlap at
    # 1, and the second step leaves the residual a1^2 + a1 + 1, which has no
    # root in F_2, so the attempt ends there, before its third step and the
    # solver
    steps = _record_steps(monkeypatch)
    calls = _record_solver_calls(monkeypatch)
    assert factor_bidegree(algebra(2).from_text("x*x*y + x*y + y + x"), (1, 2)) == []
    assert len(steps) == 2 and {(2,): 1, (1,): 1, (0,): 1} in steps[-1][2]
    assert calls == []


def _reference_chains(f):
    # every maximal chain, by factoring both sides of every split of every
    # factor met on the way with factor_all; no division
    memo = {}

    def chains(g):
        if g not in memo:
            found = factor_all(g) if g.degree() >= 2 else {}
            memo[g] = {
                left + right
                for facts in found.values()
                for fact in facts
                for left in chains(fact.left)
                for right in chains(fact.right)
            } or {(g,)}
        return memo[g]

    return chains(f)


def _always_recursing_q_chains(f):
    # every maximal chain of the divisors that factoring the quotient of
    # every interval of found divisors (degree gap 2 or more) shows, with
    # every pair of divisors related by left division; chains as texts
    alg = f.algebra
    divisors = set()
    walked = set()

    def walk(lower, q):
        if q.degree() < 2 or (lower, q) in walked:
            return
        walked.add((lower, q))
        for facts in factor_all(q).values():
            for fact in facts:
                if fact.is_concrete:
                    d = lower * fact.left
                    divisors.add(d)
                    walk(lower, fact.left)
                    walk(d, fact.right)

    walk(alg.one(), f)
    nodes = [alg.one(), *divisors, f]

    def quotient(a, b):
        if a.degree() >= b.degree():
            return None
        q = left_divide(b._terms, a._terms, alg.field.reduce)
        return None if q is None else NCPoly(alg, q)

    quotients = {(a, b): q for a in nodes for b in nodes if (q := quotient(a, b)) is not None}

    def chains(a):
        if a == f:
            return [()]
        covers = [
            b for (lower, b) in quotients
            if lower == a and not any((a, c) in quotients and (c, b) in quotients for c in nodes)
        ]
        return [(str(quotients[(a, b)]),) + rest for b in covers for rest in chains(b)]

    return sorted(chains(alg.one()))


def test_q_walk_matches_the_always_recursing_walk():
    # factoring an interval again only under a symbolic split loses no
    # divisor: a factor_all whose facts are all concrete lists them all
    make_input = _load_script("fact_digest").make_input
    inputs = [make_input(index) for index in range(500)]
    inputs = [f for f in inputs if not f.algebra.field.is_finite and not f.is_zero() and f.degree() >= 2]
    inputs += [algebra(None).from_text("3*y*x^2 - 3*x^2"), make_input(904)]
    assert str(inputs[-1]) == "-9*z^2*y*z + 3*z^2"
    for f in inputs:
        assert [ch.texts for ch in factor_completely(f)] == _always_recursing_q_chains(f), f


def _chain_input(seed):
    # a product of 2-3 random monic factors of degree 1-2 over F_2, F_3 or
    # F_5, half of them in x alone (such factors commute), with one factor
    # repeated for even seeds
    rng = random.Random(seed)
    p = (2, 3, 5)[seed % 3]
    alg = FreeAlgebra(Alphabet(("x", "y", "z")[: rng.randint(2, 3)]), SymbolRing(PrimeField(p), ()))

    def factor(degree):
        size = alg.alphabet.size if rng.random() < 0.5 else 1
        g = alg.monomial(tuple(rng.randrange(size) for _ in range(degree)), 1)
        for _ in range(rng.randrange(3)):
            word = tuple(rng.randrange(size) for _ in range(rng.randrange(degree)))
            g = g + alg.monomial(word, rng.randrange(1, p))
        return g

    parts = [factor(rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
    if seed % 2 == 0:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(parts))
    return product_of(parts)


def test_complete_chains_match_recursive_factoring():
    counts = set()
    for seed in range(60):
        f = _chain_input(seed)
        chains = [ch.factors for ch in factor_completely(f)]
        assert len(set(chains)) == len(chains), f
        assert set(chains) == _reference_chains(f), f
        counts.add(len(chains))
    # lattices that are not Boolean (their chain count is no factorial) are covered
    assert counts - {1, 2, 6, 24, 120}


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
