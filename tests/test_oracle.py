import pytest

from ncfactor.commutative import SymbolRing
from ncfactor.errors import BudgetExceededError
from ncfactor.fields import PrimeField
from ncfactor.freealg import Alphabet, FreeAlgebra, normalize_pair
from ncfactor.oracle import brute_force_factor, chain_family, random_factorable


def algebra(p):
    return FreeAlgebra(Alphabet(("x", "y")), SymbolRing(PrimeField(p), ()))


class TestBruteForce:
    def test_quintic_example_over_f3(self):
        alg = algebra(3)
        f = alg.from_text("y*x*y*x*y - y")
        got = brute_force_factor(f, (2, 3))
        expected = {
            normalize_pair(alg.from_text("y*x + 1"), alg.from_text("y*x*y + 2*y")),
            normalize_pair(alg.from_text("y*x + 2"), alg.from_text("y*x*y + y")),
        }
        assert got == expected

    def test_right_factor_enumerated_when_it_has_fewer_words(self):
        # G has five candidate prefixes and H two suffixes: H is enumerated
        # and G divided out on the right
        alg = algebra(3)
        f = alg.from_text("y*x*y*x*y - y")
        assert brute_force_factor(f, (4, 1), budget=9) == {
            (alg.from_text("y*x*y*x - 1"), alg.from_text("y"))
        }

    def test_irreducible_square_difference(self):
        alg = algebra(3)
        assert brute_force_factor(alg.from_text("x*x - y*y"), (1, 1)) == set()

    def test_monomial_square(self):
        alg = algebra(2)
        f = alg.from_text("x*x")
        assert brute_force_factor(f, (1, 1)) == {
            (alg.from_text("x"), alg.from_text("x"))
        }

    def test_budget_guard(self):
        alg = algebra(3)
        f = alg.from_text("y*x*y*x*y - y")
        with pytest.raises(BudgetExceededError):
            brute_force_factor(f, (2, 3), budget=10)

    def test_restricted_mode_agrees_with_exhaustive_on_small_cases(self):
        alg = algebra(2)
        for seed in range(30):
            f, g, h = random_factorable(seed, PrimeField(2), 1, 1, term_cap=3)
            restricted = brute_force_factor(f, (1, 1))
            exhaustive = brute_force_factor(f, (1, 1), exhaustive=True)
            assert restricted == exhaustive

    def test_support_cap_monotone(self):
        # enlarging the cap never reveals a pair the smaller run should have seen
        alg = algebra(2)
        f = alg.from_text("y*x*y + y*x + x*y + x + y + 1")
        small_words = 4
        small = brute_force_factor(f, (1, 2), support_cap=small_words)
        large = brute_force_factor(f, (1, 2), support_cap=64)
        for g, h in large:
            g_sup = set(g.words())
            h_sup = set(h.words())
            from ncfactor.oracle import _candidate_words

            g_cand = set(_candidate_words(f, 1, prefixes=True)[:small_words])
            h_cand = set(_candidate_words(f, 2, prefixes=False)[:small_words])
            if g_sup <= g_cand and h_sup <= h_cand:
                assert (g, h) in small


class TestChainFamily:
    def test_two_roots_give_the_quintic(self):
        field = PrimeField(5)
        f, chains = chain_family(field, [1, -1])
        alg = f.algebra
        assert f == alg.from_text("y*x*y*x*y - y")
        assert len(chains) == 3
        rendered = [tuple(str(p) for p in chain) for chain in chains]
        assert rendered[0] == ("y", "x*y + 4", "x*y + 1")
        assert rendered[1] == ("y*x + 4", "y", "x*y + 1")
        assert rendered[2] == ("y*x + 4", "y*x + 1", "y")

    def test_single_root(self):
        field = PrimeField(5)
        f, chains = chain_family(field, [2])
        alg = f.algebra
        assert f == alg.from_text("y*x*y - 2*y")
        assert len(chains) == 2

    def test_three_roots_in_f7(self):
        f, chains = chain_family(PrimeField(7), [1, 2, 3])
        assert f.degree() == 7
        assert len(chains) == 4
        for chain in chains:
            prod = chain[0]
            for part in chain[1:]:
                prod = prod * part
            assert prod == f

    def test_repeated_roots_rejected(self):
        with pytest.raises(ValueError):
            chain_family(PrimeField(5), [1, 6])  # 6 = 1 mod 5


class TestRandomFactorable:
    def test_product_holds_by_construction(self):
        for seed in (0, 1, 17):
            f, g, h = random_factorable(seed, PrimeField(3), 2, 2, term_cap=3)
            assert g * h == f

    def test_same_seed_same_triple(self):
        a = random_factorable(42, PrimeField(3), 2, 1, term_cap=3)
        b = random_factorable(42, PrimeField(3), 2, 1, term_cap=3)
        assert a == b

    def test_term_cap_one_gives_monomials(self):
        f, g, h = random_factorable(9, PrimeField(5), 2, 2, term_cap=1)
        assert len(g.words()) == 1 and len(h.words()) == 1 and len(f.words()) == 1

    def test_requested_shapes(self):
        f, g, h = random_factorable(3, PrimeField(2), 3, 2, term_cap=3)
        assert g.degree() == 3 and h.degree() == 2 and f.degree() == 5
