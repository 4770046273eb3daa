import pytest

from ncfactor.commutative import SymbolRing
from ncfactor.errors import RefinementError
from ncfactor.fields import PrimeField, RationalField
from ncfactor.freealg import Alphabet, FreeAlgebra, normalize_pair
from ncfactor.homogeneous import factor_homogeneous, refine
from ncfactor.oracle import brute_force_factor, random_factorable


def algebra(p=5):
    field = PrimeField(p) if p else RationalField()
    return FreeAlgebra(Alphabet(("x", "y")), SymbolRing(field, ()))


ALG = algebra()


class TestFactorHomogeneous:
    def test_quintic_monomial(self):
        got = factor_homogeneous(ALG.from_text("y*x*y*x*y"), 2, 3)
        assert got == (ALG.from_text("y*x"), ALG.from_text("y*x*y"))

    def test_irreducible_homogenization(self):
        assert factor_homogeneous(ALG.from_text("x*x - y*y"), 1, 1) is None

    def test_factorable_homogenization(self):
        got = factor_homogeneous(ALG.from_text("x*x + x*y - y*x - y*y"), 1, 1)
        assert got is not None
        expected = normalize_pair(ALG.from_text("x - y"), ALG.from_text("x + y"))
        assert got == expected

    def test_rejects_trivial_degree(self):
        with pytest.raises(ValueError):
            factor_homogeneous(ALG.from_text("x*y"), 0, 2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor_homogeneous(ALG.zero(), 1, 1)

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            factor_homogeneous(ALG.from_text("x*y"), 2, 2)

    def test_soundness_on_random_corpus(self):
        # 200 seeded products over F_3: the normalized pair is recovered
        f3 = PrimeField(3)
        for seed in range(200):
            dg = 1 + seed % 3
            dh = 1 + (seed // 3) % 3
            f, g, h = random_factorable(seed, f3, dg, dh, term_cap=4, homogeneous=True)
            got = factor_homogeneous(f, dg, dh)
            assert got == normalize_pair(g, h), f"seed {seed}"

    def test_oracle_agreement_over_f2(self):
        # sampled homogeneous inputs, factorable or not; existence and the
        # normalized pair must match exhaustive enumeration
        f2 = PrimeField(2)
        alg2 = algebra(2)
        import random

        rng = random.Random(5)
        for _ in range(40):
            degree = rng.randint(2, 4)
            h = rng.randint(1, degree - 1)
            poly = alg2.zero()
            for _ in range(rng.randint(1, 3)):
                word = tuple(rng.randint(0, 1) for _ in range(degree))
                poly = poly + alg2.monomial(word, 1)
            if poly.is_zero():
                continue
            got = factor_homogeneous(poly, h, degree - h)
            expected = brute_force_factor(poly, (h, degree - h), exhaustive=True)
            if got is None:
                assert not expected
            else:
                assert set(expected) == {got}


class TestRefine:
    def test_quintic_head_refinement(self):
        g1, h1 = ALG.from_text("y"), ALG.from_text("x*y*x*y")
        g2, h2 = ALG.from_text("y*x*y"), ALG.from_text("x*y")
        j = refine(g1, h1, g2, h2)
        assert j == ALG.from_text("x*y")
        assert g1 * j == g2
        assert j * h2 == h1

    def test_monomial_chain(self):
        g1, h1 = ALG.from_text("x"), ALG.from_text("x*y")
        g2, h2 = ALG.from_text("x*x"), ALG.from_text("y")
        assert refine(g1, h1, g2, h2) == ALG.from_text("x")

    def test_equal_degrees_rejected(self):
        g, h = ALG.from_text("x"), ALG.from_text("y")
        with pytest.raises(RefinementError):
            refine(g, h, g, h)

    def test_different_products_rejected(self):
        with pytest.raises(RefinementError):
            refine(
                ALG.from_text("x"),
                ALG.from_text("x*y"),
                ALG.from_text("y*x"),
                ALG.from_text("y"),
            )

    def test_non_monic_rejected(self):
        g1, h1 = ALG.from_text("2*x"), ALG.from_text("3*x*y")
        g2, h2 = ALG.from_text("x*x"), ALG.from_text("y")
        with pytest.raises(RefinementError):
            refine(g1, h1, g2, h2)

    def test_all_split_pairs_of_random_products(self):
        # whenever one product factors at two splits, the refinement glues them
        f3 = PrimeField(3)
        checked = 0
        for seed in range(60):
            f, g, h = random_factorable(seed, f3, 2, 2, term_cap=3, homogeneous=True)
            n = f.degree()
            found = {}
            for split in range(1, n):
                got = factor_homogeneous(f, split, n - split)
                if got is not None:
                    found[split] = got
            splits = sorted(found)
            for i in range(len(splits)):
                for j in range(i + 1, len(splits)):
                    g1, h1 = found[splits[i]]
                    g2, h2 = found[splits[j]]
                    jpoly = refine(g1, h1, g2, h2)
                    assert g1 * jpoly == g2
                    assert jpoly * h2 == h1
                    checked += 1
        assert checked > 0
