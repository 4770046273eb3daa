"""Acceptance suite: one test per release criterion, at fixed tolerances.

Every check here is exact (no numeric tolerance); the stated runtime limits
are asserted.  Each test prints a single pass/fail line, visible with
``pytest tests/test_acceptance.py -v -s``.
"""

import contextlib
import functools
import io
import json
import random
import time
from pathlib import Path

from ncfactor.cli import main as cli_main
from ncfactor.commutative import (
    ConstraintSystem,
    SymbolRing,
    buchberger,
    enumerate_solutions,
    normal_form,
    reduce_groebner,
    s_polynomial,
)
from ncfactor.factoring import (
    DegreeSplit,
    factor_all,
    factor_bidegree,
    knapsack_splits,
)
from ncfactor.fields import PrimeField
from ncfactor.freealg import Alphabet, FreeAlgebra, normalize_pair
from ncfactor.homogeneous import factor_homogeneous, refine
from ncfactor.oracle import brute_force_factor, chain_family, random_factorable

GOLDEN = Path(__file__).parent / "golden"


def criterion(number, label, limit_seconds=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            if limit_seconds is not None and elapsed > limit_seconds:
                print(f"criterion {number} ({label}): FAIL (took {elapsed:.2f}s)")
                raise AssertionError(
                    f"criterion {number} exceeded {limit_seconds}s (took {elapsed:.2f}s)"
                )
            print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s)")

        return wrapper

    return decorate


def algebra(p):
    return FreeAlgebra(Alphabet(("x", "y")), SymbolRing(PrimeField(p), ()))


def pair_set(facts):
    return {(f.left, f.right) for f in facts}


@criterion(1, "two-solution example at split (2,3)", limit_seconds=1.0)
def test_criterion_1_quintic_example():
    for p in (5, 7):
        alg = algebra(p)
        f = alg.from_text("y*x*y*x*y - y")
        facts = factor_bidegree(f, (2, 3))
        assert len(facts) == 2
        expected = {
            normalize_pair(alg.from_text("y*x - 1"), alg.from_text("y*x*y + y")),
            normalize_pair(alg.from_text("y*x + 1"), alg.from_text("y*x*y - y")),
        }
        assert pair_set(facts) == expected
        for fact in facts:
            ring = fact.system.ring
            a = ring.symbol("a1")
            assert list(fact.reduced_basis) == [a * a - 1]


@criterion(2, "root-chain family boundaries", limit_seconds=30.0)
def test_criterion_2_chain_boundaries():
    for p, roots in ((5, (1, -1)), (7, (1, 2, 3))):
        field = PrimeField(p)
        f, chains = chain_family(field, roots)
        found = factor_all(f)
        for chain in chains:
            prod = chain[0]
            for part in chain[1:]:
                prod = prod * part
            assert prod == f
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


def _homogeneous_corpus():
    field = PrimeField(3)
    corpus = []
    for seed in range(200):
        dg = 1 + seed % 3
        dh = 1 + (seed // 3) % 3
        corpus.append(
            (seed, random_factorable(seed, field, dg, dh, term_cap=4, homogeneous=True))
        )
    return corpus


@criterion(3, "homogeneous recovery 200/200", limit_seconds=10.0)
def test_criterion_3_homogeneous_recovery():
    recovered = 0
    for seed, (f, g, h) in _homogeneous_corpus():
        got = factor_homogeneous(f, g.degree(), h.degree())
        assert got == normalize_pair(g, h), f"seed {seed}"
        recovered += 1
    assert recovered == 200
    alg = algebra(3)
    assert factor_homogeneous(alg.from_text("x*x - y*y"), 1, 1) is None


@criterion(4, "refinement of double factorizations")
def test_criterion_4_refinement():
    instances = [f for _, (f, _, _) in _homogeneous_corpus()]
    instances.append(algebra(5).from_text("y*x*y*x*y"))
    checked = 0
    for f in instances:
        n = f.degree()
        found = {}
        for split in range(1, n):
            got = factor_homogeneous(f, split, n - split)
            if got is not None:
                found[split] = got
        splits = sorted(found)
        for i in range(len(splits)):
            for j_idx in range(i + 1, len(splits)):
                g1, h1 = found[splits[i]]
                g2, h2 = found[splits[j_idx]]
                joint = refine(g1, h1, g2, h2)
                assert g1 * joint == g2
                assert joint * h2 == h1
                checked += 1
    assert checked > 0


def _general_corpus():
    field = PrimeField(2)
    corpus = []
    for seed in range(100):
        dg = 1 + seed % 2
        dh = 1 + (seed // 2) % 2
        f, g, h = random_factorable(seed, field, dg, dh, term_cap=3)
        corpus.append((seed, f, (dg, dh)))
    return corpus


@criterion(5, "oracle equivalence 100/100", limit_seconds=600.0)
def test_criterion_5_oracle_equivalence():
    matched = 0
    for seed, f, split in _general_corpus():
        mine = pair_set(factor_bidegree(f, split))
        oracle = {
            (g, h)
            for g, h in brute_force_factor(f, split, exhaustive=True)
        }
        assert mine == oracle, f"seed {seed}"
        matched += 1
    assert matched == 100


@criterion(6, "degree-filter soundness and measured reduction")
def test_criterion_6_knapsack_filter():
    corpus = [f for _, f, _ in _general_corpus()]
    rng = random.Random(1234)
    alg = algebra(2)
    while len(corpus) < 150:
        base = corpus[rng.randrange(100)]
        word = tuple(rng.randrange(2) for _ in range(rng.randint(0, base.degree())))
        perturbed = base + alg.monomial(word, 1)
        if not perturbed.is_zero() and perturbed.degree() >= 2:
            corpus.append(perturbed)
    splits_all = 0
    splits_filtered = 0
    for f in corpus:
        n = f.degree()
        admissible = knapsack_splits(f)
        splits_all += n - 1
        splits_filtered += len(admissible)
        for b in range(1, n):
            found = brute_force_factor(f, (b, n - b), budget=10**6)
            if found:
                assert DegreeSplit(b, n - b) in admissible, str(f)
    assert splits_filtered <= splits_all
    reduction = splits_all / splits_filtered if splits_filtered else float("inf")
    print(
        f"\n  [criterion 6 report] splits without filter: {splits_all}, "
        f"with filter: {splits_filtered}, reduction factor: {reduction:.2f}"
    )


@criterion(7, "reduced Groebner layer", limit_seconds=5.0)
def test_criterion_7_groebner_layer():
    ring = SymbolRing(PrimeField(5), ("a",))
    a = ring.symbol("a")
    basis = reduce_groebner(buchberger([a * a - 1]))
    assert basis == [a * a + 4]
    sols = enumerate_solutions(ConstraintSystem(ring, (a * a - 1,)))
    assert [s["a"] for s in sols] == [1, 4]
    rng = random.Random(99)
    checked_ideals = 0
    while checked_ideals < 50:
        p = rng.choice((2, 3, 5))
        symbols = ("a", "b")[: rng.randint(1, 2)]
        r = SymbolRing(PrimeField(p), symbols)
        gens = []
        for _ in range(rng.randint(1, 3)):
            poly = r.zero()
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in symbols)
                poly = poly + r.poly({mono: rng.randrange(p)})
            if not poly.is_zero():
                gens.append(poly)
        if not gens:
            continue
        basis = buchberger(gens)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero()
        checked_ideals += 1


@criterion(8, "CLI golden files, byte-identical")
def test_criterion_8_cli_golden():
    def capture(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        return code, out.getvalue()

    text_argv = ["--field", "5", "--groebner", "y*x*y*x*y - y"]
    json_argv = ["--field", "5", "--groebner", "--json", "y*x*y*x*y - y"]
    code, text = capture(text_argv)
    assert code == 0
    assert text == (GOLDEN / "quintic_example.txt").read_text()
    code, js = capture(json_argv)
    assert code == 0
    assert js == (GOLDEN / "quintic_example.json").read_text()
    assert capture(text_argv) == (0, text)
    assert capture(json_argv) == (0, js)
    doc = json.loads(js)
    two_three = [s for s in doc["splits"] if (s["h"], s["k"]) == (2, 3)][0]
    assert len(two_three["factorizations"]) == 2
