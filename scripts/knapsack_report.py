"""Measure how much the commutative-image degree filter prunes the search.

Builds a seeded corpus of products plus perturbed (mostly irreducible)
polynomials, then compares the number of degree splits a full sweep would
try against the number the filter admits, and against the number the
Newton polygon bound (`newton_splits`, the one `factor_all` applies) allows.

Usage: python scripts/knapsack_report.py [--prime P] [--cases N]
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncfactor import PrimeField, knapsack_splits, newton_splits, random_factorable


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prime", type=int, default=2)
    parser.add_argument("--cases", type=int, default=150)
    args = parser.parse_args()
    field = PrimeField(args.prime)

    corpus = []
    for seed in range(args.cases * 2 // 3):
        dg = 1 + seed % 2
        dh = 1 + (seed // 2) % 2
        f, _, _ = random_factorable(seed, field, dg, dh, term_cap=3)
        corpus.append(f)
    rng = random.Random(1234)
    while len(corpus) < args.cases:
        base = corpus[rng.randrange(len(corpus))]
        word = tuple(rng.randrange(2) for _ in range(rng.randint(0, base.degree())))
        perturbed = base + base.algebra.monomial(word, 1)
        if not perturbed.is_zero() and perturbed.degree() >= 2:
            corpus.append(perturbed)

    total_all = 0
    total_filtered = 0
    total_newton = 0
    fully_pruned = 0
    for f in corpus:
        n = f.degree()
        admissible = knapsack_splits(f)
        total_all += n - 1
        total_filtered += len(admissible)
        total_newton += len(newton_splits(f))
        if not admissible:
            fully_pruned += 1
    reduction = total_all / total_filtered if total_filtered else float("inf")
    print(f"cases: {len(corpus)} over {field!r}")
    print(f"splits without filter: {total_all}")
    print(f"splits with filter:    {total_filtered}")
    print(f"splits Newton allows:  {total_newton}")
    print(f"reduction factor:      {reduction:.2f}")
    print(f"inputs pruned to zero splits (image irreducible): {fully_pruned}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
