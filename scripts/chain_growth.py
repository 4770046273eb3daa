"""Count factorizations of the chain family y*f(xy) as the degree grows.

For f(t) = (t - r_1)...(t - r_k) with distinct roots, y*f(xy) factors in
exponentially many ways: any root order combined with any placement of the
left-over y gives a distinct maximal chain.  This script builds the family
for increasing k and reports two-factor counts per split and the number of
maximal chains actually found.

Usage: python scripts/chain_growth.py [--prime P] [--max-roots K]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncfactor import PrimeField, factor_all, factor_completely, chain_family


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prime", type=int, default=7)
    parser.add_argument("--max-roots", type=int, default=3)
    args = parser.parse_args()
    field = PrimeField(args.prime)
    if args.max_roots >= args.prime:
        parser.error("need more field elements than roots")

    for k in range(1, args.max_roots + 1):
        roots = list(range(1, k + 1))
        f, predicted = chain_family(field, roots)
        t0 = time.perf_counter()
        by_split = factor_all(f)
        chains = factor_completely(f)
        elapsed = time.perf_counter() - t0
        two_factor = sum(len(v) for v in by_split.values())
        print(f"k={k}  deg={f.degree()}  F = {f}")
        print(f"  predicted chains (fixed root order): {len(predicted)}")
        for split in sorted(by_split):
            print(f"  split {split.h},{split.k}: {len(by_split[split])} factorization(s)")
        print(
            f"  two-factor total: {two_factor}; maximal chains: {len(chains)}"
            f"  ({elapsed:.2f}s)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
