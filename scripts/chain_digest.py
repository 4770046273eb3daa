"""One SHA-256 digest over every chain `factor_completely` returns on a seeded corpus.

Input i is `fact_digest.make_input(i)` (F_2, F_3, F_5, F_101 or Q, i mod 5),
factored completely once.  Each chain contributes its factor texts, in
returned order; an enumeration cap stop contributes one line to the digest
and is printed as one line.  Two checkouts that print the same output
returned the same chains.

Usage: python scripts/chain_digest.py [--count N]
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fact_digest import make_input
from ncfactor import SearchSpaceTooLargeError, factor_completely


def chain_lines(f):
    """The digest lines of one input; a cap stop is one line."""
    try:
        chains = factor_completely(f)
    except SearchSpaceTooLargeError as exc:
        return [f"cap stop: {exc}"]
    return [" * ".join(f"({p})" for p in chain.factors) for chain in chains]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=300)
    args = parser.parse_args()
    digest = hashlib.sha256()
    chains = 0
    stops = []
    for index in range(args.count):
        f = make_input(index)
        if f.is_zero() or f.degree() < 2:
            continue
        digest.update(f"input {f} over {f.algebra.field!r}\n".encode())
        lines = chain_lines(f)
        if lines[0].startswith("cap stop"):
            stops.append(f"input {index}: {lines[0]}")
        else:
            chains += len(lines)
        for line in lines:
            digest.update(line.encode() + b"\n")
    print(f"inputs: {args.count}")
    print(f"chains: {chains}")
    for stop in stops:
        print(stop)
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
