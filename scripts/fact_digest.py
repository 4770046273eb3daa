"""One SHA-256 digest over every fact `factor_all` returns on a seeded corpus.

Input i is built from `random.Random(i)` over F_2, F_3, F_5, F_101 or Q
(i mod 5), as a product of two random factors, a product plus one random
monomial, or a product whose factors share a middle part (G = A*E + lower,
H = E*B + lower, the shape with underdetermined recovery steps), in turn.
Each fact contributes its split, left, right, system (equations in order),
solutions and pivots; an enumeration cap stop contributes one line.  Two
checkouts that print the same digest returned the same facts.  One digest
per field precedes the total, so a changed total names the fields it moved.
With --prime P every input is built over F_P instead (coefficients drawn
from 1..P-1, factor degrees up to 3), which exercises the recovery's
divisions by head coefficients at a large prime.

Usage: python scripts/fact_digest.py [--count N] [--prime P]
"""

import argparse
import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncfactor import (
    Alphabet,
    FreeAlgebra,
    PrimeField,
    RationalField,
    SearchSpaceTooLargeError,
    SymbolRing,
    factor_all,
)

FIELDS = (PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(101), RationalField())
KINDS = ("product", "perturbed", "shared-middle")


def random_poly(rng, alg, degree, max_terms):
    """A word of the given degree plus up to max_terms - 1 lower or equal terms."""
    fld = alg.field
    size = alg.alphabet.size

    def coeff():
        if fld.is_finite:
            return rng.randrange(1, fld.p)
        return rng.choice([-3, -2, -1, 1, 2, 3])

    def word(d):
        return tuple(rng.randrange(size) for _ in range(d))

    poly = alg.monomial(word(degree), coeff())
    for _ in range(rng.randrange(max_terms)):
        poly = poly + alg.monomial(word(rng.randint(0, degree)), coeff())
    while poly.is_zero() or poly.degree() != degree:
        # the added terms cancelled the top word: add another
        poly = poly + alg.monomial(word(degree), coeff())
    return poly


def make_input(index, field=None):
    rng = random.Random(index)
    if field is None:
        field = FIELDS[index % len(FIELDS)]
    kind = KINDS[index // len(FIELDS) % len(KINDS)]
    names = ("x", "y", "z")[: rng.randint(2, 3)]
    alg = FreeAlgebra(Alphabet(names), SymbolRing(field, ()))
    top = 3 if field.is_finite else 2
    if kind == "shared-middle":
        e = rng.randint(1, 2)
        a, b = rng.randint(0, top - e), rng.randint(0, top - e)
        middle = random_poly(rng, alg, e, 2)
        left = random_poly(rng, alg, a, 2) * middle + random_poly(rng, alg, a + e - 1, 2)
        right = middle * random_poly(rng, alg, b, 2) + random_poly(rng, alg, e + b - 1, 2)
    else:
        left = random_poly(rng, alg, rng.randint(1, top), 3)
        right = random_poly(rng, alg, rng.randint(1, top), 3)
    f = left * right
    if kind == "perturbed":
        f = f + random_poly(rng, alg, rng.randint(0, f.degree()), 1)
    return f


def fact_lines(f):
    if f.is_zero() or f.degree() < 2:
        return [f"input {f}: skipped"]
    lines = [f"input {f} over {f.algebra.field!r}"]
    try:
        found = factor_all(f)
    except SearchSpaceTooLargeError as exc:
        return lines + [f"cap stop: {exc}"]
    for split, facts in found.items():
        for fact in facts:
            solutions = None if fact.solutions is None else [
                sorted((name, str(value)) for name, value in sol.items())
                for sol in fact.solutions
            ]
            lines.append(
                f"{tuple(split)} | {fact.left} | {fact.right} | {fact.system} | "
                f"{solutions} | {fact.pivots}"
            )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=300)
    parser.add_argument("--prime", type=int, help="build every input over F_P")
    args = parser.parse_args()
    field = PrimeField(args.prime) if args.prime else None
    digest = hashlib.sha256()
    by_field = {fld: hashlib.sha256() for fld in ([field] if field else FIELDS)}
    facts = 0
    for index in range(args.count):
        f = make_input(index, field)
        lines = fact_lines(f)
        facts += sum(line.startswith("(") for line in lines)
        for line in lines:
            digest.update(line.encode() + b"\n")
            by_field[f.algebra.field].update(line.encode() + b"\n")
    print(f"inputs: {args.count}")
    print(f"facts: {facts}")
    for field, field_digest in by_field.items():
        print(f"sha256 {field!r}: {field_digest.hexdigest()}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
