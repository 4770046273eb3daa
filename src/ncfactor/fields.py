"""Exact coefficient fields: prime fields F_p and the rationals Q.

Elements are plain Python values (``int`` residues in ``[0, p)`` for F_p,
reduced ``Fraction`` for Q), and sums and products are plain ``int`` and
``Fraction`` arithmetic.  The field object coerces values into the field,
reduces a computed value to its canonical form (``reduce``: ``v % p`` over
F_p, the identity over Q) and inverts; the term-dict arithmetic built on
``reduce`` lives in ``commutative`` (``axpy``, ``add_product``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


class PrimeField:
    """The field F_p for a prime p < 2**31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        # the bound first: trial division of a large p would not finish
        if p >= 2**31:
            raise ValueError(f"{p} too large (need a prime p < 2**31)")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    @property
    def is_finite(self) -> bool:
        return True

    def coerce(self, x: Scalar) -> int:
        """Map an integer or rational into F_p (canonical representative)."""
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator {x.denominator} vanishes in F_{self.p}")
            return x.numerator * self.inv(x.denominator % self.p) % self.p
        return x % self.p

    def reduce(self, v: int) -> int:
        """The canonical residue of an integer computed from residues."""
        return v % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return a * self.inv(b) % self.p

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"F_{self.p}"


class RationalField:
    """The field Q with exact Fraction arithmetic."""

    __slots__ = ()

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    @property
    def is_finite(self) -> bool:
        return False

    def coerce(self, x: Scalar) -> Fraction:
        return Fraction(x)

    def reduce(self, v: Fraction) -> Fraction:
        """The identity: Fraction arithmetic keeps values reduced."""
        return v

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        return Fraction(a) / b

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "Q"


Field = Union[PrimeField, RationalField]
