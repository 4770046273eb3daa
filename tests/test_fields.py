from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncfactor.commutative import SymbolRing
from ncfactor.fields import PrimeField, RationalField


@pytest.mark.parametrize("p", [2, 3, 5, 7, 97])
def test_prime_field_basics(p):
    fld = PrimeField(p)
    assert fld.coerce(-1) == p - 1
    assert fld.coerce(p) == 0
    ring = SymbolRing(fld)
    assert ring.constant(p - 1) + ring.constant(1) == ring.zero()
    a = 2 % p if p > 2 else 1
    assert fld.reduce(fld.inv(a) * a) == 1


@pytest.mark.parametrize("n", [0, 1, 4, 6, 9, 2**31, 2**61 - 1])
def test_rejects_non_prime_or_large(n):
    with pytest.raises(ValueError):
        PrimeField(n)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        RationalField().inv(Fraction(0))


def test_rational_coercion_reduced():
    q = RationalField()
    v = q.coerce(Fraction(4, -6))
    assert v == Fraction(-2, 3)
    assert v.denominator == 3  # positive denominator


def test_fraction_into_prime_field():
    f5 = PrimeField(5)
    assert f5.coerce(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1
    with pytest.raises(ZeroDivisionError):
        f5.coerce(Fraction(1, 5))


# Sums and products of field elements are taken by the term-dict kernel, so
# the field laws are checked on constant polynomials.
fields = st.sampled_from(
    [PrimeField(2), PrimeField(5), PrimeField(97), PrimeField(101), RationalField()]
)
small = st.integers(min_value=-50, max_value=50)


@given(fields, small, small, small)
def test_field_axioms(fld, a, b, c):
    ring = SymbolRing(fld)
    x, y, z = ring.constant(a), ring.constant(b), ring.constant(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == ring.zero()
    assert x - y == x + (-y)
    if not y.is_zero():
        yv = y.constant_value()
        assert y * ring.constant(fld.inv(yv)) == ring.one()
        assert ring.constant(fld.div(x.constant_value(), yv)) * y == x


@given(fields, small, st.integers(min_value=0, max_value=8))
def test_pow_matches_repeated_mul(fld, a, e):
    # t^e evaluated at x against e products of the constant x
    ring = SymbolRing(fld, ("t",))
    x = fld.coerce(a)
    acc = ring.one()
    for _ in range(e):
        acc = acc * ring.constant(x)
    power = ring.poly({(e,): 1}).evaluate_tuple((x,))
    assert power == acc.constant_value()
    assert power == (pow(x, e, fld.p) if fld.is_finite else x**e)
