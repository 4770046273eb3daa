"""CPoly and NCPoly arithmetic against a naive model.

The model holds a polynomial as {(word, monomial): Fraction}, computes over
Q and maps into the field only at the end (the map from fractions with
denominators prime to p onto F_p is a ring homomorphism), so it shares no
code with the term-dict kernel the package computes with.  A commutative
polynomial is a model whose only word is the empty one.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ncfactor.commutative import SymbolRing
from ncfactor.fields import PrimeField, RationalField
from ncfactor.freealg import Alphabet, FreeAlgebra

FIELDS = [PrimeField(2), PrimeField(5), PrimeField(101), RationalField()]
# denominators are units in every field above
scalars = st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.sampled_from([1, 3, 7]))


def models(nsymbols, words):
    monomial = st.tuples(*[st.integers(min_value=0, max_value=2)] * nsymbols)
    return st.dictionaries(st.tuples(words, monomial), scalars, max_size=5)


ncwords = st.lists(st.integers(min_value=0, max_value=1), max_size=3).map(tuple)
empty_word = st.just(())


@st.composite
def cases(draw):
    """A field, its number of symbols, two NC models and one commutative model."""
    fld = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(min_value=0, max_value=2))
    return fld, n, draw(models(n, ncwords)), draw(models(n, ncwords)), draw(models(n, empty_word))


def plus(a, b, s=1):
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0) + s * v
    return out


def times(a, b):
    out = {}
    for (w1, m1), v1 in a.items():
        for (w2, m2), v2 in b.items():
            key = (w1 + w2, tuple(x + y for x, y in zip(m1, m2)))
            out[key] = out.get(key, 0) + v1 * v2
    return out


def reduced(fld, model):
    out = {key: fld.coerce(v) for key, v in model.items()}
    return {key: v for key, v in out.items() if v != 0}


def stored(fld, terms):
    """The model of stored terms, checking every stored scalar on the way."""
    out = {}
    for key, v in terms:
        if fld.is_finite:
            assert type(v) is int and 0 < v < fld.p
        else:
            # the printer's sign test (scalar_term) relies on Fraction values
            assert type(v) is Fraction and v != 0
        out[key] = v
    return out


@given(cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_arithmetic_matches_model(case):
    fld, n, a, b, c = case
    ring = SymbolRing(fld, ("s", "t")[:n])
    alg = FreeAlgebra(Alphabet(("x", "y")), ring)

    def ncpoly(model):
        words = {}
        for (w, m), v in reduced(fld, model).items():
            words.setdefault(w, {})[m] = v
        return alg.poly({w: ring.poly(terms) for w, terms in words.items()})

    def nc_terms(f):
        assert all(not coeff.is_zero() for _, coeff in f.terms())
        return stored(fld, (((w, m), v) for w, coeff in f.terms() for m, v in coeff.terms()))

    def c_terms(f):
        return stored(fld, ((((), m), v) for m, v in f.terms()))

    f, g = ncpoly(a), ncpoly(b)
    assert nc_terms(f + g) == reduced(fld, plus(a, b))
    assert nc_terms(f - g) == reduced(fld, plus(a, b, -1))
    assert nc_terms(-f) == reduced(fld, plus({}, a, -1))
    assert nc_terms(f * g) == reduced(fld, times(a, b))
    assert nc_terms(f - f) == {}

    coeff = ncpoly(c).coefficient(())
    assert nc_terms(f.scale(coeff)) == reduced(fld, times(a, c))
    s = next(iter(b.values()), Fraction(0))
    assert nc_terms(f.scale(s)) == reduced(fld, times(a, {((), (0,) * n): s}))

    # in the coefficient ring: c and the empty-word part of a
    p, q = coeff, f.coefficient(())
    pm, qm = c, {key: v for key, v in a.items() if key[0] == ()}
    assert c_terms(p + q) == reduced(fld, plus(pm, qm))
    assert c_terms(p - q) == reduced(fld, plus(pm, qm, -1))
    assert c_terms(-p) == reduced(fld, plus({}, pm, -1))
    assert c_terms(p * q) == reduced(fld, times(pm, qm))
    assert c_terms(p.scale(s)) == reduced(fld, times(pm, {((), (0,) * n): s}))
