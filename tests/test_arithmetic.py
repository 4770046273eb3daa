"""NCPoly, CPoly and symbolic word-product arithmetic against a naive model.

The model holds a polynomial as {(word, monomial): Fraction}, computes over
Q and maps into the field only at the end (the map from fractions with
denominators prime to p onto F_p is a ring homomorphism), so it shares no
code with the term-dict kernel the package computes with.  A commutative
polynomial is a model whose only word is the empty one, and an NCPoly one
without symbols; symbolic word dicts ({word: {monomial: scalar}}) carry
0-2 symbols.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ncfactor.commutative import SymbolRing
from ncfactor.fields import PrimeField, RationalField
from ncfactor.freealg import Alphabet, FreeAlgebra, add_word_product

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
    """A field, its number of symbols, two symbolic NC models, one commutative
    model and two NC models without symbols."""
    fld = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(min_value=0, max_value=2))
    symbolic = draw(models(n, ncwords)), draw(models(n, ncwords)), draw(models(n, empty_word))
    return (fld, n, *symbolic, draw(models(0, ncwords)), draw(models(0, ncwords)))


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
            # the printer's sign test (join_terms) relies on Fraction values
            assert type(v) is Fraction and v != 0
        out[key] = v
    return out


@given(cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_arithmetic_matches_model(case):
    fld, n, a, b, c, u, v = case
    ring = SymbolRing(fld, ("s", "t")[:n])
    alg = FreeAlgebra(Alphabet(("x", "y")), SymbolRing(fld, ()))
    s = fld.coerce(next(iter(b.values()), Fraction(0)))
    unit = ((), (0,) * n)

    # NCPoly: words with field scalars
    def ncpoly(model):
        return alg.poly({w: v for (w, _), v in reduced(fld, model).items()})

    def nc_terms(f):
        return stored(fld, (((w, ()), v) for w, v in f.terms()))

    f, g = ncpoly(u), ncpoly(v)
    assert nc_terms(f + g) == reduced(fld, plus(u, v))
    assert nc_terms(f - g) == reduced(fld, plus(u, v, -1))
    assert nc_terms(-f) == reduced(fld, plus({}, u, -1))
    assert nc_terms(f * g) == reduced(fld, times(u, v))
    assert nc_terms(f - f) == {}
    assert nc_terms(f.scale(s)) == reduced(fld, times(u, {((), ()): s}))
    assert all(f.coefficient(w) == c for (w, _), c in nc_terms(f).items())

    # CPoly in 0-2 symbols: c and the empty-word part of a
    def c_terms(f):
        return stored(fld, ((((), m), v) for m, v in f.terms()))

    def cpoly(model):
        return ring.poly({m: v for (_, m), v in reduced(fld, model).items()})

    pm, qm = c, {key: v for key, v in a.items() if key[0] == ()}
    p, q = cpoly(pm), cpoly(qm)
    assert c_terms(p + q) == reduced(fld, plus(pm, qm))
    assert c_terms(p - q) == reduced(fld, plus(pm, qm, -1))
    assert c_terms(-p) == reduced(fld, plus({}, pm, -1))
    assert c_terms(p * q) == reduced(fld, times(pm, qm))
    assert c_terms(p.scale(s)) == reduced(fld, times(pm, {unit: s}))

    # add_word_product on symbolic word dicts: acc += s*a*b, in place
    def word_terms(model):
        out = {}
        for (w, m), v in reduced(fld, model).items():
            out.setdefault(w, {})[m] = v
        return out

    def symbolic_terms(terms):
        assert all(terms.values())
        return stored(fld, (((w, m), v) for w, t in terms.items() for m, v in t.items()))

    acc, left, right = word_terms(c), word_terms(a), word_terms(b)
    add_word_product(acc, s, left, right, fld.reduce)
    assert symbolic_terms(acc) == reduced(fld, plus(c, times(a, b), s))
    assert (left, right) == (word_terms(a), word_terms(b))
    acc = word_terms(a)
    add_word_product(acc, fld.coerce(-1), left, {(): {(0,) * n: fld.one}}, fld.reduce)
    assert symbolic_terms(acc) == {}
