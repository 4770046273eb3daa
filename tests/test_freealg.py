import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ncfactor.commutative import SymbolRing
from ncfactor.errors import ContextMismatchError
from ncfactor.fields import PrimeField, RationalField
from ncfactor.freealg import (
    Alphabet,
    FreeAlgebra,
    concat,
    from_scalar_terms,
    homogenize,
    left_divide,
    left_quotient,
    normalize_pair,
    overlap_lengths,
    right_quotient,
    scalar_product,
    scalar_terms,
)
from ncfactor.oracle import _raw_left_divide, _to_raw, random_factorable


def algebra(p=5, names=("x", "y")):
    field = PrimeField(p) if p else RationalField()
    return FreeAlgebra(Alphabet(names), SymbolRing(field, ()))


ALG = algebra()
W = ALG.alphabet.word


class TestWords:
    def test_left_quotient_of_quintic_word(self):
        assert left_quotient(W("yxyxy"), W("yx")) == W("yxy")

    def test_right_quotient_of_quintic_word(self):
        assert right_quotient(W("yxyxy"), W("yxy")) == W("yx")

    def test_prefix_mismatch_is_none(self):
        assert left_quotient(W("xy"), W("yx")) is None

    def test_overlap_full_suffix(self):
        assert overlap_lengths(W("yx"), W("yxy")) == (2,)

    def test_overlap_single_letter(self):
        assert overlap_lengths(W("xy"), W("yx")) == (1,)

    def test_overlap_disjoint_letters(self):
        assert overlap_lengths(W("xx"), W("yy")) == ()

    def test_monoid_laws_exhaustive(self):
        words = [w for n in range(4) for w in product((0, 1), repeat=n)]
        for u in words:
            assert concat(u, ()) == u == concat((), u)
            for v in words:
                for w in words:
                    assert concat(concat(u, v), w) == concat(u, concat(v, w))

    def test_quotient_concat_inverse_exhaustive(self):
        words = [w for n in range(4) for w in product((0, 1), repeat=n)]
        for g in words:
            for w in words:
                assert left_quotient(concat(g, w), g) == w
                assert right_quotient(concat(w, g), g) == w


class TestArithmetic:
    def test_product_quintic_example(self):
        g = ALG.from_text("y*x - 1")
        h = ALG.from_text("y*x*y + y")
        assert g * h == ALG.from_text("y*x*y*x*y - y")

    def test_product_expansion(self):
        assert ALG.from_text("(x - y) * (x + y)") == ALG.from_text(
            "x*x + x*y - y*x - y*y"
        )

    def test_scale_by_zero(self):
        f = ALG.from_text("y*x*y*x*y - y")
        assert f.scale(0).is_zero()

    def test_noncommutative_witness(self):
        assert ALG.from_text("x*y") != ALG.from_text("y*x")

    def test_context_mismatch(self):
        other = algebra(names=("x", "y", "z"))
        with pytest.raises(ContextMismatchError):
            ALG.from_text("x") + other.from_text("x")

    def test_degree_of_zero_flagged(self):
        with pytest.raises(ValueError):
            ALG.zero().degree()


def divide(a, d):
    q = left_divide(scalar_terms(a), scalar_terms(d), a.algebra.field.reduce)
    return None if q is None else from_scalar_terms(a.algebra, q)


class TestLeftDivide:
    def test_exact_quotient(self):
        d = ALG.from_text("x*y + 1")
        q = ALG.from_text("2*y*x + y + 3")
        assert divide(d * q, d) == q

    def test_non_divisor_sharing_the_leading_prefix(self):
        # the leading word x*y*x starts with x*y, but the remainder y - x
        # after one step leads with a word that does not
        assert divide(ALG.from_text("x*y*x + y"), ALG.from_text("x*y + 1")) is None

    def test_division_by_one(self):
        a = ALG.from_text("3*y*x*y + x + 4")
        assert divide(a, ALG.one()) == a

    @pytest.mark.parametrize("p", [2, 5])
    def test_agrees_with_oracle_division(self, p):
        # seeded products g*h divide exactly; with one monomial added they
        # mostly do not, and both divisions must agree either way
        rng = random.Random(p)
        exact = refused = 0
        for seed in range(60):
            f, g, h = random_factorable(seed, PrimeField(p), rng.randint(1, 3), rng.randint(1, 3), 3)
            g, h = normalize_pair(g, h)
            word = tuple(rng.randrange(2) for _ in range(rng.randint(0, f.degree())))
            for a in (f, f + f.algebra.monomial(word, 1)):
                want = _raw_left_divide(_to_raw(a), _to_raw(g), p)
                got = divide(a, g)
                assert (None if got is None else _to_raw(got)) == want, (a, g)
                exact += got is not None
                refused += got is None
            assert divide(f, g) == h
        assert exact >= 60 and refused > 0


def random_poly(alg, rng):
    """A seeded polynomial in x, y of degree at most 3; over Q with Fraction coefficients."""
    fld = alg.field
    terms = {}
    for _ in range(rng.randint(1, 6)):
        word = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        if fld.is_finite:
            terms[word] = rng.randrange(fld.p)
        else:
            terms[word] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return alg.poly(terms)


class TestScalarKernel:
    @pytest.mark.parametrize("p", [2, 5, None])
    def test_product_agrees_with_ncpoly_product(self, p):
        alg = algebra(p)
        rng = random.Random(p or 0)
        for _ in range(200):
            a, b = random_poly(alg, rng), random_poly(alg, rng)
            got = scalar_product(scalar_terms(a), scalar_terms(b), alg.field.reduce)
            assert got == scalar_terms(a * b), (a, b)
            assert from_scalar_terms(alg, got) == a * b

    @pytest.mark.parametrize("p", [2, 5, None])
    def test_scalar_terms_round_trip(self, p):
        alg = algebra(p)
        rng = random.Random(p or 0)
        for _ in range(50):
            a = random_poly(alg, rng)
            terms = scalar_terms(a)
            assert all(terms.values())
            assert from_scalar_terms(alg, terms) == a

    def test_scalar_terms_need_a_symbol_free_algebra(self):
        alg = FreeAlgebra(Alphabet(("x", "y")), SymbolRing(PrimeField(5), ("a1",)))
        with pytest.raises(ValueError, match="symbol-free"):
            scalar_terms(alg.from_text("x*y + 1"))

    @pytest.mark.parametrize("p", [5, None])
    def test_substitution_evaluates_each_coefficient(self, p):
        # substitute_symbols agrees with CPoly.evaluate coefficient by coefficient
        field = PrimeField(p) if p else RationalField()
        alg = FreeAlgebra(Alphabet(("x", "y")), SymbolRing(field, ("a1", "a2")))
        ring = alg.ring
        a1, a2 = ring.symbol("a1"), ring.symbol("a2")
        g = alg.poly({(0, 1): a1 * a1 * 3 + a2, (1,): a1 * a2 - 2, (): ring.constant(4)})
        for point in ({"a1": 1, "a2": 2}, {"a1": 3, "a2": -1}, {"a1": 0, "a2": 2}):
            want = {w: c.evaluate(point) for w, c in g.terms()}
            got = g.substitute_symbols(point)
            assert got.algebra == algebra(p)
            assert {w: got.coefficient(w).constant_value() for w, _ in g.terms()} == want


class TestIdentity:
    def test_polynomials_are_their_own_keys(self):
        # equal terms in two contexts are two keys; equal polynomials one key
        wider = algebra(names=("x", "y", "z"))
        f = ALG.from_text("y*x - 1")
        assert f._terms == wider.from_text("y*x - 1")._terms
        assert len({f, wider.from_text("y*x - 1")}) == 2
        same = ALG.from_text("-1 + y*x")
        assert same == f and hash(same) == hash(f)
        assert len({f, same}) == 1
        a = SymbolRing(PrimeField(5), ("a",)).symbol("a")
        b = SymbolRing(PrimeField(5), ("b",)).symbol("b")
        assert len({a, b}) == 2
        assert hash(a * a - 1) == hash(a * a + a - a - 1)


class TestHomogeneousParts:
    def test_head_is_single_monomial(self):
        f = ALG.from_text("y*x*y*x*y - y")
        assert f.homogeneous_part(5) == ALG.from_text("y*x*y*x*y")

    def test_missing_degree_is_zero(self):
        f = ALG.from_text("y*x*y*x*y - y")
        assert f.homogeneous_part(3).is_zero()

    def test_degree(self):
        assert ALG.from_text("y*x*y*x*y - y").degree() == 5

    def test_parts_sum_to_whole(self):
        f = ALG.from_text("x*y + y*x - 2*x + 3")
        total = ALG.zero()
        for d in range(f.degree() + 1):
            total = total + f.homogeneous_part(d)
        assert total == f

    def test_is_homogeneous(self):
        assert ALG.from_text("x*y + y*x").is_homogeneous()
        assert not ALG.from_text("x*y + x").is_homogeneous()


class TestCommutativeImage:
    def test_letter_multiset(self):
        img = ALG.from_text("x*y + y*x").commutative_image()
        assert img == img.ring.poly({(1, 1): 2})

    def test_quintic_image(self):
        img = ALG.from_text("y*x*y*x*y - y").commutative_image()
        assert img == img.ring.poly({(2, 3): 1, (0, 1): -1})

    def test_homogenized_example(self):
        img = ALG.from_text("x*x - y*y").commutative_image()
        assert img == img.ring.poly({(2, 0): 1, (0, 2): -1})

    def test_symbolic_coefficients_rejected(self):
        sym_alg = ALG.extend_symbols(("a",))
        f = sym_alg.monomial(W("xy"), sym_alg.ring.symbol("a"))
        with pytest.raises(ValueError):
            f.commutative_image()


class TestHomogenize:
    def test_right_padding(self):
        one_var = algebra(names=("x",))
        f = one_var.from_text("x^2 - 1")
        padded = homogenize(f, "y")
        assert padded == ALG.from_text("x*x - y*y")

    def test_already_homogeneous_unchanged(self):
        f = ALG.from_text("x*y + y*x")
        assert homogenize(f, "z") == f.lift(ALG.extend_alphabet("z"))

    def test_pad_by_square(self):
        f = ALG.from_text("y*x - 1")
        target = algebra(names=("x", "y", "z"))
        assert homogenize(f, "z") == target.from_text("y*x - z*z")

    def test_name_collision_rejected(self):
        with pytest.raises(ValueError):
            homogenize(ALG.from_text("x"), "y")


@st.composite
def ncpolys(draw, alg, max_degree=4, max_terms=5):
    p = alg.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        length = draw(st.integers(min_value=0, max_value=max_degree))
        word = tuple(
            draw(st.integers(min_value=0, max_value=alg.alphabet.size - 1))
            for _ in range(length)
        )
        coeff = draw(st.integers(min_value=0, max_value=alg.field.p - 1))
        p = p + alg.monomial(word, coeff)
    return p


ALG2 = algebra(p=2)
ALG5 = algebra(p=5)


@given(ncpolys(ALG5), ncpolys(ALG5), ncpolys(ALG5))
@settings(max_examples=50)
def test_ring_laws_random(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(ncpolys(ALG5), ncpolys(ALG5))
@settings(max_examples=60)
def test_no_zero_divisors(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        prod = a * b
        assert not prod.is_zero()
        assert prod.degree() == a.degree() + b.degree()


@given(ncpolys(ALG2), ncpolys(ALG2))
@settings(max_examples=40)
def test_no_zero_divisors_char_two(a, b):
    if not a.is_zero() and not b.is_zero():
        assert not (a * b).is_zero()


@given(ncpolys(ALG5, max_degree=3, max_terms=4), ncpolys(ALG5, max_degree=3, max_terms=4))
@settings(max_examples=50)
def test_commutative_image_is_homomorphism(a, b):
    assert (a * b).commutative_image() == a.commutative_image() * b.commutative_image()


@given(ncpolys(ALG5, max_degree=3, max_terms=4))
@settings(max_examples=50)
def test_homogenize_properties(f):
    if f.is_zero():
        return
    padded = homogenize(f, "z")
    assert padded.is_homogeneous()
    assert padded.degree() == f.degree()
    restricted = padded.substitute_variable_one("z")
    assert restricted == f.lift(padded.algebra)


def test_normalize_pair_gauge():
    g = ALG.from_text("2*y*x + 1")
    h = ALG.from_text("y + 3")
    gn, hn = normalize_pair(g, h)
    assert gn.leading_coefficient() == ALG.ring.one()
    assert gn * hn == g * h


@st.composite
def renderable_polys(draw):
    """Symbol-free polynomials over F_2, F_5, F_101 or Q: unit and negative
    coefficients, letter runs such as x^3, constants and 0 all come up."""
    alg = draw(st.sampled_from([algebra(2), ALG5, algebra(101, ("x", "y", "z")), algebra(None)]))
    if alg.field.is_finite:
        coeffs = st.integers(min_value=0, max_value=alg.field.p - 1)
    else:
        coeffs = st.sampled_from([1, -1]) | st.fractions(min_value=-9, max_value=9, max_denominator=7)
    letters = st.integers(min_value=0, max_value=alg.alphabet.size - 1)
    terms = draw(st.dictionaries(st.lists(letters, max_size=5).map(tuple), coeffs, max_size=5))
    return alg.poly(terms)


@given(renderable_polys())
@settings(max_examples=200)
def test_scalar_rendering_matches_constant_coefficient_rendering(f):
    # a symbol-free NCPoly prints its scalars directly; lifted to an algebra
    # with a symbol, the same terms print through constant CPoly coefficients
    assert str(f) == str(f.lift(f.algebra.extend_symbols(("a1",))))


@pytest.mark.parametrize(
    "p,text,shown",
    [
        (5, "x*x*x*y - y + 1", "x^3*y + 4*y + 1"),
        (None, "-x*y*y + 1/2*x - 3", "-x*y^2 + 1/2*x - 3"),
        (None, "-2/3", "-2/3"),
        (101, "x - x", "0"),
    ],
)
def test_scalar_rendering_examples(p, text, shown):
    f = algebra(p).from_text(text)
    assert str(f) == shown == str(f.lift(f.algebra.extend_symbols(("a1",))))
