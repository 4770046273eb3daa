import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncfactor import commutative
from ncfactor.commutative import (
    ConstraintSystem,
    SymbolRing,
    buchberger,
    enumerate_solutions,
    is_groebner_basis,
    normal_form,
    reduce_groebner,
    roots_mod_p,
)
from ncfactor.errors import (
    ContextMismatchError,
    NotAGroebnerBasisError,
    SearchSpaceTooLargeError,
    UnsupportedFieldError,
)
from ncfactor.fields import PrimeField, RationalField


@pytest.fixture
def r5a():
    return SymbolRing(PrimeField(5), ("a",))


@pytest.fixture
def r5ab():
    return SymbolRing(PrimeField(5), ("a", "b"))


def test_add_collects_like_terms(r5a):
    a = r5a.symbol("a")
    assert (a + 1) + (a - 1) == a.scale(2)


def test_difference_of_squares(r5a):
    a = r5a.symbol("a")
    assert (a - 1) * (a + 1) == a * a + 4


def test_scale_by_zero_gives_empty_term_map(r5a):
    a = r5a.symbol("a")
    p = (a * a + 4).scale(0)
    assert p.is_zero() and not p._terms


def test_context_mismatch_rejected(r5a, r5ab):
    with pytest.raises(ContextMismatchError):
        r5a.symbol("a") + r5ab.symbol("a")


def test_terms_iterate_in_descending_lex(r5ab):
    a, b = r5ab.symbol("a"), r5ab.symbol("b")
    p = b + a * a + a * b + 1
    monos = [m for m, _ in p.terms()]
    assert monos == sorted(monos, reverse=True)
    assert monos[0] == (2, 0)


def test_normal_form_self_reduction(r5a):
    a = r5a.symbol("a")
    assert normal_form(a * a + 4, [a * a + 4]).is_zero()


def test_normal_form_long_division(r5a):
    # a^3 = a * (a^2 + 4) - 4a, and -4a = a mod 5
    a = r5a.symbol("a")
    assert normal_form(a * a * a, [a * a + 4]) == a


def test_normal_form_no_leading_divisibility(r5ab):
    a, b = r5ab.symbol("a"), r5ab.symbol("b")
    assert normal_form(b, [a * a + 4]) == b


def test_buchberger_single_generator(r5a):
    a = r5a.symbol("a")
    basis = reduce_groebner(buchberger([a * a - 1]))
    assert basis == [a * a + 4]


def test_buchberger_pair_reduces_to_symbols(r5ab):
    a, b = r5ab.symbol("a"), r5ab.symbol("b")
    basis = reduce_groebner(buchberger([a + b, a - b]))
    assert basis == [b, a]  # ascending leading monomial


def test_buchberger_unit_ideal(r5a):
    basis = reduce_groebner(buchberger([r5a.one()]))
    assert basis == [r5a.one()]


def test_reduce_groebner_monic_scaling(r5a):
    a = r5a.symbol("a")
    assert reduce_groebner([(a * a - 1).scale(2)]) == [a * a + 4]


def test_reduce_groebner_tail_reduction(r5ab):
    a, b = r5ab.symbol("a"), r5ab.symbol("b")
    assert reduce_groebner([a, a + b]) == [b, a]


def test_reduce_groebner_idempotent(r5a):
    a = r5a.symbol("a")
    basis = reduce_groebner(buchberger([a * a + 4]))
    assert reduce_groebner(basis) == basis


def test_reduce_groebner_rejects_non_basis(r5ab):
    a, b = r5ab.symbol("a"), r5ab.symbol("b")
    # leading terms a^2*b and a*b^2; their S-polynomial does not reduce
    with pytest.raises(NotAGroebnerBasisError):
        reduce_groebner([a * a * b - 1, a * b * b - a])


def test_system_texts_render_each_equation_once_in_order(r5ab):
    a, b = r5ab.symbol("a"), r5ab.symbol("b")
    system = ConstraintSystem(r5ab, (a * b + 1, b - 3))
    assert system.texts == ("a*b + 1", "b + 2")
    assert system.texts is system.texts
    assert str(system) == "a*b + 1 = 0; b + 2 = 0"
    assert str(ConstraintSystem(r5ab, ())) == "<empty system>"


def test_system_rejects_an_equation_from_another_ring(r5ab):
    # an equal ring built apart is the same ring; different symbols or a
    # different field are not
    a = r5ab.symbol("a")
    assert ConstraintSystem(SymbolRing(PrimeField(5), ("a", "b")), (a + 1,)).equations == (a + 1,)
    for other in (SymbolRing(PrimeField(5), ("a",)), SymbolRing(PrimeField(7), ("a", "b"))):
        with pytest.raises(ContextMismatchError, match="equation ring differs from system ring"):
            ConstraintSystem(other, (a * a, a + 1))
        with pytest.raises(ContextMismatchError):
            ConstraintSystem(r5ab, (a, other.symbol("a")))


def test_enumerate_solutions_quadratic(r5a):
    a = r5a.symbol("a")
    sols = enumerate_solutions(ConstraintSystem(r5a, (a * a - 1,)))
    assert sols == [{"a": 1}, {"a": 4}]


def test_enumerate_solutions_inconsistent():
    ring = SymbolRing(PrimeField(3), ("a",))
    a = ring.symbol("a")
    assert enumerate_solutions(ConstraintSystem(ring, (a, a + 1))) == []


def test_enumerate_solutions_vacuous():
    ring = SymbolRing(PrimeField(2), ("a",))
    sols = enumerate_solutions(ConstraintSystem(ring, ()))
    assert sols == [{"a": 0}, {"a": 1}]


def test_enumerate_solutions_cap():
    ring = SymbolRing(PrimeField(5), ("a", "b", "c"))
    with pytest.raises(SearchSpaceTooLargeError):
        enumerate_solutions(ConstraintSystem(ring, ()), cap=100)


def test_enumerate_solutions_rationals_rejected():
    ring = SymbolRing(RationalField(), ("a",))
    with pytest.raises(UnsupportedFieldError):
        enumerate_solutions(ConstraintSystem(ring, ()))


def brute_force_points(system):
    """Every point of F_p^s where all equations vanish, in lex order, by trying each one."""
    p, s = system.ring.field.p, len(system.symbols)
    return [
        dict(zip(system.symbols, pt))
        for pt in itertools.product(range(p), repeat=s)
        if all(eq.evaluate_tuple(pt) == 0 for eq in system.equations)
    ]


def _random_system(rng, p, nsym):
    """1-3 equations, each on a random subset of the symbols.

    Most equations vanish at one planted point, so most systems have points;
    some carry a repeated linear factor, and some are left unshifted.
    """
    ring = SymbolRing(PrimeField(p), tuple(f"a{i + 1}" for i in range(nsym)))
    syms = [ring.symbol(name) for name in ring.symbols]
    planted = tuple(rng.randrange(p) for _ in syms)
    eqs = []
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(range(nsym), rng.randint(1, nsym))
        eq = ring.zero()
        for _ in range(rng.randint(1, 3)):
            mono = [0] * nsym
            for i in support:
                mono[i] = rng.randint(0, 3)
            eq = eq + ring.poly({tuple(mono): rng.randrange(1, p)})
        if rng.random() < 0.8:
            eq = eq - eq.evaluate_tuple(planted)
        if rng.random() < 0.3:
            i = rng.choice(support)
            root = syms[i] - planted[i]
            eq = eq * (syms[i] - rng.randrange(p)) * root * root
        if not eq.is_zero():
            eqs.append(eq)
    return ConstraintSystem(ring, tuple(eqs))


@pytest.mark.parametrize(
    "p,nsym,count",
    [(2, 1, 40), (2, 2, 40), (2, 3, 40), (3, 1, 40), (3, 2, 40), (3, 3, 40), (5, 1, 40),
     (5, 2, 40), (5, 3, 30), (7, 1, 40), (7, 2, 40), (7, 3, 20), (101, 1, 40), (101, 2, 20)],
)
def test_solver_matches_brute_force(p, nsym, count):
    rng = random.Random(p * 10 + nsym)
    for _ in range(count):
        system = _random_system(rng, p, nsym)
        assert enumerate_solutions(system) == brute_force_points(system), str(system)


def _coupled_system(rng, p, nsym, shape):
    """2-4 equations that vanish at a planted point, none of them univariate.

    A coupled equation has c*a_i^d for each symbol of its support and 2-3
    monomials that involve all of them, so no monomial divides it and, unless
    those cancel, it is linear in none of its symbols.  Shapes: "linear"
    starts with an equation c*a_i + r, a_i absent from r; "resultant" has two
    or three coupled equations in a1 and a2; "shared" has two in a1 and a2
    with a common factor, so their resultant vanishes (d = 1 keeps it small
    enough to form over F_11).  With three symbols one more equation couples
    all of them.
    """
    ring = SymbolRing(PrimeField(p), tuple(f"a{i + 1}" for i in range(nsym)))
    planted = tuple(rng.randrange(p) for _ in range(nsym))

    def coupled(support, degree=2):
        eq = ring.poly({tuple(degree * (i == j) for j in range(nsym)): rng.randrange(1, p) for i in support})
        for _ in range(rng.randint(2, 3)):
            mono = tuple(rng.randint(1, degree) if i in support else 0 for i in range(nsym))
            eq = eq + ring.poly({mono: rng.randrange(1, p)})
        return eq - eq.evaluate_tuple(planted)

    pair = (0, 1)
    if shape == "linear":
        i = rng.randrange(nsym)
        rest = [j for j in range(nsym) if j != i]
        eq = ring.symbol(ring.symbols[i]).scale(rng.randrange(1, p)) + coupled(rest)
        eqs = [eq - eq.evaluate_tuple(planted), coupled(range(nsym))]
    elif shape == "resultant":
        eqs = [coupled(pair) for _ in range(rng.randint(2, 3))]
    else:
        common = coupled(pair, 1)
        eqs = [common * coupled(pair, 1), common * coupled(pair, 1)]
    if nsym == 3:
        eqs.append(coupled(range(3)))
    return ConstraintSystem(ring, tuple(eq for eq in eqs if eq))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("shape", ["linear", "resultant", "shared"])
def test_elimination_matches_brute_force(p, shape, monkeypatch):
    resultant_in = commutative._resultant_in
    resultants = []

    def recording(*args):
        resultants.append(resultant_in(*args))
        return resultants[-1]

    monkeypatch.setattr(commutative, "_resultant_in", recording)
    rng = random.Random(f"{shape}/{p}")
    tops = []  # per system, the first resultant tried: that of its first two equations
    for nsym in (2, 2, 2, 3, 3):
        for _ in range(4):
            system = _coupled_system(rng, p, nsym, shape)
            resultants.clear()
            assert enumerate_solutions(system) == brute_force_points(system), str(system)
            if shape != "linear" and resultants[0] is not None:
                tops.append(resultants[0])
    if shape != "linear" and p > 7:
        assert tops  # F_11 and F_13 have enough points for some
    if shape == "shared":
        assert not any(tops)
    elif shape == "resultant":
        assert all(tops)


def test_resultant_solves_a_branching_benchmark_system():
    # a (3,4) system of the F_101 product benchmark: no equation is
    # univariate or linear in a symbol, so it used to branch over 101^2 points
    ring = SymbolRing(PrimeField(101), ("a1", "a2"))
    a1, a2 = ring.symbol("a1"), ring.symbol("a2")
    system = ConstraintSystem(
        ring, (35 * a1 * a1 * a1 + 31 * a1 * a2, 35 * a1 * a1 * a2 + 66 * a2 * a2 + 51)
    )
    assert enumerate_solutions(system, cap=1) == [{"a1": 0, "a2": 35}, {"a1": 0, "a2": 66}]
    assert enumerate_solutions(system, cap=1) == brute_force_points(system)


def test_linear_substitution_back_substitutes_in_reverse():
    # no equation is univariate: a1 = a2*a3 is eliminated first, then
    # a2 = a3^2 + 1, which leaves a3^3 - 1; a2 is evaluated before a1
    ring = SymbolRing(PrimeField(7), ("a1", "a2", "a3"))
    a1, a2, a3 = (ring.symbol(n) for n in ring.symbols)
    system = ConstraintSystem(ring, (a1 - a2 * a3, a2 - a3 * a3 - 1, a1 - a3 - 1))
    assert enumerate_solutions(system, cap=1) == [
        {"a1": 2, "a2": 2, "a3": 1}, {"a1": 3, "a2": 5, "a3": 2}, {"a1": 5, "a2": 3, "a3": 4}
    ]
    assert enumerate_solutions(system, cap=1) == brute_force_points(system)


def test_solver_positive_dimensional():
    ring = SymbolRing(PrimeField(5), ("a", "b"))
    a, b = ring.symbol("a"), ring.symbol("b")
    sols = enumerate_solutions(ConstraintSystem(ring, (a * b,)))
    assert sols == [{"a": 0, "b": v} for v in range(5)] + [{"a": u, "b": 0} for u in range(1, 5)]
    for eqs in [(a * b * (a - b),), (a * a - b * b, a * b - a), (a * b - 1,)]:
        system = ConstraintSystem(ring, eqs)
        assert enumerate_solutions(system) == brute_force_points(system)


def test_solver_free_symbols_around_a_peeled_one():
    ring = SymbolRing(PrimeField(3), ("a", "b", "c"))
    b = ring.symbol("b")
    system = ConstraintSystem(ring, (b * b - 1,))
    sols = enumerate_solutions(system)
    assert len(sols) == 18 and sols == brute_force_points(system)


def test_solver_inconsistent_after_substitution():
    ring = SymbolRing(PrimeField(7), ("a", "b"))
    a, b = ring.symbol("a"), ring.symbol("b")
    # a = 6 makes the second equation the constant 1
    system = ConstraintSystem(ring, (a - 6, a * b + b + 1))
    assert enumerate_solutions(system) == []


def test_cap_bounds_branching_not_peeling():
    ring = SymbolRing(PrimeField(101), ("a", "b", "c"))
    a, b, c = (ring.symbol(n) for n in ring.symbols)
    system = ConstraintSystem(ring, (a * a - 1, b - 3, c * c * c - c))
    assert enumerate_solutions(system, cap=1) == [
        {"a": u, "b": 3, "c": w} for u in (1, 100) for w in (0, 1, 100)
    ]
    with pytest.raises(SearchSpaceTooLargeError, match="^enumeration needs 10201 points, cap is 100$"):
        enumerate_solutions(ConstraintSystem(ring, (a - 2, b * c - 1)), cap=100)
    # after a is peeled, only b and c are branched: 101^2 points, not 101^3
    sols = enumerate_solutions(ConstraintSystem(ring, (a - 2, b * c - 1)), cap=101**2)
    assert sols == [{"a": 2, "b": u, "c": pow(u, -1, 101)} for u in range(1, 101)]


def _poly_from_roots(roots, p):
    """Dense coefficients, lowest degree first, of the product of (t - r)."""
    coeffs = [1]
    for r in roots:
        coeffs = [(lo - r * hi) % p for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def _poly_mul(a, b, p):
    """Dense coefficients, lowest degree first, of a*b mod p."""
    return [
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) % p
        for k in range(len(a) + len(b) - 1)
    ]


def _evaluate(coeffs, t, p):
    return sum(c * pow(t, i, p) for i, c in enumerate(coeffs)) % p


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101, 65537])
def test_roots_match_evaluation(p):
    rng = random.Random(p)
    for _ in range(30):
        roots = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
        roots += rng.sample(roots, rng.randint(0, len(roots)))  # repeated roots
        noise = [rng.randrange(p) for _ in range(rng.randint(0, 3))] + [1]
        coeffs = _poly_mul(_poly_from_roots(roots, p), noise, p)
        found = roots_mod_p(coeffs, p)
        assert found == sorted(found) and set(roots) <= set(found)
        assert all(_evaluate(coeffs, t, p) == 0 for t in found)
        if p <= 101:
            assert found == [t for t in range(p) if _evaluate(coeffs, t, p) == 0]


def test_roots_over_f2():
    for n in range(1, 64):
        coeffs = [(n >> i) & 1 for i in range(n.bit_length())]
        assert roots_mod_p(coeffs, 2) == [t for t in (0, 1) if _evaluate(coeffs, t, 2) == 0]


@pytest.mark.parametrize("p", [251, 269, 331, 409])
@pytest.mark.parametrize("degree", [2, 4, 8, 14])
def test_scan_and_power_paths_agree(monkeypatch, p, degree):
    # scan below p = 256 + 8 * degree, the power path from there on
    calls = []
    split = commutative._split_linear
    monkeypatch.setattr(commutative, "_split_linear", lambda *args: calls.append(1) or split(*args))
    rng = random.Random(p * degree)
    for _ in range(20):
        roots = [rng.randrange(p) for _ in range(rng.randint(0, degree))]
        noise = [rng.randrange(p) for _ in range(degree - len(roots))] + [1]
        coeffs = _poly_mul(_poly_from_roots(roots, p), noise, p)
        scanned = [t for t in range(p) if _evaluate(coeffs, t, p) == 0]
        found = roots_mod_p(coeffs, p)
        assert found == scanned
    assert bool(calls) == (p >= 256 + 8 * degree)


def test_planted_roots_at_mersenne_prime():
    p = 2**31 - 1
    rng = random.Random(31)
    nonresidue = next(c for c in range(2, 100) if pow(c, (p - 1) // 2, p) == p - 1)
    for _ in range(5):
        roots = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
        coeffs = _poly_from_roots(roots + roots[:2], p)
        # times t^2 - c for a non-residue c, which has no root in F_p
        coeffs = [
            (lo - nonresidue * hi) % p for lo, hi in zip(coeffs + [0, 0], [0, 0] + coeffs)
        ]
        assert roots_mod_p(coeffs, p) == sorted(set(roots))


def _random_poly(rng, ring, max_degree=2, max_terms=3):
    p = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_degree) for _ in ring.symbols)
        p = p + ring.poly({mono: rng.randrange(ring.field.p)})
    return p


@pytest.mark.parametrize("p,symbols", [(2, ("a",)), (3, ("a", "b")), (5, ("a", "b"))])
def test_buchberger_output_is_groebner_basis(p, symbols):
    rng = random.Random(p * 100 + len(symbols))
    ring = SymbolRing(PrimeField(p), symbols)
    for _ in range(10):
        gens = [q for q in (_random_poly(rng, ring) for _ in range(2)) if not q.is_zero()]
        if not gens:
            continue
        basis = buchberger(gens)
        assert is_groebner_basis(basis)
        for g in gens:
            assert normal_form(g, basis).is_zero()


def test_reduced_basis_independent_of_generating_set():
    # the same ideal, presented through 20 randomized generating sets
    ring = SymbolRing(PrimeField(5), ("a", "b"))
    a, b = ring.symbol("a"), ring.symbol("b")
    core = [a * a + b + 4, b * b + 3]
    reference = reduce_groebner(buchberger(core))
    rng = random.Random(7)
    for _ in range(20):
        g1, g2 = core
        gens = [g1, g2]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(len(gens)), 2)
            q = _random_poly(rng, ring, max_degree=1, max_terms=2)
            gens[i] = gens[i] + q * gens[j]
            if gens[i].is_zero():
                gens[i] = core[0]
        gens.append(gens[0].scale(rng.randrange(1, 5)))
        rng.shuffle(gens)
        assert reduce_groebner(buchberger(gens)) == reference


def test_solutions_invariant_under_groebner_preprocessing():
    rng = random.Random(11)
    ring = SymbolRing(PrimeField(3), ("a", "b"))
    for _ in range(15):
        gens = [q for q in (_random_poly(rng, ring) for _ in range(2)) if not q.is_zero()]
        if not gens:
            continue
        system = ConstraintSystem(ring, tuple(gens))
        direct = enumerate_solutions(system)
        basis = reduce_groebner(buchberger(gens))
        processed = enumerate_solutions(ConstraintSystem(ring, tuple(basis)))
        assert direct == processed


coef = st.integers(min_value=0, max_value=4)


@st.composite
def cpolys(draw, ring):
    n = draw(st.integers(min_value=0, max_value=3))
    p = ring.zero()
    for _ in range(n):
        mono = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in ring.symbols)
        p = p + ring.poly({mono: draw(coef)})
    return p


RING = SymbolRing(PrimeField(5), ("a", "b"))


@given(cpolys(RING), cpolys(RING), cpolys(RING))
@settings(max_examples=60)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(cpolys(RING), cpolys(RING))
@settings(max_examples=60)
def test_normal_form_is_reduced(p, q):
    if q.is_zero():
        return
    r = normal_form(p, [q])
    lm = q.leading_monomial()
    for mono, _ in r.terms():
        assert not all(x <= y for x, y in zip(lm, mono))



def _monic_terms(terms, field):
    """A basis element as a set of (monomial, coefficient) pairs, scaled monic."""
    terms = [(mono, field.coerce(c)) for mono, c in terms]
    lead = max(terms)[1]
    return frozenset((mono, field.div(c, lead)) for mono, c in terms if c != 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, None])
def test_reduced_lex_basis_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    field = PrimeField(p) if p else RationalField()
    rng = random.Random(p or 0)
    for _ in range(46):
        names = ("a", "b", "c")[: rng.randint(1, 3)]
        ring = SymbolRing(field, names)
        gens = [
            ring.poly(
                {
                    tuple(rng.randint(0, 2) for _ in names): rng.randint(-3, 3)
                    for _ in range(rng.randint(1, 3))
                }
            )
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ours = {_monic_terms(g.terms(), field) for g in reduce_groebner(buchberger(gens))}
        syms = sympy.symbols(names)
        exprs = [
            sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.prod(s**e for s, e in zip(syms, mono))
                for mono, c in g.terms()
            )
            for g in gens
        ]
        basis = sympy.groebner(exprs, *syms, order="lex", **({"modulus": p} if p else {}))
        # field.coerce maps sympy's symmetric residues mod p back to canonical ones
        theirs = {
            _monic_terms(
                [(mono, Fraction(int(c.p), int(c.q))) for mono, c in sympy.Poly(g, *syms).terms()],
                field,
            )
            for g in basis.exprs
        }
        assert ours == theirs, (p, names, [str(g) for g in gens])
