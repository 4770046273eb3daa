import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncfactor import parsing
from ncfactor.commutative import SymbolRing
from ncfactor.errors import ParseError
from ncfactor.fields import PrimeField, RationalField
from ncfactor.freealg import Alphabet, FreeAlgebra
from ncfactor.oracle import random_factorable
from ncfactor.parsing import (
    MAX_COEFFICIENT_DIGITS,
    MAX_EXPONENT,
    MAX_NESTING,
    identifiers_in,
    parse_expression,
)


def algebra(p=5, names=("x", "y")):
    field = PrimeField(p) if p else RationalField()
    return FreeAlgebra(Alphabet(names), SymbolRing(field, ()))


ALG = algebra()


class TestGrammar:
    def test_quintic_input(self):
        f = parse_expression("y*x*y*x*y - y", ALG)
        assert f == ALG.poly({ALG.alphabet.word("yxyxy"): 1, ALG.alphabet.word("y"): -1})

    def test_power_expands_single_variable(self):
        one_var = algebra(names=("x",))
        f = parse_expression("x^2 - 1", one_var)
        assert f == one_var.poly({(0, 0): 1, (): -1})

    def test_power_is_one_word(self):
        one_var = algebra(names=("x",))
        assert parse_expression("x^0 + x^3", one_var) == one_var.poly({(): 1, (0, 0, 0): 1})
        assert parse_expression("x^100000", one_var).degree() == 100000

    def test_order_preserved(self):
        f = parse_expression("x*y - y*x", ALG)
        assert not f.is_zero()
        assert f == ALG.poly({(0, 1): 1, (1, 0): -1})

    def test_whitespace_insignificant(self):
        assert parse_expression(" y*x \t- 1 ", ALG) == parse_expression("y*x-1", ALG)

    def test_parentheses_and_unary_minus(self):
        f = parse_expression("-(x - y)*(x + y)", ALG)
        assert f == -(ALG.from_text("x - y") * ALG.from_text("x + y"))

    def test_integer_coefficients_reduce_mod_p(self):
        assert parse_expression("7*x", ALG) == parse_expression("2*x", ALG)

    def test_rational_coefficient_over_q(self):
        alg = algebra(None)
        f = parse_expression("1/2*x + 3", alg)
        from fractions import Fraction

        assert f.coefficient((0,)) == Fraction(1, 2)

    def test_rational_coefficient_invertible_mod_p(self):
        f = parse_expression("1/2*x", ALG)
        assert f == parse_expression("3*x", ALG)


class TestErrors:
    def test_unknown_identifier_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("x*z", ALG)
        assert exc.value.position == 2

    def test_syntax_error_reports_expectations(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("x + * y", ALG)
        assert exc.value.position == 4
        assert exc.value.expected

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_expression("x y", ALG)

    # the last literal is too long for int(); the bound is checked before any conversion
    @pytest.mark.parametrize(
        "exponent",
        [str(MAX_EXPONENT + 1), "10000000000", "1" + "0" * 5000],
        ids=["bound-plus-one", "ten-billion", "5001-digits"],
    )
    def test_exponent_over_bound_rejected(self, exponent):
        with pytest.raises(ParseError, match=f"exponent exceeds {MAX_EXPONENT}") as exc:
            parse_expression(f"x^{exponent} - 1", ALG)
        assert exc.value.position == 2

    # int() would raise ValueError on these literals; the digits are counted first
    @pytest.mark.parametrize(
        "text,position",
        [("1" + "0" * MAX_COEFFICIENT_DIGITS + "*x", 0), ("x + 1/" + "7" * 5001, 6)],
        ids=["numerator", "denominator"],
    )
    def test_coefficient_over_digit_bound_rejected(self, text, position):
        with pytest.raises(ParseError, match=f"coefficient exceeds {MAX_COEFFICIENT_DIGITS} digits") as exc:
            parse_expression(text, ALG)
        assert exc.value.position == position

    def test_coefficient_digit_bound_counts_significant_digits(self):
        assert parse_expression("0" * 5000 + "7*x", ALG) == ALG.from_text("2*x")
        longest = "1" * MAX_COEFFICIENT_DIGITS
        assert parse_expression(f"{longest}*x", ALG) == ALG.from_text(f"{int(longest) % 5}*x")

    def test_power_of_parenthesized_group_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("(x + y)^2", ALG)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_expression("1/0*x", ALG)

    def test_denominator_vanishing_mod_p(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("1/5*x", ALG)
        assert "not reducible" in str(exc.value)

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_expression("x & y", ALG)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expression("", ALG)

    def test_nesting_bound(self):
        # the bound itself parses; one level more is rejected at its '(',
        # before the recursion can reach the interpreter's limit
        text = "(" * MAX_NESTING + "x*y + 1" + ")" * MAX_NESTING
        inner = ALG.from_text("x*y + 1")
        assert parse_expression(text, ALG) == inner
        with pytest.raises(ParseError, match=f"parentheses nest deeper than {MAX_NESTING}") as exc:
            parse_expression("(" + text + ")", ALG)
        assert exc.value.position == MAX_NESTING
        # the depth is the nesting, not the number of groups
        assert parse_expression(f"{text}*{text} - {text}", ALG) == inner * inner - inner


def test_identifiers_in_source_order():
    assert identifiers_in("y*x + b*y") == ["y", "x", "b"]


@pytest.mark.parametrize("p", [5, None], ids=["F_5", "Q"])
def test_long_sum_matches_monomial_sum(p):
    # 3000 terms over the 15 words of length <= 3, so words repeat (and over
    # F_5 some sums cancel); the last two terms cancel exactly
    alg = algebra(p)
    rng = random.Random(7)
    chunks, expected = [], alg.zero()
    for _ in range(3000):
        word = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
        num, den = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3])
        body = "*".join([f"{abs(num)}/{den}"] + [alg.alphabet.names[i] for i in word])
        chunks.append(("- " if num < 0 else "+ ") + body)
        expected = expected + alg.monomial(word, Fraction(num, den))
    chunks += ["+ 2*x*y*x*y", "- 2*x*y*x*y"]
    parsed = parse_expression(" ".join(chunks), alg)
    assert parsed == expected
    assert parsed.degree() == 3


@st.composite
def ncpolys(draw, alg):
    p = alg.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        length = draw(st.integers(min_value=0, max_value=4))
        word = tuple(
            draw(st.integers(min_value=0, max_value=alg.alphabet.size - 1))
            for _ in range(length)
        )
        coeff = draw(st.integers(min_value=-6, max_value=6))
        p = p + alg.monomial(word, coeff)
    return p


@given(ncpolys(algebra(5)))
@settings(max_examples=80)
def test_round_trip_over_f5(f):
    assert parse_expression(str(f), algebra(5)) == f


@given(ncpolys(algebra(None)))
@settings(max_examples=80)
def test_round_trip_over_q(f):
    assert parse_expression(str(f), algebra(None)) == f


@pytest.mark.parametrize("p", [2, 101, None], ids=["F_2", "F_101", "Q"])
def test_round_trip_of_seeded_products(p):
    field = PrimeField(p) if p else RationalField()
    for seed in range(40):
        f, _, _ = random_factorable(seed, field, 2 + seed % 3, 2 + seed % 2, term_cap=8, n_vars=3)
        assert parse_expression(str(f), f.algebra) == f, seed


@pytest.mark.parametrize("p", [7, None], ids=["F_7", "Q"])
def test_products_powers_and_ratios_match_ncpoly_arithmetic(p):
    alg = algebra(p)
    x, y = alg.variable("x"), alg.variable("y")
    half, third = Fraction(1, 2), Fraction(-2, 3)
    cases = {
        "(x - 2*y)*(y*x + 1/2)*(3 - x)": (x - 2 * y) * (y * x + half) * (3 - x),
        "x^3*y^2 - (x^2 + y)*(x*y - 2/3)": x * x * x * y * y - (x * x + y) * (x * y + third),
        "-(1/2*x*(y + 1))*x^2 + 4/6": -(half * (x * (y + 1))) * (x * x) + Fraction(2, 3),
        "(x + y)*(x - y) - (x*x - y*y)": y * x - x * y,
        "2*(x*(y*(x + 1)))": 2 * x * y * x + 2 * x * y,
    }
    for text, expected in cases.items():
        assert parse_expression(text, alg) == expected, text


# the position, message and expected-token set of every error the grammar raises
@pytest.mark.parametrize(
    "text,message",
    [
        ("x*z", "unknown identifier 'z' at position 2"),
        ("x + * y", "unexpected '*' at position 4 (expected INT, identifier, '(')"),
        ("x y", "trailing input 'y' at position 2 (expected '+', '-', '*', end of input)"),
        ("x^", "exponent must be an integer at position 2 (expected INT)"),
        ("x^y", "exponent must be an integer at position 2 (expected INT)"),
        ("x^1000001 - 1", "exponent exceeds 1000000 at position 2"),
        ("1" + "0" * 4300 + "*x", "coefficient exceeds 4300 digits at position 0"),
        ("x + 1/" + "7" * 4301, "coefficient exceeds 4300 digits at position 6"),
        ("(x + y)^2", "'^' applies to a single variable at position 7"),
        ("1/0*x", "zero denominator at position 2"),
        ("1/5*x", "coefficient 1/5 is not reducible in F_5 at position 0"),
        ("1/x", "denominator must be an integer at position 2 (expected INT)"),
        ("2/", "denominator must be an integer at position 2 (expected INT)"),
        ("x & y", "unexpected character '&' at position 2"),
        ("", "unexpected end of input at position 0 (expected INT, identifier, '(')"),
        ("   ", "unexpected end of input at position 3 (expected INT, identifier, '(')"),
        ("(x + y", "unexpected end of input at position 6 (expected ')')"),
        ("(x + y x", "unexpected 'x' at position 7 (expected ')')"),
        ("x +", "unexpected end of input at position 3 (expected INT, identifier, '(')"),
        ("- - x", "unexpected '-' at position 2 (expected INT, identifier, '(')"),
        ("x*)", "unexpected ')' at position 2 (expected INT, identifier, '(')"),
        ("y**x", "unexpected '*' at position 2 (expected INT, identifier, '(')"),
    ],
)
def test_error_positions_and_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse_expression(text, ALG)
    assert str(exc.value) == message


def _random_expression(rng, alg, depth, seen):
    """Text and NCPoly value of a random expr of nesting depth at most `depth`.

    Terms mix coefficient atoms (integers and ratios), powers of letters and
    parenthesized groups in any order; the letters are appended to `seen`
    in the order the text shows them.
    """
    names = alg.alphabet.names

    def space():
        return rng.choice(["", "", " ", "  ", "\t", " \n "])

    text, value = "", alg.zero()
    for t in range(rng.randint(1, 3)):
        sign = rng.choice(["", "-", "+"] if t == 0 else ["-", "+"])
        atoms, product = [], alg.one()
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("coeff", "var", "group") if depth else ("coeff", "var"))
            if kind == "coeff":
                num, den = rng.randint(0, 20), rng.choice([None, 1, 2, 3, 5])
                atoms.append(f"{num}{space()}/{space()}{den}" if den else str(num))
                atom = alg.poly({(): Fraction(num, den or 1)})
            elif kind == "var":
                name, power = rng.choice(names), rng.choice([None, 0, 1, 2, 3])
                seen.append(name)
                atoms.append(name if power is None else f"{name}{space()}^{space()}{power}")
                atom = alg.one()
                for _ in range(1 if power is None else power):
                    atom = atom * alg.variable(name)
            else:
                inner_text, atom = _random_expression(rng, alg, depth - 1, seen)
                atoms.append(f"({space()}{inner_text}{space()})")
            product = product * atom
        text += f"{space()}{sign}{space()}" + f"{space()}*{space()}".join(atoms)
        value = value - product if sign == "-" else value + product
    return text, value


@pytest.mark.parametrize("p", [7, None], ids=["F_7", "Q"])
def test_random_expression_trees_match_ncpoly_arithmetic(p):
    # a term is one coefficient and one word until a group appears, and a
    # dict from there on; both paths, and their sums, agree with NCPoly
    # arithmetic on the same tree
    alg = algebra(p, ("x", "y", "z"))
    rng = random.Random(19)
    for case in range(400):
        seen = []
        text, expected = _random_expression(rng, alg, rng.randint(0, 3), seen)
        assert parse_expression(text, alg) == expected, (case, text)
        assert identifiers_in(text) == list(dict.fromkeys(seen)), (case, text)


# -- the flat reader against the grammar --------------------------------------
#
# parse_expression reads a flat sum term by term and hands every other text
# to the grammar.  Both must give the same terms, in the same order and with
# the same scalar types (Fraction over Q: the printer tells the fields apart
# by `isinstance(value, int)`), or the same ParseError.


def _grammar(text, alg):
    return parsing._Parser(parsing.scan(text), alg).parse()


def _outcome(parse, text, alg):
    """The terms a parse gives, with their scalar types, or its error's message, position and expected set."""
    try:
        terms = parse(text, alg)._terms
    except ParseError as e:
        return str(e), e.position, e.expected
    return [(word, type(v), v) for word, v in terms.items()]


def _check_reader(text, alg, flat):
    """The reader and the grammar agree on text; `flat` says whether the reader keeps it."""
    assert _outcome(parse_expression, text, alg) == _outcome(_grammar, text, alg), text
    try:
        tokens = parsing.scan(text)
    except ParseError:
        assert not flat
        return
    assert isinstance(parsing.read(text), parsing.FlatSum) == flat, text
    assert identifiers_in(text) == identifiers_in(tokens), text


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1, None], ids=["F_2", "F_101", "F_2^31-1", "Q"])
def test_reader_matches_grammar_on_seeded_products(p):
    field = PrimeField(p) if p else RationalField()
    flat = 0
    for seed in range(60):
        f, _, _ = random_factorable(seed, field, 2 + seed % 3, 2 + seed % 2, term_cap=8, n_vars=3)
        text = str(f)
        # over Q a ratio coefficient is left to the grammar
        kept = "/" not in text
        _check_reader(text, f.algebra, kept)
        flat += kept
    assert flat >= 20


FLAT_TEXTS = [
    # signs and spacing
    "+x*y",
    "-x*y",
    "  - 6 + x*y^2*x+y*2*x -3*x*y + 0*x*x + x^0*y*x*0",
    "\tx\n+\ty ^ 2 - 3 * x ",
    "x ^ 2*y-y",
    "-2-x",
    # coefficients
    "x^0",
    "x^01 + x^000",
    "0*x",
    "x*2*y + y*x*0",
    "0*y + x + y",  # a zero term adds no word, so y comes after x
    "101*5*y + x + y",  # and so does a term that is 0 in F_5 and F_101
    "x*y - x*y",
    "2*x + 3*x - 0",
    "7*x*3*x - 21*x^2 + 1",
    "0" * 5000 + "7*x",
    "1" * MAX_COEFFICIENT_DIGITS + "*y",
    f"x^{MAX_EXPONENT // 1000}*y",
    "x^" + "0" * 5000 + "2",  # only significant digits go to int(), which refuses 4301 or more
]

DECLINED_TEXTS = [
    "٣*x",  # a non-ASCII digit
    "x + y",  # non-ASCII whitespace
    "(x + y)*x",
    "1/2*x + y",
    "x*z",  # z is no letter of the alphabet: the reader keeps it, the grammar reports it
    f"x^{MAX_EXPONENT + 1} - 1",
    "x^" + "1" + "0" * 5000,
    "1" + "0" * MAX_COEFFICIENT_DIGITS + "*x",
    "",
    "   ",
    "+",
    "-",
    "x +",
    "x -",
    "x*",
    "*x",
    "x^",
    "x**y",
    "x^^2",
    "x^2^3",
    "x^y",
    "x^-2",
    "x^+2",
    "x + - y",
    "- - x",
    "+-x",
    "x*-y",
    "x y",
    "2 3*x",
    "x^2 3",
    "2x",
    "x2*y",
    "_*x",
    "1_0*x",
    "x & y",
]


@pytest.mark.parametrize("p", [5, 101, None], ids=["F_5", "F_101", "Q"])
def test_reader_matches_grammar_on_edge_syntax(p):
    alg = algebra(p)
    for text in FLAT_TEXTS:
        _check_reader(text, alg, True)
    for text in DECLINED_TEXTS:
        # "x*z", "x2*y" and "_*x" are read flat; the alphabet rejects them when they are built
        _check_reader(text, alg, text in ("x*z", "x2*y", "_*x"))
