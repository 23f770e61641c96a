"""Polynomial arithmetic, parsing and printing."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from germ import ParseError, Polynomial, UnknownVariableError, parse_polynomial

VARS2 = ("x", "y")
VARS3 = ("x", "y", "z")


def P(text, vars=VARS2):
    return parse_polynomial(text, vars)


# -- parsing -----------------------------------------------------------


def test_parse_sum_of_squares():
    p = P("x^2+y^2")
    assert p.terms == {(2, 0): 1, (0, 2): 1}


def test_parse_binomial_identity():
    assert P("(x+y)^2 - x^2 - 2*x*y") == P("y^2")


def test_parse_superisolated_benchmark_germ():
    # Oracle: (x+y+z)^15 expands to the C(17,2) = 136 degree-15 monomials
    # with multinomial coefficients; the four extra degree-14 monomials
    # are disjoint from them, so x^14 keeps coefficient 1 and x^15 gets
    # multinomial(15;15,0,0) = 1.
    f = parse_polynomial("x^14+y^6*z^8+z^14+x^9*z^5+(x+y+z)^15", ["x", "y", "z"])
    assert len(f.terms) == 4 + 136
    assert f.coefficient((14, 0, 0)) == 1
    assert f.coefficient((15, 0, 0)) == 1
    assert f.coefficient((5, 4, 6)) == math.factorial(15) // (
        math.factorial(5) * math.factorial(4) * math.factorial(6))


def test_parse_juxtaposition_and_rationals():
    assert P("2x") == P("2*x")
    assert P("x y") == P("x*y")
    assert P("3/2*x") == P("x") * Fraction(3, 2)
    assert P("x(x+1)") == P("x^2+x")
    assert P("-x^2") == -P("x^2")


def test_parse_exponent_zero_and_one():
    assert P("x^0") == 1
    assert P("x^1") == P("x")


@pytest.mark.parametrize("text", ["", "x+", "(x", "x^", "x^-2", "x^(2)", "2^3", "*x", "x//2", "1/0"])
def test_parse_syntax_errors_carry_position(text):
    with pytest.raises(ParseError) as err:
        P(text)
    assert err.value.position >= 0


@pytest.mark.parametrize("text, position", [
    ("x^\u00b2", 2),          # superscript two: str.isdigit, but not int()
    ("x^\u0661\u0662", 2),   # Arabic-Indic 12: int() would read it as 12
    ("3\u0661*x", 1),
    ("x\u00e9", 1),           # a name is ASCII letters and digits
    ("\u00e9+x", 0),
])
def test_parse_non_ascii_is_a_syntax_error(text, position):
    with pytest.raises(ParseError, match="unexpected character") as err:
        P(text)
    assert err.value.position == position


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariableError):
        P("x+w")


def test_parse_vars_validation():
    with pytest.raises(ValueError):
        parse_polynomial("x", [])
    with pytest.raises(ValueError):
        parse_polynomial("x", ["x", "x"])
    with pytest.raises(ValueError):
        parse_polynomial("x", ["2bad"])


@pytest.mark.parametrize("vars", [(), ("x", "x"), ("2bad",), ("x", "2bad")])
def test_constructor_rejects_a_bad_ring_every_time(vars):
    # Each ring is checked once and the verdict cached; a rejection
    # must never be cached into an acceptance.
    for _ in range(3):
        with pytest.raises(ValueError):
            Polynomial(vars, {})


@pytest.mark.parametrize("vars", [("x", 1), (None,), ("x", b"y"), ("x", ["y"])])
def test_constructor_rejects_a_non_string_name(vars):
    for _ in range(2):
        with pytest.raises(ValueError):
            Polynomial(vars, {})


def test_constructor_normalizes_repeated_and_cancelling_exponents():
    terms = [((1, 0), 2), ((0, 1), Fraction(1, 2)), ((1, 0), -2), ((2, 0), 1),
             ([0, 1], Fraction(1, 2)), ((1, 0), Fraction(3, 4)), ((2, 0), -1)]
    p = Polynomial(VARS2, iter(terms))
    assert p.terms == {(0, 1): 1, (1, 0): Fraction(3, 4)}
    assert list(p.terms) == [(0, 1), (1, 0)]
    assert all(type(c) is Fraction for c in p.terms.values())
    assert Polynomial(VARS2, [((1, 1), 1), ((1, 1), -1)]).is_zero()
    for bad in ([((1,), 1)], [((1, -1), 1)], [((1.0, 0), 1)]):
        with pytest.raises(ValueError):
            Polynomial(VARS2, bad)


# -- printing ----------------------------------------------------------


def test_print_canonical_order_and_integers():
    assert str(P("y^4+x^3")) == "x^3+y^4"
    assert str(P("2*x - 3")) == "-3+2*x"
    assert str(P("x^2-y^2")) == "x^2-y^2"
    assert str(Polynomial.zero(VARS2)) == "0"
    assert str(P("1/2*x*y")) == "1/2*x*y"


def test_print_negative_rational_coefficients():
    assert str(P("-3/2*x^2+y")) == "y-3/2*x^2"
    assert str(P("-1/2+x")) == "-1/2+x"
    assert str(P("x-1/3*y")) == "x-1/3*y"


def test_print_lower_degree_first():
    # 1 is the greatest local monomial, so constants print first.
    assert str(P("x^2+1")) == "1+x^2"


# -- derivative and weights ---------------------------------------------


def test_partial_derivative_examples():
    assert P("x^3+y^4").partial_derivative("x") == P("3*x^2")
    assert P("x^2*y+y^3").partial_derivative("y") == P("x^2+3*y^2")
    assert P("5").partial_derivative("x") == 0
    with pytest.raises(UnknownVariableError):
        P("x").partial_derivative("w")


def test_weighted_homogeneity_examples():
    assert P("x^3+y^4").is_weighted_homogeneous((4, 3), 12)
    assert not P("x^3+y^4+x*y^3").is_weighted_homogeneous((4, 3), 12)
    assert Polynomial.zero(VARS2).is_weighted_homogeneous((1, 1), 7)
    with pytest.raises(ValueError):
        P("x").is_weighted_homogeneous((1, 2, 3), 1)


# -- property tests -----------------------------------------------------

coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=8)
exps = st.tuples(st.integers(0, 6), st.integers(0, 6))
polys = st.dictionaries(exps, coeffs, max_size=6).map(lambda d: Polynomial(VARS2, d))


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys)
@settings(max_examples=80, deadline=None)
def test_parse_print_roundtrip(p):
    assert parse_polynomial(str(p), VARS2) == p


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_derivative_linear_and_leibniz(p, q):
    for v in VARS2:
        assert (p + q).partial_derivative(v) == p.partial_derivative(v) + q.partial_derivative(v)
        assert (p * q).partial_derivative(v) == \
            p.partial_derivative(v) * q + p * q.partial_derivative(v)


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_normalization_no_zero_coefficients(p, q):
    for result in (p + q, p - q, p * q):
        assert all(c != 0 for c in result.terms.values())
        assert all(isinstance(c, Fraction) for c in result.terms.values())


def _product(p, n):
    result = Polynomial.constant(p.vars, 1)
    for _ in range(n):
        result = result * p
    return result


power_bases = st.sampled_from([VARS2, VARS3]).flatmap(
    lambda vs: st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(vs)),
                               st.fractions(min_value=-5, max_value=5, max_denominator=4),
                               max_size=4).map(lambda d: Polynomial(vs, d)))


@given(power_bases, st.integers(0, 6))
@example(Polynomial.zero(VARS2), 3)
@example(P("x^2-3/2*y+1"), 0)
@example(P("x+x^2"), 5)
@example(P("1+x+x^2"), 4)  # compositions (2,0,2), (1,2,1) and (0,4,0) all give x^4
@example(P("1+2x-2x^2"), 2)  # the x^2 coefficients 4 and -4 cancel
def test_power_is_repeated_product(p, n):
    power = p ** n
    assert power == _product(p, n)
    assert all(isinstance(c, Fraction) and c for c in power.terms.values())


def test_power_of_a_trinomial_parses_fast():
    # (x+y+z)^100 has the C(102, 2) = 5151 monomials of degree 100.
    start = time.perf_counter()
    p = parse_polynomial("(x+y+z)^100", VARS3)
    assert time.perf_counter() - start < 1
    assert len(p.terms) == 5151
    assert p.coefficient((34, 33, 33)) == math.factorial(100) // (
        math.factorial(34) * math.factorial(33) ** 2)


def test_long_sum_parses_in_linear_time():
    # Each term is added into one dict in place; adding through
    # Polynomial.__add__ copied the whole sum per term, about 10 s here.
    text = "+".join(f"x^{k}*y" for k in range(32_000))
    start = time.perf_counter()
    p = parse_polynomial(text, VARS2)
    assert time.perf_counter() - start < 5
    assert len(p.terms) == 32_000
    assert P("x-y+2*y-x-y") == Polynomial.zero(VARS2)


def test_product_bound_rechecks_the_exact_bits():
    # The bits carried along a product only bound its exact bits: here
    # they sum to 14,001 while 2^7000*(1/2)^7000*2 has 1, which passes.
    assert parse_polynomial("(2)^7000*(1/2)^7000*2*x", VARS2) == P("2*x")
