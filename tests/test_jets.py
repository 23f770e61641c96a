"""Truncated-jet dimension oracle."""

import pytest

from germ import INFINITE, Polynomial, jet_quotient_dimension, parse_polynomial

V2 = ("x", "y")


def P(text, vars=V2):
    return parse_polynomial(text, vars)


def test_plateau_certifies_known_dimensions():
    assert jet_quotient_dimension([P("x"), P("y")]) == 1
    assert jet_quotient_dimension([P("x^2"), P("y^3")]) == 6
    assert jet_quotient_dimension([P("3*x^2"), P("4*y^3")]) == 6


def test_unit_gives_zero():
    assert jet_quotient_dimension([P("1+x")]) == 0


def test_non_cofinite_hits_the_cap():
    assert jet_quotient_dimension([P("x")], max_degree=12) == INFINITE


def test_local_unit_factor_is_invisible():
    # y - y^2 generates the same local ideal as y
    assert jet_quotient_dimension([P("x"), P("y-y^2")]) == 1


def test_input_validation():
    with pytest.raises(ValueError):
        jet_quotient_dimension([Polynomial.zero(V2)])
    # generators from different rings, even with the same variables in
    # another order, are rejected instead of zipped exponent by exponent
    with pytest.raises(ValueError):
        jet_quotient_dimension([P("x^2"), P("y^3", ("x", "y", "z"))])
    with pytest.raises(ValueError):
        jet_quotient_dimension([P("x^2"), P("x^3", ("y", "x"))])


def test_three_variables():
    gens = [parse_polynomial(t, ["x", "y", "z"]) for t in ("x^2", "y^2", "z^3")]
    assert jet_quotient_dimension(gens) == 12