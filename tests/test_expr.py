from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import multipolys
from dercert import MultiPoly, ParseError, parse_derivation, parse_poly, poly_to_str

F = Fraction
XY = ("x", "y")


class TestParse:
    def test_quadratic_image(self):
        assert parse_poly("x*y^2 + 1") == MultiPoly(
            XY, {(1, 2): F(1), (0, 0): F(1)}
        )

    def test_rational_coefficients(self):
        assert parse_poly("3/2*x - 1/2") == MultiPoly(
            ("x",), {(1,): F(3, 2), (0,): F(-1, 2)}
        )

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x y")
        assert err.value.column == 3

    def test_parentheses_and_unary_minus(self):
        assert parse_poly("-(x + 1)*y", XY) == MultiPoly(XY, {(1, 1): F(-1), (0, 1): F(-1)})

    def test_unary_minus_binds_before_power(self):
        # the grammar reads -x^2 as (-x)^2
        assert parse_poly("-x^2") == parse_poly("x^2")

    def test_large_exponent_within_limit(self):
        p = parse_poly("x^999999")
        assert p.degree_in("x") == 999999 and len(p.terms) == 1

    def test_exponent_overflow(self):
        with pytest.raises(ParseError):
            parse_poly("x^1000001")

    def test_division_only_in_literals(self):
        with pytest.raises(ParseError):
            parse_poly("x/2")

    def test_column_of_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x + ")
        assert err.value.column == 5

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_poly("1/0")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x^-2")

    def test_chained_division_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("3/2/4")

    def test_numbered_variables(self):
        p = parse_poly("y1*y2 + y9")
        assert p.variables == ("y1", "y2", "y9")


class TestPrint:
    def test_zero(self):
        assert poly_to_str(MultiPoly.zero(XY)) == "0"

    def test_leading_negative_forces_coefficient(self):
        p = MultiPoly(XY, {(2, 1): F(-1), (1, 0): F(1)})
        s = poly_to_str(p)
        assert parse_poly(s, XY) == p

    def test_descending_graded_lex(self):
        p = parse_poly("1 + x + y^2", XY)
        assert poly_to_str(p) == "y^2 + x + 1"

    @settings(max_examples=500, deadline=None)
    @given(multipolys(max_degree=8, max_terms=10))
    def test_round_trip(self, p):
        assert parse_poly(poly_to_str(p), p.variables) == p

    @settings(max_examples=200, deadline=None)
    @given(multipolys(("x", "y1", "y2"), max_degree=6, max_terms=8))
    def test_round_trip_multi(self, p):
        assert parse_poly(poly_to_str(p), p.variables) == p


class TestParseDerivation:
    def test_plane(self):
        D = parse_derivation("deriv{x: y, y: x*y^2 + 1}")
        assert D.variables == ("x", "y")
        assert D.images[D.variables.index("x")] == parse_poly("y", XY)

    def test_multi(self):
        D = parse_derivation("deriv{x: 1, y1: x*y1, y2: y2}")
        assert D.variables == ("x", "y1", "y2")

    def test_duplicate_variable(self):
        with pytest.raises(ParseError):
            parse_derivation("deriv{x: y, x: y}")

    def test_undeclared_variable_in_body(self):
        with pytest.raises(ParseError):
            parse_derivation("deriv{x: y1}")

    def test_zero_entries_allowed(self):
        D = parse_derivation("deriv{x: 0, y: 1}")
        assert D.images[D.variables.index("x")].is_zero()

    def test_declaration_order_is_canonical(self):
        D = parse_derivation("deriv{y: x, x: y}")
        assert D.variables == ("x", "y")
