import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import multipolys
from dercert import MultiPoly, ParseError, parse_derivation, parse_poly, poly_to_str
from dercert.expr import MAX_NESTING

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


class TestErrorColumns:
    """Every ParseError names a token by its column in the string passed."""

    @pytest.mark.parametrize(
        "src, column, message",
        [
            ("deriv{x: y, y: 1 + }", 20, "unexpected end of input"),
            ("deriv{x: y, y: 1 $ 2}", 18, "unexpected character '$'"),
            ("deriv{x: y, y: x^1000001}", 18, "exponent exceeds 1000000"),
            ("deriv{x: 1, x 2}", 13, "each entry must look like 'var: polynomial'"),
            ("deriv{x: y, x: x}", 13, "duplicate variable 'x'"),
            ("deriv{x: 1, y1: 2*y}", 19, "variable 'y' is not declared by this derivation"),
            ("  deriv{x: 1, y: 1/0}", 20, "denominator must be a positive integer"),
            # over Python's limit on the digits int() converts
            pytest.param(
                "deriv{x: y, y: " + "1" * 5000 + "}", 16,
                "integer literal of 5000 digits is too long", id="long-numerator",
            ),
            pytest.param(
                "deriv{x: y, y: 1/" + "3" * 5000 + "}", 18,
                "integer literal of 5000 digits is too long", id="long-denominator",
            ),
            pytest.param(
                "deriv{x: y, y: x^" + "2" * 5000 + "}", 18,
                "integer literal of 5000 digits is too long", id="long-exponent",
            ),
            # a value built while parsing is held to the same limit, reported
            # at the start of its entry
            pytest.param(
                "deriv{x: y, y: x*y + 10^5000}", 16,
                "a coefficient has more than 4300 digits", id="long-coefficient",
            ),
            pytest.param(
                "deriv{x: y,  y: x + (1/10)^4300}", 17,
                "a coefficient has more than 4300 digits", id="long-common-denominator",
            ),
        ],
    )
    def test_derivation(self, src, column, message):
        with pytest.raises(ParseError) as err:
            parse_derivation(src)
        assert err.value.column == column
        assert str(err.value) == f"{message} (column {column})"

    def test_coefficient_digits_at_the_limit(self):
        # 10^4299 has 4300 digits, the most str() prints by default
        assert parse_poly("x - 10^4299").nums[(0,)] == -(10**4299)
        with pytest.raises(ParseError) as err:
            parse_poly("  x - 10^4300", ("x",))
        assert str(err.value) == "a coefficient has more than 4300 digits (column 3)"
        # held over the common denominator 7 the constant has 4301 digits,
        # but it prints in lowest terms
        assert parse_poly("1/7*x + 2*10^4299").nums[(0,)] == 14 * 10**4299

    def test_nesting_at_the_limit(self):
        # MAX_NESTING '(' and unary '-' in any mix parse; one more fails at
        # the token past the limit
        deep = "(" * 60 + "-" * 40 + "x" + ")" * 60
        assert parse_poly(deep) == parse_poly("x")
        assert parse_poly("-" * MAX_NESTING + "x") == parse_poly("x")
        for src, column in [
            ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), MAX_NESTING + 1),
            ("x + " + "-" * 1200 + "x", MAX_NESTING + 5),
            ("-(" * 51 + "x" + ")" * 51, MAX_NESTING + 1),
        ]:
            with pytest.raises(ParseError) as err:
                parse_poly(src)
            assert str(err.value) == f"nesting deeper than {MAX_NESTING} (column {column})"
        with pytest.raises(ParseError) as err:
            parse_derivation("deriv{x: 1, y: " + "(" * 400 + "y" + ")" * 400 + "}")
        assert err.value.column == 16 + MAX_NESTING

    def test_polynomial_over_given_variables(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x + y", ("x",))
        assert err.value.column == 5
        assert "unknown variable 'y' in this context" in str(err.value)

    def test_leftmost_undeclared_variable(self):
        with pytest.raises(ParseError) as err:
            parse_derivation("deriv{x: 1, y1: y2 + y3}")
        assert err.value.column == 17 and "'y2'" in str(err.value)

    def test_undeclared_variable_does_not_depend_on_hash_seed(self):
        code = (
            "from dercert import ParseError, parse_derivation\n"
            "try:\n"
            "    parse_derivation('deriv{x: 1, y1: y2 + y3}')\n"
            "except ParseError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = set()
        for seed in ("1", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            outputs.add(run.stdout)
        assert outputs == {"variable 'y2' is not declared by this derivation (column 17)\n"}


class TestPrintCoefficients:
    @pytest.mark.parametrize(
        "src, text",
        [
            ("x^2*y - x + 3/2", "x^2*y - x + 3/2"),
            ("-x*y^2 + 1/3*x - 2/4", "-1*x*y^2 + 1/3*x - 1/2"),
            ("-5/3", "-5/3"),
            ("6/3*y + 1", "2*y + 1"),
            ("1 - 1/6*y1*y2^3", "-1/6*y1*y2^3 + 1"),
            ("0*x", "0"),
        ],
    )
    def test_text(self, src, text):
        assert poly_to_str(parse_poly(src)) == text
