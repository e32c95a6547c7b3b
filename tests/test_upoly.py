"""Polynomials in one variable: MultiPoly over ("x",), and rational_roots."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import X_ONLY, assert_layout, nonzero_rationals, rationals, uni, unipolys
from dercert import (
    NEG_INF,
    MultiPoly,
    VariableMismatch,
    ZeroPolynomial,
    divide_exact,
    rational_roots,
)


class TestArithmetic:
    def test_difference_of_squares(self):
        x_plus_1 = uni([1, 1])
        x_minus_1 = uni([-1, 1])
        assert x_plus_1 * x_minus_1 == uni([-1, 0, 1])

    def test_cancellation_gives_degree_sentinel(self):
        x2 = uni([0, 0, 1])
        diff = x2 - x2
        assert diff.is_zero()
        assert diff.total_degree() == NEG_INF
        assert NEG_INF < 0

    def test_mixed_scalar_addition(self):
        result = uni([0, 2]) + uni([Fraction(3, 2)])
        assert result == MultiPoly(X_ONLY, [((1,), 2), ((0,), Fraction(3, 2))])

    def test_degree_rules(self):
        assert (uni([1, 1]) * uni([0, 0, 1])).total_degree() == 3
        assert uni([]).total_degree() == NEG_INF
        assert uni([5]).total_degree() == 0


class TestDerivative:
    def test_cube(self):
        assert uni([0, 0, 0, 1]).partial("x") == uni([0, 0, 3])

    def test_constant(self):
        assert uni([5]).partial("x").is_zero()

    def test_halved_square(self):
        assert uni([0, 0, Fraction(1, 2)]).partial("x") == uni([0, 1])


class TestDivision:
    def test_divmod(self):
        assert divide_exact(uni([-1, 0, 1]), uni([-1, 1])) == uni([1, 1])
        # a nonzero remainder means no exact quotient
        assert divide_exact(uni([0, 0, 1]), uni([-1, 1])) is None

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroPolynomial):
            divide_exact(uni([1]), uni([]))


class TestRationalRoots:
    def test_quadratic(self):
        assert rational_roots(uni([0, -1, 1])) == [0, 1]

    def test_linear(self):
        assert rational_roots(uni([-3, 2])) == [Fraction(3, 2)]

    def test_no_rational_roots(self):
        assert rational_roots(uni([1, 0, 1])) == []

    def test_candidates_sharing_a_factor(self):
        # lead 4, constant -2: 2/4 and 2/2 reduce to candidates of their own
        p = uni([-1, 2]) * uni([2, 2])  # 4x^2 + 2x - 2
        assert rational_roots(p) == [-1, Fraction(1, 2)]
        assert rational_roots(uni([-2, 4])) == [Fraction(1, 2)]

    def test_coefficients_with_denominators(self):
        p = uni([Fraction(-2, 3), 1]) * uni([Fraction(3, 5), 1])
        assert rational_roots(p) == [Fraction(-3, 5), Fraction(2, 3)]
        assert rational_roots(p.scale(Fraction(7, 4))) == [Fraction(-3, 5), Fraction(2, 3)]

    def test_repeated_root_zero(self):
        p = uni([0, 0, 0, 1]) * uni([-1, 1]) * uni([-1, 1])
        assert rational_roots(p) == [0, 1]
        assert rational_roots(uni([0, 0, 1]).scale(Fraction(1, 3))) == [0]
        assert rational_roots(uni([0, 0, 1]) * uni([1, 0, 1])) == [0]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            rational_roots(uni([]))

    def test_one_variable_of_a_larger_tuple(self):
        # the residual solver passes equations over all its unknowns
        uv = ("u", "v")
        p = MultiPoly(uv, [((0, 2), 1), ((0, 1), -3), ((0, 0), 2)])  # v^2 - 3v + 2
        assert rational_roots(p) == [1, 2]
        with pytest.raises(VariableMismatch):
            rational_roots(MultiPoly(uv, [((1, 0), 1), ((0, 1), 1)]))

    @settings(max_examples=200, deadline=None)
    @given(rationals, rationals, nonzero_rationals)
    def test_constructed_roots_recovered(self, r1, r2, lead):
        # lead * (x - r1) * (x - r2)
        p = uni([-r1, 1]) * uni([-r2, 1])
        roots = rational_roots(p.scale(lead))
        assert r1 in roots and r2 in roots

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=4),
        st.integers(min_value=0, max_value=2),
        nonzero_rationals,
    )
    def test_roots_of_linear_products(self, planted, zero_power, lead):
        p = MultiPoly.var(X_ONLY, "x", zero_power).scale(lead)
        for r in planted:
            p = p * uni([-r, 1])
        expected = set(planted) | ({Fraction(0)} if zero_power else set())
        assert rational_roots(p) == sorted(expected)

    @settings(max_examples=200, deadline=None)
    @given(unipolys())
    def test_returned_roots_vanish(self, p):
        if p.is_zero():
            return
        for r in rational_roots(p):
            assert p.evaluate({"x": r}) == 0


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(unipolys(), unipolys())
    def test_operations_preserve_canonical_form(self, a, b):
        for result in (a + b, a - b, a * b, -a, a.partial("x")):
            assert result.variables == X_ONLY
            assert all(len(e) == 1 and e[0] >= 0 for e in result.terms)
            assert all(isinstance(c, Fraction) and c != 0 for c in result.terms.values())
            assert_layout(result)


class TestRingAxioms:
    @settings(max_examples=200, deadline=None)
    @given(unipolys(), unipolys(), unipolys())
    def test_mul_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=200, deadline=None)
    @given(unipolys(), unipolys())
    def test_add_commutative_sub_inverse(self, a, b):
        assert a + b == b + a
        assert (a - b) + b == a
