from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import nonzero_rationals, rationals, uni, unipolys
from dercert import NEG_INF, UniPoly, ZeroPolynomial, rational_roots


class TestArithmetic:
    def test_difference_of_squares(self):
        x_plus_1 = uni([1, 1])
        x_minus_1 = uni([-1, 1])
        assert x_plus_1 * x_minus_1 == uni([-1, 0, 1])

    def test_cancellation_gives_degree_sentinel(self):
        x2 = UniPoly.x(2)
        diff = x2 - x2
        assert diff.is_zero()
        assert diff.degree() == NEG_INF
        assert NEG_INF < 0

    def test_mixed_scalar_addition(self):
        result = uni([0, 2]) + UniPoly.constant(Fraction(3, 2))
        assert result == UniPoly([(1, 2), (0, Fraction(3, 2))])

    def test_degree_rules(self):
        assert (uni([1, 1]) * uni([0, 0, 1])).degree() == 3
        assert UniPoly.zero().degree() == NEG_INF
        assert UniPoly.constant(5).degree() == 0


class TestDerivative:
    def test_cube(self):
        assert UniPoly.x(3).derivative() == uni([0, 0, 3])

    def test_constant(self):
        assert UniPoly.constant(5).derivative().is_zero()

    def test_halved_square(self):
        assert UniPoly([(2, Fraction(1, 2))]).derivative() == UniPoly.x()

    def test_antiderivative_inverts(self):
        p = uni([3, 0, 6])
        assert p.antiderivative().derivative() == p


class TestDivision:
    def test_divmod(self):
        q, r = uni([-1, 0, 1]).divmod_by(uni([-1, 1]))
        assert q == uni([1, 1]) and r.is_zero()

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroPolynomial):
            uni([1]).divmod_by(UniPoly.zero())


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
        p = (UniPoly.x() - UniPoly.constant(Fraction(2, 3))) * (
            UniPoly.x() + UniPoly.constant(Fraction(3, 5))
        )
        assert rational_roots(p) == [Fraction(-3, 5), Fraction(2, 3)]
        assert rational_roots(p.scale(Fraction(7, 4))) == [Fraction(-3, 5), Fraction(2, 3)]

    def test_repeated_root_zero(self):
        p = UniPoly.x(3) * uni([-1, 1]) * uni([-1, 1])
        assert rational_roots(p) == [0, 1]
        assert rational_roots(UniPoly.x(2).scale(Fraction(1, 3))) == [0]
        assert rational_roots(UniPoly.x(2) * uni([1, 0, 1])) == [0]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            rational_roots(UniPoly.zero())

    @settings(max_examples=200, deadline=None)
    @given(rationals, rationals, nonzero_rationals)
    def test_constructed_roots_recovered(self, r1, r2, lead):
        # lead * (x - r1) * (x - r2)
        p = (UniPoly.x() - UniPoly.constant(r1)) * (
            UniPoly.x() - UniPoly.constant(r2)
        )
        roots = rational_roots(p.scale(lead))
        assert r1 in roots and r2 in roots

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=4),
        st.integers(min_value=0, max_value=2),
        nonzero_rationals,
    )
    def test_roots_of_linear_products(self, planted, zero_power, lead):
        p = UniPoly.x(zero_power).scale(lead)
        for r in planted:
            p = p * (UniPoly.x() - UniPoly.constant(r))
        expected = set(planted) | ({Fraction(0)} if zero_power else set())
        assert rational_roots(p) == sorted(expected)

    @settings(max_examples=200, deadline=None)
    @given(unipolys())
    def test_returned_roots_vanish(self, p):
        if p.is_zero():
            return
        for r in rational_roots(p):
            assert p(r) == 0


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(unipolys(), unipolys())
    def test_operations_preserve_canonical_form(self, a, b):
        for result in (a + b, a - b, a * b, -a, a.derivative()):
            exps = [e for e, _ in result.coeffs]
            assert exps == sorted(set(exps))
            assert all(c != 0 for _, c in result.coeffs)


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
