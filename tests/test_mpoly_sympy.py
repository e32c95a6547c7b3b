"""MultiPoly and rational_roots against sympy, and the invariants of the layout.

Polynomials live over one to four variables and carry coefficients with
denominators up to 12, so the common denominator is rarely 1.  Every
result is compared with sympy's, and checked to be in canonical form:
den > 0, gcd(den, numerators) == 1, no zero numerator, den == 1 for zero.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import assert_layout
from dercert import MultiPoly, divide_exact, rational_roots

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z", "w")
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=12)
PROPERTY = settings(max_examples=60, deadline=None)


def polys_over(variables, max_degree=3, max_terms=5):
    # a monomial is a multiset of at most max_degree variable indices
    monomials = st.lists(st.integers(0, len(variables) - 1), max_size=max_degree).map(
        lambda idx: tuple(idx.count(i) for i in range(len(variables)))
    )
    return st.lists(st.tuples(monomials, coefficients), max_size=max_terms).map(
        lambda terms: MultiPoly(variables, terms)
    )


@st.composite
def poly_tuples(draw, count, max_degree=3):
    variables = NAMES[: draw(st.integers(1, len(NAMES)))]
    return [draw(polys_over(variables, max_degree)) for _ in range(count)]


def to_sympy(p: MultiPoly):
    gens = sympy.symbols(p.variables)
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ)


def from_sympy(expr, variables) -> MultiPoly:
    poly = sympy.Poly(sympy.expand(expr), *sympy.symbols(variables), domain=sympy.QQ)
    return MultiPoly(variables, [(e, Fraction(int(c.p), int(c.q))) for e, c in poly.terms()])


def assert_matches(p: MultiPoly, expr) -> None:
    """p is canonical and equals, hash included, the sympy result rebuilt."""
    assert_layout(p)
    expected = from_sympy(expr, p.variables)
    assert p == expected and hash(p) == hash(expected)
    assert to_sympy(p) == to_sympy(expected)


class TestRingOperations:
    @PROPERTY
    @given(poly_tuples(2))
    def test_add_sub_mul_neg(self, ab):
        a, b = ab
        sa, sb = to_sympy(a).as_expr(), to_sympy(b).as_expr()
        assert_matches(a + b, sa + sb)
        assert_matches(a - b, sa - sb)
        assert_matches(a * b, sa * sb)
        assert_matches(-a, -sa)

    @PROPERTY
    @given(poly_tuples(1), coefficients)
    def test_scale(self, a, k):
        (a,) = a
        expr = to_sympy(a).as_expr() * sympy.Rational(k.numerator, k.denominator)
        assert_matches(a.scale(k), expr)
        assert_matches(a.scale(k.numerator), to_sympy(a).as_expr() * k.numerator)

    @PROPERTY
    @given(poly_tuples(1), st.integers(0, 3))
    def test_partial(self, a, which):
        (a,) = a
        name = a.variables[which % len(a.variables)]
        assert_matches(a.partial(name), sympy.diff(to_sympy(a).as_expr(), sympy.Symbol(name)))


class TestSubstitution:
    @PROPERTY
    @given(
        poly_tuples(1),
        st.lists(
            st.tuples(st.integers(0, 3), st.just(Fraction(0)) | coefficients),
            min_size=1,
            max_size=3,
        ),
    )
    def test_substitute(self, a, assignment):
        (a,) = a
        values = {a.variables[which % len(a.variables)]: value for which, value in assignment}
        expr = to_sympy(a).as_expr().subs(
            {
                sympy.Symbol(name): sympy.Rational(value.numerator, value.denominator)
                for name, value in values.items()
            },
            simultaneous=True,
        )
        assert_matches(a.substitute(values), expr)

    @PROPERTY
    @given(poly_tuples(2, max_degree=2), st.integers(0, 3))
    def test_substitute_poly(self, ab, which):
        a, b = ab
        name = a.variables[which % len(a.variables)]
        expr = to_sympy(a).as_expr().subs(sympy.Symbol(name), to_sympy(b).as_expr())
        assert_matches(a.substitute_poly(name, b), expr)


class TestDivideExact:
    @PROPERTY
    @given(poly_tuples(2))
    def test_quotient_of_a_product(self, qg):
        q, g = qg
        if g.is_zero():
            return
        h = q * g
        result = divide_exact(h, g)
        assert_matches(result, to_sympy(q).as_expr())
        sympy_q, sympy_r = sympy.div(to_sympy(h), to_sympy(g))
        assert sympy_r.is_zero and to_sympy(result) == sympy_q

    @PROPERTY
    @given(poly_tuples(2))
    def test_none_exactly_for_non_divisors(self, hg):
        h, g = hg
        if g.is_zero():
            return
        _, remainder = sympy.div(to_sympy(h), to_sympy(g))
        result = divide_exact(h, g)
        assert (result is None) == (not remainder.is_zero)
        if result is not None:
            assert_layout(result)
            assert result * g == h


class TestRationalRoots:
    @PROPERTY
    @given(
        st.lists(coefficients, max_size=4),
        st.integers(0, 2),
        coefficients.filter(bool),
        st.lists(coefficients, max_size=3),
        st.integers(0, 3),
    )
    def test_against_sympy(self, planted, zero_power, lead, cofactor, position):
        variables = NAMES[: position + 1]
        name = variables[position]
        x = MultiPoly.var(variables, name)
        p = MultiPoly.var(variables, name, zero_power).scale(lead)
        for r in planted:
            p = p * (x - MultiPoly.constant(variables, r))
        # 1 + c_1*x + c_2*x^2 + ... may add rational roots of its own, or none
        power = lambda k: tuple(k if v == name else 0 for v in variables)  # noqa: E731
        p = p * MultiPoly(variables, [(power(k), c) for k, c in enumerate([1] + cofactor)])
        _, factors = sympy.factor_list(to_sympy(p).as_expr(), sympy.Symbol(name))
        expected = set()
        for factor, _ in factors:
            f = sympy.Poly(factor, sympy.Symbol(name))
            if f.degree() == 1:
                c1, c0 = f.all_coeffs()
                root = -c0 / c1
                expected.add(Fraction(int(root.p), int(root.q)))
        roots = rational_roots(p)
        assert roots == sorted(expected)
        assert all(type(r) is Fraction for r in roots)


class TestInvariants:
    @PROPERTY
    @given(poly_tuples(3))
    def test_equal_values_by_different_routes(self, abc):
        a, b, c = abc
        pairs = [
            ((a + b) * c, a * c + b * c),
            (a - a, MultiPoly.zero(a.variables)),
            ((a * b).scale(Fraction(1, 6)), a.scale(Fraction(1, 2)) * b.scale(Fraction(1, 3))),
            (a + b - b, a),
            (MultiPoly(a.variables, a.terms), a),
        ]
        for left, right in pairs:
            assert_layout(left)
            assert_layout(right)
            assert left == right and hash(left) == hash(right)

    def test_constructor_clears_denominators(self):
        p = MultiPoly(("x", "y"), {(1, 0): Fraction(1, 6), (0, 1): Fraction(2, 4), (0, 0): 3})
        assert (p.numerators, p.den) == ({(1, 0): 1, (0, 1): 3, (0, 0): 18}, 6)
        assert list(p.terms.values()) == [Fraction(1, 6), Fraction(1, 2), Fraction(3)]

    def test_common_factor_is_divided_out(self):
        half = MultiPoly(("x",), {(1,): Fraction(1, 2)})
        p = half + half
        assert (p.numerators, p.den) == ({(1,): 1}, 1)
        assert (half * MultiPoly.constant(("x",), 2)).den == 1
        assert (half - half).den == 1
