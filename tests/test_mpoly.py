from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import assert_layout, multipolys, nonzero_multipolys, rationals, uni
from dercert import MultiPoly, VariableMismatch, ZeroPolynomial, divide_exact, parse_poly

XY = ("x", "y")


def poly(src: str) -> MultiPoly:
    return parse_poly(src, XY)


class TestDivideExact:
    def test_difference_of_squares(self):
        assert divide_exact(poly("x^2 - 1"), poly("x - 1")) == poly("x + 1")

    def test_mixed_quotient(self):
        h = poly("(x - 1)*y^2 + x*y + 1")
        g = poly("y + 1")
        expected = poly("(x - 1)*y + 1")
        assert expected * g == h  # oracle: expand and compare
        assert divide_exact(h, g) == expected

    def test_not_divisible(self):
        assert divide_exact(poly("y^2 + 1"), poly("y")) is None

    def test_divisor_zero(self):
        with pytest.raises(ZeroPolynomial):
            divide_exact(poly("y"), MultiPoly.zero(XY))

    def test_zero_dividend(self):
        assert divide_exact(MultiPoly.zero(XY), poly("y + 1")) == MultiPoly.zero(XY)

    @settings(max_examples=200, deadline=None)
    @given(multipolys(max_degree=3), nonzero_multipolys(max_degree=3))
    def test_product_always_divides(self, q, g):
        assert divide_exact(q * g, g) == q


class TestRingAxioms:
    @settings(max_examples=200, deadline=None)
    @given(multipolys(), multipolys(), multipolys())
    def test_mul_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=200, deadline=None)
    @given(multipolys(), multipolys())
    def test_add_commutative_sub_inverse(self, a, b):
        assert a + b == b + a
        assert (a - b) + b == a

    def test_constants_and_vars(self):
        one = MultiPoly.constant(XY, 1)
        y = MultiPoly.var(XY, "y")
        assert one * y == y
        assert (y - y).is_zero()


class TestReshaping:
    def test_split_y(self):
        p = poly("(x - 1)*y^2 + x*y + 1")
        assert p.split("y") == {2: uni([-1, 1]), 1: uni([0, 1]), 0: uni([1])}
        assert p.split("x") == {
            1: parse_poly("y^2 + y", ("y",)),
            0: parse_poly("-y^2 + 1", ("y",)),
        }
        assert MultiPoly.zero(XY).split("y") == {}

    def test_with_variables_drops_an_unused_variable(self):
        r = poly("x^3 + 2*x + 1").with_variables(("x",))
        assert r == uni([1, 2, 0, 1])
        with pytest.raises(VariableMismatch):
            poly("x*y").with_variables(("x",))

    def test_with_variables_names_a_dropped_variable_that_occurs(self):
        # x is dropped too, but only y occurs
        with pytest.raises(VariableMismatch, match="variable y absent"):
            poly("y").with_variables(("z",))

    def test_substitute(self):
        p = poly("x*y^2 + x")
        assert p.substitute({"y": 0}) == poly("x")
        assert p.substitute({"y": 2}) == poly("5*x")
        assert p.substitute({"x": 3, "y": Fraction(1, 2)}) == poly("15/4")
        # no name occurs: the polynomial itself comes back
        q = poly("x + 1")
        assert q.substitute({"y": 7}) is q

    def test_substitute_poly(self):
        p = poly("y^2 + 1")
        assert p.substitute_poly("y", poly("x + 1")) == poly("x^2 + 2*x + 2")

    def test_with_variables_embedding(self):
        p = parse_poly("x^2 + 1", ("x",))
        lifted = p.with_variables(XY)
        assert lifted == poly("x^2 + 1")

    def test_partial_derivatives(self):
        p = poly("x^2*y + y^3")
        assert p.partial("x") == poly("2*x*y")
        assert p.partial("y") == poly("x^2 + 3*y^2")

    def test_evaluate(self):
        p = poly("x*y + 1/2")
        assert p.evaluate({"x": 2, "y": Fraction(1, 4)}) == 1


XZY = ("x", "z", "y")
UVXY = ("u", "v", "x", "y")


def items(p: MultiPoly) -> list:
    return list(p.terms.items())


def assert_canonical(p: MultiPoly, variables=XY) -> None:
    assert p.variables == variables
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == len(variables)
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(c) is Fraction and c != 0
    assert_layout(p)


def assert_built_as(p: MultiPoly, terms, variables=XY) -> None:
    """p is canonical and equals, term order included, the validated `terms`."""
    assert_canonical(p, variables)
    assert items(p) == items(MultiPoly(variables, terms))


def naive_substitution(p: MultiPoly, name: str, power_of) -> MultiPoly:
    """Sum of c * rest * power_of(k) over the terms c * rest * name^k of p."""
    idx = p.variables.index(name)
    total = MultiPoly.zero(p.variables)
    for exps, c in p.terms.items():
        rest = tuple(0 if i == idx else e for i, e in enumerate(exps))
        total = total + MultiPoly(p.variables, [(rest, c)]) * power_of(exps[idx])
    return total


class TestTrustedCore:
    """Internal results skip the validating constructor; they must not need it."""

    @settings(max_examples=200, deadline=None)
    @given(multipolys(), multipolys(), rationals)
    def test_ring_operations(self, a, b, k):
        assert_built_as(a + b, items(a) + items(b))
        assert_built_as(a - b, items(a) + [(e, -c) for e, c in items(b)])
        assert_built_as(-a, [(e, -c) for e, c in items(a)])
        assert_built_as(
            a * b,
            [
                (tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
                for e1, c1 in items(a)
                for e2, c2 in items(b)
            ],
        )
        assert_built_as(a.scale(k), [(e, c * k) for e, c in items(a)])

    @settings(max_examples=200, deadline=None)
    @given(multipolys(max_degree=2, max_terms=4), st.integers(min_value=0, max_value=5))
    def test_power(self, a, n):
        # square-and-multiply from the low bit, starting at 1
        expected, base, m = MultiPoly.constant(XY, 1), a, n
        while m:
            if m & 1:
                expected = expected * base
            base = base * base
            m >>= 1
        assert_built_as(a**n, items(expected))

    @settings(max_examples=200, deadline=None)
    @given(multipolys(), st.sampled_from(XY))
    def test_partial(self, a, name):
        i = XY.index(name)
        assert_built_as(
            a.partial(name),
            [
                (tuple(e - (j == i) for j, e in enumerate(exps)), c * exps[i])
                for exps, c in items(a)
                if exps[i]
            ],
        )

    @settings(max_examples=200, deadline=None)
    @given(
        multipolys(UVXY, max_degree=3),
        st.dictionaries(
            st.sampled_from(UVXY), st.just(Fraction(0)) | rationals, min_size=1, max_size=3
        ),
    )
    # x*y comes first: y = 0 zeroes it, yet its rest x keeps the first
    # position, ahead of the constant, once the later term x is added
    @example(
        MultiPoly(UVXY, [((0, 0, 1, 1), 2), ((0, 0, 0, 0), 1), ((0, 0, 1, 0), 3)]),
        {"y": Fraction(0)},
    )
    # u*v*y dies at u = v = 0, yet its key y stays ahead of x; substituting
    # u first and then v drops that key and puts y after x
    @example(
        MultiPoly(UVXY, [((1, 1, 0, 1), 1), ((0, 0, 1, 0), 1), ((0, 0, 0, 1), 1)]),
        {"u": Fraction(0), "v": Fraction(0)},
    )
    def test_substitute(self, a, values):
        assigned = [UVXY.index(name) for name in values]
        result = a.substitute(values)
        expected = []
        for exps, c in items(a):
            for i in assigned:
                c *= values[UVXY[i]] ** exps[i]
            expected.append((tuple(0 if j in assigned else e for j, e in enumerate(exps)), c))
        assert_built_as(result, expected, UVXY)
        if not a.support() & set(values):
            assert result is a
        # the same polynomial as substituting the names one at a time
        one_by_one = naive = a
        for name, value in values.items():
            one_by_one = one_by_one.substitute({name: value})
            naive = naive_substitution(
                naive, name, lambda k: MultiPoly.constant(UVXY, value**k)
            )
        assert result == one_by_one == naive

    @settings(max_examples=200, deadline=None)
    @given(multipolys(), st.sampled_from(XY), multipolys(max_degree=2, max_terms=3))
    def test_substitute_poly(self, a, name, replacement):
        result = a.substitute_poly(name, replacement)
        assert_canonical(result)
        assert result == MultiPoly(XY, items(result))
        naive = naive_substitution(a, name, lambda k: replacement**k)
        assert result == naive
        # the term order is that of adding c * rest * replacement^k term by term
        assert items(result) == items(naive)

    @settings(max_examples=200, deadline=None)
    @given(
        multipolys(UVXY, max_degree=2)
        | rationals.map(lambda c: MultiPoly.constant(UVXY, c))
    )
    def test_is_constant(self, a):
        assert a.is_constant() == all(not any(exps) for exps in a.nums)

    @settings(max_examples=200, deadline=None)
    @given(multipolys(UVXY, max_degree=3), st.sampled_from(UVXY))
    def test_split(self, a, name):
        i = UVXY.index(name)
        rest = UVXY[:i] + UVXY[i + 1 :]
        total = MultiPoly.zero(UVXY)
        for power, coeff in a.split(name).items():
            assert_built_as(
                coeff,
                [
                    (exps[:i] + exps[i + 1 :], c)
                    for exps, c in items(a)
                    if exps[i] == power
                ],
                rest,
            )
            total = total + coeff.with_variables(UVXY) * MultiPoly.var(UVXY, name, power)
        assert total == a

    @settings(max_examples=200, deadline=None)
    @given(multipolys())
    def test_with_variables(self, a):
        lifted = a.with_variables(XZY)
        assert_built_as(lifted, [((x, 0, y), c) for (x, y), c in items(a)], XZY)
        assert_built_as(lifted.with_variables(XY), items(a))

    @settings(max_examples=200, deadline=None)
    @given(multipolys(max_degree=3), nonzero_multipolys(max_degree=3))
    def test_divide_exact_quotient(self, q, g):
        quotient = divide_exact(q * g, g)
        assert_canonical(quotient)
        assert quotient == MultiPoly(XY, items(quotient))
        assert quotient == q
