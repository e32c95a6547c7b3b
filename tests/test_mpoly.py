from fractions import Fraction
from operator import add

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import assert_layout, multipolys, nonzero_multipolys, rationals, uni
from dercert import (
    DegreeOverflow,
    MultiPoly,
    VariableMismatch,
    ZeroPolynomial,
    divide_exact,
    parse_poly,
)
from dercert.cli import run_command
from dercert.mpoly import MAX_DEGREE, divide

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

    @settings(max_examples=200, deadline=None)
    @given(
        multipolys(max_degree=3),
        multipolys(max_degree=3),
        rationals,
        multipolys(("x",), max_degree=3).filter(lambda p: not p.is_constant()),
    )
    def test_quotients_over_coprime_leading_monomials(self, q1, q2, c, p):
        # y + c and p(x) lead with coprime monomials, so their remainder is
        # unique: h is a member, and h + 1 leaves the remainder 1
        divisors = (poly("y") + MultiPoly.constant(XY, c), p.with_variables(XY))
        h = q1 * divisors[0] + q2 * divisors[1]
        quotients = divide(h, divisors)
        assert quotients[0] * divisors[0] + quotients[1] * divisors[1] == h
        assert divide(h + MultiPoly.constant(XY, 1), divisors) is None


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

    def test_join_needs_coefficients_over_the_other_variables(self):
        assert MultiPoly.join(XY, "y", {2: uni([-1, 1]), 0: uni([1])}) == poly("(x - 1)*y^2 + 1")
        # a coefficient over another tuple is refused, not read as one over ("x",)
        for wrong in [MultiPoly.var(("y1",), "y1"), MultiPoly.var(XY, "x")]:
            with pytest.raises(VariableMismatch):
                MultiPoly.join(XY, "y", {1: wrong})

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
    # x*y comes first: y = 0 drops it, so the constant, the first term
    # free of y, comes first, ahead of x
    @example(
        MultiPoly(UVXY, [((0, 0, 1, 1), 2), ((0, 0, 0, 0), 1), ((0, 0, 1, 0), 3)]),
        {"y": Fraction(0)},
    )
    # u*v*y dies at u = v = 0; x and y keep their order
    @example(
        MultiPoly(UVXY, [((1, 1, 0, 1), 1), ((0, 0, 1, 0), 1), ((0, 0, 0, 1), 1)]),
        {"u": Fraction(0), "v": Fraction(0)},
    )
    def test_substitute(self, a, values):
        assigned = [UVXY.index(name) for name in values]
        zeros = [UVXY.index(name) for name, value in values.items() if not value]
        result = a.substitute(values)
        # the terms free of the names set to 0, in their order, then each
        # specialized in turn, merged where monomials first meet
        expected = []
        for exps, c in items(a):
            if any(exps[i] for i in zeros):
                continue
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
        assert a.is_constant() == all(not any(exps) for exps in a.numerators)

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


# -- the core on packed keys, against a tuple-keyed reference -------------


def grlex_key(exps: tuple[int, ...]) -> tuple:
    # total degree first, ties broken from the highest-ranked variable down
    return (sum(exps), tuple(reversed(exps)))


def ref_sum(*parts: dict) -> dict:
    out: dict = {}
    for part in parts:
        for e, c in part.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    return ref_sum(*({tuple(map(add, e1, e2)): c1 * c2} for e1, c1 in a.items() for e2, c2 in b.items()))


def ref_pow(a: dict, k: int, nvars: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_substitute(a: dict, values: dict[int, Fraction]) -> dict:
    parts = []
    for exps, c in a.items():
        for i, value in values.items():
            c *= value ** exps[i]
        parts.append({tuple(0 if i in values else e for i, e in enumerate(exps)): c})
    return ref_sum(*parts)


def ref_top(a: dict) -> int:
    return max(map(sum, a), default=0)


def wide_multipolys(variables=UVXY, max_terms: int = 5):
    """Polynomials whose exponents run from small to a quarter of the limit,
    so every bit of a field is used and products may pass the limit."""
    share = MAX_DEGREE // len(variables)
    exponent = st.integers(0, 3) | st.integers(0, share) | st.sampled_from([share // 2, share])
    exps = st.tuples(*[exponent] * len(variables))
    terms = st.lists(st.tuples(exps, rationals), max_size=max_terms)
    return terms.map(lambda t: MultiPoly(variables, t))


class TestPackedKeys:
    """Every operation agrees with the same operation on exponent tuples; a
    result beyond MAX_DEGREE raises DegreeOverflow and never wraps."""

    @settings(max_examples=200, deadline=None)
    @given(wide_multipolys(), wide_multipolys())
    def test_ring_operations(self, a, b):
        ta, tb = a.terms, b.terms
        assert MultiPoly(UVXY, ta) == a
        assert (a + b).terms == ref_sum(ta, tb)
        assert (a - b).terms == ref_sum(ta, {e: -c for e, c in tb.items()})
        product = ref_mul(ta, tb)
        if ref_top(product) > MAX_DEGREE:
            with pytest.raises(DegreeOverflow):
                a * b
        else:
            assert (a * b).terms == product

    @settings(max_examples=200, deadline=None)
    @given(wide_multipolys(), st.sampled_from(UVXY))
    def test_reading_the_fields(self, a, name):
        i = UVXY.index(name)
        ta = a.terms
        assert a.partial(name).terms == ref_sum(
            *({tuple(e - (j == i) for j, e in enumerate(exps)): c * exps[i]} for exps, c in ta.items())
        )
        assert a.support() == {v for j, v in enumerate(UVXY) if any(exps[j] for exps in ta)}
        if ta:
            assert a.degree_in(name) == max(exps[i] for exps in ta)
            assert a.total_degree() == ref_top(ta)
        assert [e for e, _ in a.descending()] == sorted(ta, key=grlex_key, reverse=True)
        split = a.split(name)
        assert {k: p.terms for k, p in split.items()} == {
            k: {exps[:i] + exps[i + 1 :]: c for exps, c in ta.items() if exps[i] == k}
            for k in {exps[i] for exps in ta}
        }
        assert MultiPoly.join(UVXY, name, split) == a
        # x and y trade places, and a name no term holds goes away
        reordered = ("y", "u", "v", "x")
        assert a.with_variables(reordered).terms == {(e[3], e[0], e[1], e[2]): c for e, c in ta.items()}
        if not any(exps[0] for exps in ta):
            assert a.with_variables(UVXY[1:]).terms == {exps[1:]: c for exps, c in ta.items()}

    @settings(max_examples=200, deadline=None)
    @given(
        multipolys(UVXY, max_degree=3),
        st.dictionaries(st.sampled_from(UVXY), rationals, min_size=1, max_size=3),
    )
    def test_substitute(self, a, values):
        result = a.substitute(values).terms
        assert result == ref_substitute(a.terms, {UVXY.index(n): v for n, v in values.items()})

    @settings(max_examples=200, deadline=None)
    @given(
        wide_multipolys(),
        st.dictionaries(st.sampled_from(UVXY), st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
                        min_size=1, max_size=3),
    )
    def test_substitute_zero_and_unit_values(self, a, values):
        result = a.substitute(values).terms
        assert result == ref_substitute(a.terms, {UVXY.index(n): v for n, v in values.items()})

    @settings(max_examples=200, deadline=None)
    @given(
        multipolys(UVXY, max_degree=3),
        st.sampled_from(UVXY),
        multipolys(UVXY, max_degree=2, max_terms=3),
    )
    def test_substitute_poly(self, a, name, replacement):
        i = UVXY.index(name)
        tr = replacement.terms
        parts = []
        for exps, c in a.terms.items():
            rest = {tuple(0 if j == i else e for j, e in enumerate(exps)): c}
            parts.append(ref_mul(rest, ref_pow(tr, exps[i], len(UVXY))))
        assert a.substitute_poly(name, replacement).terms == ref_sum(*parts)

    def test_exponents_at_the_limit_round_trip(self):
        for exps in [(MAX_DEGREE, 0, 0, 0), (0, 0, 0, MAX_DEGREE), (1, MAX_DEGREE - 3, 1, 1)]:
            p = MultiPoly(UVXY, {exps: 3})
            assert p.terms == {exps: 3}
            assert p.total_degree() == MAX_DEGREE
            assert p.descending() == [(exps, 3)]
        top = MultiPoly.var(UVXY, "y", MAX_DEGREE)
        assert top.terms == {(0, 0, 0, MAX_DEGREE): 1}
        assert top.degree_in("y") == MAX_DEGREE and top.support() == {"y"}
        assert top.split("y") == {MAX_DEGREE: MultiPoly.constant(UVXY[:3], 1)}
        assert divide_exact(top, MultiPoly.var(UVXY, "y", MAX_DEGREE - 1)) == MultiPoly.var(UVXY, "y")
        assert divide_exact(top, MultiPoly.var(UVXY, "x")) is None
        half = MultiPoly.var(XY, "x", MAX_DEGREE // 2) * MultiPoly.var(XY, "y", MAX_DEGREE // 2 + 1)
        assert half.terms == {(MAX_DEGREE // 2, MAX_DEGREE // 2 + 1): 1}

    def test_one_past_the_limit_raises(self):
        x, y = MultiPoly.var(XY, "x"), MultiPoly.var(XY, "y")
        top = MultiPoly.var(XY, "x", MAX_DEGREE)
        past = [
            lambda: MultiPoly(XY, {(MAX_DEGREE + 1, 0): 1}),
            lambda: MultiPoly(XY, {(MAX_DEGREE, 1): 1}),
            lambda: MultiPoly.var(XY, "y", MAX_DEGREE + 1),
            lambda: top * x,
            lambda: top * y,
            lambda: (top + x) * (y + x),
            lambda: MultiPoly.var(XY, "y", MAX_DEGREE // 2 + 1) ** 2,
            # the power fits, the sum with the rest of the term does not
            lambda: (MultiPoly.var(XY, "x", MAX_DEGREE - 1) * y).substitute_poly("y", x * x),
            lambda: MultiPoly.join(XY, "y", {MAX_DEGREE + 1: MultiPoly.constant(("x",), 1)}),
            lambda: MultiPoly.join(XY, "y", {1: MultiPoly.var(("x",), "x", MAX_DEGREE)}),
        ]
        for make in past:
            with pytest.raises(DegreeOverflow, match=f"exceeds the limit {MAX_DEGREE}$"):
                make()

    def test_cli_names_the_limit(self, capsys):
        code = run_command(["analyze", "deriv{x: y, y: (x^1000000)^1000000}"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"total degree 1000000000000 exceeds the limit {MAX_DEGREE} (column 28)" in err
