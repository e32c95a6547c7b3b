"""The plane conditions against a reference that states them directly.

Cells have alpha = beta in {1, 2, 3} or alpha < beta, coefficients of
degree at most 2, and about a third of them are built from some l, so
that condition 3 fails.  The reference reads conditions 1 and 2 off the
coefficient lists, and for condition 3 takes the nonzero rational common
roots in l of the x-coefficients of a2 - l*a1 - (-1)^beta*l^(beta+1)*a0,
computed by sympy: it never calls `condition3_solve`.

At alpha = beta = 1 the simplicity decision must agree with the
necessary conditions on every cell.  Its witness is the same one, except
at condition 2, where it is the generator made monic in y.
"""

from fractions import Fraction
from functools import reduce

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import uni
from dercert import (
    PlaneFamily,
    conjecture_necessary,
    decide_simple_family_a,
    verify_stable_ideal,
)

sympy = pytest.importorskip("sympy")

F = Fraction
X, L = sympy.symbols("x l")

small = st.one_of(
    st.just(F(0)),
    st.integers(min_value=-3, max_value=3).map(F),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)
coefficients = st.lists(small, max_size=3)  # degree <= 2, low to high
# half the drawn a0 pass condition 1, so that conditions 2 and 3 are reached
a0_terms = st.one_of(small.filter(bool).map(lambda c: [c]), coefficients)


@st.composite
def cells(draw):
    """(alpha, beta, a2, a1, a0) as low-to-high coefficient lists."""
    alpha, beta = draw(
        st.sampled_from([(1, 1), (2, 2), (3, 3), (1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
    )
    a1 = draw(coefficients)
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        # built from l: a2 = l*a1 + (-1)^beta*l^(beta+1)*a0 with a0 in Q*
        l = draw(small.filter(bool))
        a0 = [draw(small.filter(bool))]
        a2 = [l * c for c in a1] or [F(0)]
        a2[0] += (-1) ** beta * l ** (beta + 1) * a0[0]
    else:
        a2, a0 = draw(coefficients), draw(a0_terms)
    return alpha, beta, a2, a1, a0


def to_sympy(coeffs):
    terms = (sympy.Rational(c.numerator, c.denominator) * X**k for k, c in enumerate(coeffs))
    return sum(terms, sympy.Integer(0))


def degree(coeffs) -> int:
    return max((k for k, c in enumerate(coeffs) if c), default=-1)


def reference(beta, a2, a1, a0):
    """(failed condition or None, l or None), straight from the definitions."""
    if degree(a0) != 0:
        return 1, None
    if degree(a1) < 1 and degree(a2) < 1:
        return 2, None
    residual = to_sympy(a2) - L * to_sympy(a1) - (-1) ** beta * L ** (beta + 1) * to_sympy(a0)
    in_l = [sympy.Poly(c, L) for c in sympy.Poly(residual, X).all_coeffs()]
    common = reduce(sympy.gcd, in_l)
    roots = [r for r in sympy.roots(common, filter="Q") if r != 0]
    assert len(roots) <= 1
    if roots:
        return 3, F(int(roots[0].p), int(roots[0].q))
    return None, None


@settings(max_examples=400, deadline=None)
@given(cells())
def test_plane_conditions_match_reference(cell):
    alpha, beta, a2, a1, a0 = cell
    fam = PlaneFamily(alpha, beta, a2=uni(a2), a1=uni(a1), a0=uni(a0))
    failed, l = reference(beta, a2, a1, a0)
    check = conjecture_necessary(fam)
    assert check.passed == (failed is None)
    assert check.failed_condition == failed
    D = fam.to_derivation()
    if failed is not None:
        assert check.witness.l_value == l
        assert verify_stable_ideal(D, check.witness.generators)
    if not fam.quadratic:
        return
    verdict = decide_simple_family_a(fam)
    assert verdict.simple == check.passed
    if verdict.simple:
        return
    expected = check.witness.generators
    if failed == 2 and (degree(a2) >= 0 or degree(a1) >= 0):
        (g,) = expected
        by_y = g.split("y")
        expected = (g.scale(1 / by_y[max(by_y)].constant_value()),)
    assert verdict.certificate.generators == expected
    assert verdict.certificate.l_value == l
    assert verify_stable_ideal(D, verdict.certificate.generators)
