from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from conftest import multipolys, nonzero_rationals, uni, unipolys
from dercert import (
    MultiPoly,
    PlaneFamily,
    SearchBounds,
    condition3_solve,
    conjecture_necessary,
    conjecture_scan,
    decide_simple_family_a,
    divide_exact,
    parse_derivation,
    parse_poly,
    verify_stable_ideal,
)

F = Fraction
XY = ("x", "y")


def poly(src):
    return parse_poly(src, XY)


def nonconstant_unipolys(max_degree):
    return unipolys(max_degree=max_degree).filter(lambda p: not p.is_constant())


def two_shape_reference(D, gens):
    """The stable-ideal rule before division over a Groebner basis: a
    principal (g) is stable iff g divides D(g), and a pair (y, p(x)) with
    p nonconstant iff p divides the y-free parts of D(y) and D(p)."""
    if len(gens) == 1:
        (g,) = gens
        return divide_exact(D.apply(g), g) is not None
    y, p = gens
    free = {D.variables[1]: 0}
    return all(
        divide_exact(D.apply(g).substitute(free), p) is not None for g in (y, p)
    )


@st.composite
def plane_ideals(draw):
    """A plane derivation and a principal or (y, p(x)) ideal, p nonconstant.

    The witnesses of failing plane conditions and the pairs (y, p) with p
    dividing a0 are stable; the other drawn ideals mostly are not.
    """
    alpha = draw(st.integers(min_value=1, max_value=3))
    beta = draw(st.integers(min_value=alpha, max_value=3))
    a2, a1 = draw(unipolys(max_degree=2, max_terms=3)), draw(unipolys(max_degree=2, max_terms=3))
    p = draw(nonconstant_unipolys(max_degree=2))
    kind = draw(st.sampled_from(["principal", "witness", "pair", "stable pair"]))
    a0 = draw(unipolys(max_degree=2, max_terms=3))
    if kind == "stable pair":
        a0 = a0 * p
    fam = PlaneFamily(alpha, beta, a2=a2, a1=a1, a0=a0)
    y = MultiPoly.var(XY, "y")
    witness = conjecture_necessary(fam).witness
    if kind == "witness" and witness is not None:
        gens = witness.generators
    elif kind in ("pair", "stable pair"):
        gens = (y, p.with_variables(XY))
    else:
        gens = (draw(multipolys(max_degree=3).filter(lambda g: not g.is_constant())),)
    return fam.to_derivation(), gens


class TestCondition3:
    def test_forced_by_degree_one(self):
        assert condition3_solve(uni([-1, 1]), uni([0, 1]), F(1), 1) == F(1)

    def test_forced_l_two(self):
        assert condition3_solve(uni([-4, 2]), uni([0, 1]), F(1), 1) == F(2)

    def test_l_zero_excluded(self):
        assert condition3_solve(uni([1]), uni([0, 1]), F(1), 1) is None

    def test_constant_quadratic_branch(self):
        # two constants fail condition 2 first, so condition 3 refuses them
        with pytest.raises(ValueError):
            condition3_solve(uni([]), uni([2]), F(1), 1)

    def test_ratio_of_integral_coefficients_stays_rational(self):
        # a2 = 3*x - 9 = l*a1 - l^2*a0 for a1 = 2*x, a0 = 4: the x-coefficients force l = 3/2
        l = condition3_solve(uni([-9, 3]), uni([0, 2]), F(4), 1)
        assert type(l) is Fraction and l == F(3, 2)

    def test_a0_zero_rejected(self):
        with pytest.raises(ValueError):
            condition3_solve(uni([]), uni([0, 1]), F(0), 1)

    @settings(max_examples=200, deadline=None)
    @given(nonzero_rationals, nonconstant_unipolys(max_degree=3), nonzero_rationals)
    def test_planted_l_recovered(self, l, a1, a0):
        a2 = a1.scale(l) - uni([l * l * a0])
        assert condition3_solve(a2, a1, a0, 1) == l

    @settings(max_examples=200, deadline=None)
    @given(unipolys(max_degree=3), unipolys(max_degree=3), nonzero_rationals)
    def test_returned_l_satisfies_identity(self, a2, a1, a0):
        assume(not (a2.is_constant() and a1.is_constant()))
        l = condition3_solve(a2, a1, a0, 1)
        if l is not None:
            assert l != 0
            assert a2 == a1.scale(l) - uni([l * l * a0])


class TestDecideSimple:
    def test_quadratic_instance_simple(self):
        verdict = decide_simple_family_a(
            PlaneFamily(1, 1, a2=uni([0, 1]), a1=uni([]), a0=uni([1]))
        )
        assert verdict.simple and verdict.theorem == "T2.1"

    def test_condition3_failure_with_witness(self):
        fam = PlaneFamily(1, 1, a2=uni([-1, 1]), a1=uni([0, 1]), a0=uni([1]))
        verdict = decide_simple_family_a(fam)
        assert not verdict.simple
        assert verdict.theorem == "T4.2"
        assert verdict.certificate.l_value == 1
        assert verdict.certificate.generators == (poly("y + 1"),)
        assert verify_stable_ideal(fam.to_derivation(), verdict.certificate.generators)

    def test_linear_family_simple(self):
        verdict = decide_simple_family_a(
            PlaneFamily(1, 1, a2=uni([]), a1=uni([0, 1]), a0=uni([1]))
        )
        assert verdict.simple and verdict.theorem == "REF15"

    def test_flat_family_not_simple(self):
        fam = PlaneFamily(1, 1, a2=uni([]), a1=uni([]), a0=uni([1]))
        verdict = decide_simple_family_a(fam)
        assert not verdict.simple
        assert verdict.certificate.generators == (poly("1/2*y^2 - x"),)
        assert verify_stable_ideal(fam.to_derivation(), verdict.certificate.generators)

    def test_nonconstant_a0_pair_witness(self):
        fam = PlaneFamily(1, 1, a2=uni([0, 1]), a1=uni([]), a0=uni([0, 1]))
        verdict = decide_simple_family_a(fam)
        assert not verdict.simple
        assert verdict.certificate.generators == (poly("y"), poly("x"))
        assert verify_stable_ideal(fam.to_derivation(), verdict.certificate.generators)

    def test_both_nonconstant_simple_instance(self):
        # a2 = x, a1 = x, a0 = 1: the forced l = 1 fails the identity,
        # so all three conditions hold
        fam = PlaneFamily(1, 1, a2=uni([0, 1]), a1=uni([0, 1]), a0=uni([1]))
        verdict = decide_simple_family_a(fam)
        assert verdict.simple and verdict.theorem == "T4.2"

    def test_both_nonconstant_planted_failure(self):
        # a2 = 3*(x^2 + x) - 9*2 with l = 3 planted
        a1 = uni([0, 1, 1])
        a2 = a1.scale(3) - uni([18])
        fam = PlaneFamily(1, 1, a2=a2, a1=a1, a0=uni([2]))
        verdict = decide_simple_family_a(fam)
        assert not verdict.simple
        assert verdict.certificate.l_value == 3
        assert verify_stable_ideal(fam.to_derivation(), verdict.certificate.generators)

    @settings(max_examples=200, deadline=None)
    @given(unipolys(max_degree=3), st.fractions(min_value=-4, max_value=4, max_denominator=3))
    def test_matches_linear_family_criterion(self, a1, a0):
        fam = PlaneFamily(1, 1, a2=uni([]), a1=a1, a0=uni([a0]))
        verdict = decide_simple_family_a(fam)
        assert verdict.simple == (a0 != 0 and a1.total_degree() >= 1)

    @settings(max_examples=60, deadline=None)
    @given(unipolys(max_degree=2), unipolys(max_degree=2), unipolys(max_degree=2))
    def test_nonsimple_witnesses_always_verify(self, a2, a1, a0):
        fam = PlaneFamily(1, 1, a2=a2, a1=a1, a0=a0)
        verdict = decide_simple_family_a(fam)
        if not verdict.simple:
            assert verify_stable_ideal(
                fam.to_derivation(), verdict.certificate.generators
            )


class TestVerifyStableIdeal:
    def test_half_square_witness(self):
        D = PlaneFamily(1, 1, a2=uni([]), a1=uni([]), a0=uni([1])).to_derivation()
        assert verify_stable_ideal(D, [poly("1/2*y^2 - x")]) is True

    def test_quadratic_witness(self):
        D = PlaneFamily(1, 1, a2=uni([1]), a1=uni([]), a0=uni([1])).to_derivation()
        assert verify_stable_ideal(D, [poly("y^2 + 1")]) is True

    def test_pair_witness(self):
        D = PlaneFamily(1, 1, a2=uni([0, 1]), a1=uni([]), a0=uni([0, 1])).to_derivation()
        assert verify_stable_ideal(D, [poly("y"), poly("x")]) is True

    def test_non_stable_rejected(self):
        D = PlaneFamily(1, 1, a2=uni([0, 1]), a1=uni([]), a0=uni([1])).to_derivation()
        assert verify_stable_ideal(D, [poly("y")]) is False

    def test_unsupported_shape(self):
        D = PlaneFamily(1, 1, a2=uni([0, 1]), a1=uni([]), a0=uni([1])).to_derivation()
        assert verify_stable_ideal(D, [poly("y"), poly("x"), poly("x + y")]) is False
        assert verify_stable_ideal(D, [poly("x + y"), poly("x")]) is False

    def test_unit_and_zero_ideals_refused(self):
        # T2.1 proves this derivation simple: no proper nonzero ideal is stable
        D = parse_derivation("deriv{x: y, y: x*y^2 + 1}")
        for gens in (["1"], ["3"], ["y", "3"], ["0"]):
            assert verify_stable_ideal(D, [poly(g) for g in gens]) is False

    def test_pair_beyond_the_plane(self):
        D = parse_derivation("deriv{y1: 2*y1, y2: 3*y2, y3: y1 + y2}")
        gens = [parse_poly(g, D.variables) for g in ("y1", "y2")]
        assert verify_stable_ideal(D, gens) is True
        assert verify_stable_ideal(D, gens[:1] + [parse_poly("y3", D.variables)]) is False

    def test_overlapping_leading_monomials_refused(self):
        # (y, x + y) is the stable ideal (x, y), but y leads both generators
        D = parse_derivation("deriv{x: x, y: y}")
        assert verify_stable_ideal(D, [poly("x"), poly("y")]) is True
        assert verify_stable_ideal(D, [poly("y"), poly("x + y")]) is False

    @settings(max_examples=300, deadline=None)
    @given(plane_ideals())
    def test_matches_the_two_shape_rule(self, case):
        D, gens = case
        assert verify_stable_ideal(D, gens) == two_shape_reference(D, gens)


class TestPowerFamilyNecessary:
    def test_condition3_failure(self):
        fam = PlaneFamily(alpha=2, beta=2, a2=uni([1, 1]), a1=uni([0, 1]), a0=uni([1]))
        check = conjecture_necessary(fam)
        assert not check.passed and check.failed_condition == 3
        assert check.witness.l_value == 1
        assert check.witness.generators == (poly("y + 1"),)
        assert verify_stable_ideal(fam.to_derivation(), check.witness.generators)

    def test_passing_instance(self):
        fam = PlaneFamily(alpha=1, beta=1, a2=uni([0, 1]), a1=uni([]), a0=uni([1]))
        assert conjecture_necessary(fam).passed

    def test_flat_power_family_witness(self):
        fam = PlaneFamily(alpha=2, beta=2, a2=uni([]), a1=uni([]), a0=uni([1]))
        check = conjecture_necessary(fam)
        assert not check.passed and check.failed_condition == 2
        assert check.witness.generators == (poly("1/3*y^3 - x"),)
        assert verify_stable_ideal(fam.to_derivation(), check.witness.generators)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        nonzero_rationals,
        nonconstant_unipolys(max_degree=2),
        nonzero_rationals,
    )
    def test_planted_power_l_recovered(self, beta, l, a1, a0):
        sign = F(-1) ** beta
        a2 = a1.scale(l) + uni([sign * l ** (beta + 1) * a0])
        assert condition3_solve(a2, a1, a0, beta) == l


class TestConjectureScan:
    def test_pass_cell_reports_bounded_search(self):
        rows = conjecture_scan(
            2,
            [(uni([0, 1]), uni([]), uni([1]))],
            SearchBounds(n_max=2, d0_deg_max=3, cx_deg_max=3),
        )
        assert len(rows) == 1
        assert rows[0].necessary == "pass"
        assert rows[0].darboux_status == "none-up-to-bounds"

    def test_fail_cell_records_witness(self):
        rows = conjecture_scan(
            2,
            [(uni([1, 1]), uni([0, 1]), uni([1]))],
            SearchBounds(n_max=2, d0_deg_max=2, cx_deg_max=3),
        )
        assert rows[0].necessary == "fail"
        assert rows[0].l_witness == 1
        assert rows[0].darboux_status == "skipped"

    def test_empty_grid(self):
        assert conjecture_scan(2, [], SearchBounds(1, 1, 1)) == []

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            conjecture_scan(1, [], SearchBounds(1, 1, 1))
