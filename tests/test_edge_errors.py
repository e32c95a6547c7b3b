"""Error-branch coverage: invalid constructions and guarded inputs."""

from fractions import Fraction

import pytest

from conftest import uni
from dercert import (
    Derivation,
    FamilyDiag,
    FamilyDiagX,
    MultiPoly,
    ParseError,
    PlaneFamily,
    UnsupportedFamily,
    UnsupportedIdealShape,
    VariableMismatch,
    decide_simple_family_a,
    parse_derivation,
    parse_poly,
    solve_first_order,
    verify_stable_ideal,
)

F = Fraction
XY = ("x", "y")


# "unipoly": a polynomial in x alone, a MultiPoly over ("x",)


def test_unipoly_rejects_negative_exponent():
    with pytest.raises(ValueError):
        MultiPoly(("x",), [((-1,), 1)])


def test_variable_rejects_negative_power():
    with pytest.raises(ValueError):
        MultiPoly.var(XY, "y", -1)


def test_unipoly_constant_value_guard():
    with pytest.raises(ValueError):
        uni([0, 1]).constant_value()


def test_unipoly_negative_power():
    with pytest.raises(ValueError):
        uni([0, 1]) ** -1


def test_multipoly_exponent_vector_length_checked():
    with pytest.raises(VariableMismatch):
        MultiPoly(XY, [((1,), F(1))])


def test_multipoly_mismatched_operands():
    with pytest.raises(VariableMismatch):
        MultiPoly.var(XY, "x") + MultiPoly.var(("x",), "x")


def test_multipoly_embedding_requires_all_variables():
    p = MultiPoly.var(XY, "y")
    with pytest.raises(VariableMismatch):
        p.with_variables(("x",))


def test_derivation_requires_matching_images():
    with pytest.raises(VariableMismatch):
        Derivation(XY, (MultiPoly.var(XY, "y"),))
    with pytest.raises(VariableMismatch):
        Derivation(XY, (MultiPoly.var(XY, "y"), MultiPoly.var(("x",), "x")))


def test_family_validation():
    with pytest.raises(ValueError):
        PlaneFamily(alpha=2, beta=1, a2=uni([]), a1=uni([]), a0=uni([1]))
    with pytest.raises(ValueError):
        FamilyDiagX(gammas=(uni([1]),), ks=(0,))
    with pytest.raises(ValueError):
        FamilyDiag(gammas=(F(1),), ks=(1,))
    with pytest.raises(ValueError):
        FamilyDiag(gammas=(F(0), F(1)), ks=(1, 1))


def test_quadratic_only_deciders_refuse_power_families():
    fam = PlaneFamily(2, 2, a2=uni([0, 1]), a1=uni([]), a0=uni([1]))
    with pytest.raises(UnsupportedFamily):
        decide_simple_family_a(fam)


def test_first_order_guards():
    with pytest.raises(ValueError):
        solve_first_order(uni([0, 1]), uni([1]), k=0)


def test_verify_stable_ideal_zero_generator():
    D = PlaneFamily(1, 1, a2=uni([0, 1]), a1=uni([]), a0=uni([1])).to_derivation()
    with pytest.raises(UnsupportedIdealShape):
        verify_stable_ideal(D, [MultiPoly.zero(XY)])


def test_parse_unknown_numbered_variable():
    with pytest.raises(ParseError):
        parse_poly("y0")


def test_parse_derivation_entry_without_colon():
    with pytest.raises(ParseError):
        parse_derivation("deriv{x y}")


def test_parse_derivation_needs_braces():
    with pytest.raises(ParseError):
        parse_derivation("deriv x: y")
    with pytest.raises(ParseError):
        parse_derivation("analyze{x: y}")
