"""Error-branch coverage: invalid constructions and guarded inputs."""

from fractions import Fraction

import pytest

from dercert import (
    Derivation,
    FamilyDiag,
    FamilyDiagX,
    FamilyPow,
    MultiPoly,
    ParseError,
    UniPoly,
    UnsupportedIdealShape,
    VariableMismatch,
    ZeroPolynomial,
    parse_derivation,
    parse_poly,
    solve_first_order,
    verify_stable_ideal,
)
from dercert.derivation import FamilyA

F = Fraction
XY = ("x", "y")


def test_unipoly_rejects_negative_exponent():
    with pytest.raises(ValueError):
        UniPoly([(-1, 1)])


def test_unipoly_constant_value_guard():
    with pytest.raises(ValueError):
        UniPoly.x().constant_value()


def test_unipoly_leading_coeff_of_zero():
    with pytest.raises(ZeroPolynomial):
        UniPoly.zero().leading_coeff()


def test_unipoly_negative_power():
    with pytest.raises(ValueError):
        UniPoly.x() ** -1


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


def test_apply_iterated_negative():
    D = FamilyA(a2=UniPoly.x(), a1=UniPoly.zero(), a0=UniPoly.one()).to_derivation()
    with pytest.raises(ValueError):
        D.apply_iterated(MultiPoly.var(XY, "y"), -1)


def test_family_validation():
    with pytest.raises(ValueError):
        FamilyPow(alpha=2, beta=1, a2=UniPoly.zero(), a1=UniPoly.zero(), a0=UniPoly.one())
    with pytest.raises(ValueError):
        FamilyDiagX(gammas=(UniPoly.one(),), ks=(0,))
    with pytest.raises(ValueError):
        FamilyDiag(gammas=(F(1),), ks=(1,))
    with pytest.raises(ValueError):
        FamilyDiag(gammas=(F(0), F(1)), ks=(1, 1))


def test_first_order_guards():
    g = MultiPoly.from_unipoly(("x",), "x", UniPoly.one())
    with pytest.raises(ValueError):
        solve_first_order(UniPoly.x(), g, k=0)


def test_verify_stable_ideal_zero_generator():
    D = FamilyA(a2=UniPoly.x(), a1=UniPoly.zero(), a0=UniPoly.one()).to_derivation()
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
