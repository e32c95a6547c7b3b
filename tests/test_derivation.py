from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import (
    X_ONLY,
    diag_x_derivation,
    locally_finite_probe,
    multipolys,
    rationals,
    uni,
    unipolys,
)
from dercert import (
    Derivation,
    FamilyDiag,
    FamilyDiagX,
    Generic,
    MultiPoly,
    PlaneFamily,
    UnsupportedFamily,
    VariableMismatch,
    locally_finite_closed_form,
    parse_derivation,
    parse_poly,
    recognize_family,
)

F = Fraction
XY = ("x", "y")


def poly(src, variables=XY):
    return parse_poly(src, variables)


class TestApply:
    def setup_method(self):
        self.fam = PlaneFamily(1, 1, a2=uni([0, 1]), a1=uni([]), a0=uni([1]))
        self.D = self.fam.to_derivation()

    def test_image_of_y(self):
        assert self.D.apply(poly("y")) == poly("x*y^2 + 1")

    def test_product_rule_on_xy(self):
        # D(x*y) = D(x)*y + x*D(y) = y^2 + x*(x*y^2 + 1)
        assert self.D.apply(poly("x*y")) == poly("(1 + x^2)*y^2 + x")

    def test_constants_vanish(self):
        assert self.D.apply(MultiPoly.constant(XY, F(7, 3))).is_zero()

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            self.D.apply(parse_poly("y1", ("y1",)))

    @settings(max_examples=200, deadline=None)
    @given(multipolys(max_degree=4), multipolys(max_degree=4))
    def test_leibniz(self, f, g):
        D = PlaneFamily(1, 1, a2=uni([0, 1]), a1=uni([]), a0=uni([1])).to_derivation()
        assert D.apply(f * g) == D.apply(f) * g + f * D.apply(g)

    @settings(max_examples=200, deadline=None)
    @given(multipolys(), multipolys(), rationals, rationals)
    def test_linearity(self, f, g, alpha, beta):
        D = PlaneFamily(1, 1, a2=uni([0, 1]), a1=uni([]), a0=uni([1])).to_derivation()
        lhs = D.apply(f.scale(alpha) + g.scale(beta))
        assert lhs == D.apply(f).scale(alpha) + D.apply(g).scale(beta)


class TestIterated:
    def test_partial_x_cube(self):
        D = parse_derivation("deriv{x: 1, y: 0}")
        assert D.apply(D.apply(D.apply(poly("x^3")))) == poly("6")

    def test_diag_square_growth(self):
        D = parse_derivation("deriv{y1: y1^2, y2: y2}")
        y1 = MultiPoly.var(D.variables, "y1")
        assert D.apply(D.apply(y1)) == MultiPoly.var(D.variables, "y1", 3).scale(2)


class TestRecognize:
    def test_family_a(self):
        fam = recognize_family(parse_derivation("deriv{x: y, y: x*y^2 + 1}"))
        assert fam == PlaneFamily(1, 1, a2=uni([0, 1]), a1=uni([]), a0=uni([1]))

    def test_family_b_is_preferred(self):
        fam = recognize_family(parse_derivation("deriv{x: y, y: x*y + 1}"))
        assert fam == PlaneFamily(1, 1, a2=uni([]), a1=uni([0, 1]), a0=uni([1]))

    def test_family_a_when_a0_not_constant(self):
        fam = recognize_family(parse_derivation("deriv{x: y, y: x*y + x}"))
        assert fam == PlaneFamily(1, 1, a2=uni([]), a1=uni([0, 1]), a0=uni([0, 1]))

    def test_diag_x(self):
        fam = recognize_family(parse_derivation("deriv{x: 1, y1: x*y1}"))
        assert fam == FamilyDiagX(gammas=(uni([0, 1]),), ks=(1,))

    def test_power_family_with_constant_y_image(self):
        fam = recognize_family(parse_derivation("deriv{x: y^2, y: x}"))
        assert fam == PlaneFamily(
            alpha=2, beta=2, a2=uni([]), a1=uni([]), a0=uni([0, 1])
        )

    def test_generic(self):
        fam = recognize_family(parse_derivation("deriv{x: x, y: y}"))
        assert isinstance(fam, Generic)

    def test_diag(self):
        fam = recognize_family(parse_derivation("deriv{y1: 2*y1^2, y2: y2}"))
        assert fam == FamilyDiag(gammas=(F(2), F(1)), ks=(2, 1))

    @settings(max_examples=100, deadline=None)
    @given(unipolys(max_degree=3), unipolys(max_degree=3), unipolys(max_degree=3))
    def test_family_a_round_trip(self, a2, a1, a0):
        fam = PlaneFamily(1, 1, a2=a2, a1=a1, a0=a0)
        recognized = recognize_family(fam.to_derivation())
        if a2.is_zero() and a0.is_constant():
            assert recognized == PlaneFamily(1, 1, a2=a2, a1=a1, a0=a0)
        else:
            assert recognized == fam

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        unipolys(max_degree=2),
        unipolys(max_degree=2),
        unipolys(max_degree=2),
    )
    def test_power_family_semantic_round_trip(self, alpha, a2, a1, a0):
        fam = PlaneFamily(alpha=alpha, beta=alpha, a2=a2, a1=a1, a0=a0)
        D = fam.to_derivation()
        recognized = recognize_family(D)
        assert not isinstance(recognized, Generic)
        assert recognized.to_derivation() == D

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda alpha: st.tuples(st.just(alpha), st.integers(min_value=alpha, max_value=4))
        ),
        unipolys(max_degree=2),
        unipolys(max_degree=2),
        unipolys(max_degree=2),
        st.sampled_from(["y", "y1"]),
    )
    def test_plane_family_round_trip(self, powers, a2, a1, a0, y):
        alpha, beta = powers
        v = ("x", y)
        D = PlaneFamily(alpha, beta, a2, a1, a0, v).to_derivation()
        # the images written out with embeddings and products
        y_var = MultiPoly.var(v, y)
        img_y = (
            a2.with_variables(v) * y_var ** (beta + 1)
            + a1.with_variables(v) * y_var**beta
            + a0.with_variables(v)
        )
        assert D == Derivation(v, (y_var**alpha, img_y))
        assert recognize_family(D).to_derivation() == D

    def test_plane_family_coefficients_lie_over_x_only(self):
        with pytest.raises(VariableMismatch):
            PlaneFamily(1, 1, a2=poly("x"), a1=uni([]), a0=uni([1]))

    def test_plane_family_rejects_a_coefficient_in_y(self):
        # a2 = y has x-degree 1 to the deciders, which would call it simple by T2.1
        with pytest.raises(VariableMismatch):
            PlaneFamily(1, 1, a2=poly("y"), a1=uni([]), a0=uni([1]))

    def test_diag_x_rejects_a_coefficient_in_y(self):
        # gamma_1 = y1 has x-degree 1 to `_certified`, which would certify T5.1
        with pytest.raises(VariableMismatch):
            FamilyDiagX(gammas=(poly("y1", ("x", "y1")),), ks=(1,))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.dictionaries(
            st.integers(min_value=0, max_value=6),
            unipolys(max_degree=2).filter(lambda p: not p.is_zero()),
            max_size=4,
        ),
    )
    @example(1, {})
    @example(2, {})
    @example(2, {2: uni([1])})
    @example(3, {3: uni([0, 1])})
    @example(3, {2: uni([1])})
    def test_plane_recognizer_matches_the_three_case_rule(self, alpha, coeffs):
        D = Derivation(XY, (MultiPoly.var(XY, "y", alpha), MultiPoly.join(XY, "y", coeffs)))
        assert recognize_family(D) == _three_case_plane(alpha, coeffs)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(unipolys(max_degree=2), st.integers(min_value=1, max_value=3)),
            min_size=1,
            max_size=3,
        )
    )
    def test_diag_x_round_trip(self, pairs):
        gammas = tuple(g for g, _ in pairs)
        ks = tuple(1 if g.is_zero() else k for g, k in pairs)
        fam = FamilyDiagX(gammas=gammas, ks=ks)
        assert recognize_family(diag_x_derivation(gammas, ks)) == fam


def _three_case_plane(alpha, by_y):
    """The plane reading of y^alpha*dx + sum by_y[e]*y^e*dy, case by case on the y-support.

    No positive power: a2 = a1 = 0 and beta = alpha.  One power m: y^m
    is a2 with beta = m - 1 when that is at least alpha, else a1 with
    beta = m when that is.  Two consecutive powers m, m + 1: beta = m.
    Anything else, or a beta below alpha, is Generic.
    """
    zero = MultiPoly.zero(X_ONLY)
    a0 = by_y.get(0, zero)
    support = sorted(e for e in by_y if e >= 1)

    def read(e2, e1, beta):
        if beta < alpha:
            return None
        a2 = by_y[e2] if e2 is not None else zero
        a1 = by_y[e1] if e1 is not None else zero
        return PlaneFamily(alpha, beta, a2, a1, a0)

    if not support:
        fam = read(None, None, alpha)
    elif len(support) == 1:
        m = support[0]
        fam = read(m, None, m - 1) or read(None, m, m)
    elif len(support) == 2 and support[1] == support[0] + 1:
        fam = read(support[1], support[0], support[0])
    else:
        fam = None
    return fam if fam is not None else Generic()


class TestLocallyFinite:
    def test_diag_x_constant_linear(self):
        fam = FamilyDiagX(gammas=(uni([1]), uni([2])), ks=(1, 1))
        assert locally_finite_closed_form(fam) is True

    def test_diag_x_nonconstant_gamma(self):
        fam = FamilyDiagX(gammas=(uni([0, 1]),), ks=(1,))
        assert locally_finite_closed_form(fam) is False

    def test_diag_high_power(self):
        fam = FamilyDiag(gammas=(F(1), F(1)), ks=(2, 1))
        assert locally_finite_closed_form(fam) is False

    def test_family_b(self):
        assert locally_finite_closed_form(PlaneFamily(1, 1, uni([]), uni([1]), uni([1]))) is True
        assert locally_finite_closed_form(PlaneFamily(1, 1, uni([]), uni([0, 1]), uni([1]))) is False

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            locally_finite_closed_form(
                PlaneFamily(1, 1, a2=uni([0, 1]), a1=uni([]), a0=uni([1]))
            )


class TestProbe:
    def test_bounded(self):
        D = parse_derivation("deriv{x: 1, y1: y1}")
        result = locally_finite_probe(D, cutoff_deg=10, max_iter=20)
        assert result.bounded and result.iterations == 20

    def test_square_blowup(self):
        D = parse_derivation("deriv{y1: y1^2, y2: 0}")
        result = locally_finite_probe(D, cutoff_deg=10, max_iter=20)
        assert not result.bounded
        assert result.variable == "y1"
        assert result.exceeded_at <= 10

    def test_plane_blowup(self):
        D = parse_derivation("deriv{x: y, y: y^2 + 1}")
        result = locally_finite_probe(D, cutoff_deg=8, max_iter=20)
        assert not result.bounded
        assert result.variable in ("x", "y")

    def test_probe_agrees_with_closed_form_on_grid(self):
        # probe never reports blow-up when the closed form says locally finite
        grid = [
            FamilyDiagX(gammas=(g,), ks=(k,))
            for g in (uni([]), uni([1]), uni([0, 1]))
            for k in (1, 2)
            if not (g.is_zero() and k != 1)
        ]
        for fam in grid:
            closed = locally_finite_closed_form(fam)
            D = diag_x_derivation(fam.gammas, fam.ks)
            probe = locally_finite_probe(D, cutoff_deg=8, max_iter=12)
            if closed:
                assert probe.bounded
