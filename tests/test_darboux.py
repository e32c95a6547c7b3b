from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import nonzero_rationals, uni, unipolys
import dercert.darboux
from dercert import (
    CheckFailed,
    CofactorStructure,
    DarbouxPair,
    MultiPoly,
    NotDarboux,
    PlaneFamily,
    SearchBounds,
    ViolationReport,
    ZeroPolynomial,
    audit_structure,
    darboux_search_family_a,
    darboux_search_power_family,
    decide_simple_family_a,
    parse_poly,
    poly_to_str,
    solve_residual_system,
    verify_darboux,
)

F = Fraction
XY = ("x", "y")


def poly(src):
    return parse_poly(src, XY)


def fam(a2, a1, a0):
    return PlaneFamily(1, 1, a2=a2, a1=a1, a0=a0)


QUADRATIC = fam(uni([1]), uni([]), uni([1]))
WITNESSED = fam(uni([-1, 1]), uni([0, 1]), uni([1]))


class TestVerify:
    def test_quadratic_invariant_curve(self):
        pair = verify_darboux(QUADRATIC.to_derivation(), poly("y^2 + 1"))
        assert isinstance(pair, DarbouxPair)
        assert pair.cofactor == poly("2*y")

    def test_known_witness_cofactor(self):
        pair = verify_darboux(WITNESSED.to_derivation(), poly("y + 1"))
        assert isinstance(pair, DarbouxPair)
        assert pair.cofactor == poly("(x - 1)*y + 1")

    def test_non_darboux(self):
        result = verify_darboux(
            fam(uni([0, 1]), uni([]), uni([1])).to_derivation(), poly("y")
        )
        assert isinstance(result, NotDarboux)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            verify_darboux(QUADRATIC.to_derivation(), MultiPoly.zero(XY))

    def test_constants_rejected(self):
        result = verify_darboux(QUADRATIC.to_derivation(), poly("7"))
        assert isinstance(result, NotDarboux)

    @settings(max_examples=100, deadline=None)
    @given(nonzero_rationals)
    def test_scaling_invariance(self, alpha):
        D = WITNESSED.to_derivation()
        pair = verify_darboux(D, poly("y + 1"))
        scaled = verify_darboux(D, poly("y + 1").scale(alpha))
        assert isinstance(scaled, DarbouxPair)
        assert scaled.cofactor == pair.cofactor

    def test_product_closure(self):
        D = WITNESSED.to_derivation()
        pair = verify_darboux(D, poly("y + 1"))
        squared = verify_darboux(D, poly("y + 1") * poly("y + 1"))
        assert isinstance(squared, DarbouxPair)
        assert squared.cofactor == pair.cofactor + pair.cofactor


class TestAudit:
    def test_witness_structure(self):
        pair = verify_darboux(WITNESSED.to_derivation(), poly("y + 1"))
        structure = audit_structure(WITNESSED, pair)
        assert isinstance(structure, CofactorStructure)
        assert structure.n == 1
        assert structure.d1 == uni([-1, 1])
        assert structure.d0 == uni([1])
        assert structure.c == (uni([1]), uni([1]))
        assert structure.regime == "full"

    def test_outside_hypotheses_still_decomposes(self):
        pair = verify_darboux(QUADRATIC.to_derivation(), poly("y^2 + 1"))
        structure = audit_structure(QUADRATIC, pair)
        assert isinstance(structure, CofactorStructure)
        assert structure.regime == "outside-hypotheses"
        assert structure.n == 2
        assert structure.d1 == uni([2])
        assert structure.d0 == uni([])

    def test_tampered_cofactor_is_caught(self):
        pair = verify_darboux(WITNESSED.to_derivation(), poly("y + 1"))
        tampered = DarbouxPair(F=pair.F, cofactor=pair.cofactor + poly("1"))
        report = audit_structure(WITNESSED, tampered)
        assert isinstance(report, ViolationReport)

    def test_no_linear_term_hypotheses_admit_no_pairs(self):
        # a1 = 0 with deg a2 >= 1 and a0 in Q* forces simplicity, so no
        # genuine pair exists under these hypotheses; a fabricated one
        # must be rejected at the product identity, not waved through as
        # outside-hypotheses
        family = fam(uni([-1, 1]), uni([]), uni([1]))
        out = darboux_search_family_a(family, SearchBounds(2, 2, 3))
        assert out.status == "none-up-to-bounds"
        fake = DarbouxPair(F=poly("y + 1"), cofactor=poly("(x - 1)*y + 1"))
        result = audit_structure(family, fake)
        assert isinstance(result, ViolationReport)
        assert result.check == "product-identity"


class TestResidualSolver:
    def test_back_substitution(self):
        P = ("u1", "u2")
        S = [
            MultiPoly(P, {(1, 0): F(1), (0, 0): F(-2)}),
            MultiPoly(P, {(1, 1): F(1), (0, 0): F(-4)}),
        ]
        result = solve_residual_system(S, 10)
        assert not result.undecided
        assert result.solutions == [{"u1": F(2), "u2": F(2)}]

    def test_no_rational_solutions_is_decided(self):
        P = ("u1",)
        S = [MultiPoly(P, {(2,): F(1), (0,): F(1)})]
        result = solve_residual_system(S, 10)
        assert result.solutions == [] and not result.undecided

    def test_effort_cap_gives_undecided(self):
        P = ("u1", "u2")
        S = [
            MultiPoly(P, {(2, 2): F(1), (1, 1): F(1), (0, 0): F(-6)}),
            MultiPoly(P, {(3, 0): F(1), (0, 5): F(-1), (1, 1): F(1)}),
        ]
        result = solve_residual_system(S, 0)
        assert result.undecided

    def test_undecided_branch_keeps_its_reason(self):
        # u3^2 = 1 branches on u3 = +-1; each branch then needs a resultant
        P = ("u1", "u2", "u3")
        S = [
            MultiPoly(P, {(2, 2, 0): F(1), (1, 1, 0): F(1), (0, 0, 0): F(-6)}),
            MultiPoly(P, {(3, 0, 0): F(1), (0, 5, 0): F(-1), (1, 1, 0): F(1)}),
            MultiPoly(P, {(0, 0, 2): F(1), (0, 0, 0): F(-1)}),
        ]
        result = solve_residual_system(S, 0)
        assert result.undecided
        assert result.note == "effort budget exhausted"

    def test_solutions_vanish_on_system(self):
        P = ("u1", "u2", "u3")
        S = [
            MultiPoly(P, {(1, 1, 0): F(1), (0, 0, 1): F(-1)}),
            MultiPoly(P, {(1, 0, 0): F(1), (0, 1, 0): F(1), (0, 0, 0): F(-3)}),
            MultiPoly(P, {(0, 0, 1): F(1), (0, 0, 0): F(-2)}),
        ]
        result = solve_residual_system(S, 50)
        assert not result.undecided
        assert result.solutions
        for sol in result.solutions:
            for e in S:
                assert e.evaluate(sol) == 0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=2),
            min_size=3,
            max_size=3,
        )
    )
    def test_unique_planted_point_recovered(self, point):
        # pairwise pin products plus a linear sum pin leave the planted
        # point as the only solution, but recovering it needs genuine
        # elimination rather than direct substitution
        P = ("u1", "u2", "u3")
        vals = dict(zip(P, point))
        pins = [
            MultiPoly.var(P, name) - MultiPoly.constant(P, v)
            for name, v in vals.items()
        ]
        eqs = [
            pins[0] * pins[1],
            pins[1] * pins[2],
            pins[2] * pins[0],
            pins[0] + pins[1] + pins[2],
        ]
        result = solve_residual_system(eqs, effort=60)
        if result.undecided:
            return
        assert result.solutions == [vals]


class TestSearch:
    def test_simple_family_has_none(self):
        out = darboux_search_family_a(
            fam(uni([0, 1]), uni([]), uni([1])), SearchBounds(3, 3, 4)
        )
        assert out.status == "none-up-to-bounds"

    def test_witness_rediscovered(self):
        out = darboux_search_family_a(WITNESSED, SearchBounds(2, 2, 3))
        assert out.status == "found"
        assert poly("y + 1") in [pair.F for pair in out.pairs]

    def test_constant_a1_is_simple_and_searchless(self):
        out = darboux_search_family_a(
            fam(uni([0, 1]), uni([1]), uni([1])), SearchBounds(3, 3, 4)
        )
        assert out.status == "none-up-to-bounds"

    def test_found_pairs_verify(self):
        out = darboux_search_family_a(WITNESSED, SearchBounds(2, 2, 3))
        D = WITNESSED.to_derivation()
        for pair in out.pairs:
            assert D.apply(pair.F) == pair.cofactor * pair.F

    def test_preconditions_rejected(self):
        with pytest.raises(ValueError):
            darboux_search_family_a(
                fam(uni([1]), uni([0, 1]), uni([1])), SearchBounds(2, 2, 3)
            )
        with pytest.raises(ValueError):
            darboux_search_family_a(
                fam(uni([0, 1]), uni([0, 1]), uni([0, 1])), SearchBounds(2, 2, 3)
            )

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([(0, 1), (0, 0, 1), (1, 1), (0, 2)]),
        st.sampled_from([(0,), (1,), (0, 1)]),
        nonzero_rationals,
    )
    def test_search_never_contradicts_decision(self, a2c, a1c, a0v):
        family = fam(uni(a2c), uni(a1c), uni([a0v]))
        if family.a2.total_degree() < 1:
            return
        verdict = decide_simple_family_a(family)
        out = darboux_search_family_a(family, SearchBounds(3, 3, 4))
        if verdict.simple:
            assert out.status != "found"

    @settings(max_examples=40, deadline=None)
    @given(
        st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(lambda q: q != 0),
        unipolys(max_degree=2, max_terms=3).filter(lambda p: p.total_degree() >= 1),
        nonzero_rationals,
    )
    def test_planted_witness_always_rediscovered(self, l, a1, a0):
        a2 = a1.scale(l) - uni([l * l * a0])
        family = fam(a2, a1, uni([a0]))
        bounds = SearchBounds(
            n_max=1, d0_deg_max=max(2, int(a1.total_degree())), cx_deg_max=3
        )
        out = darboux_search_family_a(family, bounds)
        expected = poly("y") + MultiPoly.constant(XY, 1 / l)
        assert out.status == "found"
        assert expected in [pair.F for pair in out.pairs]

    def test_nonsimple_principal_witness_found_at_sufficient_bounds(self):
        verdict = decide_simple_family_a(WITNESSED)
        assert not verdict.simple
        witness = verdict.certificate.generators[0]
        pair = verify_darboux(WITNESSED.to_derivation(), witness)
        assert isinstance(pair, DarbouxPair)
        n_needed = int(witness.degree_in("y"))
        d0_needed = int(
            max(0, pair.cofactor.coeffs_in("y")[0].total_degree())
        )
        out = darboux_search_family_a(
            WITNESSED, SearchBounds(n_needed, d0_needed, 4)
        )
        assert out.status == "found"
        assert witness in [p.F for p in out.pairs]


def test_inexact_bareiss_division_is_caught(monkeypatch):
    monkeypatch.setattr(dercert.darboux, "divide_exact", lambda h, g: None)
    matrix = [[poly("x"), poly("1")], [poly("y"), poly("x + y")]]
    with pytest.raises(CheckFailed):
        dercert.darboux._bareiss_det(matrix, XY)


# Every residual system `_search_fixed_n` hands to `solve_residual_system`
# for two cells, recorded term by term in insertion order: the order of
# the constraints and of the terms inside each one steers which
# elimination step the residual solver takes first.
GOLDEN_SEARCH_CELLS = [
    (
        # alpha = 3, a2 = x - 1, a1 = a0 = 1
        PlaneFamily(3, 3, uni([-1, 1]), uni([1]), uni([1])),
        SearchBounds(2, 1, 2),
        [
            [
                [((0, 0, 0, 0, 0, 0), "-1"), ((0, 0, 0, 0, 1, 0), "1"), ((0, 0, 0, 0, 0, 1), "1")],
                [((0, 0, 0, 0, 0, 0), "1"), ((1, 0, 0, 0, 0, 1), "1")],
                [((0, 1, 0, 0, 0, 1), "1")],
                [((1, 0, 0, 0, 0, 0), "-1"), ((0, 0, 1, 0, 0, 1), "1")],
                [((0, 1, 0, 0, 0, 0), "-1"), ((0, 0, 0, 1, 0, 1), "1")],
                [((0, 0, 1, 0, 0, 0), "-1"), ((0, 0, 0, 0, 1, 1), "1")],
                [((0, 0, 0, 1, 0, 0), "-1"), ((0, 0, 0, 0, 0, 2), "1")],
            ],
            [
                [((0, 0, 0, 0, 0, 0), "-2"), ((0, 0, 0, 0, 1, 0), "1"), ((0, 0, 0, 0, 0, 1), "1")],
                [
                    ((0, 0, 0, 0, 0, 1), "1"),
                    ((0, 0, 1, 0, 0, 0), "1"),
                    ((0, 0, 0, 0, 1, 1), "-1"),
                    ((0, 0, 0, 1, 0, 0), "1"),
                    ((0, 0, 0, 0, 0, 2), "-1"),
                ],
                [((0, 0, 0, 0, 0, 1), "-1"), ((1, 0, 0, 1, 0, 0), "1/2"), ((1, 0, 0, 0, 0, 2), "-1/2")],
                [((0, 1, 0, 1, 0, 0), "1/2"), ((0, 1, 0, 0, 0, 2), "-1/2")],
                [
                    ((0, 0, 0, 0, 0, 0), "2"),
                    ((1, 0, 0, 0, 0, 1), "1"),
                    ((0, 0, 1, 1, 0, 0), "1/2"),
                    ((0, 0, 1, 0, 0, 2), "-1/2"),
                ],
                [((0, 1, 0, 0, 0, 1), "1"), ((0, 0, 0, 2, 0, 0), "1/2"), ((0, 0, 0, 1, 0, 2), "-1/2")],
                [
                    ((1, 0, 0, 0, 0, 0), "-1"),
                    ((0, 0, 1, 0, 0, 1), "1"),
                    ((0, 0, 0, 1, 1, 0), "1/2"),
                    ((0, 0, 0, 0, 1, 2), "-1/2"),
                ],
                [((0, 1, 0, 0, 0, 0), "-1"), ((0, 0, 0, 1, 0, 1), "3/2"), ((0, 0, 0, 0, 0, 3), "-1/2")],
            ],
        ],
        ("none-up-to-bounds", [], ""),
    ),
    (
        # alpha = 1, built non-simple: a2 = l*a1 - l^2*a0 with l = 2
        PlaneFamily(1, 1, uni([-4, 2]), uni([0, 1]), uni([1])),
        SearchBounds(2, 1, 2),
        [
            [
                [((1, 0), "1"), ((0, 0), "-2"), ((0, 1), "2")],
                [((0, 0), "1"), ((1, 0), "-1/2"), ((1, 1), "1/2")],
                [((0, 1), "-1/2"), ((0, 2), "1/2")],
            ],
            [
                [((1, 0), "1"), ((0, 0), "-4"), ((0, 1), "2")],
                [((0, 0), "-4"), ((1, 0), "1"), ((1, 1), "-1/2"), ((0, 1), "3"), ((0, 2), "-1")],
                [
                    ((0, 0), "1"),
                    ((0, 1), "-1/2"),
                    ((1, 0), "-1/4"),
                    ((1, 1), "3/8"),
                    ((1, 2), "-1/8"),
                ],
                [((0, 1), "-1/4"), ((0, 2), "3/8"), ((0, 3), "-1/8")],
            ],
        ],
        (
            "found",
            [("y + 1/2", "2*x*y - 4*y + 2"), ("y^2 + y + 1/4", "4*x*y - 8*y + 4")],
            "",
        ),
    ),
]


@pytest.mark.parametrize(
    "family, bounds, systems, outcome", GOLDEN_SEARCH_CELLS, ids=["alpha3", "alpha1-nonsimple"]
)
def test_residual_systems_are_pinned(monkeypatch, family, bounds, systems, outcome):
    seen = []
    real = dercert.darboux.solve_residual_system

    def recording(system, effort):
        seen.append([[(e, str(c)) for e, c in p.terms.items()] for p in system])
        return real(system, effort)

    monkeypatch.setattr(dercert.darboux, "solve_residual_system", recording)
    out = darboux_search_power_family(family, bounds)
    assert seen == systems
    status, pairs, detail = outcome
    assert out.status == status
    assert [(poly_to_str(p.F), poly_to_str(p.cofactor)) for p in out.pairs] == pairs
    assert out.detail == detail
