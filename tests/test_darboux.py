from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from conftest import nonzero_rationals, rationals, uni, unipolys
import dercert.darboux
from dercert import (
    CheckFailed,
    DarbouxPair,
    MultiPoly,
    NotDarboux,
    PlaneFamily,
    SearchBounds,
    ZeroPolynomial,
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


def structure(pair):
    """(n, d1, d0, c) read off a pair: F = sum c_i(x) y^i of y-degree n, L = d1*y + d0.

    Asserts deg_y L <= 1, which D(F) = L*F forces in a quadratic family.
    """
    by_y = {i: c.restrict("x") for i, c in pair.F.coeffs_in("y").items()}
    cof_y = {i: c.restrict("x") for i, c in pair.cofactor.coeffs_in("y").items()}
    assert max(cof_y, default=0) <= 1
    n, zero = max(by_y), uni([])
    return n, cof_y.get(1, zero), cof_y.get(0, zero), tuple(by_y.get(i, zero) for i in range(n + 1))


class TestAudit:
    def test_witness_structure(self):
        pair = verify_darboux(WITNESSED.to_derivation(), poly("y + 1"))
        assert dercert.darboux.searchable(WITNESSED)
        assert structure(pair) == (1, uni([-1, 1]), uni([1]), (uni([1]), uni([1])))

    def test_outside_hypotheses_still_decomposes(self):
        pair = verify_darboux(QUADRATIC.to_derivation(), poly("y^2 + 1"))
        assert not dercert.darboux.searchable(QUADRATIC)
        n, d1, d0, _ = structure(pair)
        assert (n, d1, d0) == (2, uni([2]), uni([]))

    def test_tampered_cofactor_is_caught(self):
        D = WITNESSED.to_derivation()
        pair = verify_darboux(D, poly("y + 1"))
        assert D.apply(pair.F) != (pair.cofactor + poly("1")) * pair.F

    def test_no_linear_term_hypotheses_admit_no_pairs(self):
        # a1 = 0 with deg a2 >= 1 and a0 in Q* forces simplicity, so no
        # genuine pair exists under these hypotheses; the pair of the
        # witnessed cell, y + 1 with cofactor (x - 1)*y + 1, is not one
        family = fam(uni([-1, 1]), uni([]), uni([1]))
        out = darboux_search_power_family(family, SearchBounds(2, 2, 3))
        assert out.status == "none-up-to-bounds"
        assert isinstance(verify_darboux(family.to_derivation(), poly("y + 1")), NotDarboux)


@st.composite
def darboux_cells(draw):
    """A quadratic plane family and a Darboux polynomial F of it, by construction.

    y + 1/l divides D(y) = a2*y^2 + a1*y + a0 when a2 = l*a1 - l^2*a0;
    D(y) itself is Darboux (cofactor 2*a2*y + a1) when a2, a1 and a0 are
    constants; y is Darboux when a0 = 0.  F is a scaled product of one or
    two of them.  The root cells reach inside the search hypotheses.
    """
    kind = draw(st.sampled_from(["root", "constants", "no-a0"]))
    if kind == "constants":
        a2, a1, a0 = (uni([draw(rationals)]) for _ in range(3))
    else:
        a1 = draw(unipolys(3, 3))
        a0 = uni([])
        if kind == "root":
            a0 = draw(st.one_of(nonzero_rationals.map(lambda q: uni([q])), unipolys(2, 3)))
        a2 = draw(unipolys(3, 3))
    if kind == "root":
        l = draw(nonzero_rationals)
        a2 = a1.scale(l) - a0.scale(l * l)
    family = fam(a2, a1, a0)
    D = family.to_derivation()
    y = poly("y")
    factors = []
    if kind == "root":
        factors.append(y + MultiPoly.constant(XY, 1 / l))
    if all(a.is_constant() for a in (a2, a1, a0)) and D.images[1].degree_in("y") >= 1:
        factors.append(D.images[1])
    if a0.is_zero():
        factors.append(y)
    assume(factors)
    picks = draw(st.lists(st.sampled_from(factors), min_size=1, max_size=2))
    F = MultiPoly.constant(XY, draw(nonzero_rationals))
    for factor in picks:
        F = F * factor
    return family, F


class TestShapeTheorem:
    """D(F) = L*F alone forces deg_y L <= 1, d1 = n*a2 and a constant c_n."""

    @settings(max_examples=200, deadline=None)
    @given(darboux_cells())
    def test_identity_forces_the_shape(self, cell):
        family, F = cell
        pair = verify_darboux(family.to_derivation(), F)
        assert isinstance(pair, DarbouxPair)
        assert pair.cofactor.degree_in("y") <= 1
        n, d1, _, c = structure(pair)
        assert d1 == family.a2.scale(n)
        assert c[-1].is_constant() and not c[-1].is_zero()
        D = family.to_derivation()
        assert D.apply(pair.F) != (pair.cofactor + poly("1")) * pair.F


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
        out = darboux_search_power_family(
            fam(uni([0, 1]), uni([]), uni([1])), SearchBounds(3, 3, 4)
        )
        assert out.status == "none-up-to-bounds"

    def test_witness_rediscovered(self):
        out = darboux_search_power_family(WITNESSED, SearchBounds(2, 2, 3))
        assert out.status == "found"
        assert poly("y + 1") in [pair.F for pair in out.pairs]

    def test_constant_a1_is_simple_and_searchless(self):
        out = darboux_search_power_family(
            fam(uni([0, 1]), uni([1]), uni([1])), SearchBounds(3, 3, 4)
        )
        assert out.status == "none-up-to-bounds"

    def test_found_pairs_verify(self):
        out = darboux_search_power_family(WITNESSED, SearchBounds(2, 2, 3))
        D = WITNESSED.to_derivation()
        for pair in out.pairs:
            assert D.apply(pair.F) == pair.cofactor * pair.F

    def test_preconditions_rejected(self):
        with pytest.raises(ValueError):
            darboux_search_power_family(
                fam(uni([1]), uni([0, 1]), uni([1])), SearchBounds(2, 2, 3)
            )
        with pytest.raises(ValueError):
            darboux_search_power_family(
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
        out = darboux_search_power_family(family, SearchBounds(3, 3, 4))
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
        out = darboux_search_power_family(family, bounds)
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
        out = darboux_search_power_family(
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
# for three cells, recorded term by term in insertion order: the order of
# the constraints and of the terms inside each one steers which
# elimination step the residual solver takes first.  The first two cells
# have no constraint that pins an unknown to zero.  In the third, u0_2
# is pinned at every y-degree; its systems were recorded with pinning
# and its outcome without it.
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
    (
        # the same cell with d0 of degree 2 and constant c_i: u0_2 is forced
        # to 0 by the first descent step, before the next one runs
        PlaneFamily(1, 1, uni([-4, 2]), uni([0, 1]), uni([1])),
        SearchBounds(2, 2, 0),
        [
            [
                [((1, 0, 0), "1"), ((0, 0, 0), "-2"), ((0, 1, 0), "2")],
                [((0, 0, 0), "1"), ((1, 0, 0), "-1/2"), ((1, 1, 0), "1/2")],
                [((0, 1, 0), "-1/2"), ((0, 2, 0), "1/2")],
            ],
            [
                [((1, 0, 0), "1"), ((0, 0, 0), "-4"), ((0, 1, 0), "2")],
                [((0, 0, 0), "-4"), ((1, 0, 0), "1"), ((1, 1, 0), "-1/2"), ((0, 1, 0), "3"), ((0, 2, 0), "-1")],
                [
                    ((0, 0, 0), "1"),
                    ((0, 1, 0), "-1/2"),
                    ((1, 0, 0), "-1/4"),
                    ((1, 1, 0), "3/8"),
                    ((1, 2, 0), "-1/8"),
                ],
                [((0, 1, 0), "-1/4"), ((0, 2, 0), "3/8"), ((0, 3, 0), "-1/8")],
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
    "family, bounds, systems, outcome",
    GOLDEN_SEARCH_CELLS,
    ids=["alpha3", "alpha1-nonsimple", "alpha1-pinned"],
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


def _printed(outcome):
    pairs = [(poly_to_str(p.F), poly_to_str(p.cofactor)) for p in outcome.pairs]
    return outcome.status, outcome.detail, pairs


def _watched_search(family, bounds, pinning):
    """The printed outcome, whether a slice was left undecided, and whether
    the residual solver zeroed a free parameter.

    A free parameter's representative point depends on the elimination
    order.  Without pinning it means the slice has infinitely many
    solutions; with pinning the pinned unknowns count as free too.
    """
    undecided, free = [], []
    solve, recurse = dercert.darboux.solve_residual_system, dercert.darboux._solve_recursive

    def solve_watched(system, effort):
        result = solve(system, effort)
        undecided.append(result.undecided)
        return result

    def recurse_watched(eqs, params, pending, assignment, budget):
        if all(e.is_zero() for e in eqs):
            fixed = set(assignment) | {name for name, _, _ in pending}
            free.append(not fixed.issuperset(params))
        return recurse(eqs, params, pending, assignment, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dercert.darboux, "solve_residual_system", solve_watched)
        mp.setattr(dercert.darboux, "_solve_recursive", recurse_watched)
        if not pinning:
            mp.setattr(dercert.darboux, "_pin_forced_zeros", lambda c, e_low, constraints: True)
        outcome = darboux_search_power_family(family, bounds)
    return outcome, any(undecided), any(free)


small_coeffs = st.integers(min_value=-2, max_value=2)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.lists(small_coeffs, min_size=2, max_size=3),
    st.lists(small_coeffs, max_size=3),
    small_coeffs.filter(lambda v: v != 0),
    st.sampled_from([None, 1, -1, 2, F(1, 2)]),
    # (3, 2, 4) is where alpha = 3 cells run out of effort 0
    st.one_of(
        st.tuples(
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=4),
        ),
        st.just((3, 2, 4)),
    ),
    st.sampled_from([0, 1, 100]),
)
# undecided-residual at y-degree 3, with an unknown pinned at every y-degree
@example(3, [2, -1], [1, -1], 2, None, (3, 2, 4), 0)
# decided with finitely many solutions: y + 1 is found
@example(1, [2, -1], [-2, 0, 2], -2, 1, (1, 0, 4), 1)
def test_pinning_forced_zeros_keeps_the_outcome(alpha, a2, a1, a0, l, degrees, effort):
    # pinning removes only unknowns that every rational solution sets to
    # zero, so the solution set of each slice stays the same.  The order of
    # the constraints may change, and with it the solver's branch order
    # under the effort budget and the free parameters it zeroes, so the
    # report is the same only where every slice is decided with finitely
    # many solutions; elsewhere both reports must be sound.  With l given,
    # a2 = l*a1 + (-1)^alpha*l^(alpha+1)*a0 makes y + 1/l a Darboux factor
    if l is not None:
        a2 = uni(a1).scale(l) + uni([(-1) ** alpha * l ** (alpha + 1) * a0])
    else:
        a2 = uni(a2)
    assume(a2.total_degree() >= 1)
    family = PlaneFamily(alpha, alpha, a2, uni(a1), uni([a0]))
    bounds = SearchBounds(*degrees, residual_effort=effort)
    pinned, pinned_undecided, _ = _watched_search(family, bounds, pinning=True)
    plain, plain_undecided, plain_free = _watched_search(family, bounds, pinning=False)
    if not (pinned_undecided or plain_undecided or plain_free):
        assert _printed(pinned) == _printed(plain)
        return
    D = family.to_derivation()
    for outcome in (pinned, plain):
        for pair in outcome.pairs:
            assert verify_darboux(D, pair.F) == pair
    if not (pinned_undecided or plain_undecided):
        assert pinned.status == plain.status
    statuses = {pinned.status, plain.status}
    assert statuses != {"found", "none-up-to-bounds"}


def test_pinning_that_settles_every_constraint_tries_the_zero_point(monkeypatch):
    # a0 = 0 lies outside the search hypotheses, but the slice still runs:
    # c_0 = 0 leaves the one constraint u0_0 = 0 and a zero closing residue,
    # so pinning empties the system and F = y must be tried at u0_0 = 0
    def no_solver(system, effort):
        raise AssertionError("the residual solver must not see an empty system")

    monkeypatch.setattr(dercert.darboux, "solve_residual_system", no_solver)
    family = PlaneFamily(1, 1, uni([0, 1]), uni([]), uni([]))
    pairs, reason = dercert.darboux._search_fixed_n(family, 1, SearchBounds(1, 0, 0))
    assert reason is None
    assert [(poly_to_str(p.F), poly_to_str(p.cofactor)) for p in pairs] == [("y", "x*y")]
