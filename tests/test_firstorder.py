from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import multipolys, nonzero_rationals, uni, unipolys
from dercert import (
    MultiPoly,
    ZeroPolynomial,
    solve_first_order,
)
from dercert.linalg import solve_sparse

F = Fraction


def refuted(sol) -> bool:
    """Whether a nonzero constant is among the constraints, so no specialization solves."""
    return any(con.is_constant() for con in sol.constraints)


def test_simple_instance():
    # c' - x*c = -x, that is x*c - c' = x, has c = 1
    sol = solve_first_order(uni([0, 1]), -uni([0, -1]))
    assert sol.constraints == []
    c = sol.c
    assert c == uni([1])
    assert c.partial("x") - uni([0, 1]) * c == uni([0, -1])


def test_impossible_degree_shape():
    # c' - x*c = 1 needs deg c < 0 with nonzero right side
    result = solve_first_order(uni([0, 1]), -uni([1]))
    assert refuted(result)


def test_exhaustive_low_degree_confirms_no_solution():
    # brute force over deg c <= 3: no c satisfies c' - x*c = 1
    for num in range(-3, 4):
        for coeffs in [(num, a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]:
            c = uni([F(v) for v in coeffs])
            assert c.partial("x") - uni([0, 1]) * c != uni([1])


def test_shift_mode_against_linear_system_oracle():
    # 2*x*c - c' = 2x^3: solve the 4x3 coefficient system exactly
    rows = [
        # unknowns (c2, c1, c0); rows are x^3, x^2, x^1, x^0 coefficients
        [2, 0, 0],
        [0, 2, 0],
        [-2, 0, 2],
        [0, -1, 0],
    ]
    rhs = [2, 0, 0, 0]
    oracle = solve_sparse([{j: v for j, v in enumerate(row) if v} for row in rows], rhs, 3)
    assert oracle is not None and oracle.rank == 3
    c2, c1, c0 = oracle.particular
    expected = uni([c0, c1, c2])
    assert expected == uni([1, 0, 1])  # x^2 + 1

    sol = solve_first_order(uni([0, 1]), uni([0, 0, 0, 2]), k=2)
    assert sol.constraints == []
    c = sol.c
    assert c == expected
    assert uni([0, 1]) * c.scale(2) - c.partial("x") == uni([0, 0, 0, 2])


def test_zero_a_rejected():
    with pytest.raises(ZeroPolynomial):
        solve_first_order(uni([]), uni([1]))


@settings(max_examples=200, deadline=None)
@given(nonzero_rationals, nonzero_rationals, unipolys(max_degree=5, max_terms=5))
def test_constant_a_is_solved_exactly(lam, k, g):
    # k*lam*c - c' = g has exactly one polynomial solution for every g,
    # and the top-down recurrence reaches every coefficient of it
    sol = solve_first_order(uni([lam]), g, k=k)
    assert sol.constraints == []
    c = sol.c
    assert c.scale(k * lam) - c.partial("x") == g


def test_parametric_right_hand_side():
    # x*c - c' = u0 + u1*x^2 forces c = u1*x and the constraint u0 + u1 = 0
    variables = ("u0", "u1", "x")
    g = MultiPoly.var(variables, "u0") + MultiPoly.var(variables, "u1") * MultiPoly.var(
        variables, "x", 2
    )
    sol = solve_first_order(uni([0, 1]), g, k=1)
    assert sol.c.variables == variables
    assert len(sol.constraints) == 1
    con = sol.constraints[0]
    assert con.variables == ("u0", "u1")
    # constraint vanishes exactly on u0 = -u1
    assert con.evaluate({"u0": -3, "u1": 3}) == 0
    assert con.evaluate({"u0": 1, "u1": 3}) != 0

    def at_point(p: MultiPoly) -> MultiPoly:
        return p.substitute({"u0": -5, "u1": 5}).with_variables(("x",))

    c = at_point(sol.c)
    lhs = uni([0, 1]) * c - c.partial("x")
    assert lhs == at_point(g)


@settings(max_examples=200, deadline=None)
@given(unipolys(max_degree=4, max_terms=4), unipolys(max_degree=3, max_terms=3))
def test_empty_constraints_mean_identity(a, g):
    if a.total_degree() < 1:
        return
    # c' - a*c = g is a*c - c' = -g
    result = solve_first_order(a, -g)
    if result.constraints:
        return
    c = result.c
    assert c.partial("x") - a * c == g


@settings(max_examples=200, deadline=None)
@given(
    unipolys(max_degree=3, max_terms=4),
    unipolys(max_degree=4, max_terms=5),
    st.sampled_from([F(1), F(2), F(1, 2), F(3)]),
)
def test_planted_solution_recovered_in_both_modes(a, c_true, k):
    # both operator shapes, k*a*c - c' = g and c' - a*c = g
    if a.total_degree() < 1:
        return
    g = a * c_true.scale(k) - c_true.partial("x")
    sol = solve_first_order(a, g, k=k)
    assert not refuted(sol)
    assert sol.constraints == []
    assert sol.c == c_true

    g2 = c_true.partial("x") - a * c_true
    sol2 = solve_first_order(a, -g2, k=1)
    assert not refuted(sol2)
    assert sol2.constraints == []
    assert sol2.c == c_true


@settings(max_examples=200, deadline=None)
@given(
    unipolys(max_degree=4, max_terms=4).filter(lambda a: a.total_degree() >= 1),
    multipolys(("u0", "u1", "x"), max_degree=5, max_terms=6),
    st.sampled_from([F(1), F(2), F(-1, 2), F(3)]),
)
def test_constraints_are_the_low_coefficients_lowest_first(a, g, k):
    # every nonzero x-coefficient of k*a*c - c' - g sits below deg a, and
    # those coefficients, by ascending power of x, are the constraints
    sol = solve_first_order(a, g, k=k)
    residual = a.with_variables(g.variables) * sol.c.scale(k) - sol.c.partial("x") - g
    coefficients = sorted(residual.split("x").items())
    assert all(power < a.total_degree() for power, _ in coefficients)
    assert sol.constraints == [coefficient for _, coefficient in coefficients]
