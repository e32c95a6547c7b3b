"""solve_sparse against sympy, and its independence of row order.

Systems are drawn with int and Fraction entries, and each row is scaled
to integers before the solve, which keeps its solutions.  Most have a right-hand side A x
for a drawn x, the rest a drawn one; rows that are combinations of
earlier rows make them rank-deficient, and a combination whose rhs is
shifted makes them inconsistent.  The reference is sympy's
gauss_jordan_solve with every free parameter set to 0, which takes the
columns in order as solve_sparse does, and sympy's rank.
"""

import copy
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import scaled_to_ints
from dercert.linalg import LinSolution, solve_sparse

sympy = pytest.importorskip("sympy")

F = Fraction
entries = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
factors = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def systems(draw):
    """(dense rows, rhs, ncols), with entries of type int or Fraction."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    nrows = draw(st.integers(min_value=1, max_value=7))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        rhs = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    else:  # consistent until a shifted combination is added
        x = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        s, t = draw(factors), draw(factors)
        rows.append([s * a + t * b for a, b in zip(rows[i], rows[j])])
        shift = draw(st.sampled_from([0] * 6 + [1, F(-1, 2)]))
        rhs.append(s * rhs[i] + t * rhs[j] + shift)
    return rows, rhs, ncols


def sparse(rows, rhs):
    """The system solve_sparse takes: rows scaled to ints, without zero entries."""
    int_rows, int_rhs = scaled_to_ints(rows, rhs)
    return [{j: v for j, v in enumerate(row) if v} for row in int_rows], int_rhs


def sympy_reference(rows, rhs, ncols):
    """(particular, rank) from sympy, or None when inconsistent."""
    q = lambda v: sympy.Rational(F(v).numerator, F(v).denominator)  # noqa: E731
    A = sympy.Matrix(len(rows), ncols, lambda i, j: q(rows[i][j]))
    b = sympy.Matrix(len(rhs), 1, lambda i, _: q(rhs[i]))
    try:
        solution, params = A.gauss_jordan_solve(b)
    except ValueError:
        return None
    solution = solution.subs({p: 0 for p in params})
    to_fraction = lambda v: F(int(v.p), int(v.q))  # noqa: E731
    return [to_fraction(v) for v in solution], A.rank()


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_sparse_matches_sympy(system):
    rows, rhs, ncols = system
    args = (*sparse(rows, rhs), ncols)
    before = copy.deepcopy(args)
    sol = solve_sparse(*args)
    assert args == before
    expected = sympy_reference(rows, rhs, ncols)
    if expected is None:
        assert sol is None
        return
    assert sol == LinSolution(*expected)
    assert all(type(v) is F for v in sol.particular)


@settings(max_examples=150, deadline=None)
@given(systems(), st.data())
def test_row_order_changes_nothing(system, data):
    rows, rhs, ncols = system
    order = data.draw(st.permutations(range(len(rows))))
    permuted = [rows[i] for i in order], [rhs[i] for i in order]
    assert solve_sparse(*sparse(*permuted), ncols) == solve_sparse(*sparse(rows, rhs), ncols)


def test_all_int_system_is_copied_not_mutated():
    # the shape image_membership builds: nonzero ints, int rhs, many singletons
    rows = [{0: 2, 2: 3}, {1: 4}, {0: 6, 1: 1, 2: 9}, {2: 5}]
    rhs = [1, 8, 5, 10]
    before = copy.deepcopy((rows, rhs))
    sol = solve_sparse(rows, rhs, 3)
    assert (rows, rhs) == before
    assert sol == LinSolution([F(-5, 2), F(2), F(2)], 3)


@st.composite
def image_shaped_systems(draw):
    """(dense rows, rhs, ncols) shaped like an image system, up to 40 columns.

    Most columns get a row that ends there, with a few entries further
    left: the rows of such a system are structurally triangular.  Some
    columns get none, so they are free or held by a row that ends
    further right, and some get two rows that both end further right and
    so meet there.  Copies of rows with a shifted rhs make the system
    inconsistent.  Most of the rhs is zero.
    """
    ncols = draw(st.integers(min_value=1, max_value=40))
    nonzero = st.one_of(
        st.integers(min_value=-4, max_value=4).filter(bool),
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    )
    rows = []

    def row_over(cols):
        row = [0] * ncols
        for c in cols:
            row[c] = draw(nonzero)
        return row

    for col in range(ncols):
        left = draw(st.lists(st.integers(0, col), max_size=2)) if col else []
        right = list(range(col + 1, ncols))
        kind = draw(st.sampled_from(["ends"] * 6 + ["free", "held", "meet"]))
        if kind == "ends" or not right and kind != "free":
            rows.append(row_over({col, *left}))
        elif kind in ("held", "meet"):
            for _ in range(1 if kind == "held" else 2):
                later = draw(st.lists(st.sampled_from(right), min_size=1, max_size=2))
                rows.append(row_over({col, *left, *later}))
    if not rows:
        rows.append([0] * ncols)
    x = [draw(st.sampled_from([0] * 8 + [1, -2, F(1, 3)])) for _ in range(ncols)]
    rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows.append(list(rows[i]))
        rhs.append(rhs[i] + draw(st.sampled_from([0, 0, 1])))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], [rhs[i] for i in order], ncols


@settings(max_examples=60, deadline=None)
@given(image_shaped_systems())
def test_image_shaped_systems_match_sympy(system):
    rows, rhs, ncols = system
    args = (*sparse(rows, rhs), ncols)
    before = copy.deepcopy(args)
    sol = solve_sparse(*args)
    assert args == before
    expected = sympy_reference(rows, rhs, ncols)
    if expected is None:
        assert sol is None
        return
    assert sol == LinSolution(*expected)
