from fractions import Fraction

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import nonzero_rationals, rationals, scaled_to_ints
from dercert.linalg import LinSolution, _walk, solve_sparse

F = Fraction


def solve_dense(rows, rhs):
    """solve_sparse on a dense rational matrix, each row scaled to ints."""
    ncols = len(rows[0]) if rows else 0
    int_rows, int_rhs = scaled_to_ints(rows, rhs)
    return solve_sparse([{j: v for j, v in enumerate(row) if v} for row in int_rows], int_rhs, ncols)


def test_identity_system():
    sol = solve_dense([[1, 0], [0, 1]], [2, 3])
    assert sol.particular == [F(2), F(3)]
    assert sol.rank == 2


def test_underdetermined_kernel():
    # x0 + x1 = 1: column 1 is free and set to 0, leaving a kernel of
    # dimension 2 - rank = 1
    sol = solve_dense([[1, 1]], [1])
    assert sol.particular == [F(1), F(0)]
    assert sol.rank == 1


def test_inconsistent():
    assert solve_dense([[1], [1]], [1, 2]) is None


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=5
        ),
        st.just(n),
    )
)


@settings(max_examples=200, deadline=None)
@given(matrices, st.data())
def test_solution_and_rank_are_exact(matrix_and_n, data):
    rows, n = matrix_and_n
    rhs = data.draw(
        st.lists(rationals, min_size=len(rows), max_size=len(rows))
    )
    sol = solve_dense(rows, rhs)
    if sol is None:
        return
    for row, b in zip(rows, rhs):
        assert sum(a * x for a, x in zip(row, sol.particular)) == b
    assert sol.rank == dense_reference(rows, rhs, n)[1]


def dense_reference(rows, rhs, ncols):
    """(particular, rank) by plain dense Gauss-Jordan over Fraction.

    Pivots are the leftmost possible and free variables are 0.
    """
    work = [[F(v) for v in row] + [F(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        src = next((i for i in range(r, len(work)) if work[i][col]), None)
        if src is None:
            continue
        work[r], work[src] = work[src], work[r]
        work[r] = [v / work[r][col] for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                factor = work[i][col]
                work[i] = [a - factor * p for a, p in zip(work[i], work[r])]
        pivots.append(col)
    if any(not any(row[:ncols]) and row[ncols] for row in work):
        return None
    particular = [F(0)] * ncols
    for r, col in enumerate(pivots):
        particular[col] = work[r][ncols]
    return particular, len(pivots)


# mostly zeros, with int and Fraction entries mixed; scaled to ints to solve
sparse_entries = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(min_value=-5, max_value=5),
    rationals,
)


@st.composite
def sparse_systems(draw):
    ncols = draw(st.integers(min_value=0, max_value=7))
    # tall (up to twice the columns) and wide systems both occur
    nrows = draw(st.integers(min_value=0, max_value=2 * ncols + 2))
    rows = [
        draw(st.lists(sparse_entries, min_size=ncols, max_size=ncols))
        for _ in range(nrows)
    ]
    rhs = draw(st.lists(rationals, min_size=nrows, max_size=nrows))
    extra = draw(st.integers(min_value=0, max_value=3))
    for _ in range(extra):
        kind = draw(st.sampled_from(["zero", "duplicate", "scaled", "clash"]))
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
            rhs.append(draw(st.sampled_from([0, 0, F(1, 3)])))
            continue
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        if kind == "duplicate":
            rows.append(list(rows[i]))
            rhs.append(rhs[i])
        elif kind == "scaled":
            s = draw(nonzero_rationals)
            rows.append([s * v for v in rows[i]])
            rhs.append(s * rhs[i])
        else:  # same row, different rhs: inconsistent unless the row is zero
            rows.append(list(rows[i]))
            rhs.append(rhs[i] + 1)
    return rows, rhs, ncols


@settings(max_examples=400, deadline=None)
@given(sparse_systems())
def test_solve_sparse_matches_dense_reference(system_data):
    rows, rhs, ncols = system_data
    int_rows, int_rhs = scaled_to_ints(rows, rhs)
    sol = solve_sparse([{j: v for j, v in enumerate(row) if v} for row in int_rows], int_rhs, ncols)
    expected = dense_reference(rows, rhs, ncols)
    if expected is None:
        assert sol is None
        return
    assert sol is not None
    assert (sol.particular, sol.rank) == expected
    assert all(type(v) is F for v in sol.particular)


def test_solve_sparse_leaves_its_input_alone():
    rows = [{0: 4, 1: 1}, {0: 4, 1: 3}, {1: 15}]
    rhs = [2, 2, 5]
    copies = ([dict(r) for r in rows], list(rhs))
    solve_sparse(rows, rhs, 2)
    assert (rows, rhs) == copies


def test_zero_entries_are_refused():
    rows = [{0: 1, 1: 0, 2: 1}, {1: 2, 2: 0}, {0: 0}]
    rhs = [3, 4, 0]
    copies = ([dict(r) for r in rows], list(rhs))
    with pytest.raises(ValueError):
        solve_sparse(rows, rhs, 3)
    assert (rows, rhs) == copies
    nonzero = [{c: v for c, v in row.items() if v} for row in rows]
    assert solve_sparse(nonzero, rhs, 3) == LinSolution([F(3), F(2), F(0)], 2)


# One small system per branch of the walk in _walk; each checks the
# branch it takes, then the solution against the dense reference.
def walk_and_solve(rows, rhs, ncols):
    """(the walk's output, solve_sparse, the dense Gauss-Jordan reference)."""
    walked = _walk(list(rows), list(rhs), ncols)
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    reference = dense_reference(dense, rhs, ncols)
    return walked, solve_sparse(rows, rhs, ncols), reference and LinSolution(*reference)


def test_waiting_pivot_row_is_settled_after_its_later_columns_are_peeled():
    # no row ends at column 0, so the one row holding it waits; columns
    # 1 and 2 are then peeled by the rows that end there
    rows = [{0: 1, 1: 1, 2: 1}, {1: 2}, {2: 3}]
    walked, sol, dense = walk_and_solve(rows, [6, 4, 3], 3)
    known, waiting, free = walked
    assert [col for col, _, _ in waiting] == [0]
    assert known == {1: 2, 2: 1} and free == 0
    assert sol == dense == LinSolution([F(3), F(2), F(1)], 3)


def test_two_multi_entry_rows_meeting_at_a_column_take_fill_in():
    # column 0 is peeled; both other rows hold column 1 and end at 2, so
    # one waits on column 1 and the other, with column 1 removed, ends at
    # 2 and is peeled there
    rows = [{0: 1}, {0: 1, 1: 1, 2: 1}, {0: 2, 1: 1, 2: 3}]
    walked, sol, dense = walk_and_solve(rows, [1, 4, 8], 3)
    known, waiting, free = walked
    assert [col for col, _, _ in waiting] == [1]
    assert known == {0: 1, 2: F(3, 2)} and free == 0
    assert sol == dense == LinSolution([F(1), F(3, 2), F(3, 2)], 3)


def test_second_row_ending_on_a_column_catches_the_inconsistency():
    # x0 = 1, the first row ending at column 1 gives x1 = 1, and the
    # second one leaves 9 - 2 - 6 = 1
    rows = [{0: 2}, {0: 1, 1: 3}, {0: 2, 1: 6}]
    walked, sol, dense = walk_and_solve(rows, [2, 4, 9], 2)
    assert walked is sol is dense is None
    assert solve_sparse(rows, [2, 4, 8], 2) == LinSolution([F(1), F(1)], 2)


def test_free_column_held_only_by_a_waiting_row_is_zero():
    # the only row waits on column 0; column 1 is then held by no unused
    # row, so it is free and 0, and the waiting row gives x0 = 3 - 2*0
    rows = [{0: 1, 1: 2}]
    walked, sol, dense = walk_and_solve(rows, [3], 2)
    known, waiting, free = walked
    assert [col for col, _, _ in waiting] == [0]
    assert known == {} and free == 1
    assert sol == dense == LinSolution([F(3), F(0)], 1)


def test_fraction_entries_are_refused():
    rows = [{0: F(1, 2), 1: F(1, 3)}, {1: F(2, 3)}, {0: F(3, 4), 2: F(5, 6)}]
    rhs = [F(1, 6), F(4, 3), F(1, 2)]
    for bad in (rows, rhs), ([{0: 3, 1: 2}], [F(1)]), ([{0: F(3)}], [1]), ([{0: True}], [1]):
        with pytest.raises(ValueError):
            solve_sparse(*bad, 3)
    assert rows[0] == {0: F(1, 2), 1: F(1, 3)} and rhs[0] == F(1, 6)
    # the same system scaled row by row to ints: x = (-1, 2, 3/2)
    int_rows = [{0: 3, 1: 2}, {1: 2}, {0: 9, 2: 10}]
    _, sol, dense = walk_and_solve(int_rows, [1, 4, 6], 3)
    assert sol == dense == LinSolution([F(-1), F(2), F(3, 2)], 3)


def test_empty_rows_are_checks_of_their_rhs():
    # an image system holds a row with no column for every target
    # monomial past every column; rows need not list their columns in order
    rows = [{}, {2: 1, 0: 1}, {1: 2}, {2: 3}]
    walked, sol, dense = walk_and_solve(rows, [0, 4, 4, 3], 3)
    known, waiting, free = walked
    assert known == {1: 2, 2: 1} and [col for col, _, _ in waiting] == [0] and free == 0
    assert sol == dense == LinSolution([F(3), F(2), F(1)], 3)
    walked, sol, dense = walk_and_solve(rows, [5, 4, 4, 3], 3)
    assert walked is sol is dense is None
    assert solve_sparse([{}], [0], 1) == LinSolution([F(0)], 0)
    assert solve_sparse([{}], [1], 1) is None
