"""Exact linear system solving over the rationals.

Sparse rows (dict column -> int or Fraction) are scaled to integer rows,
one lcm of denominators per row, and reduced to row echelon form by
forward elimination with fraction-free integer row updates (as in
Bareiss 1968, Math. Comp. 22), each followed by division by the row
content rather than by the previous pivot.  A column -> rows index
keeps pivot search and elimination on the rows that are nonzero in the
current column.  Back-substitution in Fraction then gives the solution.

Columns are taken in order and each becomes a pivot column exactly when
it is independent of the columns before it, so the pivot columns do not
depend on which row is chosen as pivot.  The particular solution sets
every free variable to zero, and the kernel basis has one vector per
free column, with a 1 in that column and 0 in the other free columns;
both are therefore fixed by the column order alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class LinSolution:
    particular: list[Fraction]
    kernel: list[list[Fraction]]
    rank: int


def _integer_rows(
    rows: list[dict[int, Fraction | int]], rhs: list[Fraction | int]
) -> tuple[list[dict[int, int]], list[int]]:
    """Scale every row and its rhs by the lcm of their denominators.

    A row whose entries and rhs are all int is copied without its zeros.
    """
    int_rows = []
    int_rhs = []
    for row, b in zip(rows, rhs):
        if type(b) is int and all(type(v) is int for v in row.values()):
            int_rows.append({c: v for c, v in row.items() if v})
            int_rhs.append(b)
            continue
        scale = math.lcm(b.denominator, *(v.denominator for v in row.values()))
        int_rows.append(
            {c: v.numerator * (scale // v.denominator) for c, v in row.items() if v}
        )
        int_rhs.append(b.numerator * (scale // b.denominator))
    return int_rows, int_rhs


def _echelon(
    rows: list[dict[int, int]], rhs: list[int], ncols: int
) -> list[tuple[int, dict[int, int], int]] | None:
    """Forward elimination in place; None means inconsistent.

    Returns the pivot rows as (pivot column, row, rhs) in column order.
    A pivot row has no entry left of its pivot column.
    """
    if any(not row and b for row, b in zip(rows, rhs)):
        return None
    by_col: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c in row:
            by_col[c].add(i)
    pivots = []
    for col in range(ncols):
        candidates = by_col[col]
        if not candidates:
            continue
        # the sparsest pivot row adds the least fill-in; the index makes it unique
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        for c in prow:
            by_col[c].discard(p)
        pv, pb = prow[col], rhs[p]
        for i in candidates:
            row = rows[i]
            a = row[col]
            g = math.gcd(pv, a)
            keep, take = pv // g, a // g
            if keep != 1:
                for c in row:
                    row[c] *= keep
            for c, v in prow.items():
                new = row.get(c, 0) - take * v
                if new:
                    if c not in row:
                        by_col[c].add(i)
                    row[c] = new
                else:
                    del row[c]
                    if c != col:
                        by_col[c].discard(i)
            b = keep * rhs[i] - take * pb
            if not row:
                if b:
                    return None
                continue
            content = math.gcd(b, *row.values())
            if content != 1:
                for c in row:
                    row[c] //= content
                b //= content
            rhs[i] = b
        candidates.clear()
        pivots.append((col, prow, pb))
    return pivots


def solve_sparse(
    rows: list[dict[int, Fraction | int]], rhs: list[Fraction | int], ncols: int
) -> LinSolution | None:
    """Solve A x = b with sparse rows of int or Fraction; None means inconsistent."""
    int_rows, int_rhs = _integer_rows(rows, rhs)
    pivots = _echelon(int_rows, int_rhs, ncols)
    if pivots is None:
        return None
    # x[col] = sum_k value[col][k] * t_k, with t_k the free variable k
    # and t_ncols = 1 for the constant part
    value: dict[int, dict[int, Fraction]] = {}
    for col, row, b in reversed(pivots):
        acc: dict[int, Fraction] = {ncols: Fraction(b)} if b else {}
        for c, a in row.items():
            if c == col:
                continue
            solved = value.get(c)
            if solved is None:
                acc[c] = acc.get(c, 0) - a
            else:
                for k, v in solved.items():
                    acc[k] = acc.get(k, 0) - a * v
        p = row[col]
        value[col] = {k: Fraction(v, p) for k, v in acc.items() if v}
    particular = [Fraction(0)] * ncols
    for col, solved in value.items():
        particular[col] = solved.get(ncols, Fraction(0))
    kernel = {f: [Fraction(0)] * ncols for f in range(ncols) if f not in value}
    for f, vec in kernel.items():
        vec[f] = Fraction(1)
    for col, solved in value.items():
        for k, v in solved.items():
            if k != ncols:
                kernel[k][col] = v
    return LinSolution(
        particular=particular, kernel=list(kernel.values()), rank=len(pivots)
    )
