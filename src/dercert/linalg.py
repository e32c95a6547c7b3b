"""Exact linear system solving over the rationals.

`solve_sparse` takes sparse rows (dict column -> int or Fraction) and a
right-hand side of int or Fraction, and never mutates them.  A system
whose entries are nonzero ints and whose rhs is int is copied as it is;
any other is scaled row by row to integers by the lcm of the row's
denominators.  Forward elimination runs on the integer rows with
fraction-free updates (as in Bareiss 1968, Math. Comp. 22), each
followed by division by the row content rather than by the previous
pivot.  Every row waits under its leftmost column; the pivot of a column
is a sparsest row waiting there, and the scan stops at the first row
with a single entry, whose elimination only deletes the column from the
other rows (scaled when the pivot does not divide their entry).
Back-substitution in Fraction then gives the solution.

Row operations keep the row space, so a column becomes a pivot column
exactly when it is independent of the columns before it, and the
particular solution (every free variable zero) and the kernel basis (one
vector per free column, 1 there and 0 in the other free columns) are the
unique vectors with those properties: neither the order of the rows nor
the choice of pivot rows can change them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain


@dataclass
class LinSolution:
    particular: list[Fraction]
    kernel: list[list[Fraction]]
    rank: int


def _integer_rows(
    rows: list[dict[int, Fraction | int]], rhs: list[Fraction | int]
) -> tuple[list[dict[int, int]], list[int]]:
    """Integer copies of the rows and rhs, without zero entries.

    A system of nonzero int entries and int rhs passes one check done in
    C and is copied; any other is scaled by the lcm of each row's
    denominators.
    """
    values = list(chain.from_iterable(map(dict.values, rows)))
    if {*map(type, values), *map(type, rhs)} <= {int} and all(values):
        return list(map(dict.copy, rows)), list(rhs)
    int_rows, int_rhs = [], []
    for row, b in zip(rows, rhs):
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
    # every row waits under its leftmost column, the only one it can pivot on
    by_lead: list[list[int]] = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        if row:
            by_lead[min(row)].append(i)
    pivots = []
    for col, candidates in enumerate(by_lead):
        if not candidates:
            continue
        # a sparsest pivot row adds the least fill-in; a single entry adds none
        size = ncols + 1
        for i in candidates:
            if len(rows[i]) < size:
                p, size = i, len(rows[i])
                if size == 1:
                    break
        prow = rows[p]
        pv, pb = prow[col], rhs[p]
        for i in candidates:
            if i == p:
                continue
            row = rows[i]
            a = row.pop(col)
            g = math.gcd(pv, a)
            keep, take = pv // g, a // g
            if keep != 1:
                for c in row:
                    row[c] *= keep
            b = keep * rhs[i] - take * pb
            if size > 1:
                for c, v in prow.items():
                    if c != col:
                        new = row.get(c, 0) - take * v
                        if new:
                            row[c] = new
                        else:
                            del row[c]
            if not row:
                if b:
                    return None
                continue
            if keep != 1 or size > 1:
                content = math.gcd(b, *row.values())
                if content != 1:
                    for c in row:
                        row[c] //= content
                    b //= content
            rhs[i] = b
            by_lead[min(row)].append(i)
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
        acc: dict[int, Fraction | int] = {ncols: b} if b else {}
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
