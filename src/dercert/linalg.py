"""Exact linear system solving over the rationals.

`solve_sparse` takes sparse rows (dict column -> nonzero int) and an
int right-hand side, and never mutates them; any other system raises
ValueError.  A caller with rational entries scales each row to integers
first, which changes neither the solutions nor the rank.  Callers keep
columns that no row holds out of `ncols`: such a column is free, but no
row ends at it, so the walk builds its column -> rows index when it
reaches that column, which a system without it might build later or
never.

The solve is one walk over the columns from left to right.  Every row
is filed once, under its rightmost column.  At column c:

* if some unused row ends at c, its other columns are all solved, so it
  is a single-entry pivot: x_c = (b - sum a_j x_j) / a_c, summed only
  over the solved values that are nonzero.  Every other row that ends
  at c only checks consistency: a nonzero residual means the system is
  inconsistent;
* otherwise the unused rows that hold c come from a column -> rows
  index, built the first time such a column is reached.  With none, c is
  free.  With one, that row becomes the pivot of c and waits: its value
  is settled in the backward pass.  With two or more, one becomes the
  waiting pivot and is removed from the others by fraction-free updates
  (as in Bareiss 1968, Math. Comp. 22), each followed by division by
  the row content; every updated row is filed again under its new
  rightmost column, or checked at once when all its columns are solved.

The invariant is that an unused row never holds a free or a waiting
column: a free column is held by no unused row, a waiting row is used,
and the fill-in step leaves c in the waiting row alone.  So a row that
ends at c holds only solved columns besides c, and a value solved on
the way forward is final.  Its cost follows the nonzero values actually
touched, as for the sparse right-hand sides of Gilbert and Peierls
(1988, SIAM J. Sci. Stat. Comput. 9): an image system, where most
solved values are zero, does almost no Fraction arithmetic.

The free columns are set to 0, and the backward pass settles the
waiting pivots in reverse column order by the forward rule: x_c =
(b - sum a_j x_j) / a_c over the nonzero values.  A waiting row holds
only solved columns, free ones (zero) and waiting ones to its right,
which are settled before it, so this gives the particular solution with
every free variable zero.  Row operations keep the row space, and each
pivot row has no entry in a column left of its pivot other than solved
ones, so a column becomes a pivot column exactly when it is independent
of the columns before it.  The rank and that solution are then unique:
neither the order of the rows nor the choice of pivot rows can change
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain


@dataclass
class LinSolution:
    particular: list[Fraction]
    rank: int


def _residual(row: dict[int, int], b: int, known: dict[int, Fraction]) -> Fraction | int:
    """b minus the row's products with the nonzero solved values."""
    for c in known.keys() & row.keys():
        b -= row[c] * known[c]
    return b


def _walk(
    rows: list[dict[int, int]], rhs: list[int], ncols: int
) -> tuple[dict[int, Fraction], list[tuple[int, dict[int, int], int]], int] | None:
    """The forward walk; None means inconsistent.

    Returns the nonzero solved values, the waiting pivots as (column,
    row, rhs) in column order, and the number of free columns.  Appends
    the rows made by fill-in to `rows` and `rhs`, and mutates no row.
    """
    last = [max(row) if row else -1 for row in rows]
    ending: list[list[int]] = [[] for _ in range(ncols)]
    for i, col in enumerate(last):
        if col >= 0:
            ending[col].append(i)
        elif rhs[i]:
            return None
    known: dict[int, Fraction] = {}
    waiting = []
    free = 0
    # rows taken as waiting pivots or replaced by fill-in, which the
    # index still lists; `ending` no longer does
    taken: set[int] = set()
    index: dict[int, list[int]] | None = None
    for col, bucket in enumerate(ending):
        if bucket:
            p = bucket[0]
            s = _residual(rows[p], rhs[p], known) if known else rhs[p]
            if s:
                known[col] = Fraction(s, rows[p][col])
            for k in range(1, len(bucket)):
                i = bucket[k]
                if _residual(rows[i], rhs[i], known) if known else rhs[i]:
                    return None
            continue
        if index is None:
            # the unused rows are those filed right of col; index them
            # under the columns that no row ends at
            index = {c: [] for c in set(range(col, ncols)).difference(last)}
            for i, end in enumerate(last):
                if end > col:
                    for c in index.keys() & rows[i].keys():
                        index[c].append(i)
        held = index.get(col)
        if held is None:  # the rows that ended here were taken
            held = [i for later in ending[col + 1 :] for i in later if col in rows[i]]
        elif taken:
            held = [i for i in held if i not in taken]
        if not held:
            free += 1
            continue
        # a sparsest pivot row adds the least fill-in
        p = min(held, key=lambda i: len(rows[i]))
        prow, pb = rows[p], rhs[p]
        pv = prow[col]
        waiting.append((col, prow, pb))
        for i in held:
            taken.add(i)
            ending[last[i]].remove(i)
            if i == p:
                continue
            row = rows[i]
            g = math.gcd(pv, row[col])
            keep, take = pv // g, row[col] // g
            new = {c: keep * v for c, v in row.items() if c != col}
            b = keep * rhs[i] - take * pb
            for c, v in prow.items():
                if c != col:
                    w = new.get(c, 0) - take * v
                    if w:
                        new[c] = w
                    else:
                        del new[c]
            content = math.gcd(b, *new.values())
            if content > 1:
                new = {c: v // content for c, v in new.items()}
                b //= content
            end = max(new) if new else -1
            if end < col:  # every column left is solved: a check
                if _residual(new, b, known):
                    return None
                continue
            rows.append(new)
            rhs.append(b)
            last.append(end)
            ending[end].append(len(rows) - 1)
            for c in index.keys() & new.keys():
                index[c].append(len(rows) - 1)
    return known, waiting, free


def solve_sparse(rows: list[dict[int, int]], rhs: list[int], ncols: int) -> LinSolution | None:
    """Solve A x = b over nonzero int entries and an int rhs; None means inconsistent.

    The entry check is one pass done in C; the walk appends fill-in rows
    to new lists and mutates no row dict.
    """
    values = list(chain.from_iterable(map(dict.values, rows)))
    if not ({*map(type, values), *map(type, rhs)} <= {int} and all(values)):
        raise ValueError("solve_sparse takes nonzero int entries and an int rhs")
    walked = _walk(list(rows), list(rhs), ncols)
    if walked is None:
        return None
    known, waiting, free = walked
    for col, row, b in reversed(waiting):
        s = _residual(row, b, known)
        if s:
            known[col] = Fraction(s, row[col])
    particular = [Fraction(0)] * ncols
    for col, v in known.items():
        particular[col] = v
    return LinSolution(particular=particular, rank=ncols - free)
