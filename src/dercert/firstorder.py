"""First-order polynomial equation solving with unknown parameters.

The unknown c and the right-hand side g are polynomials in x whose
coefficients are polynomials in a fixed tuple of parameter variables.
Both are plain MultiPoly values over ``params + ("x",)``, with x last.
The solver handles the operator shape

    k*a*c - c' = g

for a != 0 and k != 0, where the operator shifts degrees by deg a
and is injective (c' - a*c = g is the case k = 1 with right-hand side
-g).  One walk over the coefficient equations, from the top power of
x down, does both jobs: each power at or above deg a fixes one
coefficient of the unique degree-compatible candidate c, and each
power below deg a leaves a polynomial constraint on the parameters,
listed lowest power first.  A constant a leaves none, so c is then
the exact solution.
Specializing the parameters so every constraint vanishes makes the
equation hold identically; a nonzero constant among the constraints
means no specialization does, and the caller reads that off the list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .mpoly import MultiPoly, RatLike, ZeroPolynomial


@dataclass
class FirstOrderSolution:
    c: MultiPoly
    constraints: list[MultiPoly] = field(default_factory=list)


def solve_first_order(a: MultiPoly, g: MultiPoly, k: RatLike = 1) -> FirstOrderSolution:
    """Unique degree-compatible c with k*a*c - c' = g, plus residual constraints.

    a is a polynomial in x alone, over ``("x",)``.  g is a polynomial
    over ``params + ("x",)``: x must be the last variable, the others
    are the parameters.  The candidate c lives over
    the same tuple and the constraints over ``params``.  Requires
    a != 0 so that c -> k*a*c - c' is injective and shifts degrees by
    deg a; a constant a gives no constraints.
    """
    if a.is_zero():
        raise ZeroPolynomial("coefficient polynomial must be nonzero")
    d = a.total_degree()
    k = Fraction(k)
    if k == 0:
        raise ValueError("k must be nonzero")
    a_terms = sorted((q, aq) for (q,), aq in a.terms.items())
    lead = a_terms[-1][1] * k
    if g.is_zero():
        return FirstOrderSolution(g, [])
    g_x = g.split("x")
    zero = MultiPoly.zero(g.variables[:-1])
    # acc is the x^t coefficient of g - (k*a*c - c'), powers top down; at
    # t >= d it leaves out b_(t-d), which it fixes, and below d it must vanish
    b: dict[int, MultiPoly] = {}
    constraints: list[MultiPoly] = []
    for t in (*range(max(g_x), d - 1, -1), *range(d)):
        acc = g_x.get(t, zero)
        for q, aq in a_terms:
            if t - q in b:
                acc = acc - b[t - q].scale(aq * k)
        if t + 1 in b:
            acc = acc + b[t + 1].scale(t + 1)
        if t >= d:
            b[t - d] = acc.scale(Fraction(1) / lead)
        elif not acc.is_zero():
            constraints.append(-acc)
    # terms degree by degree, top down
    return FirstOrderSolution(MultiPoly.join(g.variables, "x", b), constraints)
