"""Darboux polynomial verification and bounded search.

A Darboux polynomial of D is a non-constant F with D(F) = L*F for some
polynomial cofactor L.  For the plane families

    y^a * dx + (a2(x)*y^(a+1) + a1(x)*y^a + a0) * dy,   deg a2 >= 1, a0 in Q*,

any Darboux polynomial F = sum c_i(x) y^i of y-degree n forces a constant
leading coefficient and a cofactor of y-degree at most a whose top
coefficient is n*a2(x).  Fixing c_n = 1 and treating the lower cofactor
coefficients as unknowns turns D(F) = L*F into a triangular sequence of
first-order solves for c_{n-1}, ..., c_0; the surplus coefficient
equations form a polynomial system in the unknowns whose rational
solutions are exactly the Darboux candidates within the degree bounds.
A constraint c*u^k = 0 in a single unknown u forces u = 0 in every
rational solution, so the descent substitutes that zero as soon as such
a constraint appears, before the next step multiplies u in; a round
pins all the unknowns it forces in one pass.  A nonzero constant
constraint refutes the slice there.  Every candidate is re-verified by
exact division, and one that fails raises CheckFailed: the descent
only yields Darboux polynomials, so a failure is a fault.

A `SearchOutcome` holds the verified pairs and, when there are none, why
the residual solver gave up ("" if it never did).  Its status reads off
them: "found" with pairs, else "undecided-residual" with a reason, else
"none-up-to-bounds".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .derivation import X_ONLY, Derivation, Family, PlaneFamily, UnsupportedFamily
from .firstorder import solve_first_order
from .mpoly import CheckFailed, MultiPoly, ZeroPolynomial, divide_exact
from .upoly import rational_roots


@dataclass(frozen=True)
class DarbouxPair:
    F: MultiPoly
    cofactor: MultiPoly


@dataclass(frozen=True)
class NotDarboux:
    reason: str


def verify_darboux(D: Derivation, F: MultiPoly) -> DarbouxPair | NotDarboux:
    """Check D(F) = L*F by exact division and return the pair with L."""
    if F.is_zero():
        raise ZeroPolynomial("the zero polynomial cannot be Darboux")
    F = F.with_variables(D.variables)
    if F.is_constant():
        return NotDarboux("constants are excluded by definition")
    cofactor = divide_exact(D.apply(F), F)
    if cofactor is None:
        return NotDarboux("F does not divide D(F)")
    return DarbouxPair(F=F, cofactor=cofactor)


def searchable(fam: Family) -> bool:
    """The search hypotheses: a plane family with alpha = beta, deg a2 >= 1, a0 in Q*."""
    return (
        isinstance(fam, PlaneFamily)
        and fam.alpha == fam.beta
        and fam.a2.total_degree() >= 1
        and fam.a0.is_constant()
        and not fam.a0.is_zero()
    )


# -- residual polynomial systems ------------------------------------------


@dataclass
class ResidualResult:
    """The solutions found, and why the solver gave up ("" when it did not)."""

    solutions: list[dict[str, Fraction]]
    note: str = ""

    @property
    def undecided(self) -> bool:
        return bool(self.note)


def _bareiss_det(matrix: list[list[MultiPoly]], variables: tuple[str, ...]) -> MultiPoly:
    """Fraction-free determinant; all intermediate divisions are exact."""
    size = len(matrix)
    m = [row[:] for row in matrix]
    sign = 1
    prev = MultiPoly.constant(variables, 1)
    for k in range(size - 1):
        if m[k][k].is_zero():
            pivot_row = next(
                (r for r in range(k + 1, size) if not m[r][k].is_zero()), None
            )
            if pivot_row is None:
                return MultiPoly.zero(variables)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                q = divide_exact(num, prev)
                if q is None:
                    raise CheckFailed("Bareiss division must be exact")
                m[i][j] = q
        prev = m[k][k]
    det = m[size - 1][size - 1]
    return det if sign == 1 else -det


def _resultant(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Resultant eliminating var, via the Sylvester determinant."""
    # each coefficient back over p's variables, the tuple the determinant runs over
    pc, qc = ({k: c.with_variables(p.variables) for k, c in f.split(var).items()} for f in (p, q))
    m, n = max(pc), max(qc)
    zero = MultiPoly.zero(p.variables)
    # deg q shifted rows of p's coefficients, then deg p of q's, highest power first
    rows = [
        [zero] * i + [cs.get(deg - j, zero) for j in range(deg + 1)] + [zero] * (m + n - i - deg - 1)
        for cs, deg, count in ((pc, m, n), (qc, n, m))
        for i in range(count)
    ]
    return _bareiss_det(rows, p.variables)


def _merge(branches) -> ResidualResult:
    """Union of branch results; an undecided union keeps its first undecided branch's reason."""
    solutions: list[dict[str, Fraction]] = []
    note = ""
    for branch in branches:
        solutions.extend(branch.solutions)
        note = note or branch.note
    return ResidualResult(solutions, note)


def _step(eqs, name, expr, factor, params, path, budget) -> ResidualResult:
    """Set name := expr*factor where it occurs; a nonzero constant closes the branch.

    eqs are (equation, support) pairs.  A constant expr goes in as a
    value, any other through substitute_poly.  An equation without name
    passed the constant check already, so only a rewritten one can close
    the branch, as the recursion would.
    """
    replacement = expr.scale(factor)
    value = replacement.constant_value() if replacement.is_constant() else None
    sub = []
    for e, sup in eqs:
        if name in sup:
            e = e.substitute_poly(name, replacement) if value is None else e.substitute({name: value})
            if len(e.nums) == 1 and e.is_constant():
                return ResidualResult([])
        sub.append(e)
    return _solve_recursive(sub, params, path + [(name, expr, factor)], budget)


def _solve_recursive(
    eqs: list[MultiPoly],
    params: tuple[str, ...],
    path: list[tuple[str, MultiPoly, Fraction | int]],
    budget: list[int],
) -> ResidualResult:
    """Solve eqs on the branch that path, the steps name := expr*factor so far, leads to."""
    eqs = [e for e in eqs if not e.is_zero()]
    for e in eqs:
        if e.is_constant():
            return ResidualResult([])
    if not eqs:
        # replay the steps from the last: a step's expression holds only
        # names that later steps set or that stay free, and free ones are zero
        full: dict[str, Fraction] = {}
        for name, expr, factor in reversed(path):
            full.update({v: Fraction(0) for v in expr.support() if v not in full})
            full[name] = expr.evaluate(full) * factor
        for name in params:
            full.setdefault(name, Fraction(0))
        return ResidualResult([full])
    supports = [sorted(e.support()) for e in eqs]

    # univariate equation: branch over its rational roots
    for e, sup in zip(eqs, supports):
        if len(sup) == 1:
            (name,) = sup
            others = [(o, s) for o, s in zip(eqs, supports) if o is not e]
            return _merge(
                _step(others, name, MultiPoly.constant(params, r), 1, params, path, budget)
                for r in rational_roots(e)
            )

    # an equation every term of which contains v splits as v = 0 or quotient = 0
    for pos, (e, sup) in enumerate(zip(eqs, supports)):
        for name in sup:
            quotient = e.quotient_by(name)
            if quotient is not None:
                zero_branch = _step(
                    zip(eqs, supports), name, MultiPoly.zero(params), 1, params, path, budget
                )
                rest = list(eqs)
                rest[pos] = quotient
                quot_branch = _solve_recursive(rest, params, path, budget)
                return _merge([zero_branch, quot_branch])

    # variable appearing linearly with a constant coefficient: eliminate it
    for e, sup in zip(eqs, supports):
        for name in sup:
            coeff = e.linear_coefficient(name)
            if coeff is not None:
                others = [(o, s) for o, s in zip(eqs, supports) if o is not e]
                return _step(
                    others, name, e.substitute({name: 0}), Fraction(-1) / coeff, params, path, budget
                )

    # fall back to resultants, bounded by the effort budget
    # one rational polynomial per key: variables, numerators and denominator
    seen = set(eqs)
    by_var: dict[str, list[MultiPoly]] = {}
    for e, sup in zip(eqs, supports):
        for name in sup:
            by_var.setdefault(name, []).append(e)
    for name in sorted(by_var):
        polys = sorted(by_var[name], key=lambda p: (p.degree_in(name), len(p.nums)))
        for p, q in itertools.combinations(polys[:4], 2):
            if budget[0] <= 0:
                return ResidualResult([], "effort budget exhausted")
            budget[0] -= 1
            res = _resultant(p, q, name)
            if res.is_zero():
                continue
            if res in seen:
                continue
            return _solve_recursive(eqs + [res], params, path, budget)
    return ResidualResult([], "no elimination step applies")


def solve_residual_system(
    system: Sequence[MultiPoly], effort: int
) -> ResidualResult:
    """All rational solutions of a small polynomial system, or undecided.

    Strategy: branch on rational roots of univariate members, eliminate
    variables that occur linearly with constant coefficient, and fall
    back to effort-capped resultants.  A step rewrites only the
    equations whose support holds the variable it fixes or eliminates;
    the others go on as the same objects.  Every point is checked against
    the original system, and one that misses it raises CheckFailed.
    When the solution set has free parameters, the representative with
    those parameters set to zero is returned.  Parameters absent from
    the system count as free, so the caller may have pinned unknowns out
    of it beforehand.
    """
    system = list(system)
    params: tuple[str, ...] = system[0].variables if system else ()
    result = _solve_recursive(system, params, [], [effort])
    unique: dict[tuple, dict[str, Fraction]] = {}
    for sol in result.solutions:
        if any(e.evaluate(sol) != 0 for e in system):
            raise CheckFailed("a residual solution misses the system")
        unique.setdefault(tuple(sorted(sol.items())), sol)
    return ResidualResult([unique[key] for key in sorted(unique)], result.note)


# -- bounded triangular search --------------------------------------------


@dataclass(frozen=True)
class SearchBounds:
    n_max: int
    d0_deg_max: int
    cx_deg_max: int
    residual_effort: int = 100

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if min(self.d0_deg_max, self.cx_deg_max, self.residual_effort) < 0:
            raise ValueError("degree bounds and residual effort must be nonnegative")


@dataclass
class SearchOutcome:
    pairs: list[DarbouxPair] = field(default_factory=list)
    detail: str = ""  # why the residual solver gave up, when nothing was found

    @property
    def status(self) -> str:
        if self.pairs:
            return "found"
        return "undecided-residual" if self.detail else "none-up-to-bounds"


def _pin_forced_zeros(
    c: dict[int, MultiPoly], e_low: dict[int, MultiPoly], constraints: list[MultiPoly]
) -> bool:
    """Substitute u = 0 for every unknown u that a constraint c*u^k forces to zero.

    Runs to a fixpoint, in place: each round gives all the zeros it forces
    to the c_i, e_low and the constraints in one pass per polynomial, and
    drops the constraints that vanish.  Returns False when a constraint is
    a nonzero constant, so the slice has no solution; this is the one
    place the descent refutes a slice.
    """
    while True:
        forced: dict[str, None] = {}
        for con in constraints:
            if len(con.nums) == 1:
                used = con.support()
                if not used:
                    return False
                if len(used) == 1:
                    forced.update(dict.fromkeys(used))
        if not forced:
            return True
        zeros = dict.fromkeys(forced, 0)
        for polys in (c, e_low):
            for key, p in polys.items():
                polys[key] = p.substitute(zeros)
        constraints[:] = [q for q in (p.substitute(zeros) for p in constraints) if not q.is_zero()]


def _search_fixed_n(
    fam: PlaneFamily, n: int, bounds: SearchBounds
) -> tuple[list[DarbouxPair], str | None]:
    """One y-degree slice of the search.

    Returns the verified pairs and, when the residual solver left the
    slice undecided, its reason (None when the slice is decided).
    """
    alpha = fam.alpha
    a2, a1 = fam.a2, fam.a1
    a0_val = fam.a0.constant_value()
    blocks = {
        s: [f"u{s}_{j}" for j in range(bounds.d0_deg_max + 1)] for s in range(alpha)
    }
    params = tuple(name for s in range(alpha) for name in blocks[s])
    # unknowns first, x last: the layout solve_first_order expects
    variables = params + ("x",)
    # e_low[s] = u{s}_0 + u{s}_1*x + ... with unknown coefficients
    e_low = {
        s: MultiPoly.join(
            variables, "x", {j: MultiPoly.var(params, name) for j, name in enumerate(blocks[s])}
        )
        for s in range(alpha)
    }
    a1_x = a1.with_variables(variables)
    c: dict[int, MultiPoly] = {n: MultiPoly.constant(variables, 1)}
    zero = MultiPoly.zero(variables)
    constraints: list[MultiPoly] = []
    for i in range(n - 1, -1, -1):
        rhs = (
            (c.get(i + 1, zero) * a1_x).scale(i + 1)
            + c.get(i + alpha + 1, zero).scale(Fraction(i + alpha + 1) * a0_val)
        )
        for s in range(alpha):
            rhs = rhs - e_low[s] * c.get(i + alpha - s, zero)
        sol = solve_first_order(a2, rhs, k=Fraction(n - i))
        c[i] = sol.c
        constraints.extend(sol.constraints)
        c_x = sol.c.split("x")
        constraints.extend(c_x[j] for j in sorted(c_x) if j > bounds.cx_deg_max)
        if not _pin_forced_zeros(c, e_low, constraints):
            return [], None
    for m in range(alpha):
        residue = c.get(m + 1, zero).scale(Fraction(m + 1) * a0_val)
        for s in range(min(alpha - 1, m) + 1):
            residue = residue - e_low[s] * c.get(m - s, zero)
        constraints.extend(v for _, v in sorted(residue.split("x").items()))
    if not _pin_forced_zeros(c, e_low, constraints):
        return [], None
    if constraints:
        result = solve_residual_system(constraints, bounds.residual_effort)
    else:
        # pinning settled every constraint: the point is all unknowns at zero
        result = ResidualResult([dict.fromkeys(params, Fraction(0))])
    reason = result.note or None
    if not result.solutions:
        return [], reason
    D = fam.to_derivation()
    pairs = []
    for point in result.solutions:
        F = MultiPoly.join(
            fam.variables,
            fam.variables[1],
            {i: ci.substitute(point).with_variables(X_ONLY) for i, ci in c.items()},
        )
        verified = verify_darboux(D, F)
        if not isinstance(verified, DarbouxPair):
            raise CheckFailed(f"a solved candidate is not Darboux: {verified.reason}")
        pairs.append(verified)
    return pairs, reason


def darboux_search_power_family(fam: PlaneFamily, bounds: SearchBounds) -> SearchOutcome:
    """Bounded search for Darboux polynomials of an alpha = beta power family.

    Runs the descent at each y-degree up to n_max, with deg c_i <=
    cx_deg_max and lower cofactor coefficients of degree <= d0_deg_max.
    Finding none is reported as none-up-to-bounds, never a proof for
    unbounded degrees; the simplicity criterion is.  A family outside
    the search hypotheses raises UnsupportedFamily.
    """
    if not searchable(fam):
        raise UnsupportedFamily(
            "search needs a plane family with alpha = beta, deg a2 >= 1 and a0 a nonzero constant"
        )
    pairs: list[DarbouxPair] = []
    gave_up: list[str] = []
    for n in range(1, bounds.n_max + 1):
        found, reason = _search_fixed_n(fam, n, bounds)
        pairs.extend(found)
        if reason is not None:
            gave_up.append(f"y-degree {n} ({reason})")
    if pairs or not gave_up:
        return SearchOutcome(pairs)
    return SearchOutcome([], "residual solver gave up at " + ", ".join(gave_up))


def darboux_search_family_a(fam: PlaneFamily, bounds: SearchBounds) -> SearchOutcome:
    """The same search as `darboux_search_power_family`, not exported.

    Nothing in the package calls it; it stays only because the
    benchmark's `darboux.search` span is hooked on this name, and goes
    once that hook moves to `darboux_search_power_family`.
    """
    return darboux_search_power_family(fam, bounds)
