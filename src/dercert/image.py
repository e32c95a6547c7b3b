"""Image membership up to a degree bound, and Mathieu-Zhao decisions.

D is linear, so "is target = D(f) solvable with deg f <= bound" is a
finite exact linear system over the monomial basis.  For the quadratic
plane family with a2 != 0 that system is triangular in the y-degree,
and a descent of at most one first-order solve per y-degree decides it
without assembling the system.  For the diagonal families, where D
keeps the degree in each y_i with k_i = 1 or gamma_i = 0, the system
is block diagonal in those degrees, and only the blocks the target's
monomials fall in are solved against it; the others give only their
rank to the kernel dimension, so the answer is the one the whole
system gives.  A Member result is always sound (the
preimage is returned and re-checkable); a bounded failure is only
NotFoundUpTo.  Global non-membership is asserted solely through the
proven family patterns of `_certified`, each tagged with the rule it
instantiates and cross-checked at issue time by a solve at
DEFAULT_SANITY_BOUND.  The CLI looks a target's pattern up first and
answers a certified target at any bound from the theorem, with no solve
at that bound; the Mathieu-Zhao decision reads its evidence off the
same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from operator import itemgetter

from .derivation import (
    X_ONLY,
    Derivation,
    Family,
    FamilyDiag,
    FamilyDiagX,
    PlaneFamily,
    UnsupportedFamily,
    locally_finite_closed_form,
    recognize_family,
)
from .firstorder import solve_first_order
from .linalg import solve_sparse
from .mpoly import CheckFailed, MultiPoly

TAG_P22 = "P2.2"
TAG_C23 = "C2.3"
TAG_T51 = "T5.1"
TAG_C52 = "C5.2"
TAG_T53 = "T5.3"

DEFAULT_SANITY_BOUND = 4
DEFAULT_M_MIN = 5


@dataclass(frozen=True)
class Member:
    preimage: MultiPoly
    kernel_dim: int
    bound: int


@dataclass(frozen=True)
class NotFoundUpTo:
    bound: int


@dataclass(frozen=True)
class CertifiedNonMember:
    theorem: str
    claim: str
    target: MultiPoly
    m_used: int | None = None


@lru_cache(maxsize=16)
def _basis(nvars: int, bound: int, width: int) -> tuple[tuple, tuple]:
    """Exponent vectors of total degree <= bound, decreasing graded-lex, and their packed keys."""
    basis = tuple(e for total in range(bound, -1, -1) for e in _exponents_of_degree(total, nvars))
    return basis, tuple(_pack(exps, width) for exps in basis)


def _pack(exps: tuple[int, ...], width: int) -> int:
    """Total degree in the top field of `width` bits, then the exponents from the last down."""
    key = sum(exps)
    for e in reversed(exps):
        key = (key << width) | e
    return key


def _exponents_of_degree(total: int, nvars: int) -> list[tuple[int, ...]]:
    """Exponent vectors summing to total, last exponent descending, then the one before."""
    if not nvars:
        return [] if total else [()]
    return [
        head + (last,)
        for last in range(total, -1, -1)
        for head in _exponents_of_degree(total - last, nvars - 1)
    ]


def image_membership(D: Derivation, target: MultiPoly, bound: int) -> Member | NotFoundUpTo:
    """Solve D(f) = target over all f of total degree <= bound, exactly.

    For the quadratic plane family y*dx + (a2*y^2 + a1*y + a0)*dy with
    a2 != 0 the answer comes from a descent in the y-degree (see
    `_descend`); every other derivation gets the bounded linear system of
    `_solve_system`.

    The particular preimage is canonical: columns of the system are
    ordered by decreasing graded-lex and free coordinates are set to
    zero.  kernel_dim is the dimension of {f : deg f <= bound, D(f) = 0},
    constants included, which the system gives as its number of columns
    minus its rank.  For the quadratic plane family with a2 != 0
    that kernel is the constants at every bound: D(f) = 0 forces
    deg_y f = 0 by the bound of `_descend`, and then f' * y = 0.  So
    kernel_dim is 1, the constant column is the system's only free one,
    and the descent's preimage, whose constant term is 0, is the one the
    system would give.  The preimage is checked by applying D to it
    before it is returned.  This routine never claims global
    non-membership.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    target = target.with_variables(D.variables)
    family = recognize_family(D)
    if isinstance(family, PlaneFamily) and family.quadratic and not family.a2.is_zero():
        preimage = _descend(family, target)
        if preimage is None or preimage.total_degree() > bound:
            return NotFoundUpTo(bound=bound)
        kernel_dim = 1
    else:
        solved = _solve_system(D, target, bound)
        if solved is None:
            return NotFoundUpTo(bound=bound)
        preimage, kernel_dim = solved
    if D.apply(preimage) != target:
        raise CheckFailed("the solved preimage does not map to the target")
    return Member(preimage=preimage, kernel_dim=kernel_dim, bound=bound)


def _descend(family: PlaneFamily, target: MultiPoly) -> MultiPoly | None:
    """The f with zero constant term and D(f) = target, a2 != 0, or None.

    target is over (x, y), whatever the second variable is named.  With
    t = sum t_k(x)*y^k and f = sum f_k(x)*y^k, the y^k coefficient of
    D(f) is f_(k-1)' + (k-1)*a2*f_(k-1) + k*a1*f_k + (k+1)*a0*f_(k+1).
    If f_B != 0 is the top coefficient of f and B >= 1, the y^(B+1)
    coefficient is f_B' + B*a2*f_B != 0, whose degree is deg a2 + deg f_B;
    so deg_y f <= max(deg_y t - 1, 0).  From the top down, the y^k
    equation for k >= 2 makes f_(k-1) the unique polynomial solution
    of c' + (k-1)*a2*c = rhs (none means no preimage), the y^1 equation
    gives f_0 up to its constant term, and the y^0 equation
    a0*f_1 = t_0 is left to check.
    """
    a2, a1, a0 = family.a2, family.a1, family.a0
    zero = MultiPoly.zero(X_ONLY)
    t = target.split(target.variables[1])
    top = max([*t, 1])
    f = {top: zero, top + 1: zero}
    for k in range(top, 1, -1):
        rhs = t.get(k, zero) - (a1 * f[k]).scale(k) - (a0 * f[k + 1]).scale(k + 1)
        solution = solve_first_order(a2, -rhs, k=1 - k)
        if solution.constraints:
            return None
        f[k - 1] = solution.c
    rhs = t.get(1, zero) - a1 * f[1] - (a0 * f[2]).scale(2)
    f[0] = MultiPoly(X_ONLY, [((e + 1,), c / (e + 1)) for (e,), c in rhs.terms.items()])
    if a0 * f[1] != t.get(0, zero):
        return None
    return MultiPoly.join(target.variables, target.variables[1], f)


def _solve_system(D: Derivation, target: MultiPoly, bound: int) -> tuple[MultiPoly, int] | None:
    """(preimage, kernel_dim) of the bounded linear system, or None if it is inconsistent.

    Column j of the system is D of the j-th basis monomial, by the
    product rule D(x^e) = sum_v e_v * x^(e - 1_v) * D(v).  The terms c*x^m
    of the images D(v) are grouped once by their shift m - 1_v, and
    column j writes e_v * c straight into the row of x^(e + m - 1_v).  A
    shift held by one variable gives a nonzero entry, and distinct
    shifts land in distinct rows; a shift held by several writes the sum
    of their e_v * c, and nothing when it cancels.  Rows are the target's
    monomials, then the other monomials a column reaches, each with its
    columns in increasing order.  Both sides are scaled by the lcm of
    the images' and the target's denominators, so every entry is an int
    and `solve_sparse` eliminates over the integers.

    A monomial is keyed by one packed int, built by `_pack` from the
    exponent tuples that `MultiPoly.numerators` gives: its total degree
    in the top field, then its exponents from the last variable down, so
    decreasing keys are decreasing graded-lex, as in `MultiPoly`.  The
    fields here are sized per system, not MultiPoly's fixed width, so the
    keys stay small ints.  Every field is as wide as the largest
    total degree of a column (bound + deg D - 1), the basis or the target
    needs, and x^(e - 1_v) is formed only when e_v >= 1, so no field
    overflows or underflows and shifting x^e by a term of D(v) is one int
    addition.

    D keeps the degree in x_v when every term of D(v) has x_v-exponent
    exactly 1 and no other image holds x_v (see `_kept`), so the system
    is block diagonal in the tuple of kept exponents.  Only the columns
    in the blocks of the target's monomials are solved against the
    target, numbered in basis order; the other columns form one
    homogeneous system, solved only for its rank, and only when the
    target's part is consistent.  This is exact: the whole system is
    consistent exactly when the target's part is, ranks add over blocks,
    and a column is independent of the columns before it exactly when it
    is within its block, so the particular solution that `solve_sparse`
    gives the whole system (every free column 0) is the one of the
    target's part, and 0 off it.  With no kept variable, as for the plane
    families, the target's part is the whole system.
    """
    nvars = len(D.variables)
    image_nums = [image.numerators for image in D.images]
    wanted = target.numerators
    degrees = [bound + sum(m) - 1 for nums in image_nums for m in nums]
    width = max([bound, *degrees, *map(sum, wanted)]).bit_length()
    basis, keys = _basis(nvars, bound, width)
    den = lcm(target.den, *(image.den for image in D.images))
    # the terms x^m of D(v) grouped by their packed shift m - 1_v, so x^e
    # contributes e_v * c * x^(e + m - 1_v) for each (v, c) of a shift
    by_shift: dict[int, list[tuple[int, int]]] = {}
    for v, (image, nums) in enumerate(zip(D.images, image_nums)):
        unit = (1 << width * nvars) + (1 << width * v)  # the key of x_v
        scale = den // image.den
        for m, c in nums.items():
            by_shift.setdefault(_pack(m, width) - unit, []).append((v, c * scale))
    single: dict[int, list[tuple[int, int]]] = {}
    shared = []
    for shift, terms in by_shift.items():
        if len(terms) == 1:
            ((v, c),) = terms
            single.setdefault(v, []).append((shift, c))
        else:
            shared.append((shift, terms))
    # the columns in the target's blocks and the others, each part as its
    # exponent vectors and their keys in basis order
    kept = _kept(image_nums)
    if kept:
        block = itemgetter(*kept)
        blocks = set(map(block, wanted))
        inside, outside = ([], []), ([], [])
        for exps, key, b in zip(basis, keys, map(block, basis)):
            part = inside if b in blocks else outside
            part[0].append(exps)
            part[1].append(key)
    else:
        inside, outside = (basis, keys), ((), ())
    rows = _assemble(*inside, single, shared, {_pack(m, width): {} for m in wanted})
    rhs = [c * (den // target.den) for c in wanted.values()]
    rhs += [0] * (len(rows) - len(rhs))
    solution = solve_sparse(rows, rhs, len(inside[0]))
    if solution is None:
        return None
    rank = solution.rank
    if outside[0]:
        rows = _assemble(*outside, single, shared, {})
        rank += solve_sparse(rows, [0] * len(rows), len(outside[0])).rank
    preimage = MultiPoly(
        D.variables, [(exps, c) for exps, c in zip(inside[0], solution.particular) if c]
    )
    return preimage, len(basis) - rank


def _assemble(
    basis: tuple | list,
    keys: tuple | list,
    single: dict[int, list[tuple[int, int]]],
    shared: list[tuple[int, list[tuple[int, int]]]],
    rows_by_key: dict[int, dict[int, int]],
) -> list[dict[int, int]]:
    """Write D(x^e) for e = basis[j] into column j of rows_by_key, and return its rows.

    rows_by_key maps a packed monomial key to its row.  single maps a
    variable to the shifts it alone holds, each with its scaled
    coefficient; shared lists the shifts that several variables hold,
    each with its (variable, coefficient) pairs (see `_solve_system`).
    """
    for j, exps in enumerate(basis):
        key = keys[j]
        for v, terms in single.items():
            e_v = exps[v]
            if e_v:
                for shift, c in terms:
                    rows_by_key.setdefault(key + shift, {})[j] = e_v * c
        for shift, terms in shared:
            coeff = 0
            for v, c in terms:
                coeff += exps[v] * c
            if coeff:
                rows_by_key.setdefault(key + shift, {})[j] = coeff
    return list(rows_by_key.values())


def _kept(images: list[dict[tuple[int, ...], int]]) -> tuple[int, ...]:
    """The indices v of the variables x_v whose degree D keeps.

    images holds the terms of each D(x_v) by exponent tuple.  Every term
    of D(v) has x_v-exponent exactly 1, and no other image holds x_v.
    Then every term of D(x^e) = sum_w e_w * x^(e - 1_w) * D(w) has
    x_v-exponent e_v.  This holds for y_i when k_i = 1 or gamma_i = 0 in
    the diagonal families, and for no variable of a plane family.
    """
    return tuple(
        v
        for v, image in enumerate(images)
        if all(m[v] == 1 for m in image)
        and not any(m[v] for w, other in enumerate(images) if w != v for m in other)
    )


def certified_nonmembership(D: Derivation, target: MultiPoly) -> CertifiedNonMember | None:
    """Match (family, hypotheses, target) against a proven non-membership.

    The patterns are those of `_certified`.  Im D is a Q-subspace, so
    each pattern also covers every nonzero multiple of its target.
    Every certificate is cross-checked by a solve at DEFAULT_SANITY_BOUND
    before being issued; None means no pattern applies (the target may
    well be a member).
    """
    family = recognize_family(D)
    target = target.with_variables(D.variables)
    cert = _match_pattern(family, target)
    if cert is None:
        return None
    check = image_membership(D, target, DEFAULT_SANITY_BOUND)
    if not isinstance(check, NotFoundUpTo):
        raise CheckFailed(
            "certified pattern contradicted by a bounded membership solve"
        )
    return cert


def _certified(family: Family) -> tuple[dict[int, tuple[str, str]], list[int]]:
    """The proven non-members of Im D, over the indices of D's variables.

    Returns ({v: (theorem, claim)}, rows): no nonzero multiple of x_v is
    in Im D, and for i in rows no nonzero multiple of x_i * x_j^m with
    j != i and m >= DEFAULT_M_MIN is.  The patterns:
      * P2.2, the plane family y*dx + (a1(x)y + a0)*dy with a0 in Q* and
        deg a1 >= 1: x;
      * T5.1, dx + sum gamma_i(x) y_i^k_i d_i: y_i for a coordinate with
        nonzero gamma_i and k_i > 1, or, when every such k_i = 1, with
        deg gamma_i >= 1 (zero-image coordinates act as constants and do
        not interfere);
      * T5.3, sum gamma_i y_i^k_i d_i (n >= 2, gamma_i != 0), for k_i > 1:
        the row i when every k >= 1, and y_i when some k_j = 0.
    """
    if isinstance(family, PlaneFamily):
        # the simple linear family; x comes first
        if family.linear and not family.a0.is_zero() and family.a1.total_degree() >= 1:
            return {0: (TAG_P22, "x-outside-image")}, []
        return {}, []
    if isinstance(family, FamilyDiagX):
        # x comes first, so y_i is variable i + 1
        pairs = enumerate(zip(family.gammas, family.ks), 1)
        nonzero = [(v, g, k) for v, (g, k) in pairs if not g.is_zero()]
        high = {v: (TAG_T51, "high-power-coordinate") for v, _, k in nonzero if k > 1}
        if high:
            return high, []
        pattern = (TAG_T51, "nonconstant-coefficient")
        return {v: pattern for v, g, _ in nonzero if g.total_degree() >= 1}, []
    if isinstance(family, FamilyDiag):
        high = [i for i, k in enumerate(family.ks) if k > 1]
        if 0 in family.ks:
            return dict.fromkeys(high, (TAG_T53, "high-power-coordinate")), []
        return {}, high
    return {}, []


def _match_pattern(family: Family, target: MultiPoly) -> CertifiedNonMember | None:
    # Im D is a Q-subspace, so each pattern covers every nonzero multiple of its monomial
    if len(target.nums) != 1:
        return None
    coords, rows = _certified(family)
    (exps,) = target.numerators
    support = [i for i, e in enumerate(exps) if e]
    if len(support) == 1 and exps[support[0]] == 1 and support[0] in coords:
        return CertifiedNonMember(*coords[support[0]], target)
    if len(support) == 2:
        i, j = support
        if exps[i] != 1:
            i, j = j, i
        if exps[i] == 1 and i in rows and exps[j] >= DEFAULT_M_MIN:
            return CertifiedNonMember(TAG_T53, "mixed-power-product", target, m_used=exps[j])
    return None


@dataclass(frozen=True)
class MzVerdict:
    theorem: str
    evidence: CertifiedNonMember | tuple

    @property
    def mz(self) -> bool:
        return not isinstance(self.evidence, CertifiedNonMember)


def decide_mz(D: Derivation) -> MzVerdict:
    """Mathieu-Zhao status of Im D for the supported families.

    Each rule reads: Im D is MZ exactly when D is locally finite (C2.3
    for the plane family with constant a0, T5.1 or C5.2 for dx +
    diagonal families, T5.3 for pure diagonal ones).  The one exception
    is the plane family with a2 = a0 = 0, whose image is the ideal (y)
    and so MZ.  A verdict is non-MZ exactly when its evidence is a
    certified non-member of the image.  Everything else (notably the
    quadratic plane family with a2 != 0) is refused rather than guessed.
    """
    family = recognize_family(D)
    if isinstance(family, PlaneFamily) and family.linear:
        if family.a0.is_zero():
            return MzVerdict(TAG_C23, ("image-is-ideal", D.variables[1]))
        theorem = TAG_C23
    elif isinstance(family, FamilyDiagX):
        theorem = TAG_T51 if all(not g.is_zero() for g in family.gammas) else TAG_C52
    elif isinstance(family, FamilyDiag):
        theorem = TAG_T53
    else:
        raise UnsupportedFamily(
            "no Mathieu-Zhao decision is available for this derivation shape"
        )
    if locally_finite_closed_form(family):
        return MzVerdict(theorem, ("locally-finite", True))
    target = _obstruction(D, family)
    evidence = None if target is None else certified_nonmembership(D, target)
    if evidence is None:
        raise CheckFailed("no proven pattern certifies the obstruction to local finiteness")
    return MzVerdict(theorem, evidence)


def _obstruction(D: Derivation, family: Family) -> MultiPoly | None:
    """The target outside Im D that a family which is not locally finite is certified by.

    The lowest variable that `_certified` certifies, else y_i * y_j^DEFAULT_M_MIN
    for its first row i and the first j != i; None when it certifies nothing.
    """
    coords, rows = _certified(family)
    names = D.variables
    if coords:
        return MultiPoly.var(names, names[min(coords)])
    if rows:
        i = rows[0]
        j = 1 if i == 0 else 0
        return MultiPoly.var(names, names[i]) * MultiPoly.var(names, names[j], DEFAULT_M_MIN)
    return None
