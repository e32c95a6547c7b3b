"""Image membership up to a degree bound, and Mathieu-Zhao decisions.

D is linear, so "is target = D(f) solvable with deg f <= bound" is a
finite exact linear system over the monomial basis.  A Member result is
always sound (the preimage is returned and re-checkable); a bounded
failure is only NotFoundUpTo.  Global non-membership is asserted solely
through the proven family patterns in `certified_nonmembership`, each
tagged with the rule it instantiates and cross-checked at issue time by
a bounded solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .derivation import (
    Derivation,
    Family,
    FamilyDiag,
    FamilyDiagX,
    PlaneFamily,
    UnsupportedFamily,
    locally_finite_closed_form,
    recognize_family,
)
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


ImageResult = Member | NotFoundUpTo | CertifiedNonMember


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
    if nvars == 1:
        return [(total,)]
    return [
        head + (last,)
        for last in range(total, -1, -1)
        for head in _exponents_of_degree(total - last, nvars - 1)
    ]


def image_membership(D: Derivation, target: MultiPoly, bound: int) -> Member | NotFoundUpTo:
    """Solve D(f) = target over all f of total degree <= bound, exactly.

    Column j of the system is D of the j-th basis monomial, built by the
    product rule D(x^e) = sum_v e_v * x^(e - 1_v) * D(v) from the terms
    of the images D(v).  Rows are the monomials that occur in a column
    or in the target, in no particular order.  Both sides are scaled by
    the lcm of the images' and the target's denominators, so every entry
    is an int and `solve_sparse` eliminates over the integers.

    A monomial is keyed by one packed int: its total degree in the top
    field, then its exponents from the last variable down, so decreasing
    keys are decreasing graded-lex.  Every field is as wide as the largest
    total degree of a column (bound + deg D - 1), the basis or the target
    needs, and x^(e - 1_v) is formed only when e_v >= 1, so no field
    overflows or underflows and shifting x^e by a term of D(v) is one int
    addition.

    The particular preimage is canonical: columns are ordered by
    decreasing graded-lex and free coordinates are set to zero.
    kernel_dim is the dimension of {f : deg f <= bound, D(f) = 0},
    constants included.  The preimage is checked by applying D to it
    before it is returned.  This routine never claims global
    non-membership.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    target = target.with_variables(D.variables)
    nvars = len(D.variables)
    degrees = [bound + sum(m) - 1 for image in D.images for m in image.nums]
    width = max([bound, *degrees, *map(sum, target.nums)]).bit_length()
    basis, keys = _basis(nvars, bound, width)
    den = lcm(target.den, *(image.den for image in D.images))
    # the terms x^m of D(v) as packed shifts by m - 1_v, so x^e contributes
    # e_v * c * x^(e + m - 1_v)
    shifted = []
    for v, image in enumerate(D.images):
        unit = (1 << width * nvars) + (1 << width * v)  # the key of x_v
        scale = den // image.den
        shifted.append((v, [(_pack(m, width) - unit, c * scale) for m, c in image.nums.items()]))
    rows_by_key: dict[int, dict[int, int]] = {}
    for j, exps in enumerate(basis):
        key = keys[j]
        column: dict[int, int] = {}
        for v, terms in shifted:
            e_v = exps[v]
            if e_v:
                for shift, c in terms:
                    mono = key + shift
                    column[mono] = column.get(mono, 0) + e_v * c
        for mono, coeff in column.items():
            if coeff:
                rows_by_key.setdefault(mono, {})[j] = coeff
    rhs_by_key = {_pack(m, width): c * (den // target.den) for m, c in target.nums.items()}
    for key in rhs_by_key:
        rows_by_key.setdefault(key, {})
    rhs = [rhs_by_key.get(key, 0) for key in rows_by_key]
    solution = solve_sparse(list(rows_by_key.values()), rhs, len(basis))
    if solution is None:
        return NotFoundUpTo(bound=bound)
    preimage = MultiPoly(
        D.variables, [(basis[j], c) for j, c in enumerate(solution.particular) if c]
    )
    kernel_dim = len(basis) - solution.rank
    if D.apply(preimage) != target:
        raise CheckFailed("the solved preimage does not map to the target")
    return Member(preimage=preimage, kernel_dim=kernel_dim, bound=bound)


def _y_var(D: Derivation, index: int) -> MultiPoly:
    # index counts the y-variables; DiagX derivations carry x in front
    offset = 1 if D.variables[0] == "x" else 0
    return MultiPoly.var(D.variables, D.variables[offset + index])


def certified_nonmembership(
    D: Derivation, target: MultiPoly, sanity_bound: int = DEFAULT_SANITY_BOUND
) -> CertifiedNonMember | None:
    """Match (family, hypotheses, target) against a proven non-membership.

    Patterns covered:
      * the plane family y*dx + (a1(x)y + a0)*dy with a0 in Q* and
        deg a1 >= 1: target x is never in the image;
      * dx + sum gamma_i(x) y_i^k_i d_i: target y_i for a coordinate
        with nonzero gamma_i and k_i > 1, or with every such k_i = 1 and
        deg gamma_i >= 1 (zero-image coordinates act as constants and do
        not interfere);
      * sum gamma_i y_i^k_i d_i (n >= 2, gamma_i != 0): target
        y_i * y_j^m for k_i > 1, all k >= 1, j != i, m >= DEFAULT_M_MIN; and
        target y_i for k_i > 1 when some k_j = 0.

    Every certificate is cross-checked by a bounded solve before being
    issued; None means no pattern applies (the target may well be a
    member).
    """
    family = recognize_family(D)
    target = target.with_variables(D.variables)
    cert = _match_pattern(D, family, target)
    if cert is None:
        return None
    check = image_membership(D, target, sanity_bound)
    if not isinstance(check, NotFoundUpTo):
        raise CheckFailed(
            "certified pattern contradicted by a bounded membership solve"
        )
    return cert


def _simple_linear(family: Family) -> bool:
    """Whether family is the simple linear plane family: a0 != 0 and deg a1 >= 1."""
    return (
        isinstance(family, PlaneFamily)
        and family.linear
        and not family.a0.is_zero()
        and family.a1.total_degree() >= 1
    )


def _match_pattern(D: Derivation, family: Family, target: MultiPoly) -> CertifiedNonMember | None:
    if _simple_linear(family) and target == MultiPoly.var(D.variables, "x"):
        return CertifiedNonMember(TAG_P22, "x-outside-image", target)
    if isinstance(family, FamilyDiagX):
        nonzero = [i for i, g in enumerate(family.gammas) if not g.is_zero()]
        for i in nonzero:
            if family.ks[i] > 1 and target == _y_var(D, i):
                return CertifiedNonMember(TAG_T51, "high-power-coordinate", target)
        if all(family.ks[i] == 1 for i in nonzero):
            for i in nonzero:
                if family.gammas[i].total_degree() >= 1 and target == _y_var(D, i):
                    return CertifiedNonMember(
                        TAG_T51, "nonconstant-coefficient", target
                    )
        return None
    if isinstance(family, FamilyDiag):
        shape = _monomial_shape(target)
        if shape is None:
            return None
        exps = shape
        ks = family.ks
        support = [i for i, e in enumerate(exps) if e]
        if all(k >= 1 for k in ks) and len(support) == 2:
            i, j = support
            if exps[i] != 1:
                i, j = j, i
            if exps[i] == 1 and ks[i] > 1 and exps[j] >= DEFAULT_M_MIN:
                return CertifiedNonMember(
                    TAG_T53, "mixed-power-product", target, m_used=exps[j]
                )
        if any(k == 0 for k in ks) and len(support) == 1:
            (i,) = support
            if exps[i] == 1 and ks[i] > 1:
                return CertifiedNonMember(TAG_T53, "high-power-coordinate", target)
        return None
    return None


def _monomial_shape(target: MultiPoly) -> tuple[int, ...] | None:
    """Exponent vector when the target is a single scaled monomial."""
    if len(target.nums) != 1:
        return None
    (exps,) = target.nums
    return exps


@dataclass(frozen=True)
class MzVerdict:
    mz: bool
    theorem: str
    evidence: object | None = None


def decide_mz(D: Derivation) -> MzVerdict:
    """Mathieu-Zhao status of Im D for the supported families.

    Plane family with constant a0: the image is MZ exactly when the
    derivation is not simple.  dx + diagonal families: MZ exactly when
    locally finite.  Pure diagonal families: MZ exactly when every
    exponent is at most 1.  Everything else (notably the quadratic plane
    family with a2 != 0) is refused rather than guessed.
    """
    family = recognize_family(D)
    if _simple_linear(family):
        evidence = certified_nonmembership(D, MultiPoly.var(D.variables, "x"))
        return MzVerdict(mz=False, theorem=TAG_C23, evidence=evidence)
    if isinstance(family, PlaneFamily) and family.linear:
        if not family.a0.is_zero():
            return MzVerdict(
                mz=True, theorem=TAG_C23, evidence=("locally-finite", True)
            )
        return MzVerdict(mz=True, theorem=TAG_C23, evidence=("image-is-ideal", "y"))
    if isinstance(family, FamilyDiagX):
        loc_fin = locally_finite_closed_form(family)
        all_nonzero = all(not g.is_zero() for g in family.gammas)
        tag = TAG_T51 if all_nonzero else TAG_C52
        if loc_fin:
            return MzVerdict(mz=True, theorem=tag, evidence=("locally-finite", True))
        target = _first_obstruction_diag_x(D, family)
        evidence = certified_nonmembership(D, target)
        return MzVerdict(mz=False, theorem=tag, evidence=evidence)
    if isinstance(family, FamilyDiag):
        if all(k <= 1 for k in family.ks):
            return MzVerdict(
                mz=True, theorem=TAG_T53, evidence=("locally-finite", True)
            )
        target = _first_obstruction_diag(D, family)
        evidence = certified_nonmembership(D, target)
        return MzVerdict(mz=False, theorem=TAG_T53, evidence=evidence)
    raise UnsupportedFamily(
        "no Mathieu-Zhao decision is available for this derivation shape"
    )


def _first_obstruction_diag_x(D: Derivation, family: FamilyDiagX) -> MultiPoly:
    nonzero = [i for i, g in enumerate(family.gammas) if not g.is_zero()]
    for i in nonzero:
        if family.ks[i] > 1:
            return _y_var(D, i)
    for i in nonzero:
        if family.gammas[i].total_degree() >= 1:
            return _y_var(D, i)
    raise CheckFailed("called without an obstruction")


def _first_obstruction_diag(D: Derivation, family: FamilyDiag) -> MultiPoly:
    ks = family.ks
    high = next(i for i, k in enumerate(ks) if k > 1)
    if all(k >= 1 for k in ks):
        other = next(j for j in range(len(ks)) if j != high)
        return _y_var(D, high) * _y_var(D, other) ** DEFAULT_M_MIN
    return _y_var(D, high)

