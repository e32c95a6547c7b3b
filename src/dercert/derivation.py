"""Derivations of polynomial rings and the structured families they form.

A derivation is stored by its images on the ring variables and applied
through the product rule, D(f) = sum_v D(v) * df/dv.  Recognition maps a
raw derivation to the most specific structured family:

  PlaneFamily y^alpha*dx + (a2*y^(beta+1) + a1*y^beta + a0)*dy, alpha <= beta
  FamilyDiagX dx + sum gamma_i(x) * y_i^(k_i) * d_i     (k_i >= 1)
  FamilyDiag  sum gamma_i * y_i^(k_i) * d_i             (n >= 2, gamma_i != 0)

A plane family is quadratic when alpha = beta = 1, the shape of the
simplicity theorem, and linear when it is quadratic with a2 = 0 and a
constant a0.  The coefficients a2, a1, a0 and gamma_i are MultiPoly
values over X_ONLY, their terms in ascending degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .mpoly import MultiPoly, VariableMismatch

# the variable tuple of the family coefficients a2(x), a1(x), a0(x), gamma_i(x)
X_ONLY = ("x",)


class UnsupportedFamily(ValueError):
    """The requested decision is not available for this family."""


@dataclass(frozen=True)
class Derivation:
    variables: tuple[str, ...]
    images: tuple[MultiPoly, ...]

    def __post_init__(self):
        if len(self.variables) != len(self.images):
            raise VariableMismatch("one image polynomial per variable required")
        for img in self.images:
            if img.variables != self.variables:
                raise VariableMismatch("images must share the ambient variables")

    def apply(self, f: MultiPoly) -> MultiPoly:
        """D(f) via the product rule; linear in f, zero on constants."""
        if f.variables != self.variables:
            raise VariableMismatch(
                f"polynomial over {f.variables}, derivation over {self.variables}"
            )
        out = MultiPoly.zero(self.variables)
        for name, img in zip(self.variables, self.images):
            out = out + img * f.partial(name)
        return out


# -- structured families ----------------------------------------------


@dataclass(frozen=True)
class PlaneFamily:
    """y^alpha on x, and a two-step power shape on y; alpha <= beta."""

    alpha: int
    beta: int
    a2: MultiPoly
    a1: MultiPoly
    a0: MultiPoly

    def __post_init__(self):
        if not (1 <= self.alpha <= self.beta):
            raise ValueError("alpha and beta must satisfy 1 <= alpha <= beta")

    @property
    def quadratic(self) -> bool:
        """alpha = beta = 1: y*dx + (a2*y^2 + a1*y + a0)*dy."""
        return self.alpha == self.beta == 1

    @property
    def linear(self) -> bool:
        """Quadratic with a2 = 0 and a constant a0: y*dx + (a1*y + a0)*dy."""
        return self.quadratic and self.a2.is_zero() and self.a0.is_constant()

    def to_derivation(self) -> Derivation:
        v = ("x", "y")
        y = MultiPoly.var(v, "y")
        img_x = y**self.alpha
        img_y = (
            self.a2.with_variables(v) * y ** (self.beta + 1)
            + self.a1.with_variables(v) * y**self.beta
            + self.a0.with_variables(v)
        )
        return Derivation(v, (img_x, img_y))


@dataclass(frozen=True)
class FamilyDiagX:
    gammas: tuple[MultiPoly, ...]
    ks: tuple[int, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.ks) or not self.gammas:
            raise ValueError("need one (gamma, k) pair per y variable")
        if any(k < 1 for k in self.ks):
            raise ValueError("exponents must be >= 1")

    def to_derivation(self) -> Derivation:
        n = len(self.gammas)
        v = ("x",) + tuple(f"y{i + 1}" for i in range(n))
        images = [MultiPoly.constant(v, 1)]
        for i, (g, k) in enumerate(zip(self.gammas, self.ks)):
            images.append(g.with_variables(v) * MultiPoly.var(v, v[i + 1], k))
        return Derivation(v, tuple(images))


@dataclass(frozen=True)
class FamilyDiag:
    gammas: tuple[Fraction, ...]
    ks: tuple[int, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.ks) or len(self.gammas) < 2:
            raise ValueError("need at least two (gamma, k) pairs")
        if any(g == 0 for g in self.gammas):
            raise ValueError("coefficients must be nonzero")
        if any(k < 0 for k in self.ks):
            raise ValueError("exponents must be nonnegative")

    def to_derivation(self) -> Derivation:
        n = len(self.gammas)
        v = tuple(f"y{i + 1}" for i in range(n))
        images = [
            MultiPoly.var(v, v[i], k).scale(g)
            for i, (g, k) in enumerate(zip(self.gammas, self.ks))
        ]
        return Derivation(v, tuple(images))


@dataclass(frozen=True)
class Generic:
    """No structured family matched."""


Family = PlaneFamily | FamilyDiagX | FamilyDiag | Generic


# -- recognition --------------------------------------------------------


def _single_var_power(p: MultiPoly, var: str) -> tuple[MultiPoly, int] | None:
    """Match p = gamma(x) * var^k with k >= 1 fixed; None otherwise."""
    if p.is_zero() or not p.uses_only(["x", var]):
        return None
    by_power = p.coeffs_in(var)
    if len(by_power) != 1:
        return None
    (k, coeff), = by_power.items()
    if k < 1:
        return None
    return coeff.restrict("x"), k


def _recognize_plane(D: Derivation) -> Family:
    x, y = D.variables
    img_x, img_y = D.images
    if not img_x.uses_only([y]):
        return Generic()
    # x-image must be a pure power of y
    powers = img_x.coeffs_in(y)
    if len(powers) != 1:
        return Generic()
    (alpha, lead), = powers.items()
    if alpha < 1 or not lead.is_constant() or lead.constant_value() != 1:
        return Generic()
    by_y = img_y.coeffs_in(y)
    for coeff in by_y.values():
        if not coeff.uses_only([x]):
            return Generic()
    a0 = by_y.get(0, MultiPoly.zero(D.variables)).restrict(x)
    support = sorted(e for e in by_y if e >= 1)
    zero = MultiPoly.zero(X_ONLY)

    def read(e2: int | None, e1: int | None, beta: int) -> PlaneFamily | None:
        if beta < alpha:
            return None
        a2 = by_y[e2].restrict(x) if e2 is not None else zero
        a1 = by_y[e1].restrict(x) if e1 is not None else zero
        return PlaneFamily(alpha=alpha, beta=beta, a2=a2, a1=a1, a0=a0)

    if not support:
        fam = read(None, None, alpha)
    elif len(support) == 1:
        m = support[0]
        fam = read(m, None, m - 1) or read(None, m, m)
    elif len(support) == 2 and support[1] == support[0] + 1:
        fam = read(support[1], support[0], support[0])
    else:
        fam = None
    return fam if fam is not None else Generic()


def _recognize_diag_x(D: Derivation) -> Family:
    if len(D.variables) < 2:
        return Generic()
    if not D.images[0].is_constant() or D.images[0].constant_value() != 1:
        return Generic()
    gammas, ks = [], []
    for name, img in zip(D.variables[1:], D.images[1:]):
        if img.is_zero():
            gammas.append(MultiPoly.zero(X_ONLY))
            ks.append(1)
            continue
        matched = _single_var_power(img, name)
        if matched is None:
            return Generic()
        gammas.append(matched[0])
        ks.append(matched[1])
    return FamilyDiagX(gammas=tuple(gammas), ks=tuple(ks))


def _recognize_diag(D: Derivation) -> Family:
    if len(D.variables) < 2:
        return Generic()
    gammas, ks = [], []
    for name, img in zip(D.variables, D.images):
        if img.is_zero():
            return Generic()
        by_power = img.coeffs_in(name)
        if len(by_power) != 1:
            return Generic()
        (k, coeff), = by_power.items()
        if not coeff.is_constant():
            return Generic()
        gammas.append(coeff.constant_value())
        ks.append(k)
    return FamilyDiag(gammas=tuple(gammas), ks=tuple(ks))


def recognize_family(D: Derivation) -> Family:
    """Most specific structured family matching D, else Generic.

    The family is kept on D, in its instance __dict__ as
    functools.cached_property keeps a value, so one request recognizes
    its derivation once however many deciders ask; families are frozen,
    so sharing one is safe.
    """
    family = D.__dict__.get("_family")
    if family is None:
        family = D.__dict__["_family"] = _recognize(D)
    return family


def _recognize(D: Derivation) -> Family:
    if D.variables and D.variables[0] == "x":
        fam = _recognize_diag_x(D)
        if not isinstance(fam, Generic):
            return fam
        if len(D.variables) == 2:
            return _recognize_plane(D)
        return Generic()
    return _recognize_diag(D)


# -- local finiteness ----------------------------------------------------


def locally_finite_closed_form(family: Family) -> bool:
    """Exact local-finiteness verdict for the families that admit one."""
    if isinstance(family, FamilyDiagX):
        return all(
            g.is_zero() or (k == 1 and g.is_constant())
            for g, k in zip(family.gammas, family.ks)
        )
    if isinstance(family, FamilyDiag):
        return all(k <= 1 for k in family.ks)
    if isinstance(family, PlaneFamily) and family.linear:
        return family.a1.total_degree() <= 0
    raise UnsupportedFamily(
        f"no closed-form local-finiteness test for {type(family).__name__}"
    )
