"""First-order polynomial equation solving with unknown parameters.

A ParamPoly is a polynomial in x whose coefficients are themselves
polynomials in a fixed tuple of parameter variables.  The solver handles
the two operator shapes

    c' - a*c = g        and        k*a*c - c' = g

for deg a >= 1, where both operators shift degrees by deg a and are
injective.  Top-down coefficient matching determines the unique
degree-compatible candidate c; the leftover low-order coefficient
equations come back as polynomial constraints on the parameters.
Specializing the parameters so every constraint vanishes makes the
equation hold identically.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .mpoly import MultiPoly, VariableMismatch
from .upoly import UniPoly

MODE_DERIV_MINUS_AC = "c'-a*c=g"
MODE_KAC_MINUS_DERIV = "k*a*c-c'=g"

RatLike = Union[Fraction, int]


class UnsupportedShape(ValueError):
    """The coefficient polynomial a must have degree at least 1."""


def _nonzero(coeffs: dict[int, MultiPoly]) -> dict[int, MultiPoly]:
    return {e: c for e, c in coeffs.items() if c.terms}


class ParamPoly:
    """Polynomial in x with MultiPoly coefficients over parameter variables."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: tuple[str, ...], coeffs: Mapping[int, MultiPoly] = ()):
        self.params = tuple(params)
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, MultiPoly] = {}
        for e, c in items:
            if c.variables != self.params:
                raise ValueError("coefficient over wrong parameter tuple")
            if e in acc:
                acc[e] = acc[e] + c
            else:
                acc[e] = c
        self.coeffs: dict[int, MultiPoly] = {e: c for e, c in acc.items() if not c.is_zero()}

    @staticmethod
    def _from_canonical(params: tuple[str, ...], coeffs: dict[int, MultiPoly]) -> "ParamPoly":
        """Wrap nonzero coefficients over `params` without copying or checking."""
        p = object.__new__(ParamPoly)
        p.params = params
        p.coeffs = coeffs
        return p

    @staticmethod
    def zero(params: tuple[str, ...]) -> "ParamPoly":
        return ParamPoly._from_canonical(tuple(params), {})

    @staticmethod
    def from_unipoly(params: tuple[str, ...], p: UniPoly) -> "ParamPoly":
        return ParamPoly(
            params, {e: MultiPoly.constant(params, c) for e, c in p.coeffs}
        )

    @staticmethod
    def unknown_block(params: tuple[str, ...], names: list[str]) -> "ParamPoly":
        """Polynomial u_names[0] + u_names[1]*x + ... with unknown coefficients."""
        return ParamPoly(
            params, {j: MultiPoly.var(params, name) for j, name in enumerate(names)}
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def formal_degree(self) -> int:
        """Largest exponent carrying a not-identically-zero coefficient."""
        return max(self.coeffs) if self.coeffs else -1

    def coeff(self, e: int) -> MultiPoly:
        return self.coeffs.get(e, MultiPoly.zero(self.params))

    def _check(self, other: "ParamPoly") -> None:
        if self.params != other.params:
            raise VariableMismatch(f"{self.params} vs {other.params}")

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return ParamPoly._from_canonical(self.params, _nonzero(out))

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._from_canonical(
            self.params, {e: -c for e, c in self.coeffs.items()}
        )

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        self._check(other)
        out: dict[int, MultiPoly] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        return ParamPoly._from_canonical(self.params, _nonzero(out))

    def mul_uni(self, p: UniPoly) -> "ParamPoly":
        out: dict[int, MultiPoly] = {}
        for e1, c1 in self.coeffs.items():
            for e2, a in p.coeffs:
                e = e1 + e2
                prod = c1.scale(a)
                out[e] = out[e] + prod if e in out else prod
        return ParamPoly._from_canonical(self.params, _nonzero(out))

    def scale(self, c: RatLike) -> "ParamPoly":
        if c == 0:
            return ParamPoly.zero(self.params)
        return ParamPoly._from_canonical(
            self.params, {e: v.scale(c) for e, v in self.coeffs.items()}
        )

    def derivative(self) -> "ParamPoly":
        return ParamPoly._from_canonical(
            self.params,
            {e - 1: c.scale(e) for e, c in self.coeffs.items() if e >= 1},
        )

    def specialize(self, assignment: Mapping[str, RatLike]) -> UniPoly:
        out = []
        for e, c in self.coeffs.items():
            out.append((e, c.evaluate(assignment)))
        return UniPoly(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ParamPoly)
            and self.params == other.params
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "ParamPoly(0)"
        parts = [f"({c!r})*x^{e}" for e, c in sorted(self.coeffs.items(), reverse=True)]
        return "ParamPoly(" + " + ".join(parts) + ")"


@dataclass
class FirstOrderSolution:
    c: ParamPoly
    constraints: list[MultiPoly] = field(default_factory=list)


@dataclass
class NoSolutionShape:
    reason: str


def _solve_kac_minus_deriv(
    k: Fraction, a: UniPoly, g: ParamPoly
) -> FirstOrderSolution | NoSolutionShape:
    """Solve k*a*c - c' = g by matching coefficients from the top down."""
    d = a.degree()
    lead = a.leading_coeff() * k
    params = g.params
    zero = MultiPoly.zero(params)
    if g.is_zero():
        return FirstOrderSolution(ParamPoly.zero(params), [])
    m = g.formal_degree() - d
    b: dict[int, MultiPoly] = {}
    if m >= 0:
        for j in range(m, -1, -1):
            acc = g.coeff(j + d)
            for q, aq in a.coeffs:
                p = j + d - q
                if p > j and p in b:
                    acc = acc - b[p].scale(aq * k)
            upper = b.get(j + d + 1)
            if upper is not None:
                acc = acc + upper.scale(j + d + 1)
            b[j] = acc.scale(Fraction(1) / lead)
    candidate = ParamPoly._from_canonical(params, _nonzero(b))
    # low-order coefficients of k*a*c - c' - g must vanish
    constraints: list[MultiPoly] = []
    for r in range(d):
        acc = -g.coeff(r)
        for q, aq in a.coeffs:
            p = r - q
            if p in b:
                acc = acc + b[p].scale(aq * k)
        nxt = b.get(r + 1)
        if nxt is not None:
            acc = acc - nxt.scale(r + 1)
        if not acc.is_zero():
            constraints.append(acc)
    for con in constraints:
        if con.is_constant() and con.constant_value() != 0:
            return NoSolutionShape(
                "a low-order coefficient equation is a nonzero constant"
            )
    return FirstOrderSolution(candidate, constraints)


def solve_first_order(
    a: UniPoly,
    g: ParamPoly,
    mode: str,
    k: RatLike = 1,
) -> FirstOrderSolution | NoSolutionShape:
    """Unique degree-compatible candidate for c, plus residual constraints.

    Requires deg a >= 1 so that c -> k*a*c - c' is injective and shifts
    degrees by deg a; constant a is handled by closed forms elsewhere.
    """
    if a.is_zero() or a.degree() < 1:
        raise UnsupportedShape("coefficient polynomial must have degree >= 1")
    k = Fraction(k)
    if k == 0:
        raise ValueError("k must be nonzero")
    if mode == MODE_KAC_MINUS_DERIV:
        return _solve_kac_minus_deriv(k, a, g)
    if mode == MODE_DERIV_MINUS_AC:
        # c' - a*c = g  is  1*a*c - c' = -g
        return _solve_kac_minus_deriv(Fraction(1), a, -g)
    raise ValueError(f"unknown mode {mode!r}")
