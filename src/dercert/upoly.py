"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are kept in canonical sparse form: a tuple of
(exponent, coefficient) pairs with strictly increasing exponents and no
zero coefficients.  Coefficients are `fractions.Fraction` values, so all
arithmetic is exact.  The degree of the zero polynomial is the sentinel
`NEG_INF`, which compares below every integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

NEG_INF = float("-inf")

RatLike = Union[Fraction, int]


class ZeroPolynomial(ValueError):
    """An operation that needs a nonzero polynomial received zero."""


class CheckFailed(AssertionError):
    """An exact self-check of a computed result failed.

    This signals a fault in dercert, never a property of the input, so
    it is not a ValueError; it is raised explicitly and therefore also
    runs under ``python -O``.
    """


def _frac(value: RatLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class UniPoly:
    """Sparse polynomial in one variable with rational coefficients.

    Instances are immutable by convention; every operation returns a new
    value, so they are safe to share across threads.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[tuple[int, RatLike]] = ()):
        acc: dict[int, Fraction] = {}
        for exp, c in coeffs:
            if exp < 0:
                raise ValueError(f"negative exponent {exp}")
            c = _frac(c)
            if exp in acc:
                acc[exp] += c
            else:
                acc[exp] = c
        self.coeffs: tuple[tuple[int, Fraction], ...] = tuple(
            sorted((e, c) for e, c in acc.items() if c != 0)
        )

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly([(0, 1)])

    @staticmethod
    def x(power: int = 1) -> "UniPoly":
        return UniPoly([(power, 1)])

    @staticmethod
    def constant(c: RatLike) -> "UniPoly":
        return UniPoly([(0, _frac(c))])

    @staticmethod
    def from_list(low_to_high: Iterable[RatLike]) -> "UniPoly":
        """Build from a dense list [c0, c1, ...] of coefficients."""
        return UniPoly(list(enumerate(low_to_high)))

    # -- predicates and accessors -------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(e == 0 for e, _ in self.coeffs)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeffs[0][1] if self.coeffs else Fraction(0)

    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return self.coeffs[-1][0] if self.coeffs else NEG_INF

    def leading_coeff(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1][1]

    def coeff(self, exp: int) -> Fraction:
        for e, c in self.coeffs:
            if e == exp:
                return c
        return Fraction(0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(list(self.coeffs) + list(other.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(list(self.coeffs) + [(e, -c) for e, c in other.coeffs])

    def __neg__(self) -> "UniPoly":
        return UniPoly([(e, -c) for e, c in self.coeffs])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return UniPoly(out.items())

    def scale(self, c: RatLike) -> "UniPoly":
        c = _frac(c)
        if c == 0:
            return UniPoly()
        return UniPoly([(e, k * c) for e, k in self.coeffs])

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus ------------------------------------------------------

    def derivative(self) -> "UniPoly":
        return UniPoly([(e - 1, c * e) for e, c in self.coeffs if e >= 1])

    def antiderivative(self) -> "UniPoly":
        """Antiderivative with zero constant term."""
        return UniPoly([(e + 1, c / (e + 1)) for e, c in self.coeffs])

    # -- evaluation and division ---------------------------------------

    def __call__(self, point: RatLike) -> Fraction:
        point = _frac(point)
        total = Fraction(0)
        for e, c in self.coeffs:
            total += c * point**e
        return total

    def divmod_by(self, divisor: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if divisor.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        quot: dict[int, Fraction] = {}
        rem = self
        d = divisor.degree()
        lead = divisor.leading_coeff()
        while not rem.is_zero() and rem.degree() >= d:
            shift = rem.degree() - d
            factor = rem.leading_coeff() / lead
            quot[shift] = quot.get(shift, Fraction(0)) + factor
            rem = rem - divisor * UniPoly([(shift, factor)])
        return UniPoly(quot.items()), rem

    def divides(self, other: "UniPoly") -> bool:
        """True when self divides other exactly (self nonzero)."""
        _, rem = other.divmod_by(self)
        return rem.is_zero()

    # -- dunder plumbing -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "UniPoly(0)"
        parts = [f"{c}*x^{e}" for e, c in reversed(self.coeffs)]
        return "UniPoly(" + " + ".join(parts) + ")"


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p: UniPoly) -> list[Fraction]:
    """All rational roots of p, each listed once, in increasing order.

    Uses the rational-root theorem on the integer form of p (denominators
    cleared): every root in lowest terms is num/den with num dividing the
    constant and den the leading coefficient.  Each candidate is checked
    exactly in integers, as den^deg * p(num/den) = 0 by Horner's rule, so
    the result is complete over Q.
    """
    if p.is_zero():
        raise ZeroPolynomial("rational_roots of the zero polynomial")
    roots: list[Fraction] = []
    min_exp = p.coeffs[0][0]
    if min_exp > 0:
        roots.append(Fraction(0))
        p = UniPoly([(e - min_exp, c) for e, c in p.coeffs])
    if p.is_constant():
        return roots
    denom_lcm = lcm(*(c.denominator for _, c in p.coeffs))
    degree = p.degree()
    dense = [0] * (degree + 1)
    for e, c in p.coeffs:
        dense[e] = c.numerator * (denom_lcm // c.denominator)
    lead, const = dense[degree], dense[0]
    if const == 0:
        raise CheckFailed("zero constant term after factoring out the x-power")
    for num in _divisors(const):
        for den in _divisors(lead):
            if gcd(num, den) != 1:
                continue  # its reduced form is a candidate of its own
            for n in (num, -num):
                if _integer_horner(dense, n, den) == 0:
                    roots.append(Fraction(n, den))
    return sorted(roots)


def _integer_horner(dense: list[int], num: int, den: int) -> int:
    """den^deg * p(num/den) for p with dense integer coefficients, low to high."""
    acc = dense[-1]
    den_power = 1
    for c in reversed(dense[:-1]):
        den_power *= den
        acc = acc * num + c * den_power
    return acc
