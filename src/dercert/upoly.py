"""Rational roots of a polynomial in one variable.

The polynomial is a MultiPoly in which at most one variable occurs; it
may live over a larger variable tuple, as the equations of the residual
solver do.  Roots are found exactly, over Q, by the rational-root
theorem.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .mpoly import MultiPoly, VariableMismatch, ZeroPolynomial


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


def rational_roots(p: MultiPoly) -> list[Fraction]:
    """All rational roots of p, each listed once, in increasing order.

    Uses the rational-root theorem on the integer numerators of p, which
    have its roots: every root in lowest terms is num/den with num
    dividing the constant and den the leading coefficient.  Each
    candidate is checked exactly in integers, as den^deg * p(num/den) = 0
    by Horner's rule, so the result is complete over Q.
    """
    if p.is_zero():
        raise ZeroPolynomial("rational_roots of the zero polynomial")
    if len(p.support()) > 1:
        raise VariableMismatch("rational_roots needs a polynomial in one variable")
    # with one variable occurring, a term's total degree is its exponent
    by_degree = {sum(exps): c for exps, c in p.numerators.items()}
    low = min(by_degree)
    degree = max(by_degree) - low
    roots = [Fraction(0)] if low > 0 else []
    if degree == 0:
        return roots
    # divide out x^low: dense integer coefficients, low to high
    dense = [0] * (degree + 1)
    for e, c in by_degree.items():
        dense[e - low] = c
    lead, const = dense[degree], dense[0]
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
