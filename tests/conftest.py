"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import hypothesis.strategies as st

from dercert import Derivation, MultiPoly

X_ONLY = ("x",)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
nonzero_rationals = rationals.filter(lambda q: q != 0)


def unipolys(max_degree: int = 6, max_terms: int = 5):
    """Polynomials over ("x",), terms in ascending degree."""
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=max_degree), rationals),
        max_size=max_terms,
    ).map(lambda terms: MultiPoly(X_ONLY, [((e,), c) for e, c in terms]).restrict("x"))


def multipolys(variables=("x", "y"), max_degree: int = 4, max_terms: int = 5):
    nvars = len(variables)
    exponents = st.tuples(
        *[st.integers(min_value=0, max_value=max_degree) for _ in range(nvars)]
    ).filter(lambda e: sum(e) <= max_degree)
    return st.lists(st.tuples(exponents, rationals), max_size=max_terms).map(
        lambda terms: MultiPoly(tuple(variables), terms)
    )


def nonzero_multipolys(variables=("x", "y"), max_degree: int = 4, max_terms: int = 5):
    return multipolys(variables, max_degree, max_terms).filter(
        lambda p: not p.is_zero()
    )


def scaled_to_ints(rows, rhs):
    """Dense rows and rhs, each row scaled by the lcm of its denominators.

    The scaled system has the same solutions and rank, and holds only ints.
    """
    int_rows, int_rhs = [], []
    for row, b in zip(rows, rhs):
        scale = lcm(Fraction(b).denominator, *(Fraction(v).denominator for v in row))
        int_rows.append([int(v * scale) for v in row])
        int_rhs.append(int(b * scale))
    return int_rows, int_rhs


def assert_layout(p: MultiPoly) -> None:
    """Integer numerators over one positive denominator, in lowest terms; den 1 for zero."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c != 0 for c in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    assert p.nums or p.den == 1


def uni(src_coeffs) -> MultiPoly:
    """Polynomial over ("x",) from a dense low-to-high coefficient list."""
    return MultiPoly(X_ONLY, [((e,), Fraction(c)) for e, c in enumerate(src_coeffs)])


@dataclass(frozen=True)
class ProbeResult:
    bounded: bool
    iterations: int
    variable: str | None = None
    exceeded_at: int | None = None


def locally_finite_probe(D: Derivation, cutoff_deg: int, max_iter: int) -> ProbeResult:
    """Iterate D on each generator and watch for degree blow-up.

    Heuristic only: a bounded answer is NOT a proof of local finiteness,
    it just reports that no iterate exceeded cutoff_deg within max_iter
    steps.  An exceeded answer names the first generator and iteration
    where the total degree passed the cutoff.
    """
    current = {
        name: MultiPoly.var(D.variables, name) for name in D.variables
    }
    for j in range(1, max_iter + 1):
        for name in D.variables:
            current[name] = D.apply(current[name])
            if current[name].total_degree() > cutoff_deg:
                return ProbeResult(
                    bounded=False, iterations=j, variable=name, exceeded_at=j
                )
    return ProbeResult(bounded=True, iterations=max_iter)
