"""Sparse multivariate polynomials over the rationals.

Layout, that of FLINT's fmpq_poly (Hart 2010, ICMS): a fixed, ordered
tuple of variable names, a dict `nums` from exponent vectors to integer
numerators and one common denominator `den`; the coefficient of a
monomial e is nums[e] / den.  Invariants: den > 0, gcd(den, all
numerators) == 1, no zero numerator, and den == 1 for zero.  The form is
unique, so equality and hashing compare it directly; `terms` is the
rational view.  Graded lexicographic order ranks later variables of the
tuple higher, matching x < y and x < y1 < ... < yn.

Only the constructor ``MultiPoly(variables, terms)`` validates: it
checks exponent vectors, merges repeated monomials and clears the
denominators.  In the package it builds the polynomials whose terms
come as Fractions: the preimage read off the image solve
(`image._solve_system`), f_0 of the plane descent (`image._descend`)
and the unknown cofactor coefficients of the Darboux search
(`darboux._search_fixed_n`); the parser builds through arithmetic and
`_from_canonical`.  Internal results run on the integer numerators,
take the denominator into account once per operation and are stored
through `_build`, which divides out gcd(den, numerators), or
`_from_canonical` where no common factor can arise.

Term order is not part of a polynomial's value, and no result depends on
it.  Term dicts are never changed after construction, so a result may
share its operand's.  Polynomials in one variable live over a one-name
tuple: the family coefficients a2(x), a1(x), a0(x) and gamma_i(x) over
``("x",)``.  Zero has degree NEG_INF.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Union

RatLike = Union[Fraction, int]

# the degree of the zero polynomial; compares below every integer
NEG_INF = float("-inf")


class ZeroPolynomial(ValueError):
    """An operation that needs a nonzero polynomial received zero."""


class CheckFailed(AssertionError):
    """An exact self-check of a computed result failed.

    This signals a fault in dercert, never a property of the input, so
    it is not a ValueError; it is raised explicitly and therefore also
    runs under ``python -O``.
    """


class VariableMismatch(ValueError):
    """Operands live over different variable tuples."""


def grlex_key(exps: tuple[int, ...]) -> tuple:
    # total degree first, ties broken from the highest-ranked variable down
    return (sum(exps), tuple(reversed(exps)))


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def _add_into(out: dict, terms: Iterable) -> dict:
    """Add (monomial, coefficient) pairs into out, dropping monomials that cancel."""
    for e, c in terms:
        if e in out:
            total = out[e] + c
            if total:
                out[e] = total
            else:
                del out[e]
        else:
            out[e] = c
    return out


class MultiPoly:
    """Polynomial in several variables, exact rational coefficients."""

    __slots__ = ("variables", "nums", "den")

    def __init__(
        self,
        variables: tuple[str, ...],
        terms: Union[Mapping[tuple[int, ...], RatLike], Iterable[tuple[tuple[int, ...], RatLike]]] = (),
    ):
        self.variables = tuple(variables)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, c in items:
            exps = tuple(exps)
            if len(exps) != len(self.variables):
                raise VariableMismatch(f"exponent vector {exps} does not fit variables {self.variables}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = Fraction(c)
            acc[exps] = acc[exps] + c if exps in acc else c
        acc = _nonzero(acc)
        # the lcm of reduced denominators shares no factor with every numerator
        self.den = lcm(*(c.denominator for c in acc.values()))
        self.nums = {e: c.numerator * (self.den // c.denominator) for e, c in acc.items()}

    @staticmethod
    def _from_canonical(variables: tuple[str, ...], nums: dict, den: int = 1) -> "MultiPoly":
        """Wrap already-canonical data without copying or checking it: a tuple of
        names, exponent vectors of its length with no negative entry, and
        numerators and den that meet the invariants."""
        p = object.__new__(MultiPoly)
        p.variables = variables
        p.nums = nums
        p.den = den
        return p

    @staticmethod
    def _build(variables: tuple[str, ...], nums: dict, den: int) -> "MultiPoly":
        """`_from_canonical` after dividing out gcd(den, numerators); den > 0."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {e: c // g for e, c in nums.items()}
                den //= g
        return MultiPoly._from_canonical(variables, nums, den)

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """Monomial -> rational coefficient; a new dict per call."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.nums.items()}

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(variables: tuple[str, ...]) -> "MultiPoly":
        return MultiPoly._from_canonical(tuple(variables), {})

    @staticmethod
    def constant(variables: tuple[str, ...], c: RatLike) -> "MultiPoly":
        c = Fraction(c)
        nums = {(0,) * len(variables): c.numerator} if c else {}
        return MultiPoly._from_canonical(tuple(variables), nums, c.denominator)

    @staticmethod
    def var(variables: tuple[str, ...], name: str, power: int = 1) -> "MultiPoly":
        if power < 0:
            raise ValueError(f"negative exponent {power}")
        idx = variables.index(name)
        exps = tuple(power if i == idx else 0 for i in range(len(variables)))
        return MultiPoly._from_canonical(tuple(variables), {exps: 1})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        # canonical form: a constant has no term, or only the all-zero monomial
        nums = self.nums
        return not nums or (len(nums) == 1 and not any(next(iter(nums))))

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.nums.values()), 0), self.den)

    def total_degree(self):
        if not self.nums:
            return NEG_INF
        return max(sum(exps) for exps in self.nums)

    def degree_in(self, name: str):
        if not self.nums:
            return NEG_INF
        idx = self.variables.index(name)
        return max(exps[idx] for exps in self.nums)

    def support(self) -> set[str]:
        """Names of the variables that occur in some term."""
        return {name for name, column in zip(self.variables, zip(*self.nums)) if any(column)}

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise VariableMismatch(f"{self.variables} vs {other.variables}")

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """self + sign * other over the lcm of the two denominators."""
        self._check(other)
        den = lcm(self.den, other.den)
        mine, theirs = den // self.den, sign * (den // other.den)
        out = dict(self.nums) if mine == 1 else {e: c * mine for e, c in self.nums.items()}
        _add_into(out, ((e, c * theirs) for e, c in other.nums.items()))
        return MultiPoly._build(self.variables, out, den)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "MultiPoly":
        nums = {e: -c for e, c in self.nums.items()}
        return MultiPoly._from_canonical(self.variables, nums, self.den)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.nums.items():
            for e2, c2 in other.nums.items():
                e = tuple(map(add, e1, e2))
                if e in out:
                    out[e] += c1 * c2
                else:
                    out[e] = c1 * c2
        return MultiPoly._build(self.variables, _nonzero(out), self.den * other.den)

    def scale(self, c: RatLike) -> "MultiPoly":
        if c == 0:
            return MultiPoly.zero(self.variables)
        # an int has numerator itself and denominator 1
        num, den = c.numerator, c.denominator
        nums = self.nums if num == 1 else {e: k * num for e, k in self.nums.items()}
        return MultiPoly._build(self.variables, nums, self.den * den)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return MultiPoly.constant(self.variables, 1)
        # square-and-multiply from the low bit, starting from the first factor
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def partial(self, name: str) -> "MultiPoly":
        """Formal partial derivative with respect to one variable."""
        idx = self.variables.index(name)
        nums = {}
        for exps, c in self.nums.items():
            power = exps[idx]
            if power:
                nums[exps[:idx] + (power - 1,) + exps[idx + 1 :]] = c * power
        return MultiPoly._build(self.variables, nums, self.den)

    # -- substitution and reshaping ---------------------------------------

    def substitute(self, values: Mapping[str, RatLike]) -> "MultiPoly":
        """Specialize variables to rationals in one pass; the names stay in the tuple.

        With value = a/b and top the highest power of its variable, the
        term c * name^k gets the factor a^k * b^(top - k), computed once
        per power, and the result lies over den times every such b^top.
        Returns self when none of the names occurs.
        """
        subs = []
        den = self.den
        for name, value in values.items():
            idx = self.variables.index(name)
            top = max((exps[idx] for exps in self.nums), default=0)
            if top:
                subs.append((idx, value.numerator, value.denominator, top, {}))
                den *= value.denominator**top
        if not subs:
            return self
        out: dict[tuple[int, ...], int] = {}
        for exps, c in self.nums.items():
            for idx, a, b, top, factors in subs:
                power = exps[idx]
                if power not in factors:
                    factors[power] = a**power * b ** (top - power)
                c *= factors[power]
                if power:
                    exps = exps[:idx] + (0,) + exps[idx + 1 :]
            out[exps] = out.get(exps, 0) + c
        return MultiPoly._build(self.variables, _nonzero(out), den)

    def substitute_poly(self, name: str, replacement: "MultiPoly") -> "MultiPoly":
        """Replace a variable by a polynomial over the same variable tuple.

        Sums c * rest * replacement^k over the terms c * rest * name^k in
        order, each power computed once, dropping a monomial as soon as
        its coefficient cancels.  The sum is taken over the lcm of the
        powers' denominators.
        """
        self._check(replacement)
        idx = self.variables.index(name)
        powers = {k: replacement**k for k in dict.fromkeys(exps[idx] for exps in self.nums)}
        den = lcm(*(power.den for power in powers.values()))
        out: dict[tuple[int, ...], int] = {}
        for exps, c in self.nums.items():
            power = powers[exps[idx]]
            c = c * (den // power.den)
            rest = exps[:idx] + (0,) + exps[idx + 1 :]
            _add_into(out, [(tuple(map(add, rest, e)), c * k) for e, k in power.nums.items()])
        return MultiPoly._build(self.variables, out, self.den * den)

    def with_variables(self, variables: tuple[str, ...]) -> "MultiPoly":
        """Embed into a larger (or reordered) variable tuple by name."""
        variables = tuple(variables)
        mapping = [variables.index(name) if name in variables else None for name in self.variables]
        if None in mapping:
            used = self.support()
            for name, index in zip(self.variables, mapping):
                if index is None and name in used:
                    raise VariableMismatch(f"variable {name} absent from {variables}")
        nums = {}
        for exps, c in self.nums.items():
            new = [0] * len(variables)
            for i, e in enumerate(exps):
                if e:
                    new[mapping[i]] = e
            nums[tuple(new)] = c
        return MultiPoly._from_canonical(variables, nums, self.den)

    def split(self, name: str) -> dict[int, "MultiPoly"]:
        """Coefficient of each power of `name` that occurs, over the other variables."""
        idx = self.variables.index(name)
        rest = self.variables[:idx] + self.variables[idx + 1 :]
        buckets: dict[int, dict] = {}
        for exps, c in self.nums.items():
            buckets.setdefault(exps[idx], {})[exps[:idx] + exps[idx + 1 :]] = c
        return {power: MultiPoly._build(rest, nums, self.den) for power, nums in buckets.items()}

    def evaluate(self, point: Mapping[str, RatLike]) -> Fraction:
        total = 0
        for exps, c in self.nums.items():
            for i, e in enumerate(exps):
                if e:
                    c = c * point[self.variables[i]] ** e
            total += c
        return Fraction(total) / self.den

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.nums:
            raise ZeroPolynomial("zero polynomial has no leading term")
        exps = max(self.nums, key=grlex_key)
        return exps, Fraction(self.nums[exps], self.den)

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiPoly) and (self.variables, self.den, self.nums) == (
            other.variables, other.den, other.nums
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.den, frozenset(self.nums.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"MultiPoly({self.variables}, 0)"
        parts = []
        for exps in sorted(self.nums, key=grlex_key, reverse=True):
            mono = "*".join(f"{v}^{e}" for v, e in zip(self.variables, exps) if e)
            parts.append(f"{Fraction(self.nums[exps], self.den)}" + (f"*{mono}" if mono else ""))
        return f"MultiPoly({self.variables}, " + " + ".join(parts) + ")"


def divide_exact(h: MultiPoly, g: MultiPoly) -> MultiPoly | None:
    """Exact quotient h / g, or None when g does not divide h.

    Leading-term elimination in graded-lex order; each step strictly
    lowers the leading monomial, so the loop terminates and the quotient
    is unique whenever it exists.
    """
    h._check(g)
    if g.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    g_exps, g_coeff = g.leading_term()
    quotient = MultiPoly.zero(h.variables)
    rem = h
    while not rem.is_zero():
        r_exps, r_coeff = rem.leading_term()
        diff = tuple(a - b for a, b in zip(r_exps, g_exps))
        if any(d < 0 for d in diff):
            return None
        q = r_coeff / g_coeff
        t = MultiPoly._from_canonical(h.variables, {diff: q.numerator}, q.denominator)
        quotient = quotient + t
        rem = rem - t * g
    return quotient
