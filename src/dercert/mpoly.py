"""Sparse multivariate polynomials over the rationals.

Layout, that of FLINT's fmpq_poly (Hart 2010, ICMS): a fixed, ordered
tuple of variable names, a dict `nums` from packed monomial keys to
integer numerators and one common denominator `den`; the coefficient
of a monomial is nums[key] / den.  Invariants: den > 0, gcd(den, all
numerators) == 1, no zero numerator, and den == 1 for zero.  The form is
unique, so equality and hashing compare it directly.

A monomial key is one int (the packed exponent words of Monagan and
Pearce 2011, J. Symb. Comput. 46).  With n variables, field i, bits
FIELD_BITS*i to FIELD_BITS*i + FIELD_BITS - 1, holds the exponent of
variables[i], and the top field, at FIELD_BITS*n, holds the total
degree.  Int order on keys is graded lexicographic order, ranking later
variables of the tuple higher (x < y and x < y1 < ... < yn), so the
leading monomial is max(nums); the product of two monomials is the sum
of their keys.  No total degree exceeds MAX_DEGREE = 2^(FIELD_BITS-1)
- 1: a result beyond it raises DegreeOverflow.  So the sum of two keys
never carries from one field into the next, and the top bit of every
field is free, which `divide_exact` uses as a guard bit.  Only this
module reads the layout; other modules read exponent tuples through
`terms` (rational coefficients) or `numerators` (the integer numerators),
or ask a method.

Only the constructor ``MultiPoly(variables, terms)`` validates: it
checks exponent vectors, merges repeated monomials and clears the
denominators.  In the package it builds the polynomials whose terms
come as Fractions: the preimage read off the image solve
(`image._solve_system`) and f_0 of the plane descent (`image._descend`);
the parser builds through arithmetic and `constant`, and the Darboux
search through `var` and `join`.  Internal results run on the integer numerators, take the
denominator into account once per operation and are stored through
`_build`, which divides out gcd(den, numerators), or `_from_canonical`
where no common factor can arise.

Term order is not part of a polynomial's value, and no result depends on
it.  Operations keep the order in which they first reach each monomial,
except that a substitution of zeros keeps the terms free of those names
in their order.  Term dicts are never changed after construction, so a
result may share its operand's.  Polynomials in one variable live over a
one-name tuple: the family coefficients a2(x), a1(x), a0(x) and
gamma_i(x) over ``("x",)``.  Zero has degree NEG_INF.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter, or_
from typing import Callable, Iterable, Union

RatLike = Union[Fraction, int]

# the degree of the zero polynomial; compares below every integer
NEG_INF = float("-inf")

FIELD_BITS = 32  # the "I" words of `_words`
MAX_DEGREE = (1 << FIELD_BITS - 1) - 1
_FIELD = (1 << FIELD_BITS) - 1


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


class DegreeOverflow(ValueError):
    """A monomial of total degree above MAX_DEGREE, which no key holds."""


def _fits(total: int) -> None:
    if total > MAX_DEGREE:
        raise DegreeOverflow(f"total degree {total} exceeds the limit {MAX_DEGREE}")


@lru_cache(maxsize=None)
def _words(n: int) -> tuple[struct.Struct, int, Callable[[bytes], tuple[int, ...]]]:
    """A key over n variables as n + 1 little-endian words, at C speed: the
    struct that packs them, their size in bytes, and the unpacker of
    key.to_bytes(size, "little") to the exponents, the total skipped."""
    words = struct.Struct(f"<{n + 1}I")
    return words, words.size, struct.Struct(f"<{n}I4x").unpack


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
        words = _words(len(self.variables))[0]
        self.nums = {}
        for exps, c in acc.items():
            _fits(sum(exps))
            key = int.from_bytes(words.pack(*exps, sum(exps)), "little")
            self.nums[key] = c.numerator * (self.den // c.denominator)

    @staticmethod
    def _from_canonical(variables: tuple[str, ...], nums: dict, den: int = 1) -> "MultiPoly":
        """Wrap already-canonical data without copying or checking it: a tuple of
        names, keys of its layout with no total degree above MAX_DEGREE, and
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

    def _field(self, name: str) -> tuple[int, int, int]:
        """(shift, mask) of name's exponent field, and the key of name itself."""
        shift = FIELD_BITS * self.variables.index(name)
        return shift, _FIELD << shift, (1 << shift) + (1 << FIELD_BITS * len(self.variables))

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """Exponent tuple -> rational coefficient; a new dict per call."""
        _, size, unpack = _words(len(self.variables))
        den = self.den
        return {unpack(k.to_bytes(size, "little")): Fraction(c, den) for k, c in self.nums.items()}

    @property
    def numerators(self) -> dict[tuple[int, ...], int]:
        """Exponent tuple -> integer numerator over `den`; a new dict per call."""
        _, size, unpack = _words(len(self.variables))
        return {unpack(k.to_bytes(size, "little")): c for k, c in self.nums.items()}

    def descending(self) -> list[tuple[tuple[int, ...], int]]:
        """(exponent tuple, numerator) pairs in decreasing graded-lex order."""
        _, size, unpack = _words(len(self.variables))
        nums = self.nums
        return [(unpack(k.to_bytes(size, "little")), nums[k]) for k in sorted(nums, reverse=True)]

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(variables: tuple[str, ...]) -> "MultiPoly":
        return MultiPoly._from_canonical(tuple(variables), {})

    @staticmethod
    def constant(variables: tuple[str, ...], c: RatLike) -> "MultiPoly":
        # an int or a Fraction: numerator and denominator in lowest terms
        nums = {0: c.numerator} if c else {}
        return MultiPoly._from_canonical(tuple(variables), nums, c.denominator)

    @staticmethod
    def var(variables: tuple[str, ...], name: str, power: int = 1) -> "MultiPoly":
        if power < 0:
            raise ValueError(f"negative exponent {power}")
        _fits(power)
        variables = tuple(variables)
        key = (power << FIELD_BITS * variables.index(name)) + (power << FIELD_BITS * len(variables))
        return MultiPoly._from_canonical(variables, {key: 1})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        # canonical form: a constant has no term, or only the monomial 1, key 0
        nums = self.nums
        return not nums or (len(nums) == 1 and 0 in nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.nums.get(0, 0), self.den)

    def total_degree(self):
        if not self.nums:
            return NEG_INF
        return max(self.nums) >> FIELD_BITS * len(self.variables)

    def degree_in(self, name: str):
        if not self.nums:
            return NEG_INF
        shift, mask, _ = self._field(name)
        return max(map(mask.__and__, self.nums)) >> shift

    def support(self) -> set[str]:
        """Names of the variables that occur in some term."""
        # an OR of keys holds a nonzero field exactly where some key does
        held = reduce(or_, self.nums, 0)
        return {name for i, name in enumerate(self.variables) if held >> FIELD_BITS * i & _FIELD}

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
        out: dict[int, int] = {}
        for e1, c1 in self.nums.items():
            for e2, c2 in other.nums.items():
                e = e1 + e2
                if e in out:
                    out[e] += c1 * c2
                else:
                    out[e] = c1 * c2
        # the product of the leading terms leads the product, so max(out) is it
        if out:
            _fits(max(out) >> FIELD_BITS * len(self.variables))
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
        if self.nums:
            _fits(self.total_degree() * n)
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
        shift, mask, unit = self._field(name)
        nums = {}
        for k, c in self.nums.items():
            power = (k & mask) >> shift
            if power:
                nums[k - unit] = c * power
        return MultiPoly._build(self.variables, nums, self.den)

    def quotient_by(self, name: str) -> "MultiPoly | None":
        """self / name when name divides every term, else None."""
        _, mask, unit = self._field(name)
        if not all(map(mask.__and__, self.nums)):
            return None
        # lowering one exponent in every term keeps the canonical form
        return MultiPoly._from_canonical(self.variables, {k - unit: c for k, c in self.nums.items()}, self.den)

    def linear_coefficient(self, name: str) -> Fraction | None:
        """c when c*name is the only term of self that holds name, else None."""
        _, mask, unit = self._field(name)
        if list(filter(mask.__and__, self.nums)) != [unit]:
            return None
        return Fraction(self.nums[unit], self.den)

    # -- substitution and reshaping ---------------------------------------

    def substitute(self, values: Mapping[str, RatLike]) -> "MultiPoly":
        """Specialize variables to rationals; the names stay in the tuple.

        Names set to 0 go first: the terms free of them are kept, in their
        order.  Then, in one pass, with value = a/b and top the highest
        power of its variable, the term c * name^k gets the factor
        a^k * b^(top - k), computed once per power, and the result lies
        over den times every such b^top.  Returns self when none of the
        names occurs.
        """
        nums = self.nums
        zeros = 0
        nonzero = []
        for name, value in values.items():
            if value:
                nonzero.append((self._field(name), value))
            else:
                zeros |= _FIELD << FIELD_BITS * self.variables.index(name)
        if zeros and reduce(or_, nums, 0) & zeros:
            nums = {k: c for k, c in nums.items() if not k & zeros}
        subs = []
        den = self.den
        for (shift, mask, unit), value in nonzero:
            top = max(map(mask.__and__, nums), default=0) >> shift
            if top:
                subs.append((shift, mask, unit, value.numerator, value.denominator, top, {}))
                den *= value.denominator**top
        if not subs:
            return self if nums is self.nums else MultiPoly._build(self.variables, nums, den)
        out: dict[int, int] = {}
        for k, c in nums.items():
            for shift, mask, unit, a, b, top, factors in subs:
                power = (k & mask) >> shift
                if power not in factors:
                    factors[power] = a**power * b ** (top - power)
                c *= factors[power]
                k -= power * unit
            out[k] = out.get(k, 0) + c
        return MultiPoly._build(self.variables, _nonzero(out), den)

    def substitute_poly(self, name: str, replacement: "MultiPoly") -> "MultiPoly":
        """Replace a variable by a polynomial over the same variable tuple.

        Sums c * rest * replacement^k over the terms c * rest * name^k in
        order, each power computed once, dropping a monomial as soon as
        its coefficient cancels.  The sum is taken over the lcm of the
        powers' denominators.
        """
        self._check(replacement)
        shift, mask, unit = self._field(name)
        powers = {k: replacement**k for k in dict.fromkeys((k & mask) >> shift for k in self.nums)}
        den = lcm(*(power.den for power in powers.values()))
        out: dict[int, int] = {}
        for k, c in self.nums.items():
            exponent = (k & mask) >> shift
            power = powers[exponent]
            c = c * (den // power.den)
            rest = k - exponent * unit
            _add_into(out, [(rest + e, c * q) for e, q in power.nums.items()])
        if out:
            _fits(max(out) >> FIELD_BITS * len(self.variables))
        return MultiPoly._build(self.variables, out, self.den * den)

    def with_variables(self, variables: tuple[str, ...]) -> "MultiPoly":
        """Embed into a larger (or reordered) variable tuple by name."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        mapping = [variables.index(name) if name in variables else None for name in self.variables]
        if None in mapping:
            used = self.support()
            for name, index in zip(self.variables, mapping):
                if index is None and name in used:
                    raise VariableMismatch(f"variable {name} absent from {variables}")
        # consecutive fields that move by the same number of fields, the
        # total (field n) included, move as one run; a dropped field between
        # them holds 0 in every key, so it may move with them
        moved = [(i, j - i) for i, j in enumerate([*mapping, len(variables)]) if j is not None]
        runs = []
        for offset, group in groupby(moved, key=itemgetter(1)):
            fields = [i for i, _ in group]
            width = FIELD_BITS * (fields[-1] - fields[0] + 1)
            runs.append((((1 << width) - 1) << FIELD_BITS * fields[0], FIELD_BITS * offset))
        nums = {}
        for k, c in self.nums.items():
            key = 0
            for mask, shift in runs:
                key |= (k & mask) << shift if shift >= 0 else (k & mask) >> -shift
            nums[key] = c
        return MultiPoly._from_canonical(variables, nums, self.den)

    def split(self, name: str) -> dict[int, "MultiPoly"]:
        """Coefficient of each power of `name` that occurs, over the other variables."""
        i = self.variables.index(name)
        rest = self.variables[:i] + self.variables[i + 1 :]
        shift, total = FIELD_BITS * i, FIELD_BITS * len(rest)
        low = (1 << shift) - 1
        buckets: dict[int, dict] = {}
        for k, c in self.nums.items():
            power = k >> shift & _FIELD
            # drop the field: the fields above it move down one, the total loses power
            key = k & low | (k >> shift + FIELD_BITS << shift) - (power << total)
            buckets.setdefault(power, {})[key] = c
        return {power: MultiPoly._build(rest, nums, self.den) for power, nums in buckets.items()}

    @staticmethod
    def join(variables: tuple[str, ...], name: str, coeffs: Mapping[int, "MultiPoly"]) -> "MultiPoly":
        """The sum of coeffs[k] * name^k, the inverse of `split`.

        Each coefficient lies over variables without name; one over any
        other tuple raises VariableMismatch.  Terms come power by power
        in the order of coeffs, over the lcm of the coefficients'
        denominators; that is lowest terms, since the coefficient holding
        a prime's highest power in the lcm is scaled by a cofactor prime
        to it.
        """
        variables = tuple(variables)
        i = variables.index(name)
        rest = variables[:i] + variables[i + 1 :]
        if any(coeff.variables != rest for coeff in coeffs.values()):
            raise VariableMismatch(f"joining by {name} into {variables} needs coefficients over {rest}")
        shift, total = FIELD_BITS * i, FIELD_BITS * len(variables)
        low, unit = (1 << shift) - 1, (1 << shift) + (1 << total)
        den = lcm(*(coeff.den for coeff in coeffs.values()))
        nums = {}
        for power, coeff in coeffs.items():
            _fits(power)
            lift, scale = power * unit, den // coeff.den
            for k, c in coeff.nums.items():
                # open the field: the fields from it up move up one
                nums[(k & low | k >> shift << shift + FIELD_BITS) + lift] = c * scale
        if nums:
            _fits(max(nums) >> total)
        return MultiPoly._from_canonical(variables, nums, den)

    def evaluate(self, point: Mapping[str, RatLike]) -> Fraction:
        total = 0
        for exps, c in self.numerators.items():
            for name, e in zip(self.variables, exps):
                if e:
                    c = c * point[name] ** e
            total += c
        return Fraction(total) / self.den

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
        for exps, num in self.descending():
            mono = "*".join(f"{v}^{e}" for v, e in zip(self.variables, exps) if e)
            parts.append(f"{Fraction(num, self.den)}" + (f"*{mono}" if mono else ""))
        return f"MultiPoly({self.variables}, " + " + ".join(parts) + ")"


def divide_exact(h: MultiPoly, g: MultiPoly) -> MultiPoly | None:
    """Exact quotient h / g, or None when g does not divide h.

    Leading-term elimination in graded-lex order; each step strictly
    lowers the leading monomial, so the loop terminates and the quotient
    is unique whenever it exists.  The leading monomial of g divides that
    of the remainder when subtracting its key, with the top bit of every
    field set first, leaves every top bit set.
    """
    h._check(g)
    if g.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    g_key = max(g.nums)
    g_coeff = Fraction(g.nums[g_key], g.den)
    guard = sum(1 << FIELD_BITS * i + FIELD_BITS - 1 for i in range(len(h.variables) + 1))
    quotient = MultiPoly.zero(h.variables)
    rem = h
    while not rem.is_zero():
        r_key = max(rem.nums)
        diff = (r_key | guard) - g_key
        if diff & guard != guard:
            return None
        q = Fraction(rem.nums[r_key], rem.den) / g_coeff
        t = MultiPoly._from_canonical(h.variables, {diff ^ guard: q.numerator}, q.denominator)
        quotient = quotient + t
        rem = rem - t * g
    return quotient
