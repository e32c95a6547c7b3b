"""Sparse multivariate polynomials over the rationals.

A MultiPoly carries a fixed, ordered tuple of variable names and a map
from exponent vectors to nonzero rational coefficients.  Terms are kept
canonical (no zero coefficients); printing and division use graded
lexicographic order where later variables in the tuple rank higher,
matching the convention x < y and x < y1 < ... < yn.

Only the public constructor ``MultiPoly(variables, terms)`` validates:
it checks every exponent vector, converts every coefficient to a
Fraction and merges repeated monomials.  It is meant for outside input
(the parser, tests).  Every internal result -- ring operations,
derivatives, substitutions, reshaping and the steps of `divide_exact`
-- is built from canonical operands and stored as it is through
``MultiPoly._from_canonical``.  Each operation merges into one dict and
drops zero coefficients once, keeping the insertion order the
validating constructor would give: the first operand's terms first,
then the other operand's new terms.  Term dicts are never changed after
construction, so a result may share its operand's dict.

A polynomial in one variable is a MultiPoly over a one-name tuple; the
family coefficients a2(x), a1(x), a0(x) and gamma_i(x) live over
``("x",)``, with their terms in ascending degree as `restrict` returns
them.  The zero polynomial has total degree `NEG_INF`.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
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


class DivisorZero(ZeroPolynomial):
    """Exact division was attempted with divisor zero."""


class VariableMismatch(ValueError):
    """Operands live over different variable tuples."""


def _frac(value: RatLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


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

    __slots__ = ("variables", "terms")

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
                raise VariableMismatch(
                    f"exponent vector {exps} does not fit variables {self.variables}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _frac(c)
            if exps in acc:
                acc[exps] += c
            else:
                acc[exps] = c
        self.terms: dict[tuple[int, ...], Fraction] = _nonzero(acc)

    @staticmethod
    def _from_canonical(
        variables: tuple[str, ...], terms: dict[tuple[int, ...], Fraction]
    ) -> "MultiPoly":
        """Wrap already-canonical data without copying or checking it.

        The caller guarantees a tuple of names, exponent vectors of that
        length with no negative entry, and nonzero Fraction coefficients.
        """
        p = object.__new__(MultiPoly)
        p.variables = variables
        p.terms = terms
        return p

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(variables: tuple[str, ...]) -> "MultiPoly":
        return MultiPoly._from_canonical(tuple(variables), {})

    @staticmethod
    def constant(variables: tuple[str, ...], c: RatLike) -> "MultiPoly":
        zero_exp = (0,) * len(variables)
        return MultiPoly(variables, [(zero_exp, _frac(c))])

    @staticmethod
    def var(variables: tuple[str, ...], name: str, power: int = 1) -> "MultiPoly":
        idx = variables.index(name)
        exps = tuple(power if i == idx else 0 for i in range(len(variables)))
        return MultiPoly(variables, [(exps, 1)])

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        if not self.terms:
            return Fraction(0)
        return next(iter(self.terms.values()))

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(exps) for exps in self.terms)

    def degree_in(self, name: str):
        if not self.terms:
            return NEG_INF
        idx = self.variables.index(name)
        return max(exps[idx] for exps in self.terms)

    def support(self) -> set[str]:
        """Names of the variables that occur in some term."""
        return {name for name, column in zip(self.variables, zip(*self.terms)) if any(column)}

    def uses_only(self, names: Iterable[str]) -> bool:
        allowed = {self.variables.index(n) for n in names}
        return all(
            all(e == 0 for i, e in enumerate(exps) if i not in allowed)
            for exps in self.terms
        )

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise VariableMismatch(
                f"{self.variables} vs {other.variables}"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return MultiPoly._from_canonical(
            self.variables, _add_into(dict(self.terms), other.terms.items())
        )

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        negated = [(e, -c) for e, c in other.terms.items()]
        return MultiPoly._from_canonical(
            self.variables, _add_into(dict(self.terms), negated)
        )

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from_canonical(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                if e in out:
                    out[e] += c1 * c2
                else:
                    out[e] = c1 * c2
        return MultiPoly._from_canonical(self.variables, _nonzero(out))

    def scale(self, c: RatLike) -> "MultiPoly":
        c = _frac(c)
        if c == 0:
            return MultiPoly.zero(self.variables)
        return MultiPoly._from_canonical(
            self.variables, {e: k * c for e, k in self.terms.items()}
        )

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return MultiPoly.constant(self.variables, 1)
        # square-and-multiply from the low bit; starting from the first
        # factor instead of 1 keeps the term order of 1 * factor
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
        terms = {}
        for exps, c in self.terms.items():
            power = exps[idx]
            if power:
                terms[exps[:idx] + (power - 1,) + exps[idx + 1 :]] = c * power
        return MultiPoly._from_canonical(self.variables, terms)

    # -- substitution and reshaping ---------------------------------------

    def substitute_value(self, name: str, value: RatLike) -> "MultiPoly":
        """Specialize one variable to a rational; variable stays in the tuple.

        Each power of `value` is computed once.
        """
        idx = self.variables.index(name)
        if not any(exps[idx] for exps in self.terms):
            return MultiPoly._from_canonical(self.variables, self.terms)
        value = _frac(value)
        powers: dict[int, Fraction] = {}
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            power = exps[idx]
            if power:
                if power not in powers:
                    powers[power] = value**power
                c = c * powers[power]
                exps = exps[:idx] + (0,) + exps[idx + 1 :]
            if exps in out:
                out[exps] += c
            else:
                out[exps] = c
        return MultiPoly._from_canonical(self.variables, _nonzero(out))

    def substitute_poly(self, name: str, replacement: "MultiPoly") -> "MultiPoly":
        """Replace a variable by a polynomial over the same variable tuple.

        Sums c * rest * replacement^k over the terms c * rest * name^k in
        order, each power computed once, dropping a monomial as soon as
        its coefficient cancels.
        """
        self._check(replacement)
        idx = self.variables.index(name)
        powers: dict[int, MultiPoly] = {}
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            power = exps[idx]
            if not power:
                _add_into(out, [(exps, c)])
                continue
            if power not in powers:
                powers[power] = replacement**power
            rest = exps[:idx] + (0,) + exps[idx + 1 :]
            _add_into(
                out,
                [(tuple(map(add, rest, e)), c * k) for e, k in powers[power].terms.items()],
            )
        return MultiPoly._from_canonical(self.variables, out)

    def with_variables(self, variables: tuple[str, ...]) -> "MultiPoly":
        """Embed into a larger (or reordered) variable tuple by name."""
        variables = tuple(variables)
        mapping = []
        for name in self.variables:
            if name not in variables:
                if not self.uses_only([v for v in self.variables if v in variables]):
                    raise VariableMismatch(f"variable {name} absent from {variables}")
                mapping.append(None)
            else:
                mapping.append(variables.index(name))
        terms = {}
        for exps, c in self.terms.items():
            new = [0] * len(variables)
            for i, e in enumerate(exps):
                if e:
                    new[mapping[i]] = e
            terms[tuple(new)] = c
        return MultiPoly._from_canonical(variables, terms)

    def coeffs_in(self, name: str) -> dict[int, "MultiPoly"]:
        """Decompose as a polynomial in one variable; values keep the full tuple."""
        idx = self.variables.index(name)
        buckets: dict[int, dict] = {}
        for exps, c in self.terms.items():
            rest = exps[:idx] + (0,) + exps[idx + 1 :]
            buckets.setdefault(exps[idx], {})[rest] = c
        return {
            p: MultiPoly._from_canonical(self.variables, terms)
            for p, terms in sorted(buckets.items())
        }

    def restrict(self, name: str) -> "MultiPoly":
        """The same polynomial over ``(name,)``, terms in ascending degree.

        Every other variable must be absent.
        """
        if not self.uses_only([name]):
            raise VariableMismatch(f"polynomial involves more than {name}")
        idx = self.variables.index(name)
        return MultiPoly._from_canonical(
            (name,),
            {(exps[idx],): c for exps, c in sorted(self.terms.items(), key=lambda t: t[0][idx])},
        )

    def evaluate(self, point: Mapping[str, RatLike]) -> Fraction:
        total = Fraction(0)
        for exps, c in self.terms.items():
            val = c
            for i, e in enumerate(exps):
                if e:
                    val *= _frac(point[self.variables[i]]) ** e
            total += val
        return total

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in decreasing graded-lex order (deterministic printing)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        return self.sorted_terms()[0]

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"MultiPoly({self.variables}, 0)"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" for v, e in zip(self.variables, exps) if e
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return f"MultiPoly({self.variables}, " + " + ".join(parts) + ")"


def divide_exact(h: MultiPoly, g: MultiPoly) -> MultiPoly | None:
    """Exact quotient h / g, or None when g does not divide h.

    Leading-term elimination in graded-lex order; each step strictly
    lowers the leading monomial, so the loop terminates and the quotient
    is unique whenever it exists.
    """
    h._check(g)
    if g.is_zero():
        raise DivisorZero("division by the zero polynomial")
    g_exps, g_coeff = g.leading_term()
    quotient = MultiPoly.zero(h.variables)
    rem = h
    while not rem.is_zero():
        r_exps, r_coeff = rem.leading_term()
        diff = tuple(a - b for a, b in zip(r_exps, g_exps))
        if any(d < 0 for d in diff):
            return None
        t = MultiPoly._from_canonical(h.variables, {diff: r_coeff / g_coeff})
        quotient = quotient + t
        rem = rem - t * g
    return quotient
