"""Simplicity decisions with machine-checkable certificates.

Every verdict carries a result tag naming the decision rule that fired
and, for non-simple verdicts, a stable-ideal witness that can be
replayed through `verify_stable_ideal`.  The tags:

  T2.1   no linear y-term: simple iff a0 in Q* and deg a2 >= 1
  REF15  constant a2: simple iff a0 in Q* and deg a1 >= 1
  T4.1   constant a1, deg a2 >= 1: simple iff a0 in Q*
  T4.2   general: simple iff a0 in Q*, (deg a1 >= 1 or deg a2 >= 1),
         and no l in Q* with a2 = l*a1 - l^2*a0
  P6.3-necessary   the power-family necessary conditions
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .derivation import X_ONLY, Derivation, PlaneFamily, UnsupportedFamily
from .mpoly import CheckFailed, MultiPoly, divide_exact
from .upoly import rational_roots

TAG_T21 = "T2.1"
TAG_T41 = "T4.1"
TAG_T42 = "T4.2"
TAG_REF15 = "REF15"
TAG_P63 = "P6.3-necessary"

PLANE = ("x", "y")


class UnsupportedIdealShape(ValueError):
    """Only principal ideals and (y, p(x)) pairs are verifiable."""


@dataclass(frozen=True)
class Certificate:
    kind: str  # "stable_ideal" | "conditions"
    generators: tuple[MultiPoly, ...] = ()
    l_value: Fraction | None = None
    conditions: tuple[bool, bool, bool] | None = None


@dataclass(frozen=True)
class SimplicityVerdict:
    simple: bool
    certificate: Certificate
    theorem: str


def _y(power: int = 1) -> MultiPoly:
    return MultiPoly.var(PLANE, "y", power)


def condition3_solve(a2: MultiPoly, a1: MultiPoly, a0: Fraction, beta: int) -> list[Fraction]:
    """All l in Q* with a2 = l*a1 + (-1)^beta * l^(beta+1) * a0, exhaustively over Q.

    beta = 1 gives the simplicity condition a2 = l*a1 - l^2*a0.  For
    x-degrees j >= 1 the identity forces a2_j = l*a1_j, so any
    nonconstant a1 pins l to a single candidate; a constant a1 forces a2
    constant and leaves a polynomial of degree beta + 1 in l.
    """
    if a0 == 0:
        raise ValueError("a0 must be a nonzero rational")
    sign = Fraction(-1) ** beta
    j = a1.total_degree()
    if j >= 1:
        l = Fraction(a2.nums.get((j,), 0) * a1.den, a2.den * a1.nums[(j,)])
        if l != 0 and a2 == a1.scale(l) + MultiPoly.constant(X_ONLY, sign * l ** (beta + 1) * a0):
            return [l]
        return []
    if a2.total_degree() >= 1:
        return []
    poly = MultiPoly(
        X_ONLY,
        [((beta + 1,), sign * a0), ((1,), a1.constant_value()), ((0,), -a2.constant_value())],
    )
    return [r for r in rational_roots(poly) if r != 0]


def _divides_mod(value: MultiPoly, modulus: MultiPoly) -> bool:
    if modulus.is_zero():
        return value.is_zero()
    return divide_exact(value, modulus) is not None


def verify_stable_ideal(D: Derivation, generators: Sequence[MultiPoly]) -> bool:
    """Replay a stable-ideal certificate.

    Two shapes are supported, the only ones the deciders emit:
    a principal ideal (g), stable iff g divides D(g), and a pair
    (y, p(x)), stable iff both D(y) and D(p) vanish modulo the ideal,
    i.e. their y-free parts are divisible by p(x).
    """
    gens = list(generators)
    if len(gens) == 1:
        g = gens[0].with_variables(D.variables)
        if g.is_zero():
            raise UnsupportedIdealShape("zero generator")
        return divide_exact(D.apply(g), g) is not None
    if len(gens) == 2:
        lead, p = gens
        lead = lead.with_variables(D.variables)
        p = p.with_variables(D.variables)
        if lead != MultiPoly.var(D.variables, "y"):
            raise UnsupportedIdealShape("pair ideals must look like (y, p(x))")
        if not p.uses_only(["x"]):
            raise UnsupportedIdealShape("second generator must only involve x")
        dy = D.apply(lead).substitute_value("y", 0)
        dp = D.apply(p).substitute_value("y", 0)
        return _divides_mod(dy, p) and _divides_mod(dp, p)
    raise UnsupportedIdealShape(f"{len(gens)} generators")


def _stable(generators: Iterable[MultiPoly], l_value: Fraction | None = None) -> Certificate:
    return Certificate(
        kind="stable_ideal", generators=tuple(generators), l_value=l_value
    )


def _pick_tag(a2: MultiPoly, a1: MultiPoly) -> str:
    if a1.is_zero():
        return TAG_T21
    if a2.is_constant():
        return TAG_REF15
    if a1.is_constant():
        return TAG_T41
    return TAG_T42


def decide_simple_family_a(fam: PlaneFamily) -> SimplicityVerdict:
    """Full simplicity decision for y*dx + (a2*y^2 + a1*y + a0)*dy.

    Simple iff a0 is a nonzero constant, a1 or a2 is nonconstant, and no
    l in Q* satisfies a2 = l*a1 - l^2*a0.  Each failing condition yields
    the matching stable-ideal witness.  A family that is not quadratic
    raises UnsupportedFamily.
    """
    if not fam.quadratic:
        raise UnsupportedFamily("the simplicity decision needs alpha = beta = 1")
    a2, a1, a0 = fam.a2, fam.a1, fam.a0
    tag = _pick_tag(a2, a1)
    if a0.is_zero():
        return SimplicityVerdict(False, _stable([_y()]), tag)
    if not a0.is_constant():
        return SimplicityVerdict(False, _stable([_y(), a0.with_variables(PLANE)]), tag)
    a0_val = a0.constant_value()
    if a1.is_constant() and a2.is_constant():
        if not a2.is_zero():
            a2_val = a2.constant_value()
            witness = (
                _y(2)
                + _y().scale(a1.constant_value() / a2_val)
                + MultiPoly.constant(PLANE, a0_val / a2_val)
            )
            return SimplicityVerdict(False, _stable([witness]), tag)
        if not a1.is_zero():
            witness = _y() + MultiPoly.constant(PLANE, a0_val / a1.constant_value())
            return SimplicityVerdict(False, _stable([witness]), tag)
        witness = _y(2).scale(Fraction(1, 2)) - MultiPoly.var(PLANE, "x").scale(a0_val)
        return SimplicityVerdict(False, _stable([witness]), tag)
    solutions = condition3_solve(a2, a1, a0_val, 1)
    if solutions:
        l = solutions[0]
        witness = _y() + MultiPoly.constant(PLANE, 1 / l)
        return SimplicityVerdict(False, _stable([witness], l_value=l), TAG_T42)
    return SimplicityVerdict(
        True,
        Certificate(kind="conditions", conditions=(True, True, True)),
        tag,
    )


# -- power-family necessary conditions ------------------------------------


@dataclass(frozen=True)
class NecessaryCheck:
    passed: bool
    failed_condition: int | None = None
    witness: Certificate | None = None
    l_value: Fraction | None = None


def conjecture_necessary(fam: PlaneFamily) -> NecessaryCheck:
    """Necessary conditions for simplicity of the power family.

    Checks, in order: a0 a nonzero constant; a1 or a2 nonconstant; no l
    in Q* with a2 = l*a1 + (-1)^beta*l^(beta+1)*a0.  A failure returns
    the stable-ideal witness built from the failing condition.
    """
    a2, a1, a0 = fam.a2, fam.a1, fam.a0
    if a0.is_zero():
        return NecessaryCheck(False, 1, _stable([_y()]))
    if not a0.is_constant():
        return NecessaryCheck(False, 1, _stable([_y(), a0.with_variables(PLANE)]))
    a0_val = a0.constant_value()
    if a1.is_constant() and a2.is_constant():
        if a2.is_zero() and a1.is_zero():
            witness = _y(fam.alpha + 1).scale(
                Fraction(1, fam.alpha + 1)
            ) - MultiPoly.var(PLANE, "x").scale(a0_val)
            return NecessaryCheck(False, 2, _stable([witness]))
        witness = (
            a2.with_variables(PLANE) * _y(fam.beta + 1)
            + a1.with_variables(PLANE) * _y(fam.beta)
            + a0.with_variables(PLANE)
        )
        return NecessaryCheck(False, 2, _stable([witness]))
    solutions = condition3_solve(a2, a1, a0_val, fam.beta)
    if solutions:
        l = solutions[0]
        witness = _y() + MultiPoly.constant(PLANE, 1 / l)
        return NecessaryCheck(False, 3, _stable([witness], l_value=l), l_value=l)
    return NecessaryCheck(True)


@dataclass(frozen=True)
class ScanRow:
    alpha: int
    a2: MultiPoly
    a1: MultiPoly
    a0: MultiPoly
    necessary: str  # "pass" | "fail"
    l_witness: Fraction | None
    darboux_status: str  # "found" | "none-up-to-bounds" | "undecided-residual" |
    #                      "skipped" | "unsupported"


def conjecture_scan(alpha: int, coeff_grid, bounds) -> list[ScanRow]:
    """Evidence table for the power family at a fixed alpha >= 2.

    For each (a2, a1, a0) cell: run the necessary-condition check; when
    it passes and the cell is searchable, run the bounded triangular
    Darboux search and report its outcome.  The scan never claims
    simplicity, only the absence of obstructions up to the given bounds.
    Witnesses from failing cells are replayed through verify_stable_ideal
    before the row is emitted.
    """
    from .darboux import darboux_search_power_family, searchable

    if alpha < 2:
        raise ValueError("alpha = 1 is decided exactly; scan expects alpha >= 2")
    rows: list[ScanRow] = []
    for a2, a1, a0 in coeff_grid:
        fam = PlaneFamily(alpha=alpha, beta=alpha, a2=a2, a1=a1, a0=a0)
        check = conjecture_necessary(fam)
        if not check.passed:
            if check.witness is None:
                raise CheckFailed("a failed necessary condition carries no witness")
            if not verify_stable_ideal(fam.to_derivation(), check.witness.generators):
                raise CheckFailed("constructed witness failed verification")
            rows.append(
                ScanRow(alpha, a2, a1, a0, "fail", check.l_value, "skipped")
            )
            continue
        if not searchable(fam):
            rows.append(ScanRow(alpha, a2, a1, a0, "pass", None, "unsupported"))
            continue
        outcome = darboux_search_power_family(fam, bounds)
        rows.append(ScanRow(alpha, a2, a1, a0, "pass", None, outcome.status))
    return rows


def scan_rows_to_jsonl(rows: Iterable[ScanRow], bounds) -> Iterator[str]:
    from .expr import poly_to_str

    for row in rows:
        record = {
            "alpha": row.alpha,
            "a2": poly_to_str(row.a2),
            "a1": poly_to_str(row.a1),
            "a0": poly_to_str(row.a0),
            "necessary": row.necessary,
            "darboux_status": row.darboux_status,
            "bounds": bounds.degree_bounds(),
        }
        if row.l_witness is not None:
            record["l_witness"] = str(row.l_witness)
        yield json.dumps(record, sort_keys=True)
