"""Simplicity decisions with machine-checkable certificates.

One evaluator, `_plane_conditions`, tests the three plane conditions for
every alpha and beta.  They decide simplicity at alpha = beta = 1
(`decide_simple_family_a`, whose condition-2 witness is monic in y) and
are necessary for the power family (`conjecture_necessary`).  Condition
3 pins l and never searches for roots.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .darboux import SearchBounds, darboux_search_power_family
from .derivation import X_ONLY, Derivation, PlaneFamily, UnsupportedFamily
from .mpoly import CheckFailed, MultiPoly, divide_exact

TAG_T21 = "T2.1"
TAG_T41 = "T4.1"
TAG_T42 = "T4.2"
TAG_REF15 = "REF15"


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


@dataclass(frozen=True)
class NecessaryCheck:
    passed: bool
    failed_condition: int | None = None
    witness: Certificate | None = None


def condition3_solve(a2: MultiPoly, a1: MultiPoly, a0: Fraction, beta: int) -> list[Fraction]:
    """All l in Q* with a2 = l*a1 + (-1)^beta * l^(beta+1) * a0, exhaustively over Q.

    beta = 1 gives the simplicity condition a2 = l*a1 - l^2*a0.  Only
    asked after conditions 1 and 2 hold: a0 nonzero and a1 or a2
    nonconstant, else ValueError.  For x-degrees j >= 1 the identity
    forces a2_j = l*a1_j, so a nonconstant a1 pins l to one candidate and
    a constant a1 admits none.
    """
    if a0 == 0 or (a1.is_constant() and a2.is_constant()):
        raise ValueError("condition 3 needs a0 != 0 and a1 or a2 nonconstant")
    j = a1.total_degree()
    if j < 1:
        return []
    sign = Fraction(-1) ** beta
    l = a2.terms.get((j,), 0) / a1.terms[(j,)]
    if l != 0 and a2 == a1.scale(l) + MultiPoly.constant(X_ONLY, sign * l ** (beta + 1) * a0):
        return [l]
    return []


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
        if len(D.variables) != 2:
            raise UnsupportedIdealShape("pair ideals need a plane derivation")
        x, y = D.variables
        if lead != MultiPoly.var(D.variables, y):
            raise UnsupportedIdealShape("pair ideals must look like (y, p(x))")
        if not p.support() <= {x}:
            raise UnsupportedIdealShape("second generator must only involve x")
        dy = D.apply(lead).substitute({y: 0})
        dp = D.apply(p).substitute({y: 0})
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


def _plane_conditions(fam: PlaneFamily) -> NecessaryCheck:
    """The three plane conditions, for every alpha and beta.

    Checks, in order: a0 a nonzero constant; a1 or a2 nonconstant; no l
    in Q* with a2 = l*a1 + (-1)^beta*l^(beta+1)*a0.  A failure returns
    the stable-ideal witness built from the failing condition, over the
    family's own variables.
    """
    a2, a1, a0 = fam.a2, fam.a1, fam.a0
    v = fam.variables
    y = MultiPoly.var(v, v[1])
    if a0.is_zero():
        return NecessaryCheck(False, 1, _stable([y]))
    if not a0.is_constant():
        return NecessaryCheck(False, 1, _stable([y, a0.with_variables(v)]))
    a0_val = a0.constant_value()
    if a1.is_constant() and a2.is_constant():
        if a2.is_zero() and a1.is_zero():
            witness = (y ** (fam.alpha + 1)).scale(
                Fraction(1, fam.alpha + 1)
            ) - MultiPoly.var(v, "x").scale(a0_val)
            return NecessaryCheck(False, 2, _stable([witness]))
        # the y-image a2*y^(beta+1) + a1*y^beta + a0
        return NecessaryCheck(False, 2, _stable([fam.to_derivation().images[1]]))
    solutions = condition3_solve(a2, a1, a0_val, fam.beta)
    if solutions:
        l = solutions[0]
        witness = y + MultiPoly.constant(v, 1 / l)
        return NecessaryCheck(False, 3, _stable([witness], l_value=l))
    return NecessaryCheck(True)


# each public decider calls the evaluator itself and neither calls the
# other, so an inclusive timer around both counts every request once
def conjecture_necessary(fam: PlaneFamily) -> NecessaryCheck:
    """Necessary conditions for simplicity of the power family (P6.3)."""
    return _plane_conditions(fam)


def decide_simple_family_a(fam: PlaneFamily) -> SimplicityVerdict:
    """Full simplicity decision for y*dx + (a2*y^2 + a1*y + a0)*dy.

    Simple iff the three plane conditions hold.  Each failing condition
    yields its stable-ideal witness, at condition 2 made monic in y.  A
    family that is not quadratic raises UnsupportedFamily.
    """
    if not fam.quadratic:
        raise UnsupportedFamily("the simplicity decision needs alpha = beta = 1")
    a2, a1 = fam.a2, fam.a1
    tag = _pick_tag(a2, a1)
    check = _plane_conditions(fam)
    if check.passed:
        return SimplicityVerdict(
            True, Certificate(kind="conditions", conditions=(True, True, True)), tag
        )
    witness = check.witness
    if check.failed_condition == 2 and not (a2.is_zero() and a1.is_zero()):
        (generator,) = witness.generators
        lead = a1 if a2.is_zero() else a2
        witness = _stable([generator.scale(1 / lead.constant_value())])
    return SimplicityVerdict(False, witness, tag)


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


def conjecture_scan(alpha: int, coeff_grid, bounds: SearchBounds) -> list[ScanRow]:
    """Evidence table for the power family at a fixed alpha >= 2.

    For each (a2, a1, a0) cell: run the necessary-condition check; when
    it passes, run the bounded triangular Darboux search and report its
    outcome, or "unsupported" when the cell lies outside the search
    hypotheses.  The scan never claims simplicity, only the absence of
    obstructions up to the given bounds.  Witnesses from failing cells
    are replayed through verify_stable_ideal before the row is emitted.
    """
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
                ScanRow(alpha, a2, a1, a0, "fail", check.witness.l_value, "skipped")
            )
            continue
        try:
            status = darboux_search_power_family(fam, bounds).status
        except UnsupportedFamily:
            status = "unsupported"
        rows.append(ScanRow(alpha, a2, a1, a0, "pass", None, status))
    return rows
