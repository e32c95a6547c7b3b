"""Simplicity decisions with machine-checkable certificates.

One evaluator, `_plane_conditions`, tests the three plane conditions for
every alpha and beta.  They decide simplicity at alpha = beta = 1
(`decide_simple_family_a`, whose condition-2 witness is monic in y) and
are necessary for the power family (`conjecture_necessary`).  Condition
3 pins l and never searches for roots.

Every verdict carries a result tag naming the decision rule that fired
and, for non-simple verdicts, a stable-ideal witness that can be
replayed through `verify_stable_ideal`.  A record's yes/no reads off
its data: a `SimplicityVerdict` is simple exactly when it has no
certificate, a `NecessaryCheck` passed exactly when it has no witness,
and a `ScanRow` failed exactly when its Darboux search was skipped.  A
`Certificate` is a stable ideal, with the l of condition 3 if any.  The
tags:

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
from typing import Sequence

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
    generators: tuple[MultiPoly, ...]
    l_value: Fraction | None = None


@dataclass(frozen=True)
class SimplicityVerdict:
    certificate: Certificate | None  # None when the three conditions hold
    theorem: str

    @property
    def simple(self) -> bool:
        return self.certificate is None


@dataclass(frozen=True)
class NecessaryCheck:
    failed_condition: int | None = None
    witness: Certificate | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None


def condition3_solve(a2: MultiPoly, a1: MultiPoly, a0: Fraction, beta: int) -> Fraction | None:
    """The l in Q* with a2 = l*a1 + (-1)^beta * l^(beta+1) * a0, if any, exhaustively over Q.

    beta = 1 gives the simplicity condition a2 = l*a1 - l^2*a0.  Only
    asked after conditions 1 and 2 hold: a0 nonzero and a1 or a2
    nonconstant, else ValueError.  For x-degrees j >= 1 the identity
    forces a2_j = l*a1_j, so a nonconstant a1 pins l to one candidate and
    a constant a1 admits none; None when there is no l.
    """
    if a0 == 0 or (a1.is_constant() and a2.is_constant()):
        raise ValueError("condition 3 needs a0 != 0 and a1 or a2 nonconstant")
    j = a1.total_degree()
    if j < 1:
        return None
    sign = Fraction(-1) ** beta
    l = a2.terms.get((j,), 0) / a1.terms[(j,)]
    if l != 0 and a2 == a1.scale(l) + MultiPoly.constant(X_ONLY, sign * l ** (beta + 1) * a0):
        return l
    return None


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
        return NecessaryCheck(1, Certificate((y,)))
    if not a0.is_constant():
        return NecessaryCheck(1, Certificate((y, a0.with_variables(v))))
    a0_val = a0.constant_value()
    if a1.is_constant() and a2.is_constant():
        if a2.is_zero() and a1.is_zero():
            witness = (y ** (fam.alpha + 1)).scale(
                Fraction(1, fam.alpha + 1)
            ) - MultiPoly.var(v, "x").scale(a0_val)
            return NecessaryCheck(2, Certificate((witness,)))
        # the y-image a2*y^(beta+1) + a1*y^beta + a0
        return NecessaryCheck(2, Certificate((fam.to_derivation().images[1],)))
    l = condition3_solve(a2, a1, a0_val, fam.beta)
    if l is not None:
        return NecessaryCheck(3, Certificate((y + MultiPoly.constant(v, 1 / l),), l))
    return NecessaryCheck()


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
    witness = check.witness
    if check.failed_condition == 2 and not (a2.is_zero() and a1.is_zero()):
        (generator,) = witness.generators
        lead = a1 if a2.is_zero() else a2
        witness = Certificate((generator.scale(1 / lead.constant_value()),))
    return SimplicityVerdict(witness, tag)


@dataclass(frozen=True)
class ScanRow:
    alpha: int
    a2: MultiPoly
    a1: MultiPoly
    a0: MultiPoly
    l_witness: Fraction | None
    darboux_status: str  # "found" | "none-up-to-bounds" | "undecided-residual" |
    #                      "skipped" | "unsupported"

    @property
    def necessary(self) -> str:
        """The necessary conditions' outcome: "fail" exactly when the search was skipped."""
        return "fail" if self.darboux_status == "skipped" else "pass"


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
        if check.witness is not None:
            if not verify_stable_ideal(fam.to_derivation(), check.witness.generators):
                raise CheckFailed("constructed witness failed verification")
            rows.append(ScanRow(alpha, a2, a1, a0, check.witness.l_value, "skipped"))
            continue
        try:
            status = darboux_search_power_family(fam, bounds).status
        except UnsupportedFamily:
            status = "unsupported"
        rows.append(ScanRow(alpha, a2, a1, a0, None, status))
    return rows
