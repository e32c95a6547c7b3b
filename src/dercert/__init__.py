"""Exact decision toolkit for polynomial derivations over Q.

Decides simplicity of the structured plane families with stable-ideal
certificates, searches for Darboux polynomials through the forced
cofactor recurrences, decides bounded image membership and Mathieu-Zhao
status for the diagonal families, and verifies every certificate it
emits.  All arithmetic is exact rational; there is no floating point
anywhere.
"""

from .darboux import (
    DarbouxPair,
    NotDarboux,
    SearchBounds,
    SearchOutcome,
    darboux_search_power_family,
    solve_residual_system,
    verify_darboux,
)
from .derivation import (
    Derivation,
    FamilyDiag,
    FamilyDiagX,
    Generic,
    PlaneFamily,
    UnsupportedFamily,
    locally_finite_closed_form,
    recognize_family,
)
from .expr import ParseError, parse_derivation, parse_poly, poly_to_str
from .firstorder import (
    FirstOrderSolution,
    solve_first_order,
)
from .image import (
    CertifiedNonMember,
    Member,
    MzVerdict,
    NotFoundUpTo,
    certified_nonmembership,
    decide_mz,
    image_membership,
)
from .linalg import LinSolution
from .mpoly import (
    NEG_INF,
    CheckFailed,
    DegreeOverflow,
    MultiPoly,
    VariableMismatch,
    ZeroPolynomial,
    divide_exact,
)
from .simplicity import (
    Certificate,
    NecessaryCheck,
    SimplicityVerdict,
    UnsupportedIdealShape,
    condition3_solve,
    conjecture_necessary,
    conjecture_scan,
    decide_simple_family_a,
    verify_stable_ideal,
)
from .upoly import rational_roots

__all__ = [
    "DarbouxPair",
    "NotDarboux",
    "SearchBounds",
    "SearchOutcome",
    "darboux_search_power_family",
    "solve_residual_system",
    "verify_darboux",
    "Derivation",
    "FamilyDiag",
    "FamilyDiagX",
    "Generic",
    "PlaneFamily",
    "UnsupportedFamily",
    "locally_finite_closed_form",
    "recognize_family",
    "ParseError",
    "parse_derivation",
    "parse_poly",
    "poly_to_str",
    "FirstOrderSolution",
    "solve_first_order",
    "CertifiedNonMember",
    "Member",
    "MzVerdict",
    "NotFoundUpTo",
    "certified_nonmembership",
    "decide_mz",
    "image_membership",
    "LinSolution",
    "NEG_INF",
    "CheckFailed",
    "DegreeOverflow",
    "MultiPoly",
    "VariableMismatch",
    "ZeroPolynomial",
    "divide_exact",
    "Certificate",
    "NecessaryCheck",
    "SimplicityVerdict",
    "UnsupportedIdealShape",
    "condition3_solve",
    "conjecture_necessary",
    "conjecture_scan",
    "decide_simple_family_a",
    "verify_stable_ideal",
    "rational_roots",
]
