"""Command line interface: analyze, darboux, image, mz, conjecture-scan.

Every command produces a versioned JSON report binding the verdict to
its result tag and certificate; the text rendering is a pure function
of that JSON.  Exit codes: 0 success, 2 parse error, 3 unsupported
family for the requested decision, 4 bounded-search outcomes that found
nothing (not-found-up-to / none-up-to-bounds / undecided), 5 internal
fault (an exact self-check of a computed result failed, or the
polynomial core rejected an internal operand: ZeroPolynomial,
VariableMismatch; the report still goes to stderr, with the fault in
results.error).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from collections import Counter
from json.encoder import encode_basestring_ascii
from math import isfinite

from .darboux import (
    SearchBounds,
    SearchOutcome,
    darboux_search_power_family,
)
from .derivation import (
    Derivation,
    FamilyDiag,
    FamilyDiagX,
    Generic,
    PlaneFamily,
    X_ONLY,
    UnsupportedFamily,
    locally_finite_closed_form,
    recognize_family,
)
from .expr import ParseError, parse_derivation, parse_poly, poly_to_str
from .image import (
    CertifiedNonMember,
    Member,
    NotFoundUpTo,
    certified_nonmembership,
    decide_mz,
    image_membership,
)
from .mpoly import CheckFailed, MultiPoly, VariableMismatch, ZeroPolynomial
from .simplicity import (
    Certificate,
    NecessaryCheck,
    ScanRow,
    SimplicityVerdict,
    conjecture_necessary,
    decide_simple_family_a,
    conjecture_scan,
)

SCHEMA = "dercert-report/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_NOT_FOUND = 4
EXIT_INTERNAL = 5

# one-line statement of the decision rule behind each result tag
RULE_TEXT = {
    "T2.1": "no linear y-term: simple iff a0 is a nonzero constant and deg a2 >= 1",
    "REF15": "constant a2: simple iff a0 is a nonzero constant and deg a1 >= 1",
    "T4.1": "constant a1: simple iff a0 is a nonzero constant and deg a2 >= 1",
    "T4.2": "simple iff a0 in Q*, a1 or a2 nonconstant, and no l in Q* with a2 = l*a1 - l^2*a0",
    "P6.3-necessary": "necessary: a0 in Q*, a1 or a2 nonconstant, no l in Q* with a2 = l*a1 + (-1)^beta*l^(beta+1)*a0",
    "P2.2": "for the simple linear plane family, x is never in the image",
    "C2.3": "constant-a0 linear plane family: image is MZ iff the derivation is not simple",
    "T5.1": "image MZ iff every coefficient is constant with exponent 1",
    "C5.2": "image MZ iff the derivation is locally finite",
    "T5.3": "diagonal family: image MZ iff every exponent is at most 1",
}


def describe_family(family) -> dict:
    if isinstance(family, PlaneFamily):
        # each shape widens the one before: linear, quadratic, power
        out = {"name": "plane-linear", "a1": poly_to_str(family.a1), "a0": poly_to_str(family.a0)}
        if not family.linear:
            out["name"] = "plane-quadratic"
            out["a2"] = poly_to_str(family.a2)
        if not family.quadratic:
            out.update(name="plane-power", alpha=family.alpha, beta=family.beta)
        return out
    if isinstance(family, FamilyDiagX):
        return {
            "name": "translation-diagonal",
            "gammas": [poly_to_str(g) for g in family.gammas],
            "ks": list(family.ks),
        }
    if isinstance(family, FamilyDiag):
        return {
            "name": "diagonal",
            "gammas": [str(g) for g in family.gammas],
            "ks": list(family.ks),
        }
    return {"name": "generic"}


def describe_certificate(cert: Certificate | None) -> dict:
    if cert is None:
        # no witness: the three plane conditions hold
        return {"kind": "conditions", "conditions": [True, True, True]}
    out: dict = {"kind": "stable_ideal", "generators": [poly_to_str(g) for g in cert.generators]}
    if cert.l_value is not None:
        out["l"] = str(cert.l_value)
    return out


def describe_image_result(result) -> dict:
    if isinstance(result, Member):
        return {
            "status": "member",
            "preimage": poly_to_str(result.preimage),
            "kernel_dim": result.kernel_dim,
            "bound": result.bound,
        }
    if isinstance(result, NotFoundUpTo):
        return {"status": "not-found-up-to", "bound": result.bound}
    out = {
        "status": "certified-non-member",
        "theorem": result.theorem,
        "claim": result.claim,
        "target": poly_to_str(result.target),
    }
    if result.m_used is not None:
        out["m_used"] = result.m_used
    return out


def describe_search(outcome: SearchOutcome) -> dict:
    found = []
    zero = MultiPoly.zero(X_ONLY)
    for pair in outcome.pairs:
        y = pair.F.variables[1]
        by_y = pair.cofactor.split(y)
        found.append(
            {
                "n": int(pair.F.degree_in(y)),
                "d1": poly_to_str(by_y.get(1, zero)),
                "d0": poly_to_str(by_y.get(0, zero)),
                "F": poly_to_str(pair.F),
                "cofactor": poly_to_str(pair.cofactor),
                "status": "found",
            }
        )
    return {"status": outcome.status, "found": found, "detail": outcome.detail}


def describe_scan_row(row: ScanRow, bounds: dict) -> dict:
    out = {
        "alpha": row.alpha,
        "a2": poly_to_str(row.a2),
        "a1": poly_to_str(row.a1),
        "a0": poly_to_str(row.a0),
        "necessary": row.necessary,
        "darboux_status": row.darboux_status,
        "bounds": bounds,
    }
    if row.l_witness is not None:
        out["l_witness"] = str(row.l_witness)
    return out


# -- report plumbing -----------------------------------------------------


def render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    if "input" in report:
        lines.append(f"input: {report['input']}")
    if "family" in report:
        fam = report["family"]
        extras = ", ".join(f"{k}={fam[k]}" for k in sorted(fam) if k != "name")
        lines.append(f"family: {fam['name']}" + (f" ({extras})" if extras else ""))
    results = report.get("results", {})
    for key in sorted(results):
        lines.append(f"{key}: {json.dumps(results[key], sort_keys=True)}")
    if report.get("bounds"):
        lines.append(f"bounds: {json.dumps(report['bounds'], sort_keys=True)}")
    lines.append(f"timing_ms: {report['timing_ms']}")
    return "\n".join(lines)


def _json(value, pad: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte.

    That call runs the json module's pure-Python encoder, since the C one
    only serves indent=None; this walk builds the same text directly.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if isfinite(value) else json.dumps(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[\n" + ",\n".join(inner + _json(v, inner) for v in value) + f"\n{pad}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report: dict, args, stream, allow_file: bool = True) -> None:
    text = _json(report) if args.json else render_text(report)
    if args.out and allow_file:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text, file=stream)


# -- commands --------------------------------------------------------------


def _cmd_analyze(args, report: dict) -> int:
    D = parse_derivation(args.derivation)
    family = recognize_family(D)
    report["family"] = describe_family(family)
    results: dict = {}
    report["results"] = results
    if isinstance(family, Generic):
        results["note"] = "no structured family recognized; no decision available"
        return EXIT_UNSUPPORTED
    if isinstance(family, PlaneFamily):
        if not family.quadratic:
            results["necessary_conditions"] = _necessary_dict(conjecture_necessary(family))
            return EXIT_OK
        results["simplicity"] = _simplicity_dict(decide_simple_family_a(family))
    # decide_mz alone says which shapes have a rule
    try:
        results["mz"] = _mz_dict(D)
    except UnsupportedFamily:
        results["mz"] = {"status": "unsupported", "reason": "no rule covers this shape"}
        return EXIT_OK
    results["locally_finite"] = locally_finite_closed_form(family)
    return EXIT_OK


def _simplicity_dict(verdict: SimplicityVerdict) -> dict:
    return {
        "simple": verdict.simple,
        "theorem": verdict.theorem,
        "rule": RULE_TEXT.get(verdict.theorem, ""),
        "certificate": describe_certificate(verdict.certificate),
    }


def _necessary_dict(check: NecessaryCheck) -> dict:
    out: dict = {
        "passed": check.passed,
        "theorem": "P6.3-necessary",
        "rule": RULE_TEXT["P6.3-necessary"],
    }
    if not check.passed:
        out["failed_condition"] = check.failed_condition
        out["witness"] = describe_certificate(check.witness)
        if check.witness.l_value is not None:
            out["l"] = str(check.witness.l_value)
    return out


def _mz_dict(D: Derivation) -> dict:
    verdict = decide_mz(D)
    if isinstance(verdict.evidence, CertifiedNonMember):
        evidence = describe_image_result(verdict.evidence)
    else:
        kind, value = verdict.evidence
        evidence = {"kind": kind, "value": str(value)}
    return {
        "mz": verdict.mz,
        "theorem": verdict.theorem,
        "rule": RULE_TEXT.get(verdict.theorem, ""),
        "evidence": evidence,
    }


def _cmd_mz(args, report: dict) -> int:
    D = parse_derivation(args.derivation)
    report["family"] = describe_family(recognize_family(D))
    report["results"] = {"mz": _mz_dict(D)}
    return EXIT_OK


def _cmd_image(args, report: dict) -> int:
    D = parse_derivation(args.derivation)
    target = parse_poly(args.target, D.variables)
    report["family"] = describe_family(recognize_family(D))
    result = image_membership(D, target, args.bound)
    results = {"target": args.target, "membership": describe_image_result(result)}
    report["results"] = results
    if isinstance(result, Member):
        return EXIT_OK
    certificate = certified_nonmembership(D, target)
    if certificate is not None:
        results["certified"] = describe_image_result(certificate)
    return EXIT_NOT_FOUND


def _search_bounds(args) -> SearchBounds:
    return SearchBounds(
        n_max=args.n_max,
        d0_deg_max=args.d0_deg,
        cx_deg_max=args.cx_deg,
        residual_effort=args.effort,
    )


def _cmd_darboux(args, report: dict) -> int:
    D = parse_derivation(args.derivation)
    family = recognize_family(D)
    report["family"] = describe_family(family)
    bounds = _search_bounds(args)
    report["bounds"] = dataclasses.asdict(bounds)
    # the search raises UnsupportedFamily outside its hypotheses
    outcome = darboux_search_power_family(family, bounds)
    report["results"] = {"search": describe_search(outcome)}
    return EXIT_OK if outcome.status == "found" else EXIT_NOT_FOUND


def _read_grid(path: str):
    cells = []
    keys = ("a2", "a1", "a0")
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
            if not (isinstance(record, dict) and all(isinstance(record.get(k), str) for k in keys)):
                raise ValueError(
                    f"{path}:{number}: a grid line must be an object with string a2, a1 and a0"
                )
            cell = []
            for k in keys:
                try:
                    cell.append(parse_poly(record[k], X_ONLY))
                except ParseError as exc:
                    raise ValueError(f"{path}:{number}: {k}: {exc}") from None
            cells.append(tuple(cell))
    return cells


def _cmd_scan(args, report: dict) -> int:
    search_bounds = _search_bounds(args)
    grid = _read_grid(args.grid)
    rows = conjecture_scan(args.alpha, grid, search_bounds)
    bounds = dataclasses.asdict(search_bounds)
    lines = [json.dumps(describe_scan_row(row, bounds), sort_keys=True) for row in rows]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    status = Counter(r.darboux_status for r in rows)
    # every row counts once: a cell is skipped exactly when it fails the
    # necessary conditions, and a passing one is searched or unsupported
    report["results"] = {
        "cells": len(rows),
        "necessary_fail": status["skipped"],
        "none_up_to_bounds": status["none-up-to-bounds"],
        "found": status["found"],
        "undecided_residual": status["undecided-residual"],
        "unsupported": status["unsupported"],
    }
    report["bounds"] = bounds
    return EXIT_OK


def _add_search_bounds(p: argparse.ArgumentParser, n_max: int, d0_deg: int, cx_deg: int) -> None:
    """The Darboux search bounds, shared by darboux and conjecture-scan."""
    p.add_argument("--n-max", type=int, default=n_max)
    p.add_argument("--d0-deg", type=int, default=d0_deg)
    p.add_argument("--cx-deg", type=int, default=cx_deg)
    p.add_argument("--effort", type=int, default=SearchBounds.residual_effort)


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser from overwriting flags given before the
    # subcommand with its own defaults
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit the JSON report",
    )
    shared.add_argument(
        "--out", default=argparse.SUPPRESS, help="write the report to a file"
    )

    parser = argparse.ArgumentParser(
        prog="dercert",
        description="Exact simplicity, Darboux and image decisions for polynomial derivations",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze", parents=[shared], help="family recognition plus every supported verdict"
    )
    p.set_defaults(run=_cmd_analyze)
    p.add_argument("derivation")

    p = sub.add_parser("darboux", parents=[shared], help="bounded Darboux polynomial search")
    p.set_defaults(run=_cmd_darboux)
    p.add_argument("derivation")
    _add_search_bounds(p, n_max=3, d0_deg=3, cx_deg=4)

    p = sub.add_parser("image", parents=[shared], help="bounded image membership for a target")
    p.set_defaults(run=_cmd_image)
    p.add_argument("derivation")
    p.add_argument("--target", required=True)
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("mz", parents=[shared], help="Mathieu-Zhao status of the image")
    p.set_defaults(run=_cmd_mz)
    p.add_argument("derivation")

    p = sub.add_parser(
        "conjecture-scan", parents=[shared], help="evidence table over a coefficient grid"
    )
    p.set_defaults(run=_cmd_scan)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--grid", required=True, help="JSONL file of {a2, a1, a0} strings")
    _add_search_bounds(p, n_max=2, d0_deg=2, cx_deg=3)
    return parser


# the parser run_command uses, built on its first call
_parser: argparse.ArgumentParser | None = None


def run_command(argv: list[str]) -> int:
    """Run one CLI request and return its exit code.

    One parser, built on the first call, serves every call in the
    process.  No state carries over between requests: each parse starts
    from a fresh namespace, and the SUPPRESS defaults leave --json and
    --out unset unless this request gives them.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    if "--target" in argv:
        # argparse takes a value such as -x for an option; bind it to --target
        i = argv.index("--target")
        if argv[i + 1 : i + 2] and argv[i + 1].startswith("-"):
            argv = [*argv[:i], f"--target={argv[i + 1]}", *argv[i + 2 :]]
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    args.json = getattr(args, "json", False)
    args.out = getattr(args, "out", None)
    start = time.perf_counter()
    report: dict = {"schema": SCHEMA, "command": args.command}
    if getattr(args, "derivation", None) is not None:
        report["input"] = args.derivation
    try:
        code = args.run(args, report)
    except UnsupportedFamily as exc:
        report["results"] = {"error": str(exc)}
        code = EXIT_UNSUPPORTED
    except (ZeroPolynomial, VariableMismatch) as exc:
        # ValueErrors raised by the polynomial core on internal results
        report["results"] = {"error": f"internal fault: {exc}"}
        code = EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        # parse errors and invalid argument values (negative bounds,
        # unreadable grid files)
        report["results"] = {"error": str(exc)}
        code = EXIT_PARSE
    except CheckFailed as exc:
        report["results"] = {"error": f"internal check failed: {exc}"}
        code = EXIT_INTERNAL
    report["exit_code"] = code
    report["timing_ms"] = round((time.perf_counter() - start) * 1000, 3)
    is_scan = args.command == "conjecture-scan"
    if not is_scan or args.json or code != EXIT_OK:
        # the scan's --out file holds the evidence JSONL, not the report;
        # its report is printed with --json, or always when it failed
        _emit(
            report,
            args,
            sys.stdout if code == EXIT_OK else sys.stderr,
            allow_file=not is_scan,
        )
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
