"""Seeded request generators, output checks and verdict records.

Each workload turns a seed into an endless stream of CLI requests, laid
out in rounds: every round holds a fixed number of requests per stratum,
shuffled, so any prefix of the stream has nearly the same mix.  Round i
depends only on the workload, the seed and i.  Each request carries what
its output must show; `check` compares a report against it, replays the
certificates and returns the timing-free verdict record that goes into
the verdict digest.

Expectations are derived from the generator's own parameters with the
closed-form rules of the paper (simplicity criterion, Mathieu-Zhao rules,
the constructed Darboux factor y + 1/l), not by asking dercert.
Certificates are replayed with dercert's parser and arithmetic.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# -- univariate polynomials over Q as {exponent: Fraction} -----------------


def _uni(coeffs) -> dict[int, Fraction]:
    """Low-to-high coefficient list to the sparse form."""
    return {e: Fraction(c) for e, c in enumerate(coeffs) if c}


def _uni_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _uni_scale(p, s):
    return {e: c * s for e, c in p.items() if c * s}


def _uni_mul(p, q):
    out: dict[int, Fraction] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _deg(p) -> int:
    return max(p) if p else -1


def _coeff_str(c: Fraction) -> str:
    return str(c) if c.denominator == 1 else f"({c})"


def uni_str(p) -> str:
    """Expanded rendering of a univariate polynomial in x."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
        mono = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        mag = abs(c)
        body = _coeff_str(mag) if not mono else (
            mono if mag == 1 else f"{_coeff_str(mag)}*{mono}"
        )
        if not parts:
            # "-x^2" would read as (-x)^2, so a leading minus keeps its 1
            if c < 0:
                body = f"-{_coeff_str(mag)}*{mono}" if mono else f"-{body}"
            parts.append(body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


@dataclass(frozen=True)
class Coeff:
    """A coefficient polynomial with the text the request spells it as."""

    poly: dict
    text: str


def plain(p) -> Coeff:
    return Coeff(p, uni_str(p))


def power_form(scale: int, shift: int, k: int) -> Coeff:
    """scale*(x + shift)^k, written unexpanded so the parser expands it."""
    base = _uni([shift, 1])
    p = {0: Fraction(1)}
    for _ in range(k):
        p = _uni_mul(p, base)
    p = _uni_scale(p, Fraction(scale))
    text = f"(x + {shift})^{k}" if shift >= 0 else f"(x - {-shift})^{k}"
    if scale != 1:
        text = f"{scale}*{text}"
    return Coeff(p, text)


def _nonzero(rng: random.Random, lo: int = -3, hi: int = 3) -> int:
    return rng.choice([v for v in range(lo, hi + 1) if v])


def _rand_uni(rng: random.Random, deg: int, lo: int = -3, hi: int = 3) -> dict:
    """Random polynomial of exact degree deg (deg -1 is the zero polynomial)."""
    if deg < 0:
        return {}
    coeffs = [rng.randint(lo, hi) for _ in range(deg)] + [_nonzero(rng, lo, hi)]
    return _uni(coeffs)


def _dense_uni(rng: random.Random, deg: int) -> dict:
    """Random polynomial of degree deg with every coefficient nonzero.

    The cost of a search depends on which coefficients vanish, so strata
    that should cost the same keep all of them.
    """
    return _uni([_nonzero(rng) for _ in range(deg + 1)])


# -- the paper's closed-form rules, on coefficient dicts --------------------


def condition3_l(a2, a1, a0: Fraction, beta: int = 1) -> list[Fraction]:
    """Every l in Q* with a2 = l*a1 + (-1)^beta * l^(beta+1) * a0.

    beta = 1 is condition 3 of the plane-quadratic simplicity criterion.
    """
    sign = 1 if beta % 2 == 0 else -1
    if _deg(a1) >= 1:
        j = _deg(a1)
        l = a2.get(j, Fraction(0)) / a1[j]
        if l == 0:
            return []
        rhs = _uni_add(_uni_scale(a1, l), {0: sign * l ** (beta + 1) * a0})
        return [l] if rhs == a2 else []
    if _deg(a2) >= 1:
        return []
    raise ValueError("the generators give a2 or a1 a positive degree")


def simple_plane(a2, a1, a0) -> bool:
    """Simplicity criterion for y*dx + (a2*y^2 + a1*y + a0)*dy."""
    if not a0 or _deg(a0) > 0:
        return False
    if _deg(a1) < 1 and _deg(a2) < 1:
        return False
    return not condition3_l(a2, a1, a0[0])


def necessary_power(a2, a1, a0, beta: int) -> bool:
    """The power family's necessary conditions (a0 constant, a2 nonconstant)."""
    return bool(a0) and _deg(a0) == 0 and not condition3_l(a2, a1, a0[0], beta)


# -- requests -----------------------------------------------------------


@dataclass
class Request:
    kind: str  # image | darboux | scan | analyze | mz
    stratum: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    derivation: str = ""


def _plane_quadratic(a2: Coeff, a1: Coeff, a0: Coeff, alpha: int = 1) -> str:
    parts = []
    hi, lo = ("y^2", "y") if alpha == 1 else (f"y^{alpha + 1}", f"y^{alpha}")
    if a2.poly:
        parts.append(f"({a2.text})*{hi}")
    if a1.poly:
        parts.append(f"({a1.text})*{lo}")
    if a0.poly:
        parts.append(f"({a0.text})")
    x_image = "y" if alpha == 1 else f"y^{alpha}"
    return f"deriv{{x: {x_image}, y: {' + '.join(parts) or '0'}}}"


def _diag_x(gammas: list[Coeff], ks: list[int]) -> str:
    entries = ["x: 1"] + [
        f"y{i + 1}: ({g.text})*y{i + 1}" + (f"^{k}" if k > 1 else "")
        for i, (g, k) in enumerate(zip(gammas, ks))
    ]
    return "deriv{" + ", ".join(entries) + "}"


def _diag(gammas: list[int], ks: list[int]) -> str:
    entries = []
    for i, (g, k) in enumerate(zip(gammas, ks)):
        name = f"y{i + 1}"
        entries.append(f"{name}: {g}" + ("" if k == 0 else f"*{name}" + (f"^{k}" if k > 1 else "")))
    return "deriv{" + ", ".join(entries) + "}"


def _mono_str(names, exps, coeff: int) -> str:
    factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return f"{coeff}*" + "*".join(factors)


def _rand_poly_text(rng: random.Random, names: tuple[str, ...], degree: int, terms: int) -> str:
    """A sparse polynomial with one term of exactly `degree` and no constant."""
    seen = set()
    out = []
    while len(out) < terms:
        total = degree if not out else rng.randint(1, degree)
        exps = [0] * len(names)
        for _ in range(total):
            exps[rng.randrange(len(names))] += 1
        if tuple(exps) in seen:
            continue
        seen.add(tuple(exps))
        out.append(_mono_str(names, exps, _nonzero(rng)))
    return " + ".join(out)


# -- workload: image-bounded ----------------------------------------------


def _image_request(stratum, derivation, target, bound, expect) -> Request:
    return Request(
        "image",
        stratum,
        ["--json", "image", derivation, "--target", target, "--bound", str(bound)],
        expect,
        derivation,
    )


def _member(stratum, rng, derivation, names, g_degree, bound) -> Request:
    """Target D(g), filled in by `_materialize` when the round is generated."""
    g = _rand_poly_text(rng, names, g_degree, 4)
    req = _image_request(stratum, derivation, "", bound, {"status": "member"})
    req.expect["g"] = g
    return req


def _simple_linear(rng) -> tuple[Coeff, Fraction]:
    return plain(_dense_uni(rng, 1)), Fraction(_nonzero(rng))


def _quadratic_cell(rng) -> tuple[Coeff, Coeff, Coeff]:
    return plain(_dense_uni(rng, 1)), plain(_dense_uni(rng, 1)), plain(_uni([_nonzero(rng)]))


# Thirteen requests a round, seven of them members.  Sorted by cost, the
# round is four cheap diagonal requests, six plane-quadratic and three
# plane-linear ones, so the median falls in the middle of the
# plane-quadratic stratum and p90 in the middle of the plane-linear one.
def _image_round(rng: random.Random, work_dir: str, index: int) -> list[Request]:
    reqs = []
    for member in (True, True, False):
        a1, a0 = _simple_linear(rng)
        d = _plane_quadratic(plain({}), a1, plain({0: a0}))
        bound = 33
        if member:
            reqs.append(_member("plane-linear-member", rng, d, ("x", "y"), 5, bound))
        else:
            reqs.append(
                _image_request(
                    "plane-linear-x", d, "x", bound,
                    {"status": "not-found-up-to", "certified": "P2.2"},
                )
            )
    for member in (True, True, True, False, False, False):
        d = _plane_quadratic(*_quadratic_cell(rng))
        bound = 27
        if member:
            reqs.append(_member("plane-quadratic-member", rng, d, ("x", "y"), 4, bound))
        else:
            reqs.append(_image_request("plane-quadratic-x", d, "x", bound, {}))

    # translation-diagonal dx + g1*y1^k1*d1 + g2*y2^k2*d2
    gammas = [plain(_dense_uni(rng, 1)) for _ in range(2)]
    d = _diag_x(gammas, rng.sample([1, 2], 2))
    reqs.append(_member("diag-x-member", rng, d, ("x", "y1", "y2"), 3, 10))
    gammas = [plain(_dense_uni(rng, 1)) for _ in range(2)]
    d = _diag_x(gammas, [2, 1])
    reqs.append(
        _image_request(
            "diag-x-y1", d, "y1", 10, {"status": "not-found-up-to", "certified": "T5.1"}
        )
    )

    # diagonal sum gamma_i*y_i^k_i*d_i in three variables
    gammas = [_nonzero(rng) for _ in range(3)]
    d = _diag(gammas, rng.sample([1, 2, 2], 3))
    reqs.append(_member("diag-member", rng, d, ("y1", "y2", "y3"), 3, 11))
    gammas = [_nonzero(rng) for _ in range(3)]
    m = rng.randint(5, 6)
    d = _diag(gammas, [2, 1, 1])
    reqs.append(
        _image_request(
            "diag-mixed", d, f"y1*y2^{m}", 11,
            {"status": "not-found-up-to", "certified": "T5.3"},
        )
    )
    return reqs


# -- workload: darboux-search ---------------------------------------------

_L_VALUES = [Fraction(v) for v in (1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(-1, 3)]


def _darboux_request(stratum, derivation, bounds, expect) -> Request:
    n, d0, cx = bounds
    return Request(
        "darboux",
        stratum,
        ["--json", "darboux", derivation, "--n-max", str(n), "--d0-deg", str(d0), "--cx-deg", str(cx)],
        expect,
        derivation,
    )


def _simple_quadratic_cell(rng, deg_a2: int = 1, deg_a1: int = 1, make=_dense_uni):
    while True:
        a2 = make(rng, deg_a2)
        a1 = make(rng, deg_a1)
        a0 = _uni([_nonzero(rng)])
        if simple_plane(a2, a1, a0):
            return plain(a2), plain(a1), plain(a0)


def _nonsimple_quadratic_cell(rng, deg_a1: int = 1, make=_dense_uni):
    """a2 = l*a1 - l^2*a0 with deg a1 >= 1, so y + 1/l is a Darboux factor."""
    l = rng.choice(_L_VALUES)
    a1 = make(rng, deg_a1)
    a0 = _uni([_nonzero(rng)])
    a2 = _uni_add(_uni_scale(a1, l), {0: -l * l * a0[0]})
    return plain(a2), plain(a1), plain(a0), l


def _power_cell(rng, deg_a1: int, make=_dense_uni):
    """deg a2 = 1 and a nonzero constant a0; deg a1 = -1 means a1 = 0."""
    return plain(make(rng, 1)), plain(make(rng, deg_a1)), plain(_uni([_nonzero(rng)]))


def _failing_power_cell(rng, beta: int):
    """a2 = l*a1 + (-1)^beta*l^(beta+1)*a0: condition 3 fails at l."""
    l = rng.choice(_L_VALUES[:5])
    a1 = _rand_uni(rng, 1)
    a0 = _uni([_nonzero(rng)])
    sign = 1 if beta % 2 == 0 else -1
    a2 = _uni_add(_uni_scale(a1, l), {0: sign * l ** (beta + 1) * a0[0]})
    return plain(a2), plain(a1), plain(a0), l


# Ten requests a round, with fixed coefficient degrees and bounds per
# stratum: three cheap ones (a constructed non-simple cell, an alpha = 2
# cell and a scan), four simple alpha = 1 cells and three alpha = 3
# cells.  Sorted by cost, the median falls in the middle of the simple
# stratum and p90 in the middle of the alpha = 3 one.
def _darboux_round(rng: random.Random, work_dir: str, index: int) -> list[Request]:
    reqs = []
    for _ in range(4):
        d = _plane_quadratic(*_simple_quadratic_cell(rng))
        reqs.append(_darboux_request("alpha1-simple", d, (4, 3, 4), {"simple": True}))
    a2, a1, a0, l = _nonsimple_quadratic_cell(rng)
    reqs.append(
        _darboux_request(
            "alpha1-nonsimple", _plane_quadratic(a2, a1, a0), (3, 3, 4),
            {"simple": False, "factor_l": str(l)},
        )
    )
    d = _plane_quadratic(*_power_cell(rng, 1), 2)
    reqs.append(_darboux_request("alpha2", d, (3, 2, 3), {}))
    for _ in range(3):
        d = _plane_quadratic(*_power_cell(rng, 1), 3)
        reqs.append(_darboux_request("alpha3", d, (3, 2, 4), {}))

    # conjecture-scan over a small alpha = 2 grid written at setup
    cells, expected = [], []
    a2, a1, a0, l = _failing_power_cell(rng, 2)
    cells.append((a2, a1, a0))
    expected.append({"necessary": "fail", "l_witness": str(l)})
    for _ in range(3):
        a2, a1, a0 = _power_cell(rng, rng.randint(-1, 1), _rand_uni)
        cells.append((a2, a1, a0))
        passed = necessary_power(a2.poly, a1.poly, a0.poly, 2)
        expected.append({"necessary": "pass" if passed else "fail"})
    order = list(range(len(cells)))
    rng.shuffle(order)
    grid = os.path.join(work_dir, f"grid-{index}.jsonl")
    evidence = os.path.join(work_dir, f"evidence-{index}.jsonl")
    with open(grid, "w", encoding="utf-8") as fh:
        for i in order:
            a2, a1, a0 = cells[i]
            fh.write(json.dumps({"a2": a2.text, "a1": a1.text or "0", "a0": a0.text}) + "\n")
    reqs.append(
        Request(
            "scan",
            "scan-alpha2",
            ["--json", "conjecture-scan", "--alpha", "2", "--grid", grid, "--out", evidence,
             "--n-max", "2", "--d0-deg", "2", "--cx-deg", "3"],
            {"rows": [expected[i] for i in order], "evidence": evidence},
        )
    )
    return reqs


# -- workload: decide-mix -----------------------------------------------------


def _maybe_power(rng, deg_hi: int, k_hi: int) -> Coeff:
    """A nonconstant coefficient, a third of the time in power form."""
    if rng.random() < 1 / 3:
        return power_form(_nonzero(rng, -2, 2), rng.randint(-3, 3), rng.randint(2, k_hi))
    return plain(_rand_uni(rng, rng.randint(1, deg_hi)))


def _linear_cell(rng):
    r = rng.random()
    if r < 0.7:
        a1, a0 = _maybe_power(rng, 3, 12), Fraction(_nonzero(rng))
    elif r < 0.85:
        a1, a0 = plain(_uni([_nonzero(rng)])), Fraction(_nonzero(rng))
    else:
        a1, a0 = _maybe_power(rng, 2, 6), Fraction(0)
    simple = a0 != 0 and _deg(a1.poly) >= 1
    return a1, a0, simple


def _decide_linear(rng, command: str) -> Request:
    a1, a0, simple = _linear_cell(rng)
    d = _plane_quadratic(plain({}), a1, plain({0: a0} if a0 else {}))
    expect = {"family": "plane-linear", "mz": not simple}
    if command == "analyze":
        expect.update(simple=simple, locally_finite=_deg(a1.poly) <= 0)
    return Request(command, f"{command}-plane-linear", ["--json", command, d], expect, d)


def _decide_quadratic(rng) -> Request:
    r = rng.random()
    if r < 0.5:
        a2, a1, a0 = _simple_quadratic_cell(rng, rng.randint(1, 2), rng.randint(-1, 2), _rand_uni)
        if rng.random() < 0.5:
            a2 = _maybe_power(rng, 2, 8)
    elif r < 0.8:
        a2, a1, a0, _ = _nonsimple_quadratic_cell(rng, rng.randint(1, 2), _rand_uni)
    else:
        a2, a1 = plain(_rand_uni(rng, 1)), plain(_rand_uni(rng, 1))
        a0 = plain(_rand_uni(rng, rng.randint(-1, 1)))
    simple = simple_plane(a2.poly, a1.poly, a0.poly)
    d = _plane_quadratic(a2, a1, a0)
    return Request(
        "analyze", "analyze-plane-quadratic", ["--json", "analyze", d],
        {"family": "plane-quadratic", "simple": simple}, d,
    )


def _decide_power(rng) -> Request:
    alpha = rng.randint(2, 3)
    if rng.random() < 0.4:
        a2, a1, a0, _ = _failing_power_cell(rng, alpha)
    else:
        a2, a1, a0 = _power_cell(rng, 1, _rand_uni)
    passed = necessary_power(a2.poly, a1.poly, a0.poly, alpha)
    d = _plane_quadratic(a2, a1, a0, alpha)
    return Request(
        "analyze", "analyze-plane-power", ["--json", "analyze", d],
        {"family": "plane-power", "passed": passed}, d,
    )


def _decide_diag_x(rng, command: str) -> Request:
    n = rng.randint(1, 3)
    gammas, ks = [], []
    for _ in range(n):
        if rng.random() < 0.5:
            gammas.append(plain(_uni([_nonzero(rng)])))
        else:
            gammas.append(_maybe_power(rng, 2, 6))
        ks.append(rng.choice([1, 1, 2, 3]))
    mz = all(k == 1 and _deg(g.poly) == 0 for g, k in zip(gammas, ks))
    d = _diag_x(gammas, ks)
    expect = {"family": "translation-diagonal", "mz": mz}
    if command == "analyze":
        expect["locally_finite"] = mz
    return Request(command, f"{command}-diag-x", ["--json", command, d], expect, d)


def _decide_diag(rng, command: str) -> Request:
    n = rng.randint(2, 4)
    gammas = [_nonzero(rng) for _ in range(n)]
    ks = [rng.choice([0, 1, 1, 2, 3]) for _ in range(n)]
    mz = all(k <= 1 for k in ks)
    d = _diag(gammas, ks)
    expect = {"family": "diagonal", "mz": mz}
    if command == "analyze":
        expect["locally_finite"] = mz
    return Request(command, f"{command}-diag", ["--json", command, d], expect, d)


def _decide_round(rng: random.Random, work_dir: str, index: int) -> list[Request]:
    reqs = []
    for _ in range(3):
        reqs.append(_decide_linear(rng, "analyze"))
        reqs.append(_decide_quadratic(rng))
    for _ in range(2):
        reqs.append(_decide_power(rng))
        reqs.append(_decide_diag_x(rng, "analyze"))
        reqs.append(_decide_diag(rng, "analyze"))
        reqs.append(_decide_linear(rng, "mz"))
        reqs.append(_decide_diag_x(rng, "mz"))
        reqs.append(_decide_diag(rng, "mz"))
    return reqs


# -- workload table -----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[random.Random, str, int], list[Request]]
    # rounds whose verdicts form the digest and whose counters are reported;
    # they always run to the end, whatever the time limit
    prefix_rounds: int
    # cheap fixed requests, one per command the workload uses, run at set-up
    warmup: tuple[tuple[str, ...], ...]


WORKLOADS = {
    "image-bounded": Workload(
        _image_round,
        prefix_rounds=4,
        warmup=(("--json", "image", "deriv{x: y, y: x*y + 1}", "--target", "x", "--bound", "6"),),
    ),
    "darboux-search": Workload(
        _darboux_round,
        prefix_rounds=5,
        warmup=(
            ("--json", "darboux", "deriv{x: y, y: x*y^2 + 1}", "--n-max", "1", "--d0-deg", "1",
             "--cx-deg", "2"),
        ),
    ),
    "decide-mix": Workload(
        _decide_round,
        prefix_rounds=40,
        warmup=(
            ("--json", "analyze", "deriv{x: y, y: x*y + 1}"),
            ("--json", "mz", "deriv{y1: y1^2, y2: y2}"),
        ),
    ),
}


def generate_round(name: str, seed: int, index: int, work_dir: str) -> list[Request]:
    """Round `index` of the workload's request stream for this seed.

    Member targets of image-bounded are computed as D(g) with dercert,
    so dercert must be importable.
    """
    rng = random.Random(f"{name}:{seed}:{index}")
    requests = WORKLOADS[name].make_round(rng, work_dir, index)
    rng.shuffle(requests)
    _materialize(requests)
    return requests


def _materialize(requests: list[Request]) -> None:
    """Fill in member targets as D(g)."""
    from dercert.expr import parse_derivation, parse_poly, poly_to_str

    for req in requests:
        g = req.expect.get("g")
        if g is None:
            continue
        D = parse_derivation(req.derivation)
        target = D.apply(parse_poly(g, D.variables))
        if target.is_zero():
            raise ValueError(f"generated g is a constant of {req.derivation}: {g}")
        req.argv[req.argv.index("--target") + 1] = poly_to_str(target)


# -- checks -----------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _report(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None


def check(req: Request, code: int, stdout: str) -> list:
    """Validate one output and return its verdict record.

    Raises CheckFailed when the exit code, the verdict or a replayed
    certificate is wrong.
    """
    report = _report(stdout)
    _require(report.get("exit_code") == code, "report exit_code differs from the return code")
    return _CHECKS[req.kind](req, code, report)


def _check_image(req, code, report) -> list:
    from dercert.expr import parse_derivation, parse_poly

    membership = report["results"]["membership"]
    status = membership["status"]
    want = req.expect.get("status")
    if want is not None:
        _require(status == want, f"membership {status}, expected {want}")
    record = [code, status]
    if status == "member":
        _require(code == 0, "member must exit 0")
        D = parse_derivation(req.derivation)
        target = parse_poly(req.argv[req.argv.index("--target") + 1], D.variables)
        pre = parse_poly(membership["preimage"], D.variables)
        _require(D.apply(pre) == target, "D(preimage) != target")
        _require(membership["kernel_dim"] >= 1, "constants lie in the kernel")
        record += [membership["preimage"], membership["kernel_dim"]]
    else:
        _require(code == 4 and status == "not-found-up-to", f"unexpected image outcome {status}")
        certified = report["results"].get("certified")
        want_tag = req.expect.get("certified")
        if want_tag is not None:
            _require(certified is not None, "certified pattern did not fire")
            _require(certified["theorem"] == want_tag, f"tag {certified['theorem']}, expected {want_tag}")
        record.append(certified and [certified["status"], certified["theorem"], certified["claim"]])
    return record


def _check_darboux(req, code, report) -> list:
    from dercert.expr import parse_derivation, parse_poly

    search = report["results"]["search"]
    status = search["status"]
    _require(code == (0 if status == "found" else 4), f"exit {code} for {status}")
    _require(status in ("found", "none-up-to-bounds", "undecided-residual"), f"status {status}")
    D = parse_derivation(req.derivation)
    found = []
    for pair in search["found"]:
        F = parse_poly(pair["F"], D.variables)
        L = parse_poly(pair["cofactor"], D.variables)
        _require(D.apply(F) == L * F, f"D(F) != L*F for F = {pair['F']}")
        found.append(pair["F"])
    if req.expect.get("simple"):
        _require(status != "found", "a simple derivation reported a Darboux polynomial")
    l_text = req.expect.get("factor_l")
    if l_text is not None:
        _require(status == "found", "constructed non-simple cell: factor not found")
        inv = 1 / Fraction(l_text)
        factor = parse_poly(f"y {'+' if inv > 0 else '-'} {abs(inv)}", D.variables)
        _require(
            any(parse_poly(F, D.variables) == factor for F in found),
            f"y + 1/l with l = {l_text} missing",
        )
    return [code, status, found]


def _check_scan(req, code, report) -> list:
    _require(code == 0, f"scan exit {code}")
    with open(req.expect["evidence"], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    expected = req.expect["rows"]
    _require(len(rows) == len(expected) == report["results"]["cells"], "scan row count")
    record = [code]
    for row, want in zip(rows, expected):
        _require(row["necessary"] == want["necessary"], "necessary-condition verdict")
        if "l_witness" in want:
            _require(
                Fraction(row.get("l_witness", "0")) == Fraction(want["l_witness"]),
                "l witness",
            )
        if row["necessary"] == "fail":
            _require(row["darboux_status"] == "skipped", "failing cell was searched")
        else:
            _require(
                row["darboux_status"] in ("found", "none-up-to-bounds", "undecided-residual"),
                f"darboux status {row['darboux_status']}",
            )
        record.append([row["necessary"], row["darboux_status"], row.get("l_witness")])
    counts = report["results"]
    _require(counts["found"] == sum(r["darboux_status"] == "found" for r in rows), "found count")
    _require(
        counts["necessary_fail"] == sum(r["necessary"] == "fail" for r in rows), "fail count"
    )
    return record


def _replay_ideal(D, certificate: dict) -> None:
    from dercert.expr import parse_poly
    from dercert.simplicity import verify_stable_ideal

    gens = [parse_poly(g, D.variables) for g in certificate["generators"]]
    _require(verify_stable_ideal(D, gens), "stable-ideal certificate does not replay")


def _check_mz(results: dict, want: bool) -> list:
    mz = results["mz"]
    _require(mz["mz"] is want, f"mz {mz['mz']}, expected {want}")
    evidence = mz["evidence"]
    if not want:
        _require(
            isinstance(evidence, dict) and evidence.get("status") == "certified-non-member",
            "non-MZ verdict without a certified obstruction",
        )
    return [mz["mz"], mz["theorem"]]


def _check_decide(req, code, report) -> list:
    from dercert.expr import parse_derivation

    _require(code == 0, f"exit {code}")
    family = report["family"]["name"]
    _require(family == req.expect["family"], f"family {family}")
    results = report["results"]
    record = [code, family]
    if "mz" in req.expect:
        record += _check_mz(results, req.expect["mz"])
    if "locally_finite" in req.expect:
        _require(results["locally_finite"] is req.expect["locally_finite"], "locally_finite")
        record.append(results["locally_finite"])
    if "simple" in req.expect:
        verdict = results["simplicity"]
        _require(verdict["simple"] is req.expect["simple"], f"simple {verdict['simple']}")
        if not verdict["simple"]:
            _replay_ideal(parse_derivation(req.derivation), verdict["certificate"])
        record += [verdict["simple"], verdict["theorem"]]
    if "passed" in req.expect:
        necessary = results["necessary_conditions"]
        _require(necessary["passed"] is req.expect["passed"], "necessary conditions")
        if not necessary["passed"]:
            _replay_ideal(parse_derivation(req.derivation), necessary["witness"])
        record += [necessary["passed"], necessary.get("failed_condition"), necessary.get("l")]
    return record


_CHECKS = {
    "image": _check_image,
    "darboux": _check_darboux,
    "scan": _check_scan,
    "analyze": _check_decide,
    "mz": _check_decide,
}
