"""Parser output pinned term by term.

golden_parse.json was recorded with the parser that built an AST first
and lowered it to MultiPoly in a second pass.  For each polynomial it
holds the variables, the common denominator and
`list(p.numerators.items())`,
so the test pins the insertion order of the terms as well as the value.
No result depends on that order; pinning it shows that a change to the
parser builds the same polynomials the same way.

The entries are about 300 expressions drawn by `generate` from a seeded
grammar walk (unary-minus chains, nested powers, rationals, cancelling
sums, power forms such as (x + 3)^12), some over an explicit ambient
tuple; every coefficient polynomial of grids/power_alpha2.jsonl over
("x",); and every derivation and target of golden_reports.json.

    PYTHONPATH=src python3 tests/test_golden_parse.py   # rewrite the file
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

from dercert import parse_derivation, parse_poly

HERE = Path(__file__).parent
CORPUS = HERE / "golden_parse.json"
GRID = HERE.parent / "grids" / "power_alpha2.jsonl"
REPORTS = HERE / "golden_reports.json"

_VARS = ("x", "y", "y1", "y2", "y3")
_AMBIENTS = (("x", "y"), ("x", "y1", "y2", "y3"), ("x", "y", "y1", "y2", "y3"))


def _space(rng: random.Random) -> str:
    return rng.choice(("", "", " ", "  "))


def _base(rng: random.Random, names, depth: int) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if rng.random() < 0.5:
            return rng.choice(names)
        num = str(rng.randint(0, 12))
        return num + (f"/{rng.randint(1, 9)}" if rng.random() < 0.3 else "")
    if roll < 0.45:
        return "-" * rng.randint(1, 3) + _base(rng, names, depth - 1)
    if roll < 0.6:
        # a power form such as (x + 3)^12
        inner = f"{rng.choice(names)} {rng.choice('+-')} {rng.randint(1, 5)}"
        return f"({inner})^{rng.randint(2, 12)}"
    if roll < 0.7:
        # nested powers
        inner = f"({rng.choice(names)}{_space(rng)}+{_space(rng)}{rng.randint(1, 3)})"
        return f"(({inner}^{rng.randint(1, 3)})^{rng.randint(0, 3)})"
    if roll < 0.8:
        # a sum that cancels
        term = _term(rng, names, depth - 1)
        return f"({term} - ({term}) + {_term(rng, names, depth - 1)})"
    return "(" + _expr(rng, names, depth - 1) + ")"


def _factor(rng: random.Random, names, depth: int) -> str:
    base = _base(rng, names, depth)
    # the grammar takes one exponent per factor
    if rng.random() < 0.25 and not re.search(r"\^\d+$", base):
        return f"{base}{_space(rng)}^{_space(rng)}{rng.randint(0, 4)}"
    return base


def _term(rng: random.Random, names, depth: int) -> str:
    factors = [_factor(rng, names, depth) for _ in range(rng.randint(1, 3))]
    return f"{_space(rng)}*{_space(rng)}".join(factors)


def _expr(rng: random.Random, names, depth: int) -> str:
    out = _term(rng, names, depth)
    for _ in range(rng.randint(0, 2)):
        out += f" {rng.choice('+-')} " + _term(rng, names, depth)
    return out


def generate(count: int = 300, seed: int = 20221) -> list[dict]:
    """Seeded expressions; a third of them over an explicit ambient tuple."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        ambient = rng.choice(_AMBIENTS) if rng.random() < 0.33 else None
        names = ambient or rng.sample(_VARS, rng.randint(1, 3))
        cases.append({"src": _expr(rng, names, rng.randint(0, 2)), "ambient": ambient})
    return cases


def _poly(p) -> dict:
    return {"variables": list(p.variables), "den": p.den, "nums": [[list(e), c] for e, c in p.numerators.items()]}


def _derivation(D) -> dict:
    return {"variables": list(D.variables), "images": [_poly(img) for img in D.images]}


def record() -> dict:
    polys = generate()
    for line in GRID.read_text().splitlines():
        if line.strip():
            polys += [{"src": s, "ambient": ["x"]} for s in json.loads(line).values()]
    derivations = []
    for case in json.loads(REPORTS.read_text()):
        argv = case["argv"]
        D = parse_derivation(argv[2])
        derivations.append({"src": argv[2], **_derivation(D)})
        if "--target" in argv:
            polys.append({"src": argv[argv.index("--target") + 1], "ambient": list(D.variables)})
    for i, case in enumerate(polys):
        case.update(id=i, **_poly(parse_poly(case["src"], case["ambient"] and tuple(case["ambient"]))))
    for i, case in enumerate(derivations):
        case["id"] = i
    return {"polynomials": polys, "derivations": derivations}


def write(corpus: dict) -> None:
    """One case a line, so a change shows up as a change of that case."""
    parts = []
    for key, cases in corpus.items():
        lines = ",\n".join(json.dumps(c) for c in cases)
        parts.append(f"{json.dumps(key)}: [\n{lines}\n]")
    CORPUS.write_text("{\n" + ",\n".join(parts) + "\n}\n")


GOLDEN = json.loads(CORPUS.read_text()) if CORPUS.exists() else {"polynomials": [], "derivations": []}


@pytest.mark.parametrize("case", GOLDEN["polynomials"], ids=lambda c: f"poly-{c['id']}")
def test_polynomial_matches_corpus(case):
    ambient = case["ambient"] and tuple(case["ambient"])
    got = _poly(parse_poly(case["src"], ambient))
    assert got == {k: case[k] for k in ("variables", "den", "nums")}


@pytest.mark.parametrize("case", GOLDEN["derivations"], ids=lambda c: f"deriv-{c['id']}")
def test_derivation_matches_corpus(case):
    got = _derivation(parse_derivation(case["src"]))
    assert got == {k: case[k] for k in ("variables", "images")}


def test_corpus_size():
    assert len(GOLDEN["polynomials"]) >= 300 and len(GOLDEN["derivations"]) >= 10


if __name__ == "__main__":
    write(record())
