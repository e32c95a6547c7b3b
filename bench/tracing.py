"""Layer spans recorded from outside the program.

`Tracer.install` wraps the public functions of each `dercert` module and
`Derivation.apply`.  Callers bind names with `from .linalg import
solve_sparse`, so a wrapper replaces every binding of the original
function in every loaded `dercert` module, not only the defining one;
function-local imports resolve through the defining module and so see
the wrapper too.  Each call made while a request is active becomes a
span (name, start, end, parent span, request id, work counters), kept
in memory.  `layer_metrics` folds the spans into the per-layer numbers.

Polynomial arithmetic (`MultiPoly`, `UniPoly`, `ParamPoly`) runs
millions of fine-grained calls and is not wrapped; its cost shows up in
the self time of whichever layer called it.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at a request's root
    request: int
    counters: dict | None


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_solve(args, kwargs, result) -> dict:
    rows = _arg(args, kwargs, 0, "rows")
    return {
        "rows": len(rows),
        "cols": _arg(args, kwargs, 2, "ncols"),
        "nnz": sum(len(r) for r in rows),
        "rank": 0 if result is None else result.rank,
        "inconsistent": int(result is None),
    }


def _count_membership(args, kwargs, result) -> dict:
    return {"member": int(type(result).__name__ == "Member")}


def _count_residual(args, kwargs, result) -> dict:
    return {
        "equations": len(_arg(args, kwargs, 0, "system")),
        "undecided": int(bool(result.undecided)),
        "solutions": len(result.solutions),
    }


def _count_verify(args, kwargs, result) -> dict:
    return {"verified": int(type(result).__name__ == "DarbouxPair")}


def _count_first_order(args, kwargs, result) -> dict:
    return {"constraints": len(getattr(result, "constraints", ()))}


def _count_roots(args, kwargs, result) -> dict:
    poly = _arg(args, kwargs, 0, "p")
    bits = 0
    for _, c in getattr(poly, "coeffs", ()):
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return {"bits": bits}


# (module, function, span name, counter function); several functions may
# share one span name when they are the same layer's entry points
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "run_command", "cli.request", None),
    ("cli", "_emit", "cli.render", None),
    ("expr", "parse_derivation", "expr.parse", None),
    ("expr", "parse_poly", "expr.parse", None),
    ("expr", "poly_to_str", "expr.print", None),
    ("derivation", "recognize_family", "derivation.recognize", None),
    ("linalg", "solve_sparse", "linalg.solve", _count_solve),
    ("image", "image_membership", "image.membership", _count_membership),
    ("image", "certified_nonmembership", "image.certified", None),
    ("image", "decide_mz", "image.mz", None),
    ("darboux", "darboux_search_family_a", "darboux.search", None),
    ("darboux", "darboux_search_power_family", "darboux.search", None),
    ("darboux", "solve_residual_system", "darboux.residual", _count_residual),
    ("darboux", "verify_darboux", "darboux.verify", _count_verify),
    ("firstorder", "solve_first_order", "firstorder.solve", _count_first_order),
    ("upoly", "rational_roots", "upoly.rational_roots", _count_roots),
    ("mpoly", "divide_exact", "mpoly.divide_exact", None),
    ("simplicity", "decide_simple_family_a", "simplicity.decide", None),
    ("simplicity", "conjecture_necessary", "simplicity.decide", None),
    ("simplicity", "verify_stable_ideal", "simplicity.verify_ideal", None),
    ("simplicity", "conjecture_scan", "simplicity.scan", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.request: int | None = None  # spans are recorded only while set
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def traced(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = self.request
            if rid is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = Span(name, start, perf_counter(), parent, rid, {"error": 1})
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            spans[index] = Span(
                name, start, end, parent, rid, count(args, kwargs, result) if count else None
            )
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            m for n, m in sys.modules.items() if n == "dercert" or n.startswith("dercert.")
        ]
        for module_name, attr, span, count in HOOKS:
            owner = sys.modules.get(f"dercert.{module_name}")
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.traced(span, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self._install_parser()
        derivation = sys.modules.get("dercert.derivation")
        cls = getattr(derivation, "Derivation", None)
        if cls is None or not hasattr(cls, "apply"):
            self.missing.append("derivation.Derivation.apply")
        else:
            self._patch(cls, "apply", self.traced("derivation.apply", cls.apply))

    def _install_parser(self) -> None:
        """cli.parser spans cover building the parser and parsing argv."""
        cli = sys.modules.get("dercert.cli")
        build = getattr(cli, "build_parser", None)
        if build is None:
            self.missing.append("cli.build_parser")
            return

        def build_traced():
            parser = build()
            parser.parse_args = self.traced("cli.parser", parser.parse_args)
            return parser

        self._patch(cli, "build_parser", self.traced("cli.parser", build_traced))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                            "counters": s.counters,
                        }
                    )
                    + "\n"
                )


def span_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    table: dict[str, dict] = {}
    for index, s in enumerate(spans):
        row = table.setdefault(s.name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += s.end - s.start
        row["self"] += s.end - s.start - child[index]
    return table


# metric -> (span name, "total" | "self"); milliseconds per request.
# A `_ms` metric is the span's inclusive time, a `_self_ms` metric (and
# cli.self_ms) its time minus the spans it encloses.  Leaf layers have
# the same inclusive and self time.
TIME_METRICS = {
    "linalg.solve_ms": ("linalg.solve", "total"),
    "derivation.apply_ms": ("derivation.apply", "total"),
    "derivation.recognize_ms": ("derivation.recognize", "total"),
    "image.membership_self_ms": ("image.membership", "self"),
    "image.certified_ms": ("image.certified", "total"),
    "darboux.residual_ms": ("darboux.residual", "total"),
    "darboux.verify_ms": ("darboux.verify", "total"),
    "darboux.search_self_ms": ("darboux.search", "self"),
    "firstorder.solve_ms": ("firstorder.solve", "total"),
    "upoly.rational_roots_ms": ("upoly.rational_roots", "total"),
    "mpoly.divide_exact_ms": ("mpoly.divide_exact", "total"),
    "simplicity.decide_ms": ("simplicity.decide", "total"),
    "simplicity.verify_ideal_ms": ("simplicity.verify_ideal", "total"),
    "simplicity.scan_ms": ("simplicity.scan", "total"),
    "expr.parse_ms": ("expr.parse", "total"),
    "expr.print_ms": ("expr.print", "total"),
    "cli.parser_ms": ("cli.parser", "total"),
    "cli.render_ms": ("cli.render", "total"),
    "cli.self_ms": ("cli.request", "self"),
}

# metric -> span name whose calls are counted
CALL_METRICS = {
    "linalg.solve_calls": "linalg.solve",
    "derivation.apply_calls": "derivation.apply",
    "darboux.residual_calls": "darboux.residual",
    "firstorder.solve_calls": "firstorder.solve",
    "upoly.rational_roots_calls": "upoly.rational_roots",
    "mpoly.divide_exact_calls": "mpoly.divide_exact",
    "expr.parse_calls": "expr.parse",
}

# metric -> (span name, counter) summed over calls
SUM_METRICS = {
    "linalg.rows": ("linalg.solve", "rows"),
    "linalg.cols": ("linalg.solve", "cols"),
    "linalg.nnz": ("linalg.solve", "nnz"),
    "linalg.rank": ("linalg.solve", "rank"),
    "linalg.inconsistent": ("linalg.solve", "inconsistent"),
    "darboux.residual_equations": ("darboux.residual", "equations"),
    "darboux.residual_undecided": ("darboux.residual", "undecided"),
    "firstorder.constraints": ("firstorder.solve", "constraints"),
}


def counter_totals(spans: list[Span]) -> dict[str, dict[str, int]]:
    """Per span name: number of calls and the sum of each counter."""
    totals: dict[str, dict[str, int]] = {}
    for s in spans:
        row = totals.setdefault(s.name, {"calls": 0})
        row["calls"] += 1
        for key, value in (s.counters or {}).items():
            if key == "bits":
                row["bits_max"] = max(row.get("bits_max", 0), value)
            else:
                row[key] = row.get(key, 0) + value
    return totals


def layer_metrics(spans: list[Span], requests: int, prefix: int) -> tuple[dict, dict]:
    """Per-layer metrics and the bases of their ratios.

    Times are milliseconds per request over every traced request.
    Counts are totals over the prefix (requests with id below `prefix`),
    so they repeat exactly for a given seed.
    """
    table = span_table(spans)
    counts = counter_totals([s for s in spans if s.request < prefix])
    out: dict[str, tuple[float, str]] = {}
    for metric, (name, kind) in TIME_METRICS.items():
        seconds = table.get(name, {}).get(kind, 0.0)
        out[metric] = (seconds * 1000 / requests, "ms")
    for metric, name in CALL_METRICS.items():
        out[metric] = (counts.get(name, {}).get("calls", 0), "count")
    for metric, (name, key) in SUM_METRICS.items():
        out[metric] = (counts.get(name, {}).get(key, 0), "count")
    out["upoly.root_coeff_bits_max"] = (
        counts.get("upoly.rational_roots", {}).get("bits_max", 0), "bits",
    )
    membership = counts.get("image.membership", {})
    residual = counts.get("darboux.residual", {})
    verify = counts.get("darboux.verify", {})
    bases = {
        "image.member_ratio": [membership.get("member", 0), membership.get("calls", 0)],
        "darboux.verified_ratio": [verify.get("verified", 0), residual.get("solutions", 0)],
    }
    for metric, (num, den) in bases.items():
        out[metric] = (num / den if den else 0.0, "ratio")
    return out, bases
