"""Polynomial expression parsing and canonical printing.

Grammar (recursive descent, no implicit multiplication):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | base ('^' nat)?
    base     := rational | var | '(' expr ')'
    rational := int ('/' posint)?
    var      := 'x' | 'y' | 'y' digit

Unary minus binds looser than '^', so -x^2 is -(x^2) and -2^2 is -4;
(-x)^2 is x^2.  One pass: a compiled regex splits the whole input into
tokens once, and the parser builds MultiPoly values as it reads them,
applying the grammar's operations left to right.  Printing is the
inverse: parsing a printed polynomial yields an equal polynomial.
Derivations are written as deriv{ x: <poly>, y: <poly> } or
deriv{ x: <poly>, y1: ..., yn: ... }; every declared variable needs an
entry (0 is allowed).

Errors carry the 1-based column, in the string passed, of the token they
name.  A derivation's frame and declared names are checked first; then
the entries are read left to right, and the first offending token is
reported.  A polynomial with a coefficient whose numerator or
denominator has more digits than `str()` prints
(`sys.get_int_max_str_digits()`) is an error at its first token, so
every parsed value can be printed.  So is a '(' or unary '-' nested
inside MAX_NESTING others, which keeps the descent's recursion bounded.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from .derivation import Derivation
from .mpoly import DegreeOverflow, MultiPoly

MAX_EXPONENT = 10**6
MAX_NESTING = 100  # the most '(' and unary '-' open around a token

VAR_NAMES = ("x", "y") + tuple(f"y{i}" for i in range(1, 10))
_VAR_ORDER = {name: i for i, name in enumerate(VAR_NAMES)}

# integers, y-digit names, the keyword, then one character at a time;
# whitespace separates tokens and is skipped
_TOKEN = re.compile(r"\d+|y\d|deriv|\S")
_OPERATORS = frozenset("+-*^()/")
_MARKS = frozenset("{}:,")  # derivation syntax
_END = ""  # appended to every token list


class ParseError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


def sort_variables(names) -> tuple[str, ...]:
    return tuple(sorted(names, key=lambda n: _VAR_ORDER[n]))


class _Reader:
    """Recursive descent over a token list, building polynomials over
    `variables` as it goes.  In a derivation "," and "}" end an entry's
    polynomial the way the end of the input ends a lone one."""

    __slots__ = ("src", "tokens", "pos", "variables", "atoms", "in_derivation", "depth")

    def __init__(self, src: str, tokens: list[str], variables: tuple[str, ...], in_derivation: bool):
        self.src = src
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.atoms = {name: MultiPoly.var(variables, name) for name in variables}
        self.in_derivation = in_derivation
        self.depth = 0  # the '(' and unary '-' being read

    def fail(self, index: int, message: str):
        """Raise at token `index`; a token that cannot be read at all, or the
        end of the input, takes precedence over the message."""
        text = self.tokens[index]
        if text == _END or (self.in_derivation and text in ",}"):
            message = "unexpected end of input"
        elif text[0] == "y" and text not in _VAR_ORDER:
            message = f"unknown variable {text!r}"
        elif not (
            text in _VAR_ORDER
            or text.isdecimal()
            or text in _OPERATORS
            or (self.in_derivation and text in _MARKS)
        ):
            message = f"unexpected character {text[0]!r}"
        raise ParseError(message, _column(self.src, index))

    def integer(self, index: int) -> int:
        """The decimal token at `index`; one too long for int() fails at its column."""
        try:
            return int(self.tokens[index])
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            self.fail(index, f"integer literal of {len(self.tokens[index])} digits is too long")

    def expr_at(self, index: int) -> MultiPoly:
        """The expression starting at token `index`; one with a coefficient
        that has more digits than str() prints fails at that column."""
        self.pos = index
        poly = self.expr()
        # 0 is no limit, as on Pythons before 3.10.7, which lack the getter
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        # a value of at most 3 * limit bits is below 8^limit, so printable;
        # a coefficient is nums[e] / den in lowest terms, no longer than both
        if limit and max(map(int.bit_length, (poly.den, *poly.nums.values()))) > 3 * limit:
            top = 10**limit
            for num in poly.nums.values():
                g = gcd(num, poly.den)
                if abs(num) // g >= top or poly.den // g >= top:
                    raise ParseError(
                        f"a coefficient has more than {limit} digits", _column(self.src, index)
                    )
        return poly

    def enter(self) -> None:
        """Step past the '(' or unary '-' at pos, one nesting level deeper."""
        if self.depth == MAX_NESTING:
            self.fail(self.pos, f"nesting deeper than {MAX_NESTING}")
        self.depth += 1
        self.pos += 1

    def expr(self) -> MultiPoly:
        node = self.term()
        tokens = self.tokens
        while True:
            op = tokens[self.pos]
            if op == "+":
                self.pos += 1
                node = node + self.term()
            elif op == "-":
                self.pos += 1
                node = node - self.term()
            else:
                return node

    def term(self) -> MultiPoly:
        node = self.factor()
        while self.tokens[self.pos] == "*":
            index = self.pos
            self.pos += 1
            right = self.factor()
            try:
                node = node * right
            except DegreeOverflow as exc:
                self.fail(index, str(exc))
        return node

    def factor(self) -> MultiPoly:
        if self.tokens[self.pos] == "-":
            self.enter()
            node = -self.factor()
            self.depth -= 1
            return node
        node = self.base()
        if self.tokens[self.pos] != "^":
            return node
        index = self.pos + 1
        text = self.tokens[index]
        if not text.isdecimal():
            self.fail(index, "exponent must be a nonnegative integer")
        exponent = self.integer(index)
        if exponent > MAX_EXPONENT:
            self.fail(index, f"exponent exceeds {MAX_EXPONENT}")
        self.pos = index + 1
        try:
            return node**exponent
        except DegreeOverflow as exc:
            self.fail(index, str(exc))

    def base(self) -> MultiPoly:
        index = self.pos
        text = self.tokens[index]
        atom = self.atoms.get(text)
        if atom is not None:
            self.pos = index + 1
            return atom
        if text.isdecimal():
            num, den = self.integer(index), 1
            if self.tokens[index + 1] == "/":
                index += 2
                den = self.integer(index) if self.tokens[index].isdecimal() else 0
                if den == 0:
                    self.fail(index, "denominator must be a positive integer")
            self.pos = index + 1
            # an integer literal needs no Fraction
            return MultiPoly.constant(self.variables, num if den == 1 else Fraction(num, den))
        if text == "(":
            self.enter()
            inner = self.expr()
            if self.tokens[self.pos] != ")":
                self.fail(self.pos, "expected ')'")
            self.pos += 1
            self.depth -= 1
            return inner
        if text in _VAR_ORDER:
            if self.in_derivation:
                self.fail(index, f"variable {text!r} is not declared by this derivation")
            self.fail(index, f"unknown variable {text!r} in this context")
        self.fail(index, f"unexpected token {text!r}")


def _tokens(src: str) -> list[str]:
    tokens = _TOKEN.findall(src)
    tokens.append(_END)
    return tokens


def _column(src: str, index: int) -> int:
    """1-based column in src of token `index`; only errors need it."""
    starts = [m.start() for m in _TOKEN.finditer(src)]
    return starts[index] + 1 if index < len(starts) else len(src) + 1


def parse_poly(src: str, variables: tuple[str, ...] | None = None) -> MultiPoly:
    """Parse an expression; ambient variables default to those it uses."""
    tokens = _tokens(src)
    if variables is None:
        used = {text for text in tokens if text in _VAR_ORDER}
        variables = sort_variables(used) if used else ("x",)
    reader = _Reader(src, tokens, tuple(variables), False)
    poly = reader.expr_at(0)
    if tokens[reader.pos] != _END:
        reader.fail(reader.pos, f"unexpected token {tokens[reader.pos]!r}")
    return poly


# -- printing ----------------------------------------------------------


def _format_monomial(variables: tuple[str, ...], exps: tuple[int, ...]) -> str:
    factors = []
    for name, e in zip(variables, exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def poly_to_str(p: MultiPoly) -> str:
    """Canonical rendering, decreasing graded-lex; reparses to an equal value.

    A leading negative term always prints its coefficient explicitly
    ("-1*x^2"); "-x^2" would reparse to the same value, since unary minus
    binds looser than '^'.
    Each coefficient is nums[e] / den in lowest terms, printed as a
    Fraction would print it.
    """
    if p.is_zero():
        return "0"
    den = p.den
    parts = []
    for exps, num in p.descending():
        g = gcd(num, den)
        coeff = str(abs(num) // g) if den == g else f"{abs(num) // g}/{den // g}"
        mono = _format_monomial(p.variables, exps)
        if not mono:
            text = coeff
        elif coeff == "1" and (parts or num > 0):
            text = mono
        else:
            text = f"{coeff}*{mono}"
        if parts:
            parts.append((" + " if num > 0 else " - ") + text)
        else:
            parts.append("-" + text if num < 0 else text)
    return "".join(parts)


# -- derivations ---------------------------------------------------------


def parse_derivation(src: str) -> Derivation:
    """Parse deriv{ v1: <poly>, ..., vn: <poly> } over the declared variables.

    The declared names, the tokens before each ":", fix the variable tuple
    before any entry is read; the entries are then read left to right.
    """
    tokens = _tokens(src)
    if tokens[0] != "deriv":
        raise ParseError("derivation must start with 'deriv'", _column(src, 0))
    if tokens[1] != "{":
        raise ParseError("derivation body must be enclosed in braces", _column(src, 1))
    declared: set[str] = set()
    for index, text in enumerate(tokens):
        if text == ":" and tokens[index - 1] in _VAR_ORDER:
            name = tokens[index - 1]
            if name in declared:
                raise ParseError(f"duplicate variable {name!r}", _column(src, index - 1))
            declared.add(name)
    variables = sort_variables(declared)
    reader = _Reader(src, tokens, variables, True)
    images: dict[str, MultiPoly] = {}
    index = 2
    while tokens[index] != "}":
        name = tokens[index]
        if name == _END:
            raise ParseError("derivation body must be enclosed in braces", _column(src, index))
        if tokens[index + 1] != ":":
            raise ParseError("each entry must look like 'var: polynomial'", _column(src, index))
        if name not in _VAR_ORDER:
            raise ParseError(f"unknown variable {name!r}", _column(src, index))
        images[name] = reader.expr_at(index + 2)
        index = reader.pos
        if tokens[index] == ",":
            index += 1
        elif tokens[index] == _END:
            raise ParseError("derivation body must be enclosed in braces", _column(src, index))
        elif tokens[index] != "}":
            reader.fail(index, f"unexpected token {tokens[index]!r}")
    if not images:
        raise ParseError("derivation needs at least one variable entry", _column(src, index))
    if tokens[index + 1] != _END:
        raise ParseError("derivation body must be enclosed in braces", _column(src, index + 1))
    return Derivation(variables, tuple(images[name] for name in variables))
