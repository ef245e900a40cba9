"""Parsing and printing of tree monomials and operad elements.

The monomial form mirrors the relation lists this package reproduces:
generator name, parenthesized children separated by spaces, leaves as
integers, e.g. ``x(y(1 3) 2)``.  Elements are signed rational combinations;
the canonical printer emits ``1*z(z(1 2) 3) - 1*z(1 z(2 3))`` (descending
monomial order), while the parser also accepts the bare style used in the
relation fixtures (``z(z(1 2) 3) - z(1 z(2 3)) + 2 x(...)``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .elements import OperadElement, add_term
from .trees import GeneratorSymbol, Tree, TreeError, TreeOrder, is_complete, leaf, node


class ParseError(ValueError):
    """Syntax or validation error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<punct>[()*/+-]))")


class _Tokens:
    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        for m in _TOKEN.finditer(text):
            if m.start() != pos:
                break  # unmatched text before this token
            kind = m.lastgroup
            self.toks.append((kind, m.group(kind), m.start(kind) + 1))
            pos = m.end()
        stripped = text[pos:].lstrip()
        if stripped:
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             line, pos + 1)

    def peek(self) -> tuple[str, str, int] | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.line,
                             len(self.text) + 1)
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        kind, val, col = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", self.line, col)

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        col = tok[2] if tok else len(self.text) + 1
        return ParseError(message, self.line, col)


def _parse_tree(tokens: _Tokens, gens: dict[str, int]) -> Tree:
    kind, val, col = tokens.next()
    if kind == "int":
        return leaf(int(val))
    if kind != "name":
        raise ParseError(f"expected monomial, found {val!r}", tokens.line, col)
    if val not in gens:
        raise ParseError(f"unknown generator {val!r}", tokens.line, col)
    tokens.expect("(")
    children = []
    while True:
        tok = tokens.peek()
        if tok is None:
            raise tokens.error("unclosed '('")
        if tok[1] == ")":
            tokens.next()
            break
        children.append(_parse_tree(tokens, gens))
    if len(children) != gens[val]:
        raise ParseError(
            f"generator {val!r} has arity {gens[val]}, got {len(children)} children",
            tokens.line, col)
    try:
        return node(val, children)
    except TreeError as exc:
        raise ParseError(str(exc), tokens.line, col) from None


def parse_generators(text: str, line: int) -> tuple[GeneratorSymbol, ...]:
    """Blank-separated generators in the ``name/arity`` form of
    ``GeneratorSymbol.__str__``."""
    gens = []
    for chunk in text.split():
        name, _, ar = chunk.partition("/")
        if not ar.isdecimal():
            raise ParseError(
                f"generator spec {chunk!r} must look like name/arity", line, 1)
        gens.append(GeneratorSymbol(name, int(ar)))
    return tuple(gens)


def _gen_map(gens: Sequence[GeneratorSymbol]) -> dict[str, int]:
    return {g.name: g.arity for g in gens}


def parse_monomial(text: str, gens: Sequence[GeneratorSymbol],
                   line: int = 1) -> Tree:
    tokens = _Tokens(text, line)
    t = _parse_tree(tokens, _gen_map(gens))
    if tokens.peek() is not None:
        raise tokens.error("trailing input after monomial")
    if not is_complete(t):
        raise ParseError(f"leaf labels must be exactly 1..{t.arity}", line, 1)
    return t


def parse_element(text: str, gens: Sequence[GeneratorSymbol],
                  line: int = 1) -> OperadElement:
    """Parse a signed combination of monomials.

    Coefficients are optional integers or rationals (``3/2``), attached with
    ``*`` or juxtaposition: ``- 1*z(1 z(2 3))``, ``+ 2 x(x(1 3) 2)``.
    """
    tokens = _Tokens(text, line)
    gmap = _gen_map(gens)
    acc: dict[Tree, Fraction] = {}
    arity: int | None = None
    sign = Fraction(1)
    first = True
    while tokens.peek() is not None:
        tok = tokens.peek()
        if tok[1] in "+-":
            tokens.next()
            sign = Fraction(1) if tok[1] == "+" else Fraction(-1)
        elif not first:
            raise tokens.error("expected '+' or '-' between terms")
        coeff = sign
        tok = tokens.peek()
        if tok is not None and tok[0] == "int":
            nxt = tokens.toks[tokens.pos + 1] if tokens.pos + 1 < len(tokens.toks) else None
            # An integer here is a coefficient, not a bare leaf monomial,
            # whenever something follows it.
            if nxt is not None and nxt[1] != "+" and nxt[1] != "-":
                tokens.next()
                num = int(tok[1])
                den = 1
                tok2 = tokens.peek()
                if tok2 is not None and tok2[1] == "/":
                    tokens.next()
                    kind3, val3, col3 = tokens.next()
                    if kind3 != "int":
                        raise ParseError("expected denominator", tokens.line, col3)
                    den = int(val3)
                coeff = coeff * Fraction(num, den)
                tok3 = tokens.peek()
                if tok3 is not None and tok3[1] == "*":
                    tokens.next()
        t = _parse_tree(tokens, gmap)
        if not is_complete(t):
            raise ParseError(f"leaf labels must be exactly 1..{t.arity}",
                             tokens.line, 1)
        if arity is None:
            arity = t.arity
        elif t.arity != arity:
            raise tokens.error(
                f"mixed arities in element: {arity} and {t.arity}")
        add_term(acc, t, coeff)
        sign = Fraction(1)
        first = False
    if arity is None:
        raise ParseError("empty element", line, 1)
    return OperadElement(acc, arity)


def format_element(f: OperadElement, order: TreeOrder) -> str:
    """Canonical text: descending monomial order, explicit coefficients."""
    if f.is_zero():
        return "0"
    parts: list[str] = []
    for t, c in f.sorted_terms(order):
        mag = abs(c)
        sign = "-" if c < 0 else "+"
        chunk = f"{mag}*{t}"
        if not parts:
            parts.append(chunk if c > 0 else f"-{chunk}")
        else:
            parts.append(f"{sign} {chunk}")
    return " ".join(parts)
