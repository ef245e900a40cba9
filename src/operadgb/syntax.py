"""Parsing and printing of tree monomials and operad elements.

The monomial form mirrors the relation lists this package reproduces:
generator name, parenthesized children separated by spaces, leaves as
integers, e.g. ``x(y(1 3) 2)``.  Elements are signed rational combinations;
the canonical printer emits ``1*z(z(1 2) 3) - 1*z(1 z(2 3))`` (descending
monomial order), while the parser also accepts the bare style used in the
relation fixtures (``z(z(1 2) 3) - z(1 z(2 3)) + 2 x(...)``).

The parser reads an element a term at a time, each with one match that
gives its sign, its coefficient and the text its monomial can span, and a
monomial a token at a time.  Each generator list keeps a memo from
monomial text to its tree, so a monomial that recurs, as tail monomials do
across the rules of a basis file, is parsed once.  A term's monomial is
looked up by the text up to the next operator; only a text that parsed as
one whole monomial is ever stored, so a hit is exactly what parsing it
would give.  Errors are never memoized: they come from parsing, with their
line and column.  The memo keeps a text for each tree it holds, and the
trees stay interned anyway; like the interning table it fills lazily and
is not synchronized.
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


# one token after optional blanks: an integer, a name or a punctuation mark
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()*/+-]))")
_INT, _NAME, _PUNCT = 1, 2, 3
# a character that is part of no token
_UNTOKENIZABLE = re.compile(r"[^\s\dA-Za-z_()*/+-]")
# One term: a sign; a coefficient, which is a whole integer (never a
# shorter prefix of one) with a token other than + or - after it, then an
# optional /denominator and *; then the text the monomial can span, up to
# the next operator.
_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+)(?!\d)(?=\s*[^\s+-])\s*"
                   r"(?:(/)\s*(\d+)?\s*)?\*?)?\s*([^*/+-]*)")

# generators -> (name -> arity, monomial text -> tree)
_PARSED: dict[tuple[GeneratorSymbol, ...],
              tuple[dict[str, int], dict[str, Tree]]] = {}


def _signature(gens: Sequence[GeneratorSymbol]
               ) -> tuple[dict[str, int], dict[str, Tree]]:
    """The generator map of ``gens`` and its memo of parsed monomials; a
    text parsed under one generator list is never looked up under another."""
    key = tuple(gens)
    sig = _PARSED.get(key)
    if sig is None:
        sig = _PARSED[key] = ({g.name: g.arity for g in key}, {})
    return sig


def _col(m: re.Match | None, text: str) -> int:
    """The column of the token ``m``, or just past the end without one."""
    return len(text) + 1 if m is None else m.start(m.lastindex) + 1


def _check_characters(text: str, line: int) -> None:
    """Reject a character that is part of no token, before anything else
    is read.  The column is where the untokenizable text starts, blanks
    before it included."""
    bad = _UNTOKENIZABLE.search(text)
    if bad is not None:
        raise ParseError(f"unexpected character {bad.group()!r}", line,
                         len(text[:bad.start()].rstrip()) + 1)


def _parse_tree(text: str, m: re.Match | None, line: int,
                gmap: dict[str, int]) -> tuple[Tree, int]:
    """The monomial whose first token is ``m``, and the position after it."""
    if m is None:
        raise ParseError("unexpected end of input", line, len(text) + 1)
    kind = m.lastindex
    val = m.group(kind)
    col = m.start(kind) + 1
    if kind == _INT:
        return leaf(int(val)), m.end()
    if kind != _NAME:
        raise ParseError(f"expected monomial, found {val!r}", line, col)
    if val not in gmap:
        raise ParseError(f"unknown generator {val!r}", line, col)
    m = _TOKEN.match(text, m.end())
    if m is None:
        raise ParseError("unexpected end of input", line, len(text) + 1)
    if m.group(_PUNCT) != "(":
        raise ParseError(f"expected '(', found {m.group(m.lastindex)!r}",
                         line, _col(m, text))
    pos = m.end()
    children = []
    while True:
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError("unclosed '('", line, len(text) + 1)
        if m.lastindex == _INT:  # a leaf, the commonest child
            children.append(leaf(int(m.group(_INT))))
            pos = m.end()
        elif m.group(_PUNCT) == ")":
            break
        else:
            child, pos = _parse_tree(text, m, line, gmap)
            children.append(child)
    if len(children) != gmap[val]:
        raise ParseError(
            f"generator {val!r} has arity {gmap[val]}, got {len(children)} children",
            line, col)
    try:
        return node(val, children), m.end()
    except TreeError as exc:
        raise ParseError(str(exc), line, col) from None


def _complete(t: Tree, line: int) -> Tree:
    if not is_complete(t):
        raise ParseError(f"leaf labels must be exactly 1..{t.arity}", line, 1)
    return t


def parse_generators(text: str, line: int, col: int = 1,
                     defined: Sequence[str] = ()) -> tuple[GeneratorSymbol, ...]:
    """Blank-separated generators in the ``name/arity`` form of
    ``GeneratorSymbol.__str__``; ``text`` starts at column ``col`` of its
    line.  A bad generator, or a name that repeats one before it or one of
    ``defined``, is an error at its own column."""
    gens = []
    names = set(defined)
    for chunk in re.finditer(r"\S+", text):
        name, _, ar = chunk.group().partition("/")
        here = col + chunk.start()
        if not ar.isdecimal():
            raise ParseError(
                f"generator spec {chunk.group()!r} must look like name/arity",
                line, here)
        try:
            gens.append(GeneratorSymbol(name, int(ar)))
        except TreeError as exc:
            raise ParseError(str(exc), line, here) from None
        if name in names:
            raise ParseError(f"generator {name!r} already defined", line, here)
        names.add(name)
    return tuple(gens)


def parse_monomial(text: str, gens: Sequence[GeneratorSymbol],
                   line: int = 1) -> Tree:
    gmap, memo = _signature(gens)
    key = text.strip()
    t = memo.get(key)
    if t is None:
        _check_characters(text, line)
        t, end = _parse_tree(text, _TOKEN.match(text), line, gmap)
        trailing = _TOKEN.match(text, end)
        if trailing is not None:
            raise ParseError("trailing input after monomial", line,
                             _col(trailing, text))
        memo[key] = _complete(t, line)
    return t


def parse_element(text: str, gens: Sequence[GeneratorSymbol],
                  line: int = 1) -> OperadElement:
    """Parse a signed combination of monomials.

    Coefficients are optional integers or rationals (``3/2``), attached with
    ``*`` or juxtaposition: ``- 1*z(1 z(2 3))``, ``+ 2 x(x(1 3) 2)``.
    """
    _check_characters(text, line)
    gmap, memo = _signature(gens)
    acc: dict[Tree, Fraction] = {}
    arity: int | None = None
    pos = 0
    stop = len(text.rstrip())
    while pos < stop:
        m = _TERM.match(text, pos)
        sign, num, slash, den, span = m.groups()
        if sign is None and arity is not None:
            raise ParseError("expected '+' or '-' between terms", line,
                             _col(_TOKEN.match(text, pos), text))
        if slash is not None:
            if den is None:
                d = _TOKEN.match(text, m.end(3))
                if d is None:
                    raise ParseError("unexpected end of input", line,
                                     len(text) + 1)
                raise ParseError("expected denominator", line, _col(d, text))
            if int(den) == 0:
                raise ParseError("zero denominator", line, m.start(4) + 1)
        key = span.rstrip()
        t = memo.get(key)
        if t is not None:
            pos = m.start(5) + len(key)
        else:
            t, pos = _parse_tree(text, _TOKEN.match(text, m.start(5)), line,
                                 gmap)
            _complete(t, line)
            if pos == m.start(5) + len(key):
                memo[key] = t
        if arity is None:
            arity = t.arity
        elif t.arity != arity:
            raise ParseError(f"mixed arities in element: {arity} and {t.arity}",
                             line, _col(_TOKEN.match(text, pos), text))
        add_term(acc, t, Fraction(
            -int(num or 1) if sign == "-" else int(num or 1), int(den or 1)))
    if arity is None:
        raise ParseError("empty element", line, 1)
    # clean terms, nonzero Fractions on trees of one arity, need no check
    return OperadElement.zero(arity)._like(acc)


def format_element(f: OperadElement, order: TreeOrder) -> str:
    """Canonical text: descending monomial order, explicit coefficients."""
    if f.is_zero():
        return "0"
    parts: list[str] = []
    for t, c in f.sorted_terms(order):
        # the text of abs(c), read off its integers: Fraction arithmetic
        # and printing cost more than the rest of a term
        num, den = c.as_integer_ratio()
        chunk = f"{abs(num)}*{t}" if den == 1 else f"{abs(num)}/{den}*{t}"
        if not parts:
            parts.append(chunk if num > 0 else f"-{chunk}")
        else:
            parts.append(f"{'-' if num < 0 else '+'} {chunk}")
    return " ".join(parts)
