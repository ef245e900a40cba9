"""Exact-rational linear combinations of shuffle tree monomials.

Elements are canonicalized eagerly (no zero coefficients, one arity per
element) and all coefficients are :class:`fractions.Fraction`; no floating
point appears anywhere, since the dimension tables downstream require exact
rank computations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .trees import (
    Occurrence,
    ShufflePartition,
    Tree,
    TreeOrder,
    relabel_ordered,
    replace_at,
    substitute,
)


class ElementError(ValueError):
    """Ill-typed operad element arithmetic (arity or shape mismatch)."""


class OperadElement:
    """A formal rational combination of equal-arity shuffle tree monomials."""

    __slots__ = ("terms", "arity")

    terms: dict[Tree, Fraction]

    def __init__(self, terms: Mapping[Tree, Fraction | int] | None = None,
                 arity: int | None = None):
        clean: dict[Tree, Fraction] = {}
        for t, c in (terms or {}).items():
            if not isinstance(t, Tree):
                raise ElementError(f"term keys must be tree monomials, got {t!r}")
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c == 0:
                continue
            clean[t] = c
        arities = {t.arity for t in clean}
        if len(arities) > 1:
            raise ElementError(f"mixed arities in element: {sorted(arities)}")
        if arities:
            found = arities.pop()
            if arity is not None and arity != found:
                raise ElementError(f"declared arity {arity} != monomial arity {found}")
            arity = found
        if arity is None:
            raise ElementError("zero element needs an explicit arity")
        self.terms = clean
        self.arity = arity

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "OperadElement":
        return cls({}, arity)

    @classmethod
    def monomial(cls, t: Tree, coeff: Fraction | int = 1) -> "OperadElement":
        return cls({t: Fraction(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperadElement):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.terms.items())))

    def coeff(self, t: Tree) -> Fraction:
        return self.terms.get(t, Fraction(0))

    def sorted_terms(self, order: TreeOrder) -> list[tuple[Tree, Fraction]]:
        """Terms in descending monomial order."""
        return sorted(self.terms.items(), key=lambda tc: order.key(tc[0]),
                      reverse=True)

    def leading_monomial(self, order: TreeOrder) -> Tree:
        if not self.terms:
            raise ElementError("zero element has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: TreeOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    # -- linear algebra ----------------------------------------------------

    def __add__(self, other: "OperadElement") -> "OperadElement":
        if self.arity != other.arity:
            raise ElementError(
                f"arity mismatch in addition: {self.arity} vs {other.arity}")
        return OperadElement(axpy(dict(self.terms), other.terms), self.arity)

    def __neg__(self) -> "OperadElement":
        return OperadElement({t: -c for t, c in self.terms.items()}, self.arity)

    def __sub__(self, other: "OperadElement") -> "OperadElement":
        return self + (-other)

    def scale(self, c: Fraction | int) -> "OperadElement":
        c = Fraction(c)
        if c == 0:
            return OperadElement.zero(self.arity)
        return OperadElement({t: c * v for t, v in self.terms.items()}, self.arity)

    def __rmul__(self, c) -> "OperadElement":
        return self.scale(c)

    def monic(self, order: TreeOrder) -> "OperadElement":
        if not self.terms:
            return self
        lc = self.leading_coeff(order)
        if lc == 1:
            return self
        return self.scale(Fraction(1) / lc)


# ---------------------------------------------------------------------------
# shuffle composition and grafting
# ---------------------------------------------------------------------------

def compose_monomials(f: Tree, pi: ShufflePartition, gs: Sequence[Tree]) -> Tree:
    """gamma_pi on monomials: graft g_i onto input i of f, distributing the
    output leaf labels according to the blocks of pi."""
    if len(gs) != f.arity:
        raise ElementError(
            f"composition needs {f.arity} arguments, got {len(gs)}")
    if len(pi.blocks) != len(gs):
        raise ElementError("partition block count must match argument count")
    for b, g in zip(pi.blocks, gs):
        if len(b) != g.arity:
            raise ElementError(
                f"block size {len(b)} does not match argument arity {g.arity}")
    assignment = {
        lab: relabel_ordered(g, b)
        for lab, b, g in zip(f.leaves, pi.blocks, gs)
    }
    return substitute(f, assignment)


def shuffle_compose(f: OperadElement, pi: ShufflePartition,
                    gs: Sequence[OperadElement]) -> OperadElement:
    """Bilinear extension of gamma_pi to elements."""
    if len(gs) != f.arity:
        raise ElementError(
            f"composition needs {f.arity} arguments, got {len(gs)}")
    n = pi.total
    acc: dict[Tree, Fraction] = {}
    for tf, cf in f.terms.items():
        for choice in product(*(g.terms.items() for g in gs)):
            coeff = cf
            mons: list[Tree] = []
            for tg, cg in choice:
                coeff *= cg
                mons.append(tg)
            add_term(acc, compose_monomials(tf, pi, mons), coeff)
    return OperadElement(acc, n)


def graft_at(host: Tree, occ: Occurrence, replacement: OperadElement) -> OperadElement:
    """Replace the divisor at ``occ`` by ``replacement``, linearly.

    Each monomial of the replacement is substituted with the occurrence's
    slot subtrees and re-grafted into the host at the occurrence path; this
    is the single reduction step of the rewriting engine.
    """
    if replacement.arity != len(occ.slots):
        raise ElementError(
            f"replacement arity {replacement.arity} does not fit occurrence "
            f"with {len(occ.slots)} slots")
    acc: dict[Tree, Fraction] = {}
    for t, c in replacement.terms.items():
        assignment = dict(zip(t.leaves, occ.slots))
        add_term(acc, replace_at(host, occ.path, substitute(t, assignment)), c)
    return OperadElement(acc, host.arity)


# ---------------------------------------------------------------------------
# sparse accumulation, normal forms and exact elimination
# ---------------------------------------------------------------------------

def add_term(acc: dict[Hashable, Fraction], t: Hashable, c: Fraction) -> None:
    """``acc[t] += c`` in place, dropping the entry if it cancels."""
    s = acc.get(t)
    if s is None:
        acc[t] = c
    elif s := s + c:
        acc[t] = s
    else:
        del acc[t]


def axpy(acc: dict[Hashable, Fraction], terms: Mapping[Hashable, Fraction],
         c: Fraction | int | None = None) -> dict[Hashable, Fraction]:
    """``acc += c * terms`` (``acc += terms`` without ``c``) in place,
    dropping coefficients that cancel; returns ``acc``.  Stored values are
    always :class:`Fraction`; ``terms`` is only read."""
    if c is None:
        scaled = False
    else:
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if not c:
            return acc
        scaled = c != 1
    for t, v in terms.items():
        if scaled:
            v = c * v
        elif type(v) is not Fraction:
            v = Fraction(v)
        s = acc.get(t)
        if s is None:
            acc[t] = v
        elif s := s + v:
            acc[t] = s
        else:
            del acc[t]
    return acc


def memo_normal_form(m: Hashable,
                     step: Callable[[Hashable], Mapping[Hashable, Fraction] | None],
                     memo: dict[Hashable, dict[Hashable, Fraction]],
                     ) -> dict[Hashable, Fraction]:
    """Normal form of the monomial ``m`` under a terminating rewriting.

    ``step(m)`` is the strategy's one rewrite of ``m`` as ``{monomial:
    coeff}``, or ``None`` when ``m`` is normal.  Because the strategy fixes
    one step per monomial, the normal form is linear and is memoized per
    monomial in ``memo``; the work runs on an explicit stack, so deep
    rewrite chains need no recursion.  The returned dict belongs to the
    memo and must not be mutated.
    """
    cached = memo.get(m)
    if cached is not None:
        return cached
    pending: dict[Hashable, Mapping[Hashable, Fraction]] = {}
    stack = [m]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
            continue
        rewritten = pending.get(cur)
        if rewritten is None:
            rewritten = step(cur)
            if rewritten is None:
                memo[cur] = {cur: Fraction(1)}
                stack.pop()
                continue
            pending[cur] = rewritten
        missing = [t for t in rewritten if t not in memo]
        if missing:
            # pending monomials are the ancestors of cur: meeting one again
            # is a cycle, which would grow the stack forever
            if any(t in pending for t in missing):
                raise ValueError(f"rewriting does not terminate at {cur!r}")
            stack.extend(missing)
            continue
        acc: dict[Hashable, Fraction] = {}
        for t, c in rewritten.items():
            axpy(acc, memo[t], c)
        memo[cur] = acc
        del pending[cur]
        stack.pop()
    return memo[m]


def reduce_row(row: dict[Hashable, Fraction],
               pivots: Mapping[Hashable, dict[Hashable, Fraction]],
               key: Callable[[Hashable], object],
               ) -> tuple[Hashable, dict[Hashable, Fraction]] | None:
    """Forward-reduce a sparse row by echelon pivots.

    ``pivots`` maps each pivot lead to its monic tail: the pivot row minus
    its lead term, divided by the lead coefficient.  Leads are taken
    greatest first under ``key``; a lead without a pivot ends the
    reduction.  Returns ``(lead, tail)`` with the tail made monic the same
    way, or ``None`` when the row reduces to zero.  ``row`` is consumed.
    Monomials are compared only by equality, so any hashable monomial type
    works, interned or not.
    """
    while row:
        lead = max(row, key=key)
        c = row.pop(lead)
        tail = pivots.get(lead)
        if tail is None:
            return lead, {t: v / c for t, v in row.items()}
        axpy(row, tail, -c)
    return None


def echelon(rows: Iterable[Mapping[Hashable, Fraction]],
            key: Callable[[Hashable], object],
            reduced: Mapping[Hashable, Mapping[Hashable, Fraction]] | None = None,
            ) -> dict[Hashable, dict[Hashable, Fraction]]:
    """Reduced row echelon form of the span of ``rows`` and ``reduced``.

    ``reduced``, when given, is a reduced form to extend, in the shape
    returned: ``{lead: monic tail}``, no tail holding a lead.  The rows are
    forward-reduced by :func:`reduce_row` shortest first, the row order of
    F4-style batched elimination, and the pivots are then back-substituted
    in ascending lead order.  A span has exactly one reduced form, so the
    order of the rows cannot change the returned mapping, only the order
    in which its dicts iterate.  ``rows`` and ``reduced`` are only read.
    """
    pivots = {lead: dict(tail) for lead, tail in (reduced or {}).items()}
    for row in sorted(rows, key=len):
        found = reduce_row(dict(row), pivots, key)
        if found is not None:
            lead, tail = found
            pivots[lead] = tail
    # ascending, so the pivots a tail refers to are already clean
    for lead in sorted(pivots, key=key):
        tail = pivots[lead]
        for t, c in [(t, c) for t, c in tail.items() if t in pivots]:
            del tail[t]
            axpy(tail, pivots[t], -c)
    return pivots
