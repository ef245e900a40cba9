"""Exact-rational linear combinations of shuffle tree monomials.

Elements are canonicalized eagerly (no zero coefficients, one arity per
element) and all coefficients are :class:`fractions.Fraction`; no floating
point appears anywhere, since the dimension tables downstream require exact
rank computations.  The two hot kernels, memoized normal forms and
echelon elimination, run on Python ints instead: a normal form is an
integer pair ``(den, {monomial: int})`` and elimination is fraction-free
over primitive integer rows, so Fractions are built only at their edges.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
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
    """Replace the divisor at ``occ`` by ``replacement``, linearly."""
    if replacement.arity != len(occ.slots):
        raise ElementError(
            f"replacement arity {replacement.arity} does not fit occurrence "
            f"with {len(occ.slots)} slots")
    return OperadElement(graft_terms(host, occ, replacement.terms), host.arity)


def graft_terms(host: Tree, occ: Occurrence, terms: Mapping[Tree, object]
                ) -> dict[Tree, object]:
    """The single reduction step of the rewriting engine: each monomial of
    ``terms`` is substituted with the occurrence's slot subtrees and
    re-grafted into the host at the occurrence path, its coefficient, of
    any type, carried over.  Distinct monomials give distinct trees, since
    the host, the path and the slots are fixed, so no two terms meet."""
    path, slots = occ.path, occ.slots
    return {replace_at(host, path, substitute(t, dict(zip(t.leaves, slots)))): c
            for t, c in terms.items()}


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


def integer_form(terms: Mapping[Hashable, Fraction | int]
                 ) -> tuple[int, dict[Hashable, int]]:
    """``terms`` as the primitive integer pair ``(den, nums)`` with
    ``terms == nums / den``, ``den >= 1`` and ``gcd(den, *nums) == 1``.
    The lcm of reduced denominators shares no prime with every scaled
    numerator, so no gcd pass is needed."""
    den = lcm(*(v.denominator for v in terms.values()))
    if den == 1:
        return 1, {t: v.numerator for t, v in terms.items()}
    return den, {t: v.numerator * (den // v.denominator)
                 for t, v in terms.items()}


def fraction_terms(den: int, nums: Mapping[Hashable, int]
                   ) -> dict[Hashable, Fraction]:
    """The exact coefficients ``nums / den`` of an integer pair."""
    return {t: Fraction(v, den) for t, v in nums.items()}


def _combine(den: int, coeffs: Mapping[Hashable, Fraction | int],
             form: Callable[[Hashable], tuple[int, Mapping[Hashable, int]]],
             ) -> tuple[int, dict[Hashable, int]]:
    """``sum(coeffs[t] * form(t)) / den`` as a primitive integer pair,
    each ``form(t)`` an integer pair: the parts are brought to the lcm of
    their denominators, so the sum runs over plain ints."""
    parts = []
    for t, c in coeffs.items():
        d, nums = form(t)
        parts.append((c.numerator, c.denominator * d, nums))
    if not parts:
        return 1, {}
    common = lcm(*(q for _, q, _ in parts))
    # the longest part fills the accumulator without lookups
    parts.sort(key=lambda part: len(part[2]), reverse=True)
    p, q, nums = parts[0]
    s = p * (common // q)
    acc = {u: s * v for u, v in nums.items()}
    get = acc.get
    for p, q, nums in parts[1:]:
        s = p * (common // q)
        for u, v in nums.items():
            acc[u] = get(u, 0) + s * v
    if 0 in acc.values():
        acc = {u: v for u, v in acc.items() if v}
    den *= common
    g = gcd(den, *acc.values())
    if g == 1:
        return den, acc
    return den // g, {u: v // g for u, v in acc.items()}


def memo_normal_form(m: Hashable,
                     step: Callable[[Hashable],
                                    tuple[int, Mapping[Hashable, int]] | None],
                     memo: dict[Hashable, tuple[int, dict[Hashable, int]]],
                     ) -> tuple[int, dict[Hashable, int]]:
    """Normal form of the monomial ``m`` under a terminating rewriting.

    ``step(m)`` is the strategy's one rewrite of ``m`` as an integer pair
    ``(den, {monomial: int})``, standing for the numerators over ``den``,
    or ``None`` when ``m`` is normal.  Because the strategy fixes one step
    per monomial, the normal form is linear and is memoized per monomial in
    ``memo`` as a primitive pair: ``den >= 1`` and ``gcd(den, *nums) ==
    1``, so the memo holds Python ints only.  The work runs on an explicit
    stack, so deep rewrite chains need no recursion.  The returned pair
    belongs to the memo and must not be mutated.
    """
    cached = memo.get(m)
    if cached is not None:
        return cached
    pending: dict[Hashable, tuple[int, Mapping[Hashable, int]]] = {}
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
                memo[cur] = (1, {cur: 1})
                stack.pop()
                continue
            pending[cur] = rewritten
        den, nums = rewritten
        missing = [t for t in nums if t not in memo]
        if missing:
            # pending monomials are the ancestors of cur: meeting one again
            # is a cycle, which would grow the stack forever
            if any(t in pending for t in missing):
                raise ValueError(f"rewriting does not terminate at {cur!r}")
            stack.extend(missing)
            continue
        memo[cur] = _combine(den, nums, memo.__getitem__)
        del pending[cur]
        stack.pop()
    return memo[m]


def normal_form(terms: Mapping[Hashable, Fraction | int],
                step: Callable[[Hashable],
                               tuple[int, Mapping[Hashable, int]] | None],
                memo: dict[Hashable, tuple[int, dict[Hashable, int]]],
                ) -> tuple[int, dict[Hashable, int]]:
    """Normal form of the combination ``terms`` by
    :func:`memo_normal_form`, as a primitive integer pair of its own."""
    return _combine(1, terms, lambda t: memo_normal_form(t, step, memo))


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


def _eliminate(row: dict[int, int], pivot: Mapping[int, int], col: int
               ) -> None:
    """``row <- b*row - a*pivot`` in place, which clears ``col``: ``a`` and
    ``b`` are the two entries at ``col`` over their gcd, ``b > 0`` since a
    pivot's lead is positive.  Then the row's content is divided out, so
    the row stays primitive."""
    a, b = row[col], pivot[col]
    g = gcd(a, b)
    a //= g
    b //= g
    if b != 1:
        for t, v in row.items():
            row[t] = v * b
    for t, v in pivot.items():
        s = row.get(t)
        if s is None:
            row[t] = -a * v
        elif s := s - a * v:
            row[t] = s
        else:
            del row[t]
    if row:
        g = gcd(*row.values())
        if g != 1:
            for t, v in row.items():
                row[t] = v // g


def echelon(rows: Iterable[Mapping[Hashable, Fraction | int]],
            key: Callable[[Hashable], object],
            reduced: Mapping[Hashable, Mapping[Hashable, Fraction]] | None = None,
            ) -> dict[Hashable, dict[Hashable, Fraction]]:
    """Reduced row echelon form of the span of ``rows`` and ``reduced``.

    ``reduced``, when given, is a reduced form to extend, in the shape
    returned: ``{lead: monic tail}``, no tail holding a lead.  Row values
    may be ``int`` or :class:`Fraction`.  The elimination is fraction-free:
    the columns are ranked once by ``key``, greatest first, and every row
    becomes a primitive integer row over the ranks, so a row's lead is its
    least rank.  The rows are forward-reduced shortest first, the row order
    of F4-style batched elimination, by :func:`_eliminate`; the pivots are
    then back-substituted in ascending lead order the same way, and each
    is made monic only at the end.  A span has exactly one reduced form, so
    the order of the rows cannot change the returned mapping, only the
    order in which its dicts iterate.  ``rows`` and ``reduced`` are only
    read.
    """
    todo = [{lead: 1, **tail} for lead, tail in (reduced or {}).items()]
    todo += sorted(rows, key=len)
    ranked = sorted({t for row in todo for t in row}, key=key, reverse=True)
    rank = {t: i for i, t in enumerate(ranked)}
    pivots: dict[int, dict[int, int]] = {}
    for terms in todo:
        nums = integer_form(terms)[1]
        g = gcd(*nums.values())
        row = {rank[t]: v // g for t, v in nums.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                if row[lead] < 0:
                    for t, v in row.items():
                        row[t] = -v
                pivots[lead] = row
                break
            _eliminate(row, pivot, lead)
    # ascending, so the pivots a row refers to are already clean
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for col in [c for c in row if c != lead and c in pivots]:
            _eliminate(row, pivots[col], col)
    return {ranked[lead]: {ranked[t]: Fraction(v, row[lead])
                           for t, v in row.items() if t != lead}
            for lead, row in pivots.items()}
