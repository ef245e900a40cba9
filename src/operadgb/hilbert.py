"""Dimension tables: counting normal monomials under a completed basis.

A monomial is normal when no rule lead divides it.  Since an occurrence
anchored strictly below the root lies entirely inside one child subtree,
and normality is invariant under order-isomorphic relabeling, the normal
monomials of arity n are built bottom-up from normal children plus a
root-anchored divisibility check.  This keeps the arity-6 count feasible
where enumerate-and-filter over all monomials is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .groebner import BudgetExceededError, GroebnerBasis
from .trees import (
    Tree,
    compositions,
    leaf,
    min_increasing_blocks,
    node,
    relabel_ordered,
)


@dataclass(frozen=True)
class DimensionTable:
    """dim of each arity component, with provenance."""

    entries: dict[int, int]
    presentation_name: str
    order_id: str

    def as_text(self) -> str:
        ns = sorted(self.entries)
        head = "n    " + " ".join(f"{n:>8}" for n in ns)
        vals = "dim  " + " ".join(f"{self.entries[n]:>8}" for n in ns)
        return f"{self.presentation_name} (order {self.order_id})\n{head}\n{vals}"

    def as_rows(self) -> str:
        return "\n".join(f"{n},{self.entries[n]}" for n in sorted(self.entries))


class NormalMonomials:
    """Bottom-up enumerator of normal monomials per arity for one basis."""

    def __init__(self, basis: GroebnerBasis):
        self.basis = basis
        self._levels: dict[int, tuple[Tree, ...]] = {1: (leaf(1),)}

    def _root_reducible(self, t: Tree) -> bool:
        return next(self.basis.reducer.occurrences_at(t, ()), None) is not None

    def level(self, n: int) -> tuple[Tree, ...]:
        if n < 1:
            raise BudgetExceededError("arity must be >= 1")
        if n > self.basis.max_arity and n > 1:
            raise BudgetExceededError(
                f"arity {n} out of completed range {self.basis.max_arity}")
        cached = self._levels.get(n)
        if cached is not None:
            return cached
        out: list[Tree] = []
        labels = tuple(range(1, n + 1))
        for g in self.basis.generators:
            if g.arity > n or g.arity < 2:
                continue
            for comp in compositions(n, g.arity):
                for blocks in min_increasing_blocks(labels, comp):
                    child_choices = [
                        [relabel_ordered(t, b) for t in self.level(len(b))]
                        for b in blocks
                    ]
                    for kids in product(*child_choices):
                        cand = node(g.name, kids)
                        if not self._root_reducible(cand):
                            out.append(cand)
        result = tuple(out)
        self._levels[n] = result
        return result

    def count(self, n: int) -> int:
        return len(self.level(n))


def _enumerator(basis: GroebnerBasis) -> NormalMonomials:
    enum = getattr(basis, "_normal_enum", None)
    if enum is None:
        enum = NormalMonomials(basis)
        basis._normal_enum = enum
    return enum


def count_normal_monomials(basis: GroebnerBasis, n: int) -> int:
    """Number of arity-n monomials with no divisor among the rule leads;
    equals the dimension of the operad component at arity n."""
    if n > basis.max_arity:
        raise BudgetExceededError(
            f"arity {n} out of completed range {basis.max_arity}")
    return _enumerator(basis).count(n)


def normal_monomials(basis: GroebnerBasis, n: int) -> tuple[Tree, ...]:
    """The normal monomials themselves (the quotient's monomial basis)."""
    if n > basis.max_arity:
        raise BudgetExceededError(
            f"arity {n} out of completed range {basis.max_arity}")
    return _enumerator(basis).level(n)


def emit_table(basis: GroebnerBasis, up_to: int) -> DimensionTable:
    if up_to > basis.max_arity:
        raise BudgetExceededError(
            f"table up to arity {up_to} exceeds completed range "
            f"{basis.max_arity}")
    entries = {n: count_normal_monomials(basis, n) for n in range(1, up_to + 1)}
    return DimensionTable(entries, basis.presentation_name, basis.order_id)
