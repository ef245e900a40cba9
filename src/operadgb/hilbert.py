"""Dimension tables: counting normal monomials under a completed basis.

A monomial is normal when no rule lead divides it.  Since an occurrence
anchored strictly below the root lies entirely inside one child subtree,
and normality is invariant under order-isomorphic relabeling, the normal
monomials of arity n are built bottom-up from normal children plus a
root-anchored divisibility check.  This keeps the arity-6 count feasible
where enumerate-and-filter over all monomials is not.
"""

from __future__ import annotations

from typing import NamedTuple

from .groebner import BudgetExceededError, GroebnerBasis
from .trees import Tree, leaf, vertices


class DimensionTable(NamedTuple):
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
        cached = self._levels.get(n)
        if cached is not None:
            return cached
        if n < 1:
            raise BudgetExceededError("arity must be >= 1")
        _check_completed(self.basis, n)
        result = tuple(
            cand for cand in vertices(self.basis.generators, n, self.level)
            if not self._root_reducible(cand))
        self._levels[n] = result
        return result

    def count(self, n: int) -> int:
        """Number of normal arity-n monomials: the dimension at arity n."""
        return len(self.level(n))


def _check_completed(basis: GroebnerBasis, n: int,
                     message: str = "arity {n} out of completed range {top}",
                     ) -> None:
    if n > basis.max_arity:
        raise BudgetExceededError(message.format(n=n, top=basis.max_arity))


def emit_table(basis: GroebnerBasis, up_to: int) -> DimensionTable:
    _check_completed(basis, up_to,
                     "table up to arity {n} exceeds completed range {top}")
    normals = NormalMonomials(basis)
    entries = {n: normals.count(n) for n in range(1, up_to + 1)}
    return DimensionTable(entries, basis.presentation_name, basis.order_id)
