"""Independent brute-force oracles used by the test suite.

These deliberately avoid the Groebner engine: quotient dimensions are
computed by expanding one-step consequences of the relations and doing
exact Gaussian elimination over the full monomial basis of each arity.
Differential Poisson normal forms are recomputed by a greatest-first
worklist that does not share the memoized normal-form engine.
"""

from __future__ import annotations

from fractions import Fraction

from operadgb.elements import OperadElement, shuffle_compose
from operadgb.presentation import Presentation
from operadgb.trees import (
    ShufflePartition,
    TreeOrder,
    all_trees,
    leaf,
    min_increasing_blocks,
)


def one_step_multiples(rel: OperadElement, gens) -> list[OperadElement]:
    """All elements obtained by composing ``rel`` with one extra generator
    (in any argument slot or above the root, over all shuffle partitions)."""
    out = []
    n = rel.arity
    one = OperadElement.monomial(leaf(1))
    for g in gens:
        garity = g.arity
        gm = OperadElement.monomial(
            # bare generator corolla 1..arity
            _corolla(g.name, garity))
        total = n + garity - 1
        for i in range(n):
            sizes = [1] * n
            sizes[i] = garity
            for blocks in min_increasing_blocks(range(1, total + 1), sizes):
                args: list[OperadElement] = [one] * n
                args[i] = gm
                out.append(shuffle_compose(rel, ShufflePartition(blocks), args))
        for i in range(garity):
            sizes = [1] * garity
            sizes[i] = n
            for blocks in min_increasing_blocks(range(1, total + 1), sizes):
                args = [one] * garity
                args[i] = rel
                out.append(shuffle_compose(gm, ShufflePartition(blocks), args))
    return out


def _corolla(name: str, garity: int):
    from operadgb.trees import node
    return node(name, [leaf(i) for i in range(1, garity + 1)])


def span_rank(elems, order: TreeOrder, pivots: dict | None = None):
    """Exact Gaussian elimination; returns (rank, pivot rows)."""
    pivots = {} if pivots is None else {k: dict(v) for k, v in pivots.items()}
    for e in elems:
        row = dict(e.terms) if isinstance(e, OperadElement) else dict(e)
        while row:
            lead = max(row, key=order.key)
            if lead in pivots:
                c = row[lead]
                for t, v in pivots[lead].items():
                    s = row.get(t, Fraction(0)) - c * v
                    if s:
                        row[t] = s
                    else:
                        row.pop(t, None)
            else:
                lc = row[lead]
                pivots[lead] = {t: v / lc for t, v in row.items()}
                break
    return len(pivots), pivots


def consequence_pivots(p: Presentation, n: int, order: TreeOrder | None = None):
    """Pivots of the arity-n component of the ideal generated by the
    relations of ``p``, built by iterated one-step composition."""
    order = order or p.order()
    layers: dict[int, list[OperadElement]] = p.relations_by_arity()
    arities = sorted(layers)
    if not arities:
        return {}
    current: dict[int, list[OperadElement]] = {a: list(layers[a]) for a in arities}
    for a in range(min(arities), n):
        nxt = current.get(a + 1, [])
        for relem in current.get(a, []):
            nxt.extend(one_step_multiples(relem, p.generators))
        current[a + 1] = nxt
    _, piv = span_rank(current.get(n, []), order)
    return piv


def quotient_dimension(p: Presentation, n: int) -> int:
    """dim of the arity-n component of the quotient operad, by brute force."""
    order = p.order()
    total = len(all_trees(p.generators, n))
    piv = consequence_pivots(p, n, order)
    return total - len(piv)


def worklist_normal_form(ctx, poly: dict) -> dict:
    """Normal form under the rewriting of a ``RewriteContext``, without a
    memo: repeatedly rewrite the greatest reducible monomial (by
    ``ctx.pm_key``) with its first application until nothing applies."""
    work = dict(poly)
    out: dict = {}
    while work:
        pm = max(work, key=ctx.pm_key)
        c = work.pop(pm)
        apps = ctx.applications(pm)
        if not apps:
            out[pm] = out.get(pm, Fraction(0)) + c
            if not out[pm]:
                del out[pm]
            continue
        for pm2, c2 in ctx.apply(pm, apps[0]).items():
            work[pm2] = work.get(pm2, Fraction(0)) + c * c2
            if not work[pm2]:
                del work[pm2]
    return out
