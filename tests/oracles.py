"""Independent brute-force oracles used by the test suite.

These deliberately avoid the Groebner engine: quotient dimensions are
computed by expanding one-step consequences of the relations and doing
exact Gaussian elimination over the full monomial basis of each arity.
Overlaps are found by scanning every extension of a lead for a second one;
the scan uses the reducer's lead index, which ``test_groebner`` checks
against trying every rule at every position.
Differential Poisson normal forms are recomputed by a greatest-first
worklist that does not share the memoized normal-form engine.
``fraction_memo_normal_form`` and ``fraction_echelon`` are the two kernels
of ``elements`` as they were over :class:`Fraction`, before they moved to
integer arithmetic; the integer kernels must agree with them exactly.
``PoissonModel`` is a concrete differential Poisson algebra on polynomials,
in which every identity of differential Poisson algebras evaluates to zero.
"""

from __future__ import annotations

from fractions import Fraction

from operadgb.commutative import ZERO, Poly
from operadgb.elements import OperadElement, axpy, reduce_row, shuffle_compose
from operadgb.presentation import Presentation
from operadgb.trees import (
    ShufflePartition,
    TreeOrder,
    all_trees,
    extensions,
    iter_positions,
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


def fraction_memo_normal_form(m, step, memo: dict) -> dict:
    """Normal form of the monomial ``m`` over :class:`Fraction`:
    ``step(m)`` is the one rewrite of ``m`` as ``{monomial: coeff}`` or
    ``None``, and ``memo`` keeps each normal form as a Fraction dict."""
    cached = memo.get(m)
    if cached is not None:
        return cached
    pending: dict = {}
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
            if any(t in pending for t in missing):
                raise ValueError(f"rewriting does not terminate at {cur!r}")
            stack.extend(missing)
            continue
        acc: dict = {}
        for t, c in rewritten.items():
            axpy(acc, memo[t], c)
        memo[cur] = acc
        del pending[cur]
        stack.pop()
    return memo[m]


def fraction_echelon(rows, key, reduced: dict | None = None) -> dict:
    """Reduced row echelon form ``{lead: monic tail}`` over
    :class:`Fraction`: rows forward-reduced shortest first by
    ``reduce_row``, pivots back-substituted in ascending lead order."""
    pivots = {lead: dict(tail) for lead, tail in (reduced or {}).items()}
    for row in sorted(rows, key=len):
        found = reduce_row(dict(row), pivots, key)
        if found is not None:
            lead, tail = found
            pivots[lead] = tail
    for lead in sorted(pivots, key=key):
        tail = pivots[lead]
        for t, c in [(t, c) for t, c in tail.items() if t in pivots]:
            del tail[t]
            axpy(tail, pivots[t], -c)
    return pivots


def covered(pattern, occ) -> set:
    """The host vertex paths covered by an occurrence of ``pattern``."""
    return {occ.path + q for q in iter_positions(pattern)}


def scanned_overlaps(reducer, K: int, gens):
    """The overlaps of ``groebner.overlaps`` by brute force, as the same
    ``(m, r1, occ1, r2, occ2)`` tuples: extend each lead of arity below K
    at the root to every arity-K monomial (``trees.extensions``) and scan
    each one, position by position, for a second lead occurrence that
    shares a vertex with the first and jointly covers the monomial."""
    seen: set = set()
    for r1 in reducer.rules:
        if r1.arity >= K:
            continue
        for m, occ1 in extensions(r1.lead, K, gens):
            allv = frozenset(iter_positions(m))
            v1 = covered(r1.lead, occ1)
            for r2, occ2 in reducer.occurrences(m):
                if r2 is r1 and occ2.path == occ1.path:
                    continue
                v2 = covered(r2.lead, occ2)
                if not (v1 & v2):
                    continue
                if (v1 | v2) != allv:
                    continue
                pair_key = (m,) + tuple(sorted(((r1.rid, occ1.path),
                                                (r2.rid, occ2.path))))
                if pair_key in seen:
                    continue
                seen.add(pair_key)
                yield m, r1, occ1, r2, occ2


class PoissonModel:
    """A concrete differential Poisson algebra on polynomials.

    The bracket is the canonical symplectic one on pairs (x_i, p_i) and the
    derivation is Hamiltonian, d = {h, .}, so it automatically respects both
    the product and the bracket.  Used as an independent soundness oracle
    for rewriting rules: any identity of differential Poisson algebras must
    evaluate to zero here.
    """

    def __init__(self, npairs: int, h: Poly):
        self.npairs = npairs
        self.h = h
        self.xs = [("x", i) for i in range(npairs)]
        self.ps = [("p", i) for i in range(npairs)]

    def bracket(self, f: Poly, g: Poly) -> Poly:
        acc = ZERO
        for x, p in zip(self.xs, self.ps):
            acc = acc + self.diff_wrt(f, x) * self.diff_wrt(g, p) \
                - self.diff_wrt(f, p) * self.diff_wrt(g, x)
        return acc

    @staticmethod
    def diff_wrt(f: Poly, v) -> Poly:
        return f.diff(v)

    def d(self, f: Poly) -> Poly:
        return self.bracket(self.h, f)

    def circ(self, f: Poly, g: Poly) -> Poly:
        return f * self.d(g)
