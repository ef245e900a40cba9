"""Independent brute-force oracles used by the test suite.

These deliberately avoid the Groebner engine: quotient dimensions are
computed by expanding one-step consequences of the relations and doing
exact Gaussian elimination over the full monomial basis of each arity.
``labelled_trees`` enumerates shuffle trees without the enumerator of
``trees``: every planar tree over the generators, its leaves labelled in
every order, kept where the checked ``node`` accepts the labelling.
``path_word_key`` is the monomial order's key as the nested tuples it
was kept as before it became a string: the size, then each leaf's
``(len(word), word)`` with the word's letters as ``(rank, child)`` pairs.
``find_occurrences`` finds every divisor occurrence by trying the
pattern at each vertex of the host.  Overlaps are found by scanning each
of those monomials that has a lead at its root for a second lead; the
scan uses the reducer's lead index, which ``test_groebner`` checks
against trying every rule at every position.
Differential Poisson normal forms are recomputed by a greatest-first
worklist that does not share the memoized normal-form engine.
``fraction_memo_normal_form`` and ``fraction_echelon`` are the two kernels
of ``elements`` as they were over :class:`Fraction`, before they moved to
integer arithmetic; the integer kernels must agree with them exactly.
``fraction_echelon`` forward-reduces one row at a time with
``reduce_row``.  ``rank_kept_residues`` decides which residues are
independent identities by ranks alone.
``PoissonModel`` is a concrete differential Poisson algebra on polynomials,
in which every identity of differential Poisson algebras evaluates to zero.
``swept_envelope_checks`` is the envelope check by sampling: the Jacobi
identity on every ordered generator triple and derivation compatibility on
every ordered pair of normal monomials up to degree 6.
``token_list_parse_monomial`` and ``token_list_parse_element`` are the
parser of ``syntax`` as it was before it memoized monomial texts: each
string is first cut into a list of ``(kind, value, column)`` tokens, and
every monomial is parsed from its tokens.  The memoized parser must give
the same trees, coefficients and error messages.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import combinations, product

from operadgb.commutative import (
    ONE,
    ZERO,
    Poly,
    mono,
    mono_divides,
    mono_mul,
    reduce_poly,
)
from operadgb.elements import (
    OperadElement,
    add_term,
    axpy,
    echelon,
    shuffle_compose,
)
from operadgb.groebner import reduce_element
from operadgb.presentation import Presentation, element_orbit
from operadgb.syntax import ParseError
from operadgb.trees import (
    Occurrence,
    ShufflePartition,
    Tree,
    TreeError,
    TreeOrder,
    all_trees,
    is_complete,
    iter_positions,
    leaf,
    min_increasing_blocks,
    node,
    occurrence_at,
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


def reduce_row(row: dict, pivots: dict, key):
    """Forward-reduce a sparse row by echelon pivots.

    ``pivots`` maps each pivot lead to its monic tail: the pivot row minus
    its lead term, divided by the lead coefficient.  Leads are taken
    greatest first under ``key``; a lead without a pivot ends the
    reduction.  Returns ``(lead, tail)`` with the tail made monic the same
    way, or ``None`` when the row reduces to zero.  ``row`` is consumed.
    """
    while row:
        lead = max(row, key=key)
        c = row.pop(lead)
        tail = pivots.get(lead)
        if tail is None:
            return lead, {t: v / c for t, v in row.items()}
        axpy(row, tail, -c)
    return None


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


def rank_kept_residues(residues, basis) -> list[int]:
    """The indices of the residues that ``independent_identities`` keeps,
    by rank: a residue is kept when ``echelon`` of the orbit images of the
    residues kept before it, all reduced modulo ``basis``, grows when the
    residue's own reduced row is added."""
    key = basis.order.key
    rows: list = []
    kept = []
    for i, res in enumerate(residues):
        row = reduce_element(res, basis).terms
        if len(echelon(rows + [row], key)) > len(echelon(rows, key)):
            kept.append(i)
            rows += [reduce_element(img, basis).terms
                     for img in element_orbit(res)]
    return kept


def path_word_key(order: TreeOrder, t: Tree) -> tuple:
    """The reference key of ``t`` under ``order``: ``(size, ((len(w), w)
    for each leaf word w in label order))``, where a word lists (generator
    rank, child index) for each vertex from the root down to the leaf."""
    rank = {name: i for i, name in enumerate(order.precedence)}
    words = {}

    def collect(u, prefix):
        if u.is_leaf:
            words[u.label] = prefix
        for i, c in enumerate(u.children):
            collect(c, prefix + ((rank[u.gen], i),))

    collect(t, ())
    return t.size, tuple((len(words[l]), words[l]) for l in t.leaves)


def find_occurrences(pattern: Tree, host: Tree) -> list[Occurrence]:
    """Every embedding of ``pattern`` as a divisor of ``host``."""
    if pattern.is_leaf:
        raise TreeError("pattern must have at least one internal vertex")
    return [occ for path in iter_positions(host)
            if (occ := occurrence_at(pattern, host, path)) is not None]


def covered(pattern, occ) -> set:
    """The host vertex paths covered by an occurrence of ``pattern``."""
    return {occ.path + q for q in iter_positions(pattern)}


def planar_trees(gens, n: int) -> list:
    """Every planar tree of arity ``n`` over the generators, unlabelled:
    ``None`` for a leaf, ``(name, children)`` for a vertex."""
    if n == 1:
        return [None]
    return [(g.name, kids) for g in gens
            for sizes in product(range(1, n), repeat=g.arity)
            if sum(sizes) == n
            for kids in product(*(planar_trees(gens, k) for k in sizes))]


def _planar_arity(shape) -> int:
    return 1 if shape is None else sum(map(_planar_arity, shape[1]))


@cache
def _labellings(shape, labels: tuple[int, ...]) -> tuple[Tree, ...]:
    """``shape`` with its leaves labelled by ``labels`` in every order that
    the checked ``node`` accepts.  Every order is tried a vertex at a time:
    each child gets every subset of the labels left over by the children
    before it, so a labelling that ``node`` rejects below a vertex is not
    tried again above it."""
    if shape is None:
        return (leaf(labels[0]),)
    name, kids = shape
    out = []

    def place(i: int, left: tuple[int, ...], built: tuple[Tree, ...]):
        if i == len(kids):
            try:
                out.append(node(name, built))
            except TreeError:
                pass
            return
        for block in combinations(left, _planar_arity(kids[i])):
            rest = tuple(x for x in left if x not in block)
            for child in _labellings(kids[i], block):
                place(i + 1, rest, built + (child,))

    place(0, labels, ())
    return tuple(out)


@cache
def labelled_trees(gens: tuple, n: int) -> tuple[Tree, ...]:
    """Every shuffle tree monomial of arity ``n`` over ``gens``, by brute
    force: each planar tree with its leaves labelled 1..n in every order
    that the checked ``node`` accepts."""
    labels = tuple(range(1, n + 1))
    return tuple(t for shape in planar_trees(gens, n)
                 for t in _labellings(shape, labels))


def scanned_overlaps(reducer, K: int, gens):
    """The overlaps of ``groebner.overlaps`` by brute force, as the same
    ``(m, r1, occ1, r2, occ2)`` tuples: for each arity-K monomial of
    :func:`labelled_trees` and each lead of arity below K that occurs at
    its root, scan the monomial, position by position, for a second lead
    occurrence that shares a vertex with the first and jointly covers the
    monomial."""
    seen: set = set()
    for m in labelled_trees(tuple(gens), K):
        roots = [(r1, occ1) for r1, occ1 in reducer.occurrences_at(m, ())
                 if r1.arity < K]
        if not roots:
            continue
        allv = frozenset(iter_positions(m))
        found = list(reducer.occurrences(m))
        for r1, occ1 in roots:
            v1 = covered(r1.lead, occ1)
            for r2, occ2 in found:
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


def normal_monomials_up_to(basis, variables, max_degree: int) -> list:
    """Monomials in the given variables, of total degree <= max_degree, not
    divisible by any lead of the basis."""
    leads = [g.lm() for g in basis if g]
    out = [ONE]
    frontier = [ONE]
    for _ in range(max_degree):
        nxt = []
        seen = set()
        for m in frontier:
            for v in variables:
                m2 = mono_mul(m, mono((v, 1)))
                if m2 in seen:
                    continue
                seen.add(m2)
                if any(mono_divides(l, m2) for l in leads):
                    continue
                nxt.append(m2)
        out.extend(nxt)
        frontier = nxt
    return out


def swept_envelope_checks(env, max_degree: int = 6) -> tuple[str, str]:
    """The first failing generator triple of the Jacobi identity and the
    first failing pair of normal monomials of derivation compatibility, both
    modulo the envelope's relations and in product order, or "" for a check
    that passes."""
    rels = list(env.relations)
    br, d = env.lie_bracket, env.d
    gens = [Poly.var(g) for g in env.generators]
    jacobi = next((f"({g1},{g2},{g3})"
                   for (g1, p1), (g2, p2), (g3, p3) in
                   product(zip(env.generators, gens), repeat=3)
                   if reduce_poly(br(p1, br(p2, p3)) + br(p2, br(p3, p1))
                                  + br(p3, br(p1, p2)), rels)), "")
    normals = [Poly({m: 1}) for m in
               normal_monomials_up_to(rels, env.generators, max_degree)]
    derivation = next((f"d{{{f},{g}}}" for f, g in product(normals, repeat=2)
                       if reduce_poly(d(br(f, g)) - br(d(f), g) - br(f, d(g)),
                                      rels)), "")
    return jacobi, derivation


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


def _token_list_tree(tokens: _Tokens, gens: dict[str, int]) -> Tree:
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
        children.append(_token_list_tree(tokens, gens))
    if len(children) != gens[val]:
        raise ParseError(
            f"generator {val!r} has arity {gens[val]}, got {len(children)} children",
            tokens.line, col)
    try:
        return node(val, children)
    except TreeError as exc:
        raise ParseError(str(exc), tokens.line, col) from None


def token_list_parse_monomial(text: str, gens, line: int = 1) -> Tree:
    tokens = _Tokens(text, line)
    t = _token_list_tree(tokens, {g.name: g.arity for g in gens})
    if tokens.peek() is not None:
        raise tokens.error("trailing input after monomial")
    if not is_complete(t):
        raise ParseError(f"leaf labels must be exactly 1..{t.arity}", line, 1)
    return t


def token_list_parse_element(text: str, gens, line: int = 1) -> OperadElement:
    tokens = _Tokens(text, line)
    gmap = {g.name: g.arity for g in gens}
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
                    if den == 0:
                        raise ParseError("zero denominator", tokens.line, col3)
                coeff = coeff * Fraction(num, den)
                tok3 = tokens.peek()
                if tok3 is not None and tok3[1] == "*":
                    tokens.next()
        t = _token_list_tree(tokens, gmap)
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
