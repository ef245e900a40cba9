"""Arity-stratified Buchberger completion for shuffle operads.

The completion works stratum by stratum: at arity K every S-polynomial of
the rules found so far whose minimal common multiple has arity exactly K is
reduced by the lower-arity rules, and the reduced vectors (together with
any input relations of arity K) are brought to reduced row echelon form by
exact Gaussian elimination.  Echelon pivots become the new rewrite rules of
arity K.  This is equivalent to classical critical-pair completion because
two distinct equal-arity leading monomials never divide one another (an
equal-arity divisor is the whole tree), so all interaction inside a stratum
is plain linear algebra.

The S-polynomials come from superposition: a common multiple of two leads
has one occurrence at the root, and the other lead's top vertex is one of
that occurrence's vertices, so laying the second lead over each vertex of
the first with the same generator gives every shape a common multiple can
have; its shuffle labellings in which both leads occur are the common
multiples.  :func:`overlaps` spells out why this is exhaustive.

Reduction is deterministic: a monomial's one rewrite step uses the divisor
at its first pre-order position, rules tried in a fixed order (arity, lead
key, rid), so normal forms are linear and are memoized per monomial by
:func:`~operadgb.elements.memo_normal_form`, over Python ints: each rule
tail is kept as an integer pair ``(den, {monomial: int})``, and so is each
memoized normal form.  A trie over the leads'
pre-order skeletons yields the candidate rules at a position in that order,
each confirmed by a full occurrence match, so the index cannot change the
divisor.  The reducer fills its memos lazily, so it is not safe to share
between threads.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .elements import (
    OperadElement,
    axpy,
    echelon,
    fraction_terms,
    graft_at,
    graft_terms,
    integer_form,
    normal_form,
)
from .presentation import Presentation
from .syntax import format_element, parse_element, parse_generators, parse_monomial
from .trees import (
    GeneratorSymbol,
    Occurrence,
    Tree,
    TreeError,
    TreeOrder,
    iter_positions,
    occurrence_at,
    order_for,
    shape_labellings,
    subtree_at,
    superpose,
)


class GroebnerError(ValueError):
    pass


class BudgetExceededError(GroebnerError):
    """The requested computation exceeds the configured arity budget."""


class BasisFormatError(GroebnerError):
    """Corrupted or incompatible basis file."""


class OrderMismatchError(GroebnerError):
    """Basis was computed under a different monomial order."""


class RewriteRule:
    """A monic rule ``lead -> tail`` standing for the basis element
    ``lead - tail`` with every tail monomial strictly below the lead."""

    __slots__ = ("lead", "tail", "arity", "rid")

    def __init__(self, lead: Tree, tail: OperadElement, rid: int):
        self.lead = lead
        self.tail = tail
        self.arity = lead.arity
        self.rid = rid
        if tail.arity != self.arity:
            raise GroebnerError("rule tail arity differs from lead arity")

    def __repr__(self) -> str:
        return f"RewriteRule({self.lead} => ...{len(self.tail)} terms)"


class _Reducer:
    """Normal-form engine over a fixed rule set, with per-monomial memo.
    The lead index is a trie over the leads' pre-order skeletons: each
    vertex's ``gen``, which is ``None`` (a wildcard) at a leaf."""

    def __init__(self, rules: Sequence[RewriteRule], order: TreeOrder):
        self.order = order
        self.rules = tuple(rules)
        # rule order: (arity, lead key, rid); a trie node is (next, ranks)
        self._ranked = sorted(
            self.rules, key=lambda r: (r.arity, order.key(r.lead), r.rid))
        self._trie: tuple[dict, list[int]] = ({}, [])
        for rank, r in enumerate(self._ranked):
            trie, todo = self._trie, [r.lead]
            while todo:  # pre-order
                t = todo.pop()
                trie = trie[0].setdefault(t.gen, ({}, []))
                todo.extend(reversed(t.children))
            trie[1].append(rank)
        # each tail once as an integer pair, the shape of the memo's values
        self._tails = {r: integer_form(r.tail.terms) for r in self.rules}
        self._memo: dict[Tree, tuple[int, dict[Tree, int]]] = {}
        self._div_memo: dict[Tree, tuple[RewriteRule, Occurrence] | None] = {}

    def occurrences(self, m: Tree):
        """Every ``(rule, occurrence)`` of a lead in ``m``, by pre-order
        position and then rule order."""
        for path in iter_positions(m):
            yield from self.occurrences_at(m, path)

    def candidates(self, sub: Tree) -> list[RewriteRule]:
        """The rules whose lead skeleton fits ``sub`` at its root, in rule
        order; a superset of the leads that divide ``sub`` there."""
        ranks: list[int] = []
        # pending subtrees in pre-order, as a linked list (head, rest)
        stack = [(self._trie, (sub, None))]
        while stack:
            (nxt, here), pending = stack.pop()
            if pending is None:
                ranks += here
                continue
            t, rest = pending
            if None in nxt:
                stack.append((nxt[None], rest))
            if t.gen is not None and t.gen in nxt:
                for c in reversed(t.children):
                    rest = (c, rest)
                stack.append((nxt[t.gen], rest))
        ranks.sort()
        return [self._ranked[i] for i in ranks]

    def occurrences_at(self, m: Tree, path: tuple[int, ...]):
        """The ``(rule, occurrence)`` pairs anchored at ``path``, in rule
        order."""
        for rule in self.candidates(subtree_at(m, path)):
            occ = occurrence_at(rule.lead, m, path)
            if occ is not None:
                yield rule, occ

    def find_divisor(self, m: Tree) -> tuple[RewriteRule, Occurrence] | None:
        """The first of ``occurrences(m)``: the divisor the strategy uses."""
        try:
            return self._div_memo[m]
        except KeyError:
            found = self._div_memo[m] = next(self.occurrences(m), None)
            return found

    def _step(self, m: Tree) -> tuple[int, dict[Tree, int]] | None:
        div = self.find_divisor(m)
        if div is None:
            return None
        rule, occ = div
        den, nums = self._tails[rule]
        return den, graft_terms(m, occ, nums)

    def nf_terms(self, terms: dict[Tree, Fraction]) -> dict[Tree, Fraction]:
        """The normal form of ``terms``, empty exactly when it is 0."""
        return fraction_terms(*normal_form(terms, self._step, self._memo))

    def nf_element(self, f: OperadElement) -> OperadElement:
        return OperadElement(self.nf_terms(f.terms), f.arity)


class GroebnerBasis:
    """Completed, interreduced rewrite system up to ``max_arity``."""

    def __init__(self, presentation_name: str,
                 generators: tuple[GeneratorSymbol, ...], order_id: str,
                 max_arity: int, rules: Sequence[RewriteRule]):
        self.presentation_name = presentation_name
        self.generators = tuple(generators)
        self.order_id = order_id
        self.max_arity = max_arity
        self.rules = tuple(rules)
        self.order = order_for(order_id, [g.name for g in self.generators])
        self._reducer: _Reducer | None = None

    @property
    def reducer(self) -> _Reducer:
        if self._reducer is None:
            self._reducer = _Reducer(self.rules, self.order)
        return self._reducer

    def rule_counts(self) -> dict[int, int]:
        return dict(sorted(Counter(r.arity for r in self.rules).items()))

    def __repr__(self) -> str:
        return (f"GroebnerBasis({self.presentation_name}, order={self.order_id}, "
                f"max_arity={self.max_arity}, rules={self.rule_counts()})")


def _reducer_for(f: OperadElement, basis: GroebnerBasis) -> _Reducer:
    if f.arity > basis.max_arity:
        raise BudgetExceededError(
            f"element arity {f.arity} exceeds completed range {basis.max_arity}")
    return basis.reducer


def reduce_element(f: OperadElement, basis: GroebnerBasis) -> OperadElement:
    """Normal form of ``f`` modulo the completed basis."""
    return _reducer_for(f, basis).nf_element(f)


def reduce_random(f: OperadElement, basis: GroebnerBasis, rng) -> OperadElement:
    """Normal form computed with a randomized strategy (random reducible
    monomial, random applicable rule and position); used to check the
    Church-Rosser property of completed bases."""
    reducer = _reducer_for(f, basis)
    terms = dict(f.terms)
    while True:
        reducible = [m for m in terms if reducer.find_divisor(m) is not None]
        if not reducible:
            return OperadElement(terms, f.arity)
        m = reducible[rng.randrange(len(reducible))]
        apps = list(reducer.occurrences(m))
        rule, occ = apps[rng.randrange(len(apps))]
        axpy(terms, graft_at(m, occ, rule.tail).terms, terms.pop(m))


# ---------------------------------------------------------------------------
# overlaps, S-polynomials and stratum elimination
# ---------------------------------------------------------------------------

def overlaps(reducer: _Reducer, K: int):
    """Every minimal common multiple of arity exactly K of two rule leads
    of ``reducer``, as ``(m, r1, occ1, r2, occ2)``: the two occurrences
    share a vertex and jointly cover ``m``.

    Each common multiple is built by superposing the two leads.  Since the
    occurrences cover ``m``, one of them contains the root; call its rule
    ``r1``.  A lead of arity K would be all of ``m``, so ``r1`` has arity
    below K (for an interreduced rule set the other lead could only divide
    it).  The occurrence of ``r2`` shares a vertex with the root
    occurrence, and its top vertex ``p`` lies on the path from the root to
    that shared vertex.  The root occurrence's vertex set is closed upward,
    so ``p`` is an internal vertex of ``r1.lead``, carrying the generator
    of ``r2.lead``'s root.  Outside the subtree at ``p`` only
    ``r1`` covers ``m``; inside it the two leads laid over each other
    (:func:`~operadgb.trees.superpose`) cover it, a vertex of either one
    being a vertex of ``m``.  So the shape of ``m`` is that superposition,
    and ``m`` is one of its shuffle labellings on 1..K in which both leads
    occur, at the root and at ``p``.  Every such labelling is a common
    multiple: the occurrences share ``p`` and cover the shape.
    """
    by_root: dict[str, list[RewriteRule]] = {}
    for r in reducer.rules:
        by_root.setdefault(r.lead.gen, []).append(r)
    labellings: dict[Tree, list[Tree]] = {}  # shapes recur across pairs
    seen: set = set()
    for r1 in reducer.rules:
        if r1.arity >= K:
            continue
        for p in iter_positions(r1.lead):
            for r2 in by_root.get(subtree_at(r1.lead, p).gen, ()):
                if r2 is r1 and not p:
                    continue
                shape = superpose(r1.lead, p, r2.lead)
                if shape is None or shape.arity != K:
                    continue
                if shape not in labellings:
                    labellings[shape] = shape_labellings(shape)
                for m in labellings[shape]:
                    occ1 = occurrence_at(r1.lead, m, ())
                    if occ1 is None:
                        continue
                    occ2 = occurrence_at(r2.lead, m, p)
                    if occ2 is None:
                        continue
                    pair_key = (m,) + tuple(sorted(((r1.rid, ()),
                                                    (r2.rid, p))))
                    if pair_key in seen:
                        continue
                    seen.add(pair_key)
                    yield m, r1, occ1, r2, occ2


def _spoly(m: Tree, r1: RewriteRule, o1: Occurrence, r2: RewriteRule,
           o2: Occurrence) -> OperadElement:
    return graft_at(m, o1, r1.tail) - graft_at(m, o2, r2.tail)


def _stratum_spolys(reducer: _Reducer, K: int):
    """All S-polynomials at arity exactly K among the reducer's rules."""
    for overlap in overlaps(reducer, K):
        yield _spoly(*overlap)


def _echelon(vectors: Iterable[dict[Tree, Fraction]],
             order: TreeOrder) -> dict[Tree, dict[Tree, Fraction]]:
    """The stratum's reduced row echelon form: lead -> monic tail.  A
    function of its own so that ``perfbench/traced.py`` can time each
    stratum's elimination and count its rows."""
    return echelon(vectors, order.key)


def _stratum_rows(reducer: _Reducer, K: int, relations: Iterable[OperadElement]
                  ) -> list[dict[Tree, Fraction]]:
    """The nonzero normal forms of the arity-K relations and S-polynomials:
    the rows of the stratum's elimination.  Each S-polynomial is reduced as
    soon as it is generated, so no unreduced one is kept; the reducer and
    its memos go when the rows are complete."""
    rows = [vec for rel in relations if (vec := reducer.nf_terms(rel.terms))]
    rows += [vec for spoly in _stratum_spolys(reducer, K)
             if spoly and (vec := reducer.nf_terms(spoly.terms))]
    return rows


def buchberger(p: Presentation, max_arity: int, order_id: str = "pathlex",
               progress: Callable[[str], None] | None = None) -> GroebnerBasis:
    """Complete the presentation's relations up to ``max_arity``."""
    if not p.relations:
        return GroebnerBasis(p.name, p.generators, order_id, max_arity, ())
    if p.max_relation_arity > max_arity:
        raise BudgetExceededError(
            f"presentation has relations of arity {p.max_relation_arity} "
            f"beyond the budget {max_arity}")
    order = p.order(order_id)
    rel_groups = p.relations_by_arity()
    rules: list[RewriteRule] = []
    next_rid = 0
    start = min(rel_groups)
    for K in range(start, max_arity + 1):
        pivots = _echelon(_stratum_rows(_Reducer(rules, order), K,
                                        rel_groups.get(K, ())), order)
        for lead in sorted(pivots, key=order.key):
            tail = OperadElement(
                {t: -c for t, c in pivots[lead].items()}, lead.arity)
            rules.append(RewriteRule(lead, tail, next_rid))
            next_rid += 1
        if progress is not None:
            progress(f"arity {K}: {len(pivots)} new rules, {len(rules)} total")
    return GroebnerBasis(p.name, p.generators, order_id, max_arity, rules)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_MAGIC = "operadgb-basis v2"
_MAGIC_V1 = "operadgb-basis v1"


def _checksum(header: list[str], rules: list[str]) -> str:
    """SHA-256 over the header lines before the checksum and the rules."""
    return hashlib.sha256("\n".join(header + rules).encode()).hexdigest()


def _rules_section(b: GroebnerBasis) -> list[str]:
    lines = []
    for r in sorted(b.rules, key=lambda r: (r.arity, b.order.key(r.lead))):
        tail = format_element(r.tail, b.order) if r.tail else "0"
        lines.append(f"{r.arity} {r.lead} => {tail}")
    return lines


def save_basis(b: GroebnerBasis, path: str) -> None:
    rules = _rules_section(b)
    body = "\n".join(rules)
    header = [
        _MAGIC,
        f"presentation: {b.presentation_name}",
        f"order: {b.order_id}",
        "generators: " + " ".join(map(str, b.generators)),
        f"max_arity: {b.max_arity}",
        f"rules: {len(rules)}",
    ]
    header.append(f"checksum: {_checksum(header, rules)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n" + body + ("\n" if body else ""))


def load_basis(path: str, validate: bool = True) -> GroebnerBasis:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    if lines and lines[0] == _MAGIC_V1:
        raise BasisFormatError(
            f"{_MAGIC_V1} files are not accepted, because their checksum "
            f"does not cover the header; re-run `gb` to write {_MAGIC!r}")
    if not lines or lines[0] != _MAGIC:
        raise BasisFormatError(f"not a basis file (expected {_MAGIC!r})")

    def header(idx: int, name: str) -> str:
        if idx >= len(lines) or not lines[idx].startswith(name + ":"):
            raise BasisFormatError(f"missing header field {name!r}")
        return lines[idx].split(":", 1)[1].strip()

    def int_header(idx: int, name: str) -> int:
        value = header(idx, name)
        if not value.isdecimal():
            raise BasisFormatError(
                f"header field {name!r} must be a nonnegative integer, "
                f"got {value!r}")
        return int(value)

    pres_name = header(1, "presentation")
    order_id = header(2, "order")
    gen_spec = header(3, "generators")
    max_arity = int_header(4, "max_arity")
    count = int_header(5, "rules")
    checksum = header(6, "checksum")
    body_lines = lines[7:7 + count]
    if len(body_lines) != count:
        raise BasisFormatError("truncated rules section")
    if _checksum(lines[:6], body_lines) != checksum:
        raise BasisFormatError("checksum mismatch: file corrupted")
    try:
        gens = parse_generators(gen_spec, 4)
    except (ValueError, TreeError) as exc:
        raise BasisFormatError(f"bad header field 'generators': {exc}") from None
    rules: list[RewriteRule] = []
    for i, line in enumerate(body_lines):
        try:
            arity_str, rest = line.split(" ", 1)
            lead_str, tail_str = rest.split(" => ")
            lead = parse_monomial(lead_str, gens)
            if tail_str.strip() == "0":
                tail = OperadElement.zero(lead.arity)
            else:
                tail = parse_element(tail_str, gens)
        except (ValueError, TreeError) as exc:
            raise BasisFormatError(f"bad rule line {i + 1}: {exc}") from None
        rules.append(RewriteRule(lead, tail, i))
    basis = GroebnerBasis(pres_name, gens, order_id, max_arity, rules)
    if validate:
        validate_interreduced(basis)
    return basis


def validate_interreduced(b: GroebnerBasis) -> None:
    """Check no lead divides another lead or any tail monomial: the only
    lead occurrence in a lead is the rule itself at the root."""
    for r in b.rules:
        for other, _occ in b.reducer.occurrences(r.lead):
            if other is not r:
                raise BasisFormatError(
                    f"lead {r.lead} divisible by lead {other.lead}")
        for t in r.tail.terms:
            if b.reducer.find_divisor(t) is not None:
                raise BasisFormatError(
                    f"tail monomial {t} of rule {r.lead} is reducible")
