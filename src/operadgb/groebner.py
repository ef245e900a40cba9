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

The S-polynomials come from root occurrences: a common multiple of two
leads has one occurrence at the root, and the other lead's top vertex is
one of that occurrence's vertices.  Laying the second lead over each vertex
of the first with the same generator fixes the shape of each slot of the
root occurrence, so the common multiples are the monomials with the first
lead at the root and shuffle-labelled slots of those shapes in which the
second lead occurs.  :func:`overlaps` spells out why this is exhaustive.

Reduction is deterministic: a monomial's one rewrite step uses the divisor
at its first pre-order position, rules tried in a fixed order (arity, lead
key, rid), so normal forms are linear and are memoized per monomial by
:func:`~operadgb.elements.normal_form`: a step grafts the rule's tail
terms into the monomial as they are.  A trie over the leads' pre-order
skeletons yields the candidate rules at a position in that order, each
confirmed by a full occurrence match, so the index cannot change the
divisor.  The divisor of each proper subtree is memoized, so a subtree
that many monomials share is searched once.  The reducer fills its memos
lazily, so it is not safe to share between threads.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Callable, Iterable, Sequence

# SHA-256 from the interpreter's built-in module, the same function as
# hashlib.sha256; importing hashlib would map OpenSSL into every process
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11 and earlier
    except ImportError:
        from hashlib import sha256

from .elements import (
    OperadElement,
    axpy,
    echelon,
    graft_at,
    graft_terms,
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
    root_multiples,
    shape_labellings,
    slot_shapes,
    subtree_at,
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
        self._memo: dict = {}  # for elements.normal_form
        self._divisors: dict[Tree, tuple[RewriteRule, Occurrence] | None] = {}

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
        """The first of ``occurrences(m)``: the divisor the strategy uses.
        An occurrence below the root lies in one child, so without one at
        the root it is the first child's divisor, moved down to that child.
        The divisors of proper subtrees are memoized, since many monomials
        share them; that of ``m`` itself is not, since the normal-form memo
        steps each monomial once."""
        found = next(self.occurrences_at(m, ()), None)
        if found is None:
            for i, c in enumerate(m.children):
                if c.gen is None:
                    continue
                if c in self._divisors:
                    below = self._divisors[c]
                else:
                    below = self._divisors[c] = self.find_divisor(c)
                if below is not None:
                    rule, occ = below
                    return rule, Occurrence((i,) + occ.path, occ.slots)
        return found

    def _step(self, m: Tree) -> dict[Tree, Fraction] | None:
        div = self.find_divisor(m)
        if div is None:
            return None
        rule, occ = div
        return graft_terms(m, occ, rule.tail.terms)

    def nf_terms(self, terms: dict[Tree, Fraction]) -> dict[Tree, Fraction]:
        """The normal form of ``terms``, empty exactly when it is 0."""
        return normal_form(terms, self._step, self._memo)


class GroebnerBasis:
    """Completed, interreduced rewrite system up to ``max_arity``, under
    the order it was completed in, whose keys it keeps."""

    def __init__(self, presentation_name: str,
                 generators: tuple[GeneratorSymbol, ...], order: TreeOrder,
                 max_arity: int, rules: Sequence[RewriteRule]):
        self.presentation_name = presentation_name
        self.generators = tuple(generators)
        self.order = order
        self.max_arity = max_arity
        self.rules = tuple(rules)
        self._reducer: _Reducer | None = None

    @property
    def order_id(self) -> str:
        return self.order.order_id

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
    return f._like(_reducer_for(f, basis).nf_terms(f.terms))


def reduce_random(f: OperadElement, basis: GroebnerBasis, rng) -> OperadElement:
    """Normal form computed with a randomized strategy (random reducible
    monomial, random applicable rule and position); used to check the
    Church-Rosser property of completed bases."""
    reducer = _reducer_for(f, basis)
    terms = dict(f.terms)
    # a monomial stays in ``terms`` over many steps: test it once
    is_reducible = cache(lambda m: reducer.find_divisor(m) is not None)
    while True:
        reducible = [m for m in terms if is_reducible(m)]
        if not reducible:
            return f._like(terms)
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

    Each common multiple is built from its root occurrence.  Since the
    occurrences cover ``m``, one of them contains the root; call its rule
    ``r1``, the one of smaller rid when both do.  A lead of arity K would
    be all of ``m``, so ``r1`` has arity below K (for an interreduced rule
    set the other lead could only divide it).  The occurrence of ``r2``
    shares a vertex with the root occurrence, and its top vertex ``p``
    lies on the path from the root to that shared vertex.  The root
    occurrence's vertex set is closed upward, so ``p`` is an internal
    vertex of ``r1.lead``, carrying the generator of ``r2.lead``'s root.
    Below a leaf of ``r1.lead`` only ``r2`` covers ``m``, so there the
    vertices of ``m`` are those of ``r2.lead``: the slot of the root
    occurrence at that leaf has the shape of the part of ``r2.lead`` that
    hangs below it, or is a leaf where nothing does
    (:func:`~operadgb.trees.slot_shapes`).  So ``m`` is one of the
    :func:`~operadgb.trees.root_multiples` of ``r1.lead`` with each slot
    a shuffle labelling of its shape, each built once, and one in which
    ``r2`` occurs at ``p``.  Every such monomial is a common multiple: the
    occurrences share ``p`` and cover ``m``.  Each pair of occurrences is
    found once, from ``(r1, p, r2)``.
    """
    by_root: dict[str, list[RewriteRule]] = {}
    for r in reducer.rules:
        by_root.setdefault(r.lead.gen, []).append(r)
    labellings = cache(shape_labellings)  # slot shapes recur across pairs
    for r1 in reducer.rules:
        if r1.arity >= K:
            continue
        for p in iter_positions(r1.lead):
            for r2 in by_root.get(subtree_at(r1.lead, p).gen, ()):
                if not p and r2.rid <= r1.rid:
                    continue
                shapes = slot_shapes(r1.lead, p, r2.lead)
                if shapes is None or sum(s.arity for s in shapes) != K:
                    continue
                for m, occ1 in root_multiples(r1.lead,
                                              [labellings(s) for s in shapes]):
                    occ2 = occurrence_at(r2.lead, m, p)
                    if occ2 is not None:
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
        return GroebnerBasis(p.name, p.generators, p.order(order_id),
                             max_arity, ())
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
            tail = -OperadElement(pivots[lead], lead.arity)
            rules.append(RewriteRule(lead, tail, next_rid))
            next_rid += 1
        if progress is not None:
            progress(f"arity {K}: {len(pivots)} new rules, {len(rules)} total")
    return GroebnerBasis(p.name, p.generators, order, max_arity, rules)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_MAGIC = "operadgb-basis v2"
_MAGIC_V1 = "operadgb-basis v1"


def _checksum(header: list[str], rules: list[str]) -> str:
    """SHA-256 over the header lines before the checksum and the rules,
    joined by newlines, hashed a rule at a time.  The header is never
    empty: it starts with the magic line.  The digest is hashlib's, taken
    from the interpreter's built-in module over the same bytes."""
    digest = sha256("\n".join(header).encode())
    for line in rules:
        digest.update(f"\n{line}".encode())
    return digest.hexdigest()


def _rules_section(b: GroebnerBasis) -> list[str]:
    lines = []
    for r in sorted(b.rules, key=lambda r: (r.arity, b.order.key(r.lead))):
        tail = format_element(r.tail, b.order) if r.tail else "0"
        lines.append(f"{r.arity} {r.lead} => {tail}")
    return lines


def save_basis(b: GroebnerBasis, path: str) -> None:
    rules = _rules_section(b)
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
        fh.writelines(f"{line}\n" for line in chain(header, rules))


def load_basis(path: str, validate: bool = True) -> GroebnerBasis:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise BasisFormatError(f"{path}: {exc}") from None
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
    # the checksum covers the counted rules only, so nothing may follow them
    for n, line in enumerate(lines[7 + count:], start=8 + count):
        if line.strip():
            raise BasisFormatError(f"line {n}: text after the {count} rules")
    if _checksum(lines[:6], body_lines) != checksum:
        raise BasisFormatError("checksum mismatch: file corrupted")
    if max_arity < 1:
        # gb never writes one: a basis of no arity would claim nothing
        raise BasisFormatError(
            f"header field 'max_arity' must be positive, got {max_arity}")
    try:
        gens = parse_generators(gen_spec, 4,
                                lines[3].index(gen_spec, len("generators:")) + 1)
    except ValueError as exc:
        raise BasisFormatError(f"bad header field 'generators': {exc}") from None
    try:
        order = order_for(order_id, [g.name for g in gens])
    except TreeError as exc:
        raise BasisFormatError(f"bad header field 'order': {exc}") from None
    rules: list[RewriteRule] = []
    for i, line in enumerate(body_lines):
        try:
            arity_str, rest = line.split(" ", 1)
            lead_str, tail_str = rest.split(" => ")
            lead = parse_monomial(lead_str, gens)
            if arity_str != str(lead.arity):
                raise ValueError(f"arity field {arity_str!r}, but the lead "
                                 f"has arity {lead.arity}")
            if lead.arity > max_arity:
                raise ValueError(f"arity {lead.arity} exceeds max_arity "
                                 f"{max_arity}")
            if tail_str.strip() == "0":
                tail = OperadElement.zero(lead.arity)
            else:
                tail = parse_element(tail_str, gens)
            rules.append(RewriteRule(lead, tail, i))
        except (ValueError, TreeError) as exc:
            raise BasisFormatError(f"bad rule line {i + 1}: {exc}") from None
    basis = GroebnerBasis(pres_name, gens, order, max_arity, rules)
    if validate:
        validate_interreduced(basis)
    return basis


def validate_interreduced(b: GroebnerBasis) -> None:
    """Check every tail monomial is below its lead and no lead divides
    another lead or any tail monomial: the only lead occurrence in a lead
    is the rule itself at the root."""
    # tail monomials recur across rules: test each once
    is_reducible = cache(lambda t: b.reducer.find_divisor(t) is not None)
    for r in b.rules:
        for other, _occ in b.reducer.occurrences(r.lead):
            if other is not r:
                raise BasisFormatError(
                    f"lead {r.lead} divisible by lead {other.lead}")
        for t in r.tail.terms:
            if b.order.key(t) >= b.order.key(r.lead):
                raise BasisFormatError(
                    f"bad rule line {r.rid + 1}: tail monomial {t} is not "
                    f"below the lead under {b.order_id}")
            if is_reducible(t):
                raise BasisFormatError(
                    f"tail monomial {t} of rule {r.lead} is reducible")
