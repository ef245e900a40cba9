"""Shuffle tree monomials, admissible monomial orders, and divisibility.

A shuffle tree monomial of arity n is a planar rooted tree whose internal
vertices carry generator symbols and whose leaves are labelled by distinct
integers (1..n at the top level) such that at every internal vertex the
minimal leaf labels of the child subtrees strictly increase from left to
right.  These monomials form the monomial basis of a free shuffle operad;
divisibility is given by subtree occurrences and drives the Buchberger
engine in :mod:`operadgb.groebner`.

Trees are interned: structurally equal trees are the same object, so
equality and hashing are by identity.  A tree's text is built the first
time it is printed and kept on the tree.  All values here are immutable,
but the interning table, the texts and the order-key caches fill lazily and
are not synchronized, so they are not safe to build from several threads.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from typing import Callable, Iterator, NamedTuple, Sequence


class TreeError(ValueError):
    """Malformed tree monomial (bad labels, arity, or shuffle condition)."""


class Record:
    """Immutable value record whose fields are its class's ``__slots__``.
    A subclass checks its arguments, then hands them to ``Record.__init__``.
    Records are equal when class and fields are, hash as their field tuple,
    and are copied and pickled back through the checking constructor."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class GeneratorSymbol(Record):
    """A named operad generator of fixed arity, at least 2: a unary one
    would make every component infinite-dimensional."""

    __slots__ = ("name", "arity")

    name: str
    arity: int

    def __init__(self, name: str, arity: int) -> None:
        # a name token of the syntax: ASCII letter, then letters, digits, _
        if not (name.isascii() and name.isidentifier() and name[0].isalpha()):
            raise TreeError(f"bad generator name {name!r}")
        if arity < 2:
            raise TreeError(f"generator {name}: arity must be >= 2")
        super().__init__(name, arity)

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


class Tree:
    """Interned shuffle tree monomial; construct via :func:`leaf` / :func:`node`.

    They are the only public constructors and return the one tree of each
    structure, and copies and unpickled trees are rebuilt through them, so
    trees are equal exactly when they are identical.  ``_vertex`` interns
    every vertex: :func:`node` checks a tree from outside first, and each
    derived tree, whose construction makes those checks true, goes there.

    Attributes:
        gen: generator name at the root, or ``None`` for a leaf.
        children: tuple of subtrees (empty for a leaf).
        label: leaf label (0 for internal nodes).
        leaves: sorted tuple of all leaf labels.
        size: number of internal vertices.

    The text form ``x(y(1 3) 2)`` is built by the first ``str`` and kept in
    a slot, so each printed tree is formatted once, from its children's
    kept texts; the slot costs no memory, since a sixth pointer still fits
    the allocator's size class of a five-slot tree.
    """

    __slots__ = ("gen", "children", "label", "leaves", "size", "_text")

    _interned: dict = {}

    gen: str | None
    children: tuple["Tree", ...]
    label: int
    leaves: tuple[int, ...]
    size: int
    _text: str | None

    @classmethod
    def _intern(cls, gen, children, label, leaves, size) -> "Tree":
        self = object.__new__(cls)
        self.gen = gen
        self.children = children
        self.label = label
        self.leaves = leaves
        self.size = size
        self._text = None
        cls._interned[gen, children, label] = self
        return self

    @property
    def is_leaf(self) -> bool:
        return self.gen is None

    @property
    def arity(self) -> int:
        return len(self.leaves)

    def __repr__(self) -> str:
        return f"Tree({self})"

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = str(self.label) if self.gen is None \
                else f"{self.gen}({' '.join(map(str, self.children))})"
        return text

    def __reduce__(self):
        if self.is_leaf:
            return (leaf, (self.label,))
        return (node, (self.gen, self.children))


def leaf(label: int) -> Tree:
    """The leaf monomial with the given (positive) label."""
    if label < 1:
        raise TreeError(f"leaf label must be >= 1, got {label}")
    cached = Tree._interned.get((None, (), label))
    if cached is None:
        cached = Tree._intern(None, (), label, (label,), 0)
    return cached


def node(gen: str, children: Sequence[Tree]) -> Tree:
    """An internal vertex labelled ``gen`` over the given child subtrees.

    Children must already be in shuffle position: their minimal leaf labels
    strictly increasing, all leaf labels pairwise distinct.  A new vertex
    is checked before ``_vertex`` interns it, so a rejected one is not.
    """
    kids = tuple(children)
    cached = Tree._interned.get((gen, kids, 0))
    if cached is not None:
        return cached
    if len(kids) < 1:
        raise TreeError("internal vertex needs at least one child")
    if not in_shuffle_position(kids):
        raise TreeError(
            f"children minima must strictly increase: {[str(k) for k in kids]}")
    return _vertex(gen, kids)


def _vertex(gen: str, kids: tuple[Tree, ...],
            leaves: tuple[int, ...] | None = None) -> Tree:
    """The one place a vertex is interned: ``gen`` over children known to
    be in shuffle position, whose merged leaves are ``leaves`` if given."""
    t = Tree._interned.get((gen, kids, 0))
    if t is None:
        if leaves is None:
            leaves = _sorted_distinct([l for c in kids for l in c.leaves])
        t = Tree._intern(gen, kids, 0, leaves, 1 + sum(c.size for c in kids))
    return t


def in_shuffle_position(trees: Sequence[Tree]) -> bool:
    """True when the minimal leaf labels of ``trees`` strictly increase:
    the condition on a vertex's children and on an occurrence's slots."""
    prev = 0
    for t in trees:
        if t.leaves[0] <= prev:
            return False
        prev = t.leaves[0]
    return True


def _sorted_distinct(labels: list[int]) -> tuple[int, ...]:
    labels.sort()
    for a, b in zip(labels, labels[1:]):
        if a == b:
            raise TreeError(f"duplicate leaf label {a}")
    return tuple(labels)


def is_complete(t: Tree) -> bool:
    """True when the leaf labels are exactly 1..arity."""
    return t.leaves == tuple(range(1, t.arity + 1))


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

class TreeOrder:
    """Graded path-lexicographic order on equal-arity tree monomials.

    Monomials compare by number of internal vertices first, then by the
    sequence of leaf path words taken in increasing leaf-label order.  The
    path word of a leaf records, top down, (generator rank, child index) for
    every vertex on the root-to-leaf path; words compare degree first, then
    letter by letter.  This order is admissible: it is compatible with
    insertion into any composition context (checked by property tests).

    Two registered strategies differ only in generator precedence:
    ``pathlex`` ranks generators in declaration order, ``revpathlex``
    reverses it.  Dimension counts must agree between the two.
    """

    def __init__(self, order_id: str, precedence: Sequence[str]):
        self.order_id = order_id
        self.precedence = tuple(precedence)
        self._rank = {name: i for i, name in enumerate(self.precedence)}
        if len(self._rank) != len(self.precedence):
            raise TreeError("duplicate generator in precedence list")
        self._keys: dict[Tree, str] = {}

    def __repr__(self) -> str:
        return f"TreeOrder({self.order_id}, {'<'.join(self.precedence)})"

    def key(self, t: Tree) -> str:
        """Sort key; valid for comparing monomials of equal arity: a char for
        the size, then per leaf in label order one for its word's length in
        letters and two per letter (rank, child index), so words line up."""
        k = self._keys.get(t)
        if k is None:
            words: dict[int, str] = {}
            self._collect(t, "", words)
            k = chr(t.size) + "".join(chr(len(words[l]) // 2) + words[l]
                                      for l in t.leaves)
            self._keys[t] = k
        return k

    def _letter(self, t: Tree, i: int) -> str:
        try:
            return chr(self._rank[t.gen]) + chr(i)
        except KeyError:
            raise TreeError(f"generator {t.gen!r} not covered by order "
                            f"{self.order_id}") from None

    def _collect(self, t: Tree, prefix: str, out: dict[int, str]) -> None:
        if t.is_leaf:
            out[t.label] = prefix
        for i, c in enumerate(t.children):
            self._collect(c, prefix + self._letter(t, i), out)


ORDER_IDS = ("pathlex", "revpathlex")


def order_for(order_id: str, gen_names: Sequence[str]) -> TreeOrder:
    """Build a registered order strategy over the given generator list."""
    if order_id == "pathlex":
        return TreeOrder(order_id, gen_names)
    if order_id == "revpathlex":
        return TreeOrder(order_id, tuple(reversed(gen_names)))
    raise TreeError(f"unknown order id {order_id!r}; known: {ORDER_IDS}")


# ---------------------------------------------------------------------------
# occurrences (divisibility), grafting and substitution
# ---------------------------------------------------------------------------

class Occurrence(NamedTuple):
    """An embedding of a pattern monomial as a divisor of a host monomial.

    ``path`` locates the top vertex of the embedded pattern; ``slots`` maps
    the pattern leaves (in increasing label order) to the host subtrees that
    hang off the pattern's boundary.
    """

    path: tuple[int, ...]
    slots: tuple[Tree, ...]

    def __repr__(self) -> str:
        return f"Occurrence(path={self.path}, slots={[str(s) for s in self.slots]})"


def _match_at(pattern: Tree, sub: Tree, slots: dict[int, Tree]) -> bool:
    if pattern.is_leaf:
        slots[pattern.label] = sub
        return True
    if sub.is_leaf or pattern.gen != sub.gen \
            or len(pattern.children) != len(sub.children):
        return False
    for pc, sc in zip(pattern.children, sub.children):
        if not _match_at(pc, sc, slots):
            return False
    return True


def occurrence_at(pattern: Tree, host: Tree, path: tuple[int, ...]) -> Occurrence | None:
    """The unique occurrence of ``pattern`` anchored at ``path``, if any:
    children pair up positionally (forced by the shuffle condition), and
    the slots, in the pattern's leaf-label order, must be in shuffle
    position, which makes the leaf relabeling an order isomorphism."""
    sub = subtree_at(host, path)
    slots: dict[int, Tree] = {}
    if sub.is_leaf or not _match_at(pattern, sub, slots):
        return None
    ordered = tuple([slots[lab] for lab in pattern.leaves])
    return Occurrence(path, ordered) if in_shuffle_position(ordered) else None


def iter_positions(t: Tree, prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Internal vertex paths of ``t`` in pre-order."""
    if t.is_leaf:
        return
    yield prefix
    for i, c in enumerate(t.children):
        yield from iter_positions(c, prefix + (i,))


def subtree_at(t: Tree, path: tuple[int, ...]) -> Tree:
    for i in path:
        t = t.children[i]
    return t


def replace_at(t: Tree, path: tuple[int, ...], sub: Tree) -> Tree:
    """Replace the subtree at ``path`` by one on the same leaf labels, so
    every vertex along the path keeps its leaves and shuffle condition."""
    if not path:
        return sub
    i = path[0]
    kids = list(t.children)
    kids[i] = replace_at(kids[i], path[1:], sub)
    return _vertex(t.gen, tuple(kids), t.leaves)


def substitute(t: Tree, assignment: dict[int, Tree]) -> Tree:
    """Replace each leaf ``l`` of ``t`` by ``assignment[l]``.

    Requires the assignment to be min-monotone in the leaf labels (as slot
    maps, shuffle compositions and relabellings always are); the planar
    structure and shuffle condition then carry over, unchecked.
    """
    if t.is_leaf:
        return assignment[t.label]
    return _vertex(t.gen, tuple([substitute(c, assignment) for c in t.children]))


def relabel_ordered(t: Tree, labels: Sequence[int]) -> Tree:
    """Order-isomorphic relabeling: i-th smallest leaf label -> labels[i].

    The labels are checked here, before any vertex is built, so a rejected
    relabeling leaves nothing behind in the intern table."""
    if len(labels) != t.arity:
        raise TreeError("relabeling size mismatch")
    if min(labels) < 1:
        raise TreeError(f"leaf label must be >= 1, got {min(labels)}")
    new = _sorted_distinct(list(labels))
    if new == t.leaves:
        return t
    return substitute(t, dict(zip(t.leaves, map(leaf, new))))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def min_increasing_blocks(labels: Sequence[int],
                          sizes: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Partitions of ``labels`` into blocks of the given sizes whose minima
    strictly increase block to block (the shuffle condition on partitions)."""
    labels = tuple(sorted(labels))
    if sum(sizes) != len(labels):
        raise TreeError("block sizes do not cover the label set")

    def rec(remaining: tuple[int, ...], sizes_left: Sequence[int]):
        if not sizes_left:
            yield ()
            return
        head, rest_sizes = sizes_left[0], sizes_left[1:]
        lo, others = remaining[0], remaining[1:]
        for extra in combinations(others, head - 1):
            block = (lo,) + extra
            rest = tuple(x for x in others if x not in extra)
            for tail in rec(rest, rest_sizes):
                yield (block,) + tail

    yield from rec(labels, tuple(sizes))


class ShufflePartition(Record):
    """Ordered disjoint blocks covering 1..n with strictly increasing
    minima."""

    __slots__ = ("blocks",)

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: tuple[tuple[int, ...], ...]) -> None:
        seen: set[int] = set()
        prev_min = 0
        for b in blocks:
            if not b:
                raise TreeError("empty block in shuffle partition")
            if min(b) <= prev_min:
                raise TreeError("block minima must strictly increase")
            prev_min = min(b)
            for x in b:
                if x in seen:
                    raise TreeError(f"label {x} repeated across blocks")
                seen.add(x)
        n = len(seen)
        if seen != set(range(1, n + 1)):
            raise TreeError("blocks must cover 1..n exactly")
        super().__init__(blocks)

    @property
    def total(self) -> int:
        return sum(len(b) for b in self.blocks)


_ALL_TREES: dict = {}


def _block_graftings(levels: Sequence[Sequence[Tree]]
                     ) -> Iterator[tuple[Tree, ...]]:
    """Every tuple of trees in shuffle position whose i-th tree is one of
    ``levels[i]`` (trees on the labels 1..k_i) relabelled: for each
    partition of 1..k_1+k_2+... into blocks of sizes k_1, k_2, ... with
    increasing minima, the product of the levels relabelled onto the
    blocks.  Each level is relabelled onto each block once, however many
    partitions share that block.  An empty level gives no tuples."""
    if not all(levels):
        return iter(())
    sizes = [level[0].arity for level in levels]
    labels = tuple(range(1, sum(sizes) + 1))
    placed: list[dict] = [{} for _ in levels]

    def on(i: int, block: tuple[int, ...]) -> Sequence[Tree]:
        got = placed[i].get(block)
        if got is None:
            if block[-1] == len(block):  # the identity
                got = levels[i]
            else:  # label l goes to block[l - 1]
                onto = dict(enumerate(map(leaf, block), 1))
                got = [substitute(t, onto) for t in levels[i]]
            placed[i][block] = got
        return got

    return chain.from_iterable(
        product(*map(on, range(len(levels)), blocks))
        for blocks in min_increasing_blocks(labels, sizes))


def vertices(gens: Sequence[GeneratorSymbol], n: int,
             level: Callable[[int], Sequence[Tree]]) -> Iterator[Tree]:
    """Every vertex over the labels 1..n whose children come from
    ``level``: for each generator of arity k <= n, in order, the generator
    over every k-tuple of trees in shuffle position, that is, for each
    composition of n into k parts, the :func:`_block_graftings` of
    ``level(size)`` over its parts.  Each arity's child tuples are built
    once and shared by the generators of that arity."""
    labels = tuple(range(1, n + 1))
    by_arity: dict[int, list[tuple[Tree, ...]]] = {}
    for g in gens:
        if g.arity > n:
            continue
        kids = by_arity.get(g.arity)
        if kids is None:
            kids = by_arity[g.arity] = [
                ks for comp in compositions(n, g.arity)
                for ks in _block_graftings([level(size) for size in comp])]
        for ks in kids:
            yield _vertex(g.name, ks, labels)


def all_trees(gens: Sequence[GeneratorSymbol], n: int) -> tuple[Tree, ...]:
    """All shuffle tree monomials of arity ``n`` over the given generators,
    with leaves labelled 1..n.  Cached per (generators, n)."""
    key = (tuple(gens), n)
    cached = _ALL_TREES.get(key)
    if cached is not None:
        return cached
    if n < 1:
        raise TreeError("arity must be >= 1")
    if n == 1:
        result: tuple[Tree, ...] = (leaf(1),)
    else:
        result = tuple(vertices(gens, n, lambda m: all_trees(gens, m)))
    _ALL_TREES[key] = result
    return result


def root_multiples(t: Tree, levels: Sequence[Sequence[Tree]]
                   ) -> Iterator[tuple[Tree, Occurrence]]:
    """Every monomial with ``t`` at its root whose i-th slot, the subtree
    on the i-th smallest leaf of ``t``, is one of ``levels[i]`` relabelled,
    together with that root occurrence.

    The slots are laid on blocks whose minima increase in the leaf order
    of ``t``, which is exactly the condition for ``t`` to occur at the
    root (see :func:`occurrence_at`), so each monomial comes once and no
    match is needed."""
    for slots in _block_graftings(levels):
        yield substitute(t, dict(zip(t.leaves, slots))), Occurrence((), slots)


def extensions(t: Tree, target_arity: int,
               gens: Sequence[GeneratorSymbol]) -> list[tuple[Tree, Occurrence]]:
    """All monomials of the target arity divisible by ``t`` at the root,
    together with that root occurrence."""
    return [ext for comp in compositions(target_arity, t.arity)
            for ext in root_multiples(t, [all_trees(gens, k) for k in comp])]


# ---------------------------------------------------------------------------
# shapes: trees up to their leaf labels
# ---------------------------------------------------------------------------

def shape_labellings(shape: Tree) -> list[Tree]:
    """Every shuffle tree monomial on the labels 1..arity with the shape
    of ``shape``: the same vertices, generators and child counts, with the
    leaves labelled in each way the shuffle condition allows."""
    if shape.is_leaf:
        return [leaf(1)]
    labels = tuple(range(1, shape.arity + 1))
    return [_vertex(shape.gen, ks, labels) for ks in _block_graftings(
        [shape_labellings(c) for c in shape.children])]


def slot_shapes(host: Tree, path: tuple[int, ...],
                pattern: Tree) -> list[Tree] | None:
    """``pattern`` laid over the vertex of ``host`` at ``path``: for each
    leaf of ``host``, in leaf-label order, the part of ``pattern`` that
    hangs below it, or a single leaf where nothing does.  ``None`` when
    the two clash, a vertex of both having different generators or child
    counts.  Only the shapes count, not their leaf labels."""
    below: dict[int, Tree] = {}

    def lay(a: Tree, b: Tree) -> bool:
        if a.is_leaf:
            below[a.label] = b
            return True
        return b.is_leaf or (
            a.gen == b.gen and len(a.children) == len(b.children)
            and all(map(lay, a.children, b.children)))

    if not lay(subtree_at(host, path), pattern):
        return None
    return [below.get(label, leaf(1)) for label in host.leaves]
