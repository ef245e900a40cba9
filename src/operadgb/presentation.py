"""Operad presentations: the input DSL and symmetric-to-shuffle conversion.

A symmetric multilinear identity (an element of a free symmetric operad,
written over binary operations with variable leaves) is converted to shuffle
relations by taking its full orbit under leaf permutations and rewriting
each instance over the shuffle generator alphabet: an operation symbol maps
to one generator when its arguments arrive in increasing-minimum order and
to its transposed partner (with a sign) otherwise.  For the Gelfand-Dorfman
signature the dictionary is nu -> x, nu^(12) -> y and mu -> z with
mu^(12) = -z, so the antisymmetric bracket needs no fourth generator.

``element_orbit`` walks the S_n orbit of an element; the conversion and the
orbit spans of ``diffpoisson`` both go through it.

Every built-in presentation is generated this way from its defining
identities: ``lie`` from Jacobi, ``novikov`` from left symmetry and right
commutativity, ``gd`` from those three and the compatibility identity, and
``wsgd`` from ``gd`` and the two degree-4 special identities.  The published
relation lists are test fixtures, against which the test suite checks the
conversion.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import permutations
from typing import Iterable

from .elements import OperadElement, add_term
from .syntax import ParseError, parse_element, parse_generators
from .trees import GeneratorSymbol, Record, Tree, TreeError, TreeOrder, leaf, node, order_for

# A symbolic multilinear term: either a variable index (int) or a tuple
# (op_name, left_term, right_term) over binary operation symbols;
# ``convert_term`` also takes a shuffle tree as an operand.
Term = object

CIRC = "circ"
BR = "br"


def C(a, b) -> tuple:
    """Novikov product node for symbolic identities."""
    return (CIRC, a, b)


def B(a, b) -> tuple:
    """Lie bracket node for symbolic identities."""
    return (BR, a, b)


def term_variables(term: Term) -> set[int]:
    if isinstance(term, int):
        return {term}
    _, a, b = term
    va, vb = term_variables(a), term_variables(b)
    if va & vb:
        raise TreeError(f"term is not multilinear: {term}")
    return va | vb


class SymmetricRelation(Record):
    """A multilinear identity in a symmetric operad, as a formal combination
    of operation terms over variables 1..nvars."""

    __slots__ = ("name", "nvars", "terms")

    name: str
    nvars: int
    terms: tuple[tuple[Fraction, Term], ...]

    def __init__(self, name: str, nvars: int,
                 terms: tuple[tuple[Fraction, Term], ...]) -> None:
        want = set(range(1, nvars + 1))
        for _c, t in terms:
            if term_variables(t) != want:
                raise TreeError(
                    f"{name}: every term must use variables 1..{nvars}")
        super().__init__(name, nvars, terms)

    @classmethod
    def of(cls, name: str, nvars: int,
           pairs: Iterable[tuple[int | Fraction, Term]]) -> "SymmetricRelation":
        return cls(name, nvars, tuple((Fraction(c), t) for c, t in pairs))


# op name -> (generator for the identity order, generator for the swapped
# order, sign picked up by the swap)
GD_ACTION = {CIRC: ("x", "y", 1), BR: ("z", "z", -1)}


def _permute_term(term: Term, perm: dict[int, int]) -> Term:
    if isinstance(term, int):
        return perm[term]
    op, a, b = term
    return (op, _permute_term(a, perm), _permute_term(b, perm))


def convert_term(term: Term) -> tuple[int, Tree]:
    """Rewrite one symmetric term over the shuffle alphabet.

    Returns (sign, shuffle tree with the term's variable indices as leaf
    labels).  A shuffle tree operand stands for itself.
    """
    if isinstance(term, int):
        return 1, leaf(term)
    if isinstance(term, Tree):
        return 1, term
    op, a, b = term
    if op not in GD_ACTION:
        raise TreeError(f"operation {op!r} missing from the action dictionary")
    straight, swapped, swap_sign = GD_ACTION[op]
    sa, ta = convert_term(a)
    sb, tb = convert_term(b)
    sign = sa * sb
    if ta.min_leaf < tb.min_leaf:
        return sign, node(straight, (ta, tb))
    return sign * swap_sign, node(swapped, (tb, ta))


def _convert_terms(terms: Iterable[tuple[Fraction, Term]],
                   perm: dict[int, int], arity: int) -> OperadElement:
    """A combination of symmetric terms, relabeled by ``perm`` and rewritten
    over the shuffle alphabet."""
    acc: dict[Tree, Fraction] = {}
    for coeff, term in terms:
        sign, tree = convert_term(_permute_term(term, perm))
        add_term(acc, tree, coeff * sign)
    return OperadElement(acc, arity)


def convert_instance(rel: SymmetricRelation,
                     perm: dict[int, int]) -> OperadElement:
    return _convert_terms(rel.terms, perm, rel.nvars)


def shuffle_to_symmetric_term(t: Tree) -> Term:
    """Symmetric preimage of a shuffle tree monomial: each generator is
    replaced by its operation symbol with arguments in symmetric order."""
    if t.is_leaf:
        return t.label
    for op, (straight, swapped, _sign) in GD_ACTION.items():
        if t.gen == straight:
            a, b = t.children
            return (op, shuffle_to_symmetric_term(a),
                    shuffle_to_symmetric_term(b))
        if t.gen == swapped:
            a, b = t.children
            return (op, shuffle_to_symmetric_term(b),
                    shuffle_to_symmetric_term(a))
    raise TreeError(f"generator {t.gen!r} not covered by the action")


def permute_element(e: OperadElement, perm: dict[int, int]) -> OperadElement:
    """The symmetric-group action on a shuffle element.

    Shuffle trees forget the symmetric structure, so relabeling leaves must
    go through the symmetric preimage: x(1 2) under the transposition
    becomes y(1 2), and the antisymmetric bracket picks up signs.
    """
    terms = [(c, shuffle_to_symmetric_term(t)) for t, c in e.terms.items()]
    return _convert_terms(terms, perm, e.arity)


def element_orbit(e: OperadElement) -> list[OperadElement]:
    """All symmetric-group images of a multilinear element, in the order of
    ``permutations``; the symmetric preimage is taken once for all."""
    n = e.arity
    terms = [(c, shuffle_to_symmetric_term(t)) for t, c in e.terms.items()]
    return [_convert_terms(terms, {i + 1: sigma[i] for i in range(n)}, n)
            for sigma in permutations(range(1, n + 1))]


def symmetric_to_shuffle(rel: SymmetricRelation) -> list[OperadElement]:
    """The full orbit of the identity under leaf permutations, each instance
    rewritten over the shuffle alphabet, deduplicated up to a scalar (monic
    normalization in the pathlex order on x, y, z)."""
    order = order_for("pathlex", ("x", "y", "z"))
    identity = {i: i for i in range(1, rel.nvars + 1)}
    out: list[OperadElement] = []
    seen: set = set()
    for elem in element_orbit(convert_instance(rel, identity)):
        if elem.is_zero():
            continue
        canon = elem.monic(order)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(canon)
    return out


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

class Presentation(Record):
    """Generators and shuffle relations defining an operad quotient."""

    __slots__ = ("name", "generators", "relations")

    name: str
    generators: tuple[GeneratorSymbol, ...]
    relations: tuple[OperadElement, ...]

    def __init__(self, name: str, generators: tuple[GeneratorSymbol, ...],
                 relations: tuple[OperadElement, ...]) -> None:
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise TreeError(f"{name}: duplicate generator names")
        for rel in relations:
            if rel.is_zero():
                raise TreeError(f"{name}: zero relation")
            if rel.arity < 2:
                raise TreeError(f"{name}: relations must have arity >= 2")
        super().__init__(name, generators, relations)

    @property
    def gen_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def order(self, order_id: str = "pathlex") -> TreeOrder:
        return order_for(order_id, self.gen_names)

    def relations_by_arity(self) -> dict[int, list[OperadElement]]:
        grouped: dict[int, list[OperadElement]] = {}
        for rel in self.relations:
            grouped.setdefault(rel.arity, []).append(rel)
        return grouped

    @property
    def max_relation_arity(self) -> int:
        return max((r.arity for r in self.relations), default=0)


# -- defining identities -----------------------------------------------------

# Antisymmetry: [a,b] + [b,a] = 0.  The shuffle alphabet builds it in (one
# bracket generator), but a structure-constant table has to be checked for it.
ANTISYMMETRY = SymmetricRelation.of("bracket-antisymmetry", 2, [
    (1, B(1, 2)), (1, B(2, 1)),
])

# Left symmetry: (a o b) o c - a o (b o c) = (b o a) o c - b o (a o c)
LEFT_SYMMETRY = SymmetricRelation.of("left-symmetry", 3, [
    (1, C(C(1, 2), 3)), (-1, C(1, C(2, 3))),
    (-1, C(C(2, 1), 3)), (1, C(2, C(1, 3))),
])

# Right commutativity: (a o b) o c = (a o c) o b
RIGHT_COMMUTATIVITY = SymmetricRelation.of("right-commutativity", 3, [
    (1, C(C(1, 2), 3)), (-1, C(C(1, 3), 2)),
])

# Jacobi, written in Leibniz form (equivalent under antisymmetry):
# [[a,b],c] = [a,[b,c]] + [[a,c],b]
JACOBI = SymmetricRelation.of("jacobi", 3, [
    (1, B(B(1, 2), 3)), (-1, B(1, B(2, 3))), (-1, B(B(1, 3), 2)),
])

# The compatibility identity between the Novikov product and the bracket:
# b o [a,c] = [a, b o c] - [c, b o a] + [b,a] o c - [b,c] o a
GD_COMPAT = SymmetricRelation.of("gd-compat", 3, [
    (1, C(2, B(1, 3))), (-1, B(1, C(2, 3))), (1, B(3, C(2, 1))),
    (-1, C(B(2, 1), 3)), (1, C(B(2, 3), 1)),
])

# First special identity (degree 4):
# [c, a o d] o b + ([a,c] o d) o b = [c, (a o b) o d] - [c, a o b] o d
SPECIAL_1 = SymmetricRelation.of("special-1", 4, [
    (1, C(B(3, C(1, 4)), 2)), (1, C(C(B(1, 3), 4), 2)),
    (-1, B(3, C(C(1, 2), 4))), (1, C(B(3, C(1, 2)), 4)),
])

# Second special identity (degree 4):
# 2([a,b] o c) o d = [b o c, a o d] - [a o c, b o d]
#   + ([a, b o c] - [b, a o c]) o d + ([a, b o d] - [b, a o d]) o c
SPECIAL_2 = SymmetricRelation.of("special-2", 4, [
    (2, C(C(B(1, 2), 3), 4)),
    (-1, B(C(2, 3), C(1, 4))), (1, B(C(1, 3), C(2, 4))),
    (-1, C(B(1, C(2, 3)), 4)), (1, C(B(2, C(1, 3)), 4)),
    (-1, C(B(1, C(2, 4)), 3)), (1, C(B(2, C(1, 4)), 3)),
])

# Degree-5 special identities, re-derived by the critical-pair machinery and
# expected to be consequences of SPECIAL_1 and SPECIAL_2.
SPECIAL_4 = SymmetricRelation.of("special-4", 5, [
    (1, B(C(4, 1), B(2, C(5, 3)))),
    (-1, B(C(5, 1), B(2, C(4, 3)))),
    (-1, B(4, C(B(2, C(5, 3)), 1))),
    (1, C(B(4, C(B(2, 5), 1)), 3)),
    (-1, C(C(B(4, B(2, 5)), 3), 1)),
    (1, C(B(4, B(2, C(5, 3))), 1)),
    (1, B(C(5, 1), C(B(2, 4), 3))),
    (1, C(B(5, B(2, C(4, 3))), 1)),
    (-1, C(B(5, C(B(2, 4), 3)), 1)),
    (-1, B(C(4, 1), C(B(2, 5), 3))),
    (-1, C(B(4, B(2, C(5, 3))), 1)),
    (1, C(B(4, C(B(2, 5), 3)), 1)),
    (1, B(5, C(B(2, C(4, 3)), 1))),
    (-1, C(B(5, C(B(2, 4), 1)), 3)),
    (1, C(C(B(5, B(2, 4)), 3), 1)),
    (-1, C(B(5, B(2, C(4, 3))), 1)),
])

SPECIAL_3 = SymmetricRelation.of("special-3", 5, [
    (1, B(3, C(B(1, C(5, 2)), 4))),
    (-1, B(1, C(B(3, C(5, 4)), 2))),
    (1, C(B(1, B(3, C(5, 4))), 2)),
    (1, C(B(1, C(B(3, 5), 2)), 4)),
    (-1, C(C(B(1, B(3, 5)), 4), 2)),
    (-1, C(B(3, C(B(1, 5), 4)), 2)),
    (-1, C(B(3, B(1, C(5, 2))), 4)),
    (1, C(C(B(3, B(1, 5)), 4), 2)),
])

SPECIAL_5 = SymmetricRelation.of("special-5", 5, [
    (1, C(B(1, C(4, 2)), C(3, 5))),
    (-1, C(B(1, C(3, 2)), C(4, 5))),
    (-1, C(C(B(1, C(4, 2)), 3), 5)),
    (-1, C(C(B(1, 4), C(3, 5)), 2)),
    (1, C(C(C(B(1, 4), 3), 5), 2)),
    (1, C(C(B(1, C(3, 2)), 4), 5)),
    (1, C(C(B(1, 3), C(4, 5)), 2)),
    (-1, C(C(C(B(1, 3), 4), 5), 2)),
])

NAMED_IDENTITIES: dict[str, SymmetricRelation] = {
    "left-symmetry": LEFT_SYMMETRY,
    "right-commutativity": RIGHT_COMMUTATIVITY,
    "jacobi": JACOBI,
    "gd1": GD_COMPAT,
    "spec1": SPECIAL_1,
    "spec2": SPECIAL_2,
    "spec3": SPECIAL_3,
    "spec4": SPECIAL_4,
    "spec5": SPECIAL_5,
}


def shuffle_images(identity_name: str) -> list[OperadElement]:
    """Shuffle orbit of a named identity over the x,y,z alphabet."""
    return symmetric_to_shuffle(NAMED_IDENTITIES[identity_name])


_X = GeneratorSymbol("x", 2)
_Y = GeneratorSymbol("y", 2)
_Z = GeneratorSymbol("z", 2)


@cache
def _build_builtins() -> dict[str, Presentation]:
    novikov_rels = (symmetric_to_shuffle(LEFT_SYMMETRY)
                    + symmetric_to_shuffle(RIGHT_COMMUTATIVITY))
    jacobi_rels = symmetric_to_shuffle(JACOBI)
    mixed_rels = symmetric_to_shuffle(GD_COMPAT)
    gd_rels = novikov_rels + jacobi_rels + mixed_rels
    wsgd_rels = (gd_rels + symmetric_to_shuffle(SPECIAL_1)
                 + symmetric_to_shuffle(SPECIAL_2))
    xyz = (_X, _Y, _Z)
    return {
        "lie": Presentation("lie", (_Z,), tuple(jacobi_rels)),
        "novikov": Presentation("novikov", (_X, _Y), tuple(novikov_rels)),
        "gd": Presentation("gd", xyz, tuple(gd_rels)),
        "wsgd": Presentation("wsgd", xyz, tuple(wsgd_rels)),
    }


def builtin_presentations() -> dict[str, Presentation]:
    """The presets by name, built once, in a fresh dict for each caller."""
    return dict(_build_builtins())


# ---------------------------------------------------------------------------
# DSL
# ---------------------------------------------------------------------------

def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format.

    Layout::

        operad myname
        extends gd            # optional; pulls in a builtin's generators
        generators x/2 y/2    # omitted when extending
        relations:
        z(z(1 2) 3) - z(1 z(2 3)) - z(z(1 3) 2)
        # comments and blank lines are fine

    ``operad`` and ``extends`` may each appear once; every ``generators``
    line adds to the generators.
    """
    name = None
    gens: list[GeneratorSymbol] = []
    # each declared generator's name -> (line, column), to check a later
    # extends against it
    where: dict[str, tuple[int, int]] = {}
    base: Presentation | None = None
    relations: list[OperadElement] = []
    all_gens: tuple[GeneratorSymbol, ...] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if all_gens is None:
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            if head == "operad":
                if name is not None:
                    raise ParseError("repeated 'operad' directive", lineno, 1)
                if not rest:
                    raise ParseError("missing operad name", lineno, 1)
                name = rest
            elif head == "extends":
                if base is not None:
                    raise ParseError("repeated 'extends' directive", lineno, 1)
                builtins = builtin_presentations()
                if rest not in builtins:
                    raise ParseError(f"unknown preset {rest!r}", lineno, 1)
                base = builtins[rest]
                for g, at in where.items():
                    if g in base.gen_names:
                        raise ParseError(f"generator {g!r} already defined", *at)
            elif head == "generators":
                col = raw.index(rest, raw.index(head) + len(head)) + 1
                taken = (base.gen_names if base else ()) + tuple(where)
                added = parse_generators(rest, lineno, col, taken)
                for g, chunk in zip(added, re.finditer(r"\S+", rest)):
                    where[g.name] = (lineno, col + chunk.start())
                gens.extend(added)
            elif line == "relations:":
                all_gens = (base.generators if base else ()) + tuple(gens)
            else:
                raise ParseError(f"unexpected directive {head!r}", lineno, 1)
        else:
            relations.append(parse_element(line, all_gens, line=lineno))
    if name is None:
        raise ParseError("missing 'operad <name>' header", 1, 1)
    if all_gens is None:
        all_gens = (base.generators if base else ()) + tuple(gens)
    if not all_gens:
        raise ParseError("no generators declared", 1, 1)
    base_rels = base.relations if base is not None else ()
    return Presentation(name, all_gens, tuple(base_rels) + tuple(relations))
