"""Differential Poisson rewriting over a free Gelfand-Dorfman basis.

The carrier is the symmetric algebra on the free Lie algebra over derived
letters b^(n), where b runs over multilinear normal monomials exported by
the Groebner engine.  Weight-(-1) multilinear monomials (a letter b^(n)
weighs n - 1 and a bracket 1) rewrite, by the two ideal-generated rule
families below, down to plain GD expressions; critical pairs of the
rewriting surface exactly the special identities.

Lie factors are stored as right-nested bracket chains {g1,{g2,...{u,v}...}}
with the innermost pair ordered largest letter first (sign absorbed into
the coefficient); right-nested chains span every multilinear Lie element,
so no Lyndon-word machinery is needed at rewrite time.  Two rule shapes
act on a product of chains:

* L-rules (from the universal differential Lie envelope): the innermost
  bracket {a, b^(n)} with a underived rewrites to [a,b]^(n) minus the
  binomial tail of mixed-derivative brackets.
* P-rules (from the Poisson envelope ideal): an underived single factor a
  times a chain ending in a derived letter b^(n) absorbs a via the Leibniz
  expansion of {g1,...,{gk, a b^(n) - ...}}, trading the product for
  chains over GD composites.  The P0 rule, a times a derived single factor
  b^(n), is the P-rule on a one-letter chain, whose interior is empty.

Every rewrite strictly decreases the measure (bracket count, multiset of
derivative orders, free underived letters, L-reducible brackets), which is
asserted on every rewrite step, so normal forms always exist and land in
the span of the basis letters for weight-(-1) inputs.  A monomial is
rewritten by its first application only, so normal forms are linear and
each context memoizes them per monomial: a monomial is rewritten, and its
step asserted, once per context.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .elements import (
    OperadElement,
    add_term,
    echelon,
    fraction_terms,
    integer_form,
    normal_form,
    reduce_row,
)
from .groebner import GroebnerBasis, reduce_element
from .presentation import BR, CIRC, convert_term, element_orbit
from .trees import (
    Tree,
    compositions,
    leaf,
    min_increasing_blocks,
    relabel_ordered,
)


class DiffPoissonError(ValueError):
    pass


class BasisElem:
    """A basis letter: a normal GD monomial over a fixed variable set."""

    __slots__ = ("tree", "vars", "key")

    def __init__(self, tree: Tree, vars: tuple[int, ...], key: tuple):
        self.tree = tree
        self.vars = vars
        self.key = key

    @property
    def degree(self) -> int:
        return len(self.vars)

    def __repr__(self) -> str:
        return f"BasisElem({self.tree}@{self.vars})"


class Letter(NamedTuple):
    base: BasisElem
    order: int


Chain = tuple  # tuple[Letter, ...], right-nested bracket chain
PMonomial = tuple  # tuple[Chain, ...], sorted commutative product

# ("L", ci) | ("P", ai, ci, flip) | ("P0", ai, ci), the P-rule on a one-letter
# chain, applied with flip 0
App = tuple


def monomial_degree(pm: PMonomial) -> int:
    return sum(l.base.degree for c in pm for l in c)


def measure(pm: PMonomial) -> tuple:
    """Termination measure, strictly decreasing along every rewrite."""
    brackets = sum(len(c) - 1 for c in pm)
    derivs = tuple(sorted((l.order for c in pm for l in c), reverse=True))
    free_underived = sum(1 for c in pm if len(c) == 1 and c[0].order == 0)
    l_hot = sum(1 for c in pm if len(c) >= 2 and c[-2].order == 0)
    return (brackets, derivs, free_underived, l_hot)


def app_footprint(app: App) -> frozenset:
    """The factors an application rewrites."""
    return frozenset(app[1:3])


@dataclass(frozen=True)
class Ambiguity:
    """A monomial with two overlapping rule applications."""

    monomial: PMonomial
    app1: App
    app2: App

    @property
    def degree(self) -> int:
        return monomial_degree(self.monomial)


VAR_NAMES = "abcdefghij"


class RewriteContext:
    """Rule engine bound to one completed GD-type Groebner basis.

    The basis supplies both the letter alphabet (its normal monomials) and
    the reduction of GD products back to that alphabet, so rewriting is
    always performed modulo the cubic relations.
    """

    def __init__(self, basis: GroebnerBasis):
        self.basis = basis
        self.order = basis.order
        self._bases: dict[tuple[Tree, tuple[int, ...]], BasisElem] = {}
        self._circ: dict = {}
        self._bracket: dict = {}
        # normal form per monomial; valid for the context's lifetime, since
        # the context is bound to one basis
        self._nf_memo: dict[PMonomial, tuple[int, dict[PMonomial, int]]] = {}

    # -- letters -----------------------------------------------------------

    def base(self, tree: Tree, vars: Sequence[int]) -> BasisElem:
        vars = tuple(vars)
        key = (tree, vars)
        found = self._bases.get(key)
        if found is None:
            if tree.arity != len(vars):
                raise DiffPoissonError("variable set does not match arity")
            if tuple(sorted(vars)) != vars:
                raise DiffPoissonError("variable sets are kept sorted")
            found = BasisElem(tree, vars,
                              (len(vars), vars, self.order.key(tree)))
            self._bases[key] = found
        return found

    def var_base(self, v: int) -> BasisElem:
        return self.base(leaf(1), (v,))

    def var_letter(self, v: int, order: int = 0) -> Letter:
        return Letter(self.var_base(v), order)

    @staticmethod
    def letter_key(l: Letter) -> tuple:
        return (l.base.key, -l.order)

    def chain_key(self, c: Chain) -> tuple:
        return (len(c), tuple(self.letter_key(l) for l in c))

    def pm_key(self, pm: PMonomial) -> tuple:
        return tuple(self.chain_key(c) for c in pm)

    # -- constructors ------------------------------------------------------

    def make_chain(self, letters: Sequence[Letter]) -> tuple[int, Chain | None]:
        """Canonicalize the innermost bracket (largest letter first);
        returns (sign, chain) with chain None when the bracket vanishes."""
        letters = tuple(letters)
        if len(letters) < 2:
            return 1, letters
        u, v = letters[-2], letters[-1]
        ku, kv = self.letter_key(u), self.letter_key(v)
        if ku == kv:
            return 1, None
        if ku < kv:
            return -1, letters[:-2] + (v, u)
        return 1, letters

    def make_monomial(self, chains: Iterable[Chain]) -> PMonomial:
        return tuple(sorted(chains, key=self.chain_key))

    # -- GD arithmetic on basis letters -------------------------------------

    def compose(self, b1: BasisElem, b2: BasisElem, bracket: bool) \
            -> dict[BasisElem, Fraction]:
        """The normal form of b1 o b2, or of {b1, b2} when ``bracket``, as
        a combination of basis letters."""
        cache = self._bracket if bracket else self._circ
        hit = cache.get((b1, b2))
        if hit is not None:
            return hit
        union = tuple(sorted(b1.vars + b2.vars))
        if len(set(union)) != len(union):
            raise DiffPoissonError("letters must have disjoint variables")
        pos = {v: i + 1 for i, v in enumerate(union)}
        t1 = relabel_ordered(b1.tree, [pos[v] for v in b1.vars])
        t2 = relabel_ordered(b2.tree, [pos[v] for v in b2.vars])
        sign, tree = convert_term((BR if bracket else CIRC, t1, t2))
        nf = reduce_element(OperadElement.monomial(tree, sign), self.basis)
        result = {self.base(t, union): c for t, c in nf.terms.items()}
        cache[(b1, b2)] = result
        return result

    # -- rule applications ---------------------------------------------------

    def applications(self, pm: PMonomial) -> list[App]:
        apps: list[App] = []
        singles0 = []
        for ci, c in enumerate(pm):
            if len(c) >= 2 and c[-2].order == 0:
                apps.append(("L", ci))
            if len(c) == 1 and c[0].order == 0:
                singles0.append(ci)
        for ai in singles0:
            for ci, c in enumerate(pm):
                if ci == ai:
                    continue
                if c[-1].order >= 1:
                    apps.append(("P0", ai, ci) if len(c) == 1
                                else ("P", ai, ci, 0))
                if len(c) >= 2 and c[-2].order >= 1:
                    apps.append(("P", ai, ci, 1))
        apps.sort()
        return apps

    def apply(self, pm: PMonomial, app: App) -> dict[PMonomial, Fraction]:
        """One rewrite step at the given application; returns the
        replacement of pm as a combination of monomials."""
        kind = app[0]
        if kind == "L":
            acc = self._apply_lie(pm, app[1])
        else:
            acc = self._apply_poisson(pm, app[1], app[2],
                                      app[3] if kind == "P" else 0)
        before = measure(pm)
        for out_pm in acc:
            assert measure(out_pm) < before, \
                f"termination measure failed at {app} on {pm}"
        return acc

    def _emit(self, acc: dict[PMonomial, Fraction], pm: PMonomial,
              dropped: tuple[int, ...], chains: Iterable[Sequence[Letter]],
              coeff: int | Fraction) -> None:
        """Add ``coeff`` times ``pm`` with its factors at ``dropped``
        replaced by ``chains``, each canonicalized; nothing when one of
        them vanishes."""
        kept = [c for i, c in enumerate(pm) if i not in dropped]
        for letters in chains:
            s, c = self.make_chain(letters)
            if c is None:
                return
            coeff *= s
            kept.append(c)
        add_term(acc, self.make_monomial(kept), Fraction(coeff))

    def _apply_lie(self, pm: PMonomial, ci: int) -> dict[PMonomial, Fraction]:
        chain = pm[ci]
        u, v = chain[-2], chain[-1]
        if u.order != 0:
            raise DiffPoissonError("L-rule needs an underived larger letter")
        prefix = chain[:-2]
        a, b, n = u.base, v.base, v.order
        acc: dict[PMonomial, Fraction] = {}
        for beta, cb in self.compose(a, b, bracket=True).items():
            self._emit(acc, pm, (ci,), [prefix + (Letter(beta, n),)], cb)
        for i in range(1, n + 1):
            self._emit(acc, pm, (ci,),
                       [prefix + (Letter(a, i), Letter(b, n - i))],
                       -comb(n, i))
        return acc

    def _apply_poisson(self, pm: PMonomial, ai: int, ci: int,
                       flip: int) -> dict[PMonomial, Fraction]:
        alpha = pm[ai][0]
        chain = pm[ci]
        if flip:
            interior = chain[:-2] + (chain[-1],)
            blet = chain[-2]
            sgn = -1
        else:
            interior = chain[:-1]
            blet = chain[-1]
            sgn = 1
        n = blet.order
        if n < 1 or alpha.order != 0:
            raise DiffPoissonError("P-rule needs underived factor and derived chain end")
        dropped = (ai, ci)
        acc: dict[PMonomial, Fraction] = {}
        # {g_1,...,{g_k, (alpha o beta)^(n-1)}}
        for delta, cd in self.compose(alpha.base, blet.base,
                                         bracket=False).items():
            self._emit(acc, pm, dropped, [interior + (Letter(delta, n - 1),)],
                       sgn * cd)
        # - sum_i C(n-1,i) {g_1,...,{g_k, alpha^(i) beta^(n-i)}}, expanded
        # by Leibniz over the subsets S of the interior
        splits = _splits(interior)
        for i in range(1, n):
            u, v = Letter(alpha.base, i), Letter(blet.base, n - i)
            coeff = -sgn * comb(n - 1, i)
            for part, rest in splits:
                self._emit(acc, pm, dropped, [part + (u,), rest + (v,)], coeff)
        # - sum over nonempty S of {g_S, alpha} {g_rest, beta^(n)}: the
        # Leibniz expansion without S empty, which is +-pm itself
        for part, rest in splits[1:]:
            self._emit(acc, pm, dropped, [part + (alpha,), rest + (blet,)],
                       -sgn)
        return acc

    # -- normal forms --------------------------------------------------------

    def step(self, pm: PMonomial) -> dict[PMonomial, Fraction] | None:
        """The strategy's one rewrite of ``pm``: its first application,
        or None when ``pm`` is normal."""
        apps = self.applications(pm)
        return self.apply(pm, apps[0]) if apps else None

    def _integer_step(self, pm: PMonomial) -> tuple[int, dict] | None:
        repl = self.step(pm)
        return None if repl is None else integer_form(repl)

    def normal_form(self, poly: dict[PMonomial, Fraction]) -> dict[PMonomial, Fraction]:
        """Deterministic normal form: every monomial is rewritten by
        ``step`` until nothing applies, memoized per monomial as an integer
        pair."""
        return fraction_terms(*normal_form(poly, self._integer_step,
                                           self._nf_memo))

    def trace(self, poly: dict[PMonomial, Fraction]) -> list[str]:
        """The steps the normal form of ``poly`` needs: one line per
        reducible monomial reachable from ``poly`` by ``step``, in
        descending ``pm_key`` order, each right-hand side's terms in the
        same order.  Independent of the memo and of dict order."""
        steps: dict[PMonomial, dict | None] = {}
        todo = list(poly)
        while todo:
            pm = todo.pop()
            if pm not in steps:
                steps[pm] = repl = self.step(pm)
                todo.extend(repl or ())
        lines = []
        for pm in sorted(steps, key=self.pm_key, reverse=True):
            repl = steps[pm]
            if repl is not None:
                after = " + ".join(
                    f"{repl[pm2]}*{format_monomial(pm2)}"
                    for pm2 in sorted(repl, key=self.pm_key, reverse=True))
                lines.append(f"{describe_app(pm, self.applications(pm)[0])}: "
                             f"{format_monomial(pm)} -> {after}")
        return lines

    def to_operad(self, nf: dict[PMonomial, Fraction], nvars: int) -> OperadElement:
        """Interpret a bracket-free, derivative-free normal form as an
        operad element over the full variable set."""
        want = tuple(range(1, nvars + 1))
        terms: dict[Tree, Fraction] = {}
        for pm, c in nf.items():
            if len(pm) != 1 or len(pm[0]) != 1 or pm[0][0].order != 0:
                raise DiffPoissonError(
                    f"normal form is not a GD expression: {format_monomial(pm)}")
            base = pm[0][0].base
            if base.vars != want:
                raise DiffPoissonError("normal form does not cover all variables")
            add_term(terms, base.tree, c)
        return OperadElement(terms, nvars)

    # -- weight-(-1) enumeration and ambiguities ------------------------------

    def weight_minus_one_monomials(self, n: int) -> list[PMonomial]:
        """All multilinear weight-(-1) monomials of degree n over single
        variables, in canonical chain form."""
        out: list[PMonomial] = []
        variables = range(1, n + 1)
        for k in variables:
            # the set partitions into k blocks, ordered by their minima, and
            # the k - 1 derivatives spread over the n variables
            for sizes, shifted in product(compositions(n, k),
                                          compositions(n + k - 1, n)):
                for blocks in min_increasing_blocks(variables, sizes):
                    chain_options = []
                    for block in blocks:
                        opts = []
                        for perm in permutations(block):
                            letters = tuple(
                                self.var_letter(v, shifted[v - 1] - 1)
                                for v in perm)
                            if len(letters) >= 2 and \
                                    self.letter_key(letters[-2]) <= \
                                    self.letter_key(letters[-1]):
                                continue  # keep one orientation per bracket
                            opts.append(letters)
                        chain_options.append(opts)
                    out.extend(self.make_monomial(chains)
                               for chains in product(*chain_options))
        return sorted(out, key=self.pm_key)

    def enumerate_ambiguities(self, n: int) -> list[Ambiguity]:
        """Monomials of degree n carrying two overlapping rule applications.

        Bracket-free monomials are omitted (purely commutative critical
        pairs are confluent) and pairs of L-rules never overlap, so pure
        Lie pairs are excluded automatically.
        """
        if n < 3:
            raise DiffPoissonError("critical pairs start at degree 3")
        if n > self.basis.max_arity:
            raise DiffPoissonError(
                f"degree {n} residues need a basis completed to arity {n}, "
                f"got {self.basis.max_arity}")
        ambs: list[Ambiguity] = []
        for pm in self.weight_minus_one_monomials(n):
            if all(len(c) == 1 for c in pm):
                continue
            apps = self.applications(pm)
            for i in range(len(apps)):
                fi = app_footprint(apps[i])
                for j in range(i + 1, len(apps)):
                    if fi & app_footprint(apps[j]):
                        ambs.append(Ambiguity(pm, apps[i], apps[j]))
        return ambs

    def residue(self, amb: Ambiguity,
                modulo: GroebnerBasis | None = None) -> OperadElement:
        """Difference of the two normal forms of the ambiguity, as a GD
        expression (already reduced modulo the context's relations); when
        ``modulo`` is given the result is further reduced by that basis."""
        n = amb.degree
        route1 = self.normal_form(self.apply(amb.monomial, amb.app1))
        route2 = self.normal_form(self.apply(amb.monomial, amb.app2))
        res = self.to_operad(route1, n) - self.to_operad(route2, n)
        if modulo is not None:
            res = reduce_element(res, modulo)
        return res


def _splits(letters: Chain) -> list[tuple[Chain, Chain]]:
    """Every subset of ``letters`` with its complement, both in chain
    order: by size, then in ``combinations`` order, the empty subset
    first."""
    idx = range(len(letters))
    return [(tuple(letters[j] for j in part),
             tuple(letters[j] for j in idx if j not in part))
            for r in range(len(letters) + 1)
            for part in combinations(idx, r)]


# ---------------------------------------------------------------------------
# display
# ---------------------------------------------------------------------------

def format_letter(l: Letter) -> str:
    base = l.base
    if base.degree == 1:
        body = VAR_NAMES[base.vars[0] - 1]
    else:
        names = {i + 1: VAR_NAMES[v - 1] for i, v in enumerate(base.vars)}
        body = "(" + _tree_with_names(base.tree, names) + ")"
    if l.order <= 3:
        return body + "'" * l.order
    return f"{body}^({l.order})"


def _tree_with_names(t: Tree, names: dict[int, str]) -> str:
    if t.is_leaf:
        return names[t.label]
    return f"{t.gen}({' '.join(_tree_with_names(c, names) for c in t.children)})"


def format_chain(c: Chain) -> str:
    body = format_letter(c[-1])
    for l in reversed(c[:-1]):
        body = f"{{{format_letter(l)},{body}}}"
    return body


def format_monomial(pm: PMonomial) -> str:
    singles = [format_chain(c) for c in pm if len(c) == 1]
    brackets = [format_chain(c) for c in pm if len(c) >= 2]
    return " ".join(singles + brackets) or "1"


def describe_app(pm: PMonomial, app: App) -> str:
    kind = app[0]
    if kind == "L":
        c = pm[app[1]]
        return f"L[{format_letter(c[-2])},{format_letter(c[-1])}]"
    tag = "P~" if kind == "P" and app[3] else kind
    return f"{tag}[{format_letter(pm[app[1]][0])};{format_chain(pm[app[2]])}]"


# ---------------------------------------------------------------------------
# degree-4 family classification
# ---------------------------------------------------------------------------

def classify_degree4(pm: PMonomial) -> str:
    """Assign a degree-4 ambiguous monomial to one of the five families.

    (A1)/(A2) split the single-plus-3-chain shape by whether the derived
    letter's base is above or below the chain's interior letter; the other
    three shapes are two singles (or a single plus a derived single) times
    a 2-bracket distinguished by derivative placement.
    """
    lens = sorted(len(c) for c in pm)
    if lens == [1, 3]:
        chain = next(c for c in pm if len(c) == 3)
        q, _r, s = chain
        return "A1" if s.base.key > q.base.key else "A2"
    if lens == [1, 1, 2]:
        chain = next(c for c in pm if len(c) == 2)
        orders = sorted(l.order for l in chain)
        if orders == [0, 2]:
            return "A5"
        if orders == [1, 1]:
            return "A4"
        if orders == [0, 1]:
            return "A3"
    raise DiffPoissonError(f"unrecognized degree-4 shape: {format_monomial(pm)}")


# ---------------------------------------------------------------------------
# residue analysis
# ---------------------------------------------------------------------------

def orbit_pivots(elems: Iterable[OperadElement], basis: GroebnerBasis,
                 pivots: dict | None = None) -> dict:
    """Reduced echelon form (lead -> monic tail) of the span of all orbit
    images of the given elements, reduced modulo the basis, extending the
    reduced form ``pivots`` when given."""
    return echelon((reduce_element(img, basis).terms
                    for e in elems for img in element_orbit(e)),
                   basis.order.key, pivots)


def independent_identities(residues: Sequence[OperadElement],
                           basis: GroebnerBasis) -> list[OperadElement]:
    """Greedy filtration: keep the residues that are new as identities,
    i.e. not consequences of the basis plus the previously kept residues
    (with their full permutation orbits).

    At the residues' arity n the ideal generated by the basis and arity-n
    identities is the basis' own ideal plus the span of the identities'
    S_n-orbits, so being new is a rank increase of ``orbit_pivots``.
    """
    found: list[OperadElement] = []
    key = basis.order.key
    pivots: dict = {}
    for res in residues:
        row = dict(reduce_element(res, basis).terms)
        if reduce_row(row, pivots, key) is None:
            continue
        found.append(res)
        pivots = orbit_pivots([res], basis, pivots)
    return found
