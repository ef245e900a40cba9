"""Finite-dimensional Gelfand-Dorfman algebras given by structure constants.

Covers axiom verification (the defining identities of
:mod:`operadgb.presentation` evaluated on every tuple of basis vectors), the
classification of 2-dimensional algebras into the three parameter cases
(after normalizing the bracket to [u,v] = v), and verification of the
explicit differential Poisson envelopes for each case, with exact rational
arithmetic throughout.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .commutative import (
    Poly,
    ZERO,
    is_groebner,
    mono,
    mono_key,
    reduce_poly,
)
from .elements import echelon
from .presentation import (
    ANTISYMMETRY,
    CIRC,
    GD_COMPAT,
    JACOBI,
    LEFT_SYMMETRY,
    RIGHT_COMMUTATIVITY,
    SymmetricRelation,
    Term,
)
from .trees import Record


class GDModelError(ValueError):
    pass


def _positive_int(text: str, lineno: int, top: int | None = None) -> int:
    """A table field that must be an integer from 1 up to ``top``."""
    if text.isdecimal() and 1 <= int(text) <= (top or int(text)):
        return int(text)
    bound = f"in 1..{top}" if top else "of at least 1"
    raise GDModelError(
        f"line {lineno}: expected an integer {bound}, got {text!r}")


Vec = tuple  # coefficient vector over the algebra basis


def _vec(dim: int, entries=None) -> Vec:
    v = [Fraction(0)] * dim
    for i, c in (entries or {}).items():
        v[i] = Fraction(c)
    return tuple(v)


def _add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def _scale(a: Vec, c) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


def _is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


class GDTable:
    """Structure constants of a candidate GD-algebra.

    ``circ[i][j]`` and ``bracket[i][j]`` are coefficient vectors of
    e_i o e_j and [e_i, e_j] over the basis e_1..e_dim (0-indexed here).
    """

    def __init__(self, dim: int, circ=None, bracket=None):
        self.dim = dim
        self.circ = [[_vec(dim) for _ in range(dim)] for _ in range(dim)]
        self.bracket = [[_vec(dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), v in (circ or {}).items():
            self.circ[i][j] = tuple(Fraction(c) for c in v)
        for (i, j), v in (bracket or {}).items():
            self.bracket[i][j] = tuple(Fraction(c) for c in v)

    # bilinear extensions
    def _mul(self, table, a: Vec, b: Vec) -> Vec:
        out = _vec(self.dim)
        for (i, ca), (j, cb) in product(enumerate(a), enumerate(b)):
            if ca and cb:
                out = _add(out, _scale(table[i][j], ca * cb))
        return out

    def mul_circ(self, a: Vec, b: Vec) -> Vec:
        return self._mul(self.circ, a, b)

    def mul_bracket(self, a: Vec, b: Vec) -> Vec:
        return self._mul(self.bracket, a, b)

    def evaluate(self, term: Term, args: Sequence[Vec]) -> Vec:
        """A symbolic identity term with variable i bound to ``args[i-1]``."""
        if isinstance(term, int):
            return args[term - 1]
        op, a, b = term
        return self._mul(self.circ if op == CIRC else self.bracket,
                         self.evaluate(a, args), self.evaluate(b, args))

    def basis(self, i: int) -> Vec:
        return _vec(self.dim, {i: 1})

    def format(self) -> str:
        lines = [f"dim {self.dim}"]
        for name, table in (("circ", self.circ), ("bracket", self.bracket)):
            for i in range(self.dim):
                for j in range(self.dim):
                    if not _is_zero(table[i][j]):
                        coeffs = " ".join(str(c) for c in table[i][j])
                        lines.append(f"{name} {i + 1} {j + 1} = {coeffs}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "GDTable":
        dim = None
        circ: dict = {}
        bracket: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "dim":
                if dim is not None or len(parts) != 2:
                    raise GDModelError(
                        f"line {lineno}: expected one 'dim n' line")
                dim = _positive_int(parts[1], lineno)
            elif parts[0] in ("circ", "bracket"):
                if dim is None:
                    raise GDModelError(f"line {lineno}: 'dim' must come first")
                if len(parts) < 4 or parts[3] != "=":
                    raise GDModelError(f"line {lineno}: expected "
                                       f"'{parts[0]} i j = coeffs'")
                i, j = (_positive_int(p, lineno, dim) - 1 for p in parts[1:3])
                try:
                    coeffs = [Fraction(c) for c in parts[4:]]
                except (ValueError, ZeroDivisionError):
                    raise GDModelError(
                        f"line {lineno}: coefficients must be rationals like "
                        f"-3/2, got {' '.join(parts[4:])!r}") from None
                if len(coeffs) != dim:
                    raise GDModelError(
                        f"line {lineno}: expected {dim} coefficients")
                table = circ if parts[0] == "circ" else bracket
                if (i, j) in table:
                    raise GDModelError(f"line {lineno}: expected one "
                                       f"'{parts[0]} {i + 1} {j + 1}' line")
                table[(i, j)] = coeffs
            else:
                raise GDModelError(f"line {lineno}: unknown directive {parts[0]!r}")
        if dim is None:
            raise GDModelError("missing 'dim' header")
        for (i, j), v in list(bracket.items()):
            neg = [-Fraction(c) for c in v]
            if (j, i) in bracket:
                if [Fraction(c) for c in bracket[(j, i)]] != neg:
                    raise GDModelError(
                        f"bracket is not antisymmetric at ({i + 1},{j + 1})")
            else:
                bracket[(j, i)] = neg
        return cls(dim, circ, bracket)


class CheckReport(Record):
    """Named verdicts, each failure with a witness; ``witness_label``
    prefixes the witness in the text form.  ``record`` appends to the
    list of checks, so reports are unhashable."""

    __slots__ = ("checks", "witness_label")

    checks: list[tuple[str, bool, str]]
    witness_label: str

    def __init__(self, checks: list[tuple[str, bool, str]] | None = None,
                 witness_label: str = "") -> None:
        super().__init__([] if checks is None else checks, witness_label)

    __hash__ = None

    def record(self, name: str, ok: bool, witness: str = "") -> bool:
        self.checks.append((name, ok, witness))
        return ok

    @property
    def passed(self) -> bool:
        return all(ok for _n, ok, _w in self.checks)

    def failures(self) -> list[str]:
        return [f"{name} fails at {w}" for name, ok, w in self.checks if not ok]

    def as_text(self) -> str:
        return "\n".join(f"{'PASS' if ok else 'FAIL'}  {name}"
                         + ("" if ok else f"  ({self.witness_label}{w})")
                         for name, ok, w in self.checks)


# the defining identities, in the order and under the names check-gd prints
GD_AXIOMS: tuple[tuple[str, SymmetricRelation], ...] = (
    ("bracket-antisymmetry", ANTISYMMETRY),
    ("left-symmetry", LEFT_SYMMETRY),
    ("right-commutativity", RIGHT_COMMUTATIVITY),
    ("jacobi", JACOBI),
    ("compatibility", GD_COMPAT),
)


def check_gd_axioms(t: GDTable) -> CheckReport:
    """Evaluate each defining identity on every tuple of basis vectors;
    a failure is witnessed by the first tuple where it is nonzero."""
    report = CheckReport(witness_label="witness ")
    basis = [t.basis(i) for i in range(t.dim)]
    for name, rel in GD_AXIOMS:
        witness = ""
        for idx in product(range(t.dim), repeat=rel.nvars):
            args = [basis[i] for i in idx]
            value = _vec(t.dim)
            for c, term in rel.terms:
                value = _add(value, _scale(t.evaluate(term, args), c))
            if not _is_zero(value):
                witness = "(" + ",".join(f"e{i + 1}" for i in idx) + ")"
                break
        report.record(name, not witness, witness)
    return report


class Classification(NamedTuple):
    """Outcome of the 2-dimensional case split."""

    case: str  # case1 | case2 | case3 | novikov | lie-only
    alpha: Fraction | None = None
    gamma: Fraction | None = None
    delta: Fraction | None = None
    u: Vec | None = None
    v: Vec | None = None

    def __str__(self) -> str:
        params = ", ".join(f"{k}={getattr(self, k)}"
                           for k in ("alpha", "gamma", "delta")
                           if getattr(self, k) is not None)
        return f"{self.case}({params})" if params else self.case


def classify_2dim(t: GDTable) -> Classification:
    """Classify a 2-dimensional GD-algebra after normalizing a nonzero
    bracket to [u,v] = v; the Novikov product is then forced into the shape
    u o u = alpha u + delta v, u o v = gamma v, v o u = alpha v, v o v = 0.
    """
    if t.dim != 2:
        raise GDModelError("classification applies to dimension 2")
    report = check_gd_axioms(t)
    if not report.passed:
        raise GDModelError("axioms fail: " + "; ".join(report.failures()))
    w = t.bracket[0][1]
    if _is_zero(w):
        return Classification("novikov")
    # [x, w] = lambda(x) w since the derived subalgebra is spanned by w
    lam = []
    for i in range(2):
        img = t.mul_bracket(t.basis(i), w)
        lam.append(_solve_multiple(img, w))
    if lam[0] == lam[1] == 0:
        raise GDModelError("nonabelian 2-dim Lie algebra must have ad != 0")
    if lam[0] != 0:
        u = _scale(t.basis(0), Fraction(1) / lam[0])
    else:
        u = _scale(t.basis(1), Fraction(1) / lam[1])
    v = w
    # coefficients in the (u, v) basis
    alpha = _solve_multiple(t.mul_circ(v, u), v)
    gamma = _solve_multiple(t.mul_circ(u, v), v)
    uu = t.mul_circ(u, u)
    a2, d2 = _coords_in(uu, u, v)
    if a2 != alpha:
        raise GDModelError("table is inconsistent with the forced shape")
    if not _is_zero(t.mul_circ(v, v)):
        raise GDModelError("v o v must vanish for a 2-dim GD-algebra")
    delta = d2
    if alpha != gamma:
        return Classification("case1", alpha, gamma, delta, u, v)
    if alpha != 0:
        return Classification("case2", alpha, gamma, delta, u, v)
    if delta != 0:
        return Classification("case3", alpha, gamma, delta, u, v)
    return Classification("lie-only", alpha, gamma, delta, u, v)


def _solve_multiple(img: Vec, w: Vec) -> Fraction:
    """Solve img = c*w; error when img is not a multiple of w."""
    c = None
    for a, b in zip(img, w):
        if b == 0:
            if a != 0:
                raise GDModelError("vector is not a multiple")
            continue
        r = a / b
        if c is None:
            c = r
        elif c != r:
            raise GDModelError("vector is not a multiple")
    return Fraction(0) if c is None else c


def _coords_in(x: Vec, u: Vec, v: Vec) -> tuple[Fraction, Fraction]:
    """Coordinates of x in the basis (u, v) of a 2-dim space."""
    det = u[0] * v[1] - u[1] * v[0]
    if det == 0:
        raise GDModelError("u, v do not form a basis")
    a = (x[0] * v[1] - x[1] * v[0]) / det
    b = (u[0] * x[1] - u[1] * x[0]) / det
    return a, b


# ---------------------------------------------------------------------------
# differential Poisson envelopes
# ---------------------------------------------------------------------------

class EnvelopeSpec(Record):
    """A differential Poisson algebra presented by commutative relations, a
    bracket and a derivation on generators, plus an embedding map.  A
    bracket or derivative the spec does not give raises GDModelError rather
    than reading as zero; only {g, g} = 0 is implied.  The bracket is
    antisymmetric by construction: a spec that gives {a, b} and {b, a} as
    anything but negatives, or a nonzero {g, g}, is rejected.  A spec is
    immutable and its bracket read-only, so a changed spec is constructed
    anew from the fields, and checked again.  Like their brackets, specs
    are unhashable."""

    __slots__ = ("generators", "relations", "bracket", "derivation",
                 "embedding", "name")

    generators: tuple
    relations: tuple[Poly, ...]
    bracket: Mapping[tuple, Poly]
    derivation: dict[object, Poly]
    embedding: tuple[Poly, ...]  # images of the GD-algebra basis
    name: str

    def __init__(self, generators: tuple, relations: tuple[Poly, ...],
                 bracket: Mapping[tuple, Poly],
                 derivation: dict[object, Poly],
                 embedding: tuple[Poly, ...] = (),
                 name: str = "envelope") -> None:
        for (g1, g2), value in bracket.items():
            # (g, g) is its own reverse, so this also asks {g, g} = 0
            if value + bracket.get((g2, g1), -value):
                raise GDModelError(
                    f"{name}: bracket is not antisymmetric at "
                    f"{{{g1}, {g2}}}")
        super().__init__(generators, relations,
                         MappingProxyType(dict(bracket)), derivation,
                         embedding, name)

    __hash__ = None

    def __reduce__(self):
        # a mappingproxy does not pickle: hand the bracket back as a dict
        return EnvelopeSpec, (self.generators, self.relations,
                              dict(self.bracket), self.derivation,
                              self.embedding, self.name)

    def pair_bracket(self, g1, g2) -> Poly:
        if (g1, g2) in self.bracket:
            return self.bracket[(g1, g2)]
        if (g2, g1) in self.bracket:
            return -self.bracket[(g2, g1)]
        if g1 == g2:
            return ZERO
        raise GDModelError(f"{self.name}: no bracket {{{g1}, {g2}}}")

    def _partials(self, f: Poly) -> list[tuple[object, Poly]]:
        """``(g, df/dg)`` for the generators g that occur in ``f``, in
        generator order: the nonzero partial derivatives."""
        occurring = {v for m in f.terms for v, _e in m}
        return [(g, f.diff(g)) for g in self.generators if g in occurring]

    def lie_bracket(self, f: Poly, g: Poly) -> Poly:
        """Extend the generator bracket to polynomials as a biderivation."""
        dgs = self._partials(g)
        acc = ZERO
        for g1, df in self._partials(f):
            for g2, dg in dgs:
                acc = acc + df * dg * self.pair_bracket(g1, g2)
        return acc

    def d(self, f: Poly) -> Poly:
        acc = ZERO
        for g, df in self._partials(f):
            if g not in self.derivation:
                raise GDModelError(f"{self.name}: no derivative of {g}")
            acc = acc + df * self.derivation[g]
        return acc

    def circ(self, f: Poly, g: Poly) -> Poly:
        return f * self.d(g)


def _jacobi_failure(env: EnvelopeSpec, gens: Sequence,
                    nf: Callable[[Poly], Poly]) -> str:
    """The first generator triple where the Jacobi identity fails modulo
    ``nf``, or "".  The Jacobiator of an antisymmetric biderivation is an
    alternating triderivation: it vanishes on every generator triple when
    it vanishes on the sorted distinct ones, and in every degree when it
    vanishes on generators.  So the first failing triple is the one the
    scan over all ordered triples would find first."""
    br = env.lie_bracket
    for g1, g2, g3 in combinations(gens, 3):
        p1, p2, p3 = (Poly.var(g) for g in (g1, g2, g3))
        if nf(br(p1, br(p2, p3)) + br(p2, br(p3, p1)) + br(p3, br(p1, p2))):
            return f"({g1},{g2},{g3})"
    return ""


def _derivation_failure(env: EnvelopeSpec, polys: Sequence[Poly],
                        nf: Callable[[Poly], Poly]) -> str:
    """The first pair with d{f,g} != {df,g} + {f,dg} modulo ``nf``, or "".
    D(f,g) = d{f,g} - {df,g} - {f,dg} is an alternating biderivation, so
    sorted distinct pairs of generators decide it in every degree, with
    the witness the scan over all ordered pairs would find first."""
    br, d = env.lie_bracket, env.d
    for f, g in combinations(polys, 2):
        if nf(d(br(f, g)) - (br(d(f), g) + br(f, d(g)))):
            return f"d{{{f},{g}}}"
    return ""


def verify_embedding(t: GDTable, env: EnvelopeSpec,
                     report: CheckReport | None = None) -> bool:
    """Check that the envelope is a differential Poisson algebra and that
    the embedding preserves the table exactly.

    The ideal is closed under the bracket and the derivation, so the Jacobi
    identity and derivation compatibility, both multiderivations, hold
    modulo the ideal in every degree once they hold on generators.
    """
    rep = report if report is not None else CheckReport()
    gens = env.generators
    rels = list(env.relations)
    if not rep.record("relations form a commutative Groebner basis",
                      is_groebner(rels)):
        return False

    def nf(p: Poly) -> Poly:
        return reduce_poly(p, rels)

    # ideal stable under the bracket and the derivation
    bad = next((f"{{{g1}, {r}}}" for r in rels for g1 in gens
                if nf(env.lie_bracket(Poly.var(g1), r))), "")
    rep.record("ideal closed under the bracket", not bad, bad)
    bad = next((str(r) for r in rels if nf(env.d(r))), "")
    rep.record("ideal closed under the derivation", not bad, bad)
    bad = _jacobi_failure(env, gens, nf)
    rep.record("jacobi identity", not bad, bad)
    bad = _derivation_failure(env, [Poly.var(g) for g in gens], nf)
    # the name is fixed check-gd output, and stays true: a check on
    # generators covers every degree, 6 and below included
    rep.record("derivation compatible with bracket (degree <= 6)",
               not bad, bad)

    # the embedding preserves both products
    def table_failures():
        emb = env.embedding
        for i, j in product(range(t.dim), repeat=2):
            if nf(env.circ(emb[i], emb[j]) - _image_of(t.circ[i][j], emb)):
                yield f"e{i + 1} o e{j + 1}"
            if nf(env.lie_bracket(emb[i], emb[j])
                  - _image_of(t.bracket[i][j], emb)):
                yield f"[e{i + 1}, e{j + 1}]"

    bad = next(table_failures(), "")
    rep.record("embedding preserves the multiplication table", not bad, bad)

    # images linearly independent modulo the ideal
    rank = len(echelon((nf(img).terms for img in env.embedding), mono_key))
    rep.record("images linearly independent", rank == t.dim,
               f"rank {rank} < {t.dim}" if rank != t.dim else "")
    return rep.passed


def _image_of(vec: Vec, embedding: Sequence[Poly]) -> Poly:
    acc = ZERO
    for c, img in zip(vec, embedding):
        if c:
            acc = acc + img.scale(c)
    return acc


# -- the three canonical constructions ----------------------------------------

def case2_envelope(alpha: Fraction) -> EnvelopeSpec:
    """Polynomials in x and a square-zero element e, bracket {x,e} = e/alpha,
    derivation d = d/dx; the algebra embeds by u -> x, v -> ex."""
    alpha = Fraction(alpha)
    if alpha == 0:
        raise GDModelError("case 2 requires alpha != 0")
    x, e = "x", "e"
    px, pe = Poly.var(x), Poly.var(e)
    return EnvelopeSpec(
        generators=(x, e),
        relations=(pe * pe,),
        bracket={(x, e): pe.scale(Fraction(1) / alpha)},
        derivation={x: Poly.const(1), e: ZERO},
        embedding=(px, pe * px),
        name="case2",
    )


def case2_table(alpha: Fraction) -> GDTable:
    """The normalized multiplication table of the alpha = gamma != 0 case."""
    alpha = Fraction(alpha)
    return GDTable(2, circ={(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1)},
                   bracket={(0, 1): (0, Fraction(1) / alpha),
                            (1, 0): (0, -Fraction(1) / alpha)})


def case3_envelope() -> EnvelopeSpec:
    """Four formal variables u, v, u', v' with the eight quadratic
    relations; bracket from {u,v}=v, {u,u'}=u', {u,v'}=2v', {v,u'}=v';
    derivation d(u)=u', d(v)=v'."""
    u, v, du, dv = "u", "v", "u'", "v'"
    pu, pv, pdu, pdv = (Poly.var(g) for g in (u, v, du, dv))
    relations = (
        pu * pdu - pv, pu * pdv, pv * pdu, pv * pdv, pv * pv,
        pdu * pdu - pdv, pdu * pdv, pdv * pdv,
    )
    bracket = {
        (u, v): pv, (u, du): pdu, (u, dv): pdv.scale(2),
        (v, du): pdv, (v, dv): ZERO, (du, dv): ZERO,
    }
    derivation = {u: pdu, v: pdv, du: ZERO, dv: ZERO}
    return EnvelopeSpec((u, v, du, dv), relations, bracket, derivation,
                        embedding=(pu, pv), name="case3")


def case3_table() -> GDTable:
    """[u,v] = v, u o u = v, everything else zero."""
    return GDTable(2, circ={(0, 0): (0, 1)},
                   bracket={(0, 1): (0, 1), (1, 0): (0, -1)})


def case1_envelope(alpha: Fraction, gamma: Fraction, cap: int) -> EnvelopeSpec:
    """The case-1 bracket on the free differential commutative algebra on
    u, v and their derivatives up to order ``cap``:
    {a^(m), b^(n)} = ((n-1) a^(m+1) b^(n) - (m-1) a^(m) b^(n+1)) / (gamma-alpha)
    for letters a, b, and d(a^(m)) = a^(m+1).  A bracket or derivative
    that needs order cap + 1 is left out, so using it raises GDModelError.
    """
    alpha, gamma = Fraction(alpha), Fraction(gamma)
    if alpha == gamma:
        raise GDModelError("case 1 requires gamma != alpha")
    c = Fraction(1) / (gamma - alpha)
    gens = tuple((letter, m) for letter in "uv" for m in range(cap + 1))
    bracket = {}
    for (a, m), (b, n) in product(gens, repeat=2):
        if (n != 1 and m == cap) or (m != 1 and n == cap):
            continue
        bracket[((a, m), (b, n))] = (
            Poly({mono(((a, m + 1), 1), ((b, n), 1)): c * (n - 1)})
            - Poly({mono(((a, m), 1), ((b, n + 1), 1)): c * (m - 1)}))
    derivation = {(a, m): Poly.var((a, m + 1)) for a, m in gens if m < cap}
    return EnvelopeSpec(gens, (), bracket, derivation,
                        name=f"case1 (derivative orders <= {cap})")


def bracket1_check(alpha: Fraction, gamma: Fraction, max_order: int) -> bool:
    """Check the case-1 bracket (:func:`case1_envelope`, antisymmetric as
    every :class:`EnvelopeSpec`) for the Jacobi identity and derivation
    compatibility on all generators of order <= max_order.
    """
    # brackets raise derivative orders by at most two
    env = case1_envelope(alpha, gamma, max_order + 2)
    low = [g for g in env.generators if g[1] <= max_order]

    def exact(p: Poly) -> Poly:  # the free algebra has no relations
        return p

    return not (_jacobi_failure(env, low, exact) or _derivation_failure(
        env, [Poly.var(g) for g in low], exact))


CASE1_ORDER = 3  # the derivative order of the case-1 bracket check


def case1_check(cls: Classification) -> bool:
    """Case-1 verification of a classified table: :func:`bracket1_check`
    on its (alpha, gamma), i.e. the case-1 bracket construction closes at
    derivative order ``CASE1_ORDER``."""
    if cls.case != "case1":
        raise GDModelError("not a case-1 classification")
    return bracket1_check(cls.alpha, cls.gamma, CASE1_ORDER)
