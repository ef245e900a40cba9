"""Finite-dimensional Gelfand-Dorfman algebras given by structure constants.

Covers axiom verification on all basis triples, the classification of
2-dimensional algebras into the three parameter cases (after normalizing
the bracket to [u,v] = v), and verification of the explicit differential
Poisson envelopes for each case, with exact rational arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .commutative import (
    Poly,
    ZERO,
    is_groebner,
    mono_key,
    normal_monomials_up_to,
    reduce_poly,
)
from .elements import reduce_row


class GDModelError(ValueError):
    pass


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
    def mul_circ(self, a: Vec, b: Vec) -> Vec:
        out = _vec(self.dim)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if not cb:
                    continue
                out = _add(out, _scale(self.circ[i][j], ca * cb))
        return out

    def mul_bracket(self, a: Vec, b: Vec) -> Vec:
        out = _vec(self.dim)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if not cb:
                    continue
                out = _add(out, _scale(self.bracket[i][j], ca * cb))
        return out

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
                dim = int(parts[1])
            elif parts[0] in ("circ", "bracket"):
                if dim is None:
                    raise GDModelError(f"line {lineno}: 'dim' must come first")
                if len(parts) < 4 or parts[3] != "=":
                    raise GDModelError(f"line {lineno}: expected "
                                       f"'{parts[0]} i j = coeffs'")
                i, j = int(parts[1]) - 1, int(parts[2]) - 1
                coeffs = [Fraction(c) for c in parts[4:]]
                if len(coeffs) != dim:
                    raise GDModelError(
                        f"line {lineno}: expected {dim} coefficients")
                (circ if parts[0] == "circ" else bracket)[(i, j)] = coeffs
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


@dataclass
class AxiomReport:
    """Per-axiom verdicts with a witnessing basis triple on failure."""

    results: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _n, ok, _w in self.results)

    def failures(self) -> list[str]:
        return [f"{name} fails at {w}" for name, ok, w in self.results if not ok]

    def as_text(self) -> str:
        return "\n".join(f"{'PASS' if ok else 'FAIL'}  {name}"
                         + ("" if ok else f"  (witness {w})")
                         for name, ok, w in self.results)


def check_gd_axioms(t: GDTable) -> AxiomReport:
    """Verify the defining identities on all basis triples."""
    report = AxiomReport()
    dim = t.dim
    basis = [t.basis(i) for i in range(dim)]

    def scan(name, fn):
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    if not _is_zero(fn(basis[i], basis[j], basis[k])):
                        report.results.append(
                            (name, False, f"(e{i + 1},e{j + 1},e{k + 1})"))
                        return
        report.results.append((name, True, ""))

    def skew():
        for i in range(dim):
            for j in range(dim):
                if not _is_zero(_add(t.bracket[i][j],
                                     t.bracket[j][i])):
                    report.results.append(
                        ("bracket-antisymmetry", False, f"(e{i + 1},e{j + 1})"))
                    return
        report.results.append(("bracket-antisymmetry", True, ""))

    skew()
    scan("left-symmetry", lambda a, b, c: _add(
        t.mul_circ(t.mul_circ(a, b), c),
        _scale(_add(t.mul_circ(t.mul_circ(b, a), c),
                    _scale(_add(t.mul_circ(b, t.mul_circ(a, c)),
                                _scale(t.mul_circ(a, t.mul_circ(b, c)), -1)),
                           -1)), -1)))
    scan("right-commutativity", lambda a, b, c: _add(
        t.mul_circ(t.mul_circ(a, b), c),
        _scale(t.mul_circ(t.mul_circ(a, c), b), -1)))
    scan("jacobi", lambda a, b, c: _add(
        t.mul_bracket(t.mul_bracket(a, b), c),
        _add(t.mul_bracket(t.mul_bracket(b, c), a),
             t.mul_bracket(t.mul_bracket(c, a), b))))
    scan("compatibility", lambda a, b, c: _add(
        t.mul_circ(b, t.mul_bracket(a, c)),
        _scale(_add(_add(t.mul_bracket(a, t.mul_circ(b, c)),
                         _scale(t.mul_bracket(c, t.mul_circ(b, a)), -1)),
                    _add(t.mul_circ(t.mul_bracket(b, a), c),
                         _scale(t.mul_circ(t.mul_bracket(b, c), a), -1))),
               -1)))
    return report


@dataclass(frozen=True)
class Classification:
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

@dataclass
class EnvelopeSpec:
    """A differential Poisson algebra presented by commutative relations, a
    bracket and a derivation on generators, plus an embedding map."""

    generators: tuple[str, ...]
    relations: tuple[Poly, ...]
    bracket: dict[tuple[str, str], Poly]
    derivation: dict[str, Poly]
    embedding: tuple[Poly, ...]  # images of the GD-algebra basis
    name: str = "envelope"

    def pair_bracket(self, g1: str, g2: str) -> Poly:
        if (g1, g2) in self.bracket:
            return self.bracket[(g1, g2)]
        if (g2, g1) in self.bracket:
            return -self.bracket[(g2, g1)]
        return ZERO

    def lie_bracket(self, f: Poly, g: Poly) -> Poly:
        """Extend the generator bracket to polynomials as a biderivation."""
        acc = ZERO
        for g1 in self.generators:
            df = f.diff(g1)
            if df.is_zero():
                continue
            for g2 in self.generators:
                dg = g.diff(g2)
                if dg.is_zero():
                    continue
                acc = acc + df * dg * self.pair_bracket(g1, g2)
        return acc

    def d(self, f: Poly) -> Poly:
        acc = ZERO
        for g1 in self.generators:
            df = f.diff(g1)
            if not df.is_zero():
                acc = acc + df * self.derivation.get(g1, ZERO)
        return acc

    def circ(self, f: Poly, g: Poly) -> Poly:
        return f * self.d(g)


@dataclass
class EmbeddingReport:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, witness: str = "") -> bool:
        self.checks.append((name, ok, witness))
        return ok

    @property
    def passed(self) -> bool:
        return all(ok for _n, ok, _w in self.checks)

    def as_text(self) -> str:
        return "\n".join(f"{'PASS' if ok else 'FAIL'}  {name}"
                         + ("" if ok else f"  ({w})")
                         for name, ok, w in self.checks)


def verify_embedding(t: GDTable, env: EnvelopeSpec,
                     truncation_degree: int = 6,
                     report: EmbeddingReport | None = None) -> bool:
    """Check that the envelope is a differential Poisson algebra (to the
    stated truncation) and that the embedding preserves the table exactly.
    """
    rep = report if report is not None else EmbeddingReport()
    gens = env.generators
    rels = list(env.relations)
    if not rep.record("relations form a commutative Groebner basis",
                      is_groebner(rels)):
        return False

    def nf(p: Poly) -> Poly:
        return reduce_poly(p, rels)

    # ideal stable under the bracket and the derivation
    ok = True
    for r in rels:
        for g1 in gens:
            if nf(env.lie_bracket(Poly.var(g1), r)):
                ok = rep.record("ideal closed under the bracket", False,
                                f"{{{g1}, {r}}}")
                break
        if not ok:
            break
    else:
        rep.record("ideal closed under the bracket", True)
    for r in rels:
        if nf(env.d(r)):
            rep.record("ideal closed under the derivation", False, str(r))
            break
    else:
        rep.record("ideal closed under the derivation", True)

    # Jacobi on generators (a triderivation vanishing on generators vanishes)
    jac_ok = True
    witness = ""
    for g1 in gens:
        for g2 in gens:
            for g3 in gens:
                p1, p2, p3 = (Poly.var(g) for g in (g1, g2, g3))
                jac = (env.lie_bracket(p1, env.lie_bracket(p2, p3))
                       + env.lie_bracket(p2, env.lie_bracket(p3, p1))
                       + env.lie_bracket(p3, env.lie_bracket(p1, p2)))
                if nf(jac):
                    jac_ok, witness = False, f"({g1},{g2},{g3})"
                    break
    rep.record("jacobi identity", jac_ok, witness)

    # derivation compatible with the bracket on normal monomials
    normals = [Poly({m: 1}) for m in
               normal_monomials_up_to(rels, gens, truncation_degree)]
    comp_ok = True
    witness = ""
    for f in normals:
        for g in normals:
            lhs = env.d(env.lie_bracket(f, g))
            rhs = env.lie_bracket(env.d(f), g) + env.lie_bracket(f, env.d(g))
            if nf(lhs - rhs):
                comp_ok, witness = False, f"d{{{f},{g}}}"
                break
        if not comp_ok:
            break
    rep.record(
        f"derivation compatible with bracket (degree <= {truncation_degree})",
        comp_ok, witness)

    # the embedding preserves both products
    emb_ok = True
    witness = ""
    for i in range(t.dim):
        for j in range(t.dim):
            want_c = _image_of(t.circ[i][j], env.embedding)
            got_c = env.circ(env.embedding[i], env.embedding[j])
            if nf(got_c - want_c):
                emb_ok, witness = False, f"e{i + 1} o e{j + 1}"
                break
            want_b = _image_of(t.bracket[i][j], env.embedding)
            got_b = env.lie_bracket(env.embedding[i], env.embedding[j])
            if nf(got_b - want_b):
                emb_ok, witness = False, f"[e{i + 1}, e{j + 1}]"
                break
        if not emb_ok:
            break
    rep.record("embedding preserves the multiplication table", emb_ok, witness)

    # images linearly independent modulo the ideal
    pivots: dict = {}
    for img in env.embedding:
        found = reduce_row(dict(nf(img).terms), pivots, mono_key)
        if found is not None:
            lead, tail = found
            pivots[lead] = tail
    rank = len(pivots)
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


CASE3_RELATION_STRINGS = ("uu'-v", "uv'", "vu'", "vv'", "vv",
                          "u'u'-v'", "u'v'", "v'v'")


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


def bracket1_check(alpha: Fraction, gamma: Fraction, max_order: int) -> bool:
    """The case-1 bracket on the free differential commutative algebra:
    {u^(m), v^(n)} = ((n-1) u^(m+1) v^(n) - (m-1) u^(m) v^(n+1)) / (gamma-alpha),
    extended by the Leibniz rule.  Checks antisymmetry, the Jacobi identity
    and derivation compatibility on all generators of order <= max_order.
    """
    alpha, gamma = Fraction(alpha), Fraction(gamma)
    if alpha == gamma:
        raise GDModelError("case 1 requires gamma != alpha")
    c = Fraction(1) / (gamma - alpha)
    cap = max_order + 2  # brackets raise orders by at most two

    def gen(letter: str, m: int):
        return (letter, m)

    letters = ("u", "v")
    gens = [gen(l, m) for l in letters for m in range(cap + 1)]

    from .commutative import mono as _mono

    def pair_bracket(a, b) -> Poly:
        (la, m), (lb, n) = a, b
        out = ZERO
        if n != 1:
            if m + 1 > cap:
                raise GDModelError("derivative order cap exceeded")
            out = out + Poly({_mono((gen(la, m + 1), 1), (gen(lb, n), 1)):
                              c * (n - 1)})
        if m != 1:
            if n + 1 > cap:
                raise GDModelError("derivative order cap exceeded")
            out = out - Poly({_mono((gen(la, m), 1), (gen(lb, n + 1), 1)):
                              c * (m - 1)})
        return out

    def bracket(f: Poly, g: Poly) -> Poly:
        acc = ZERO
        for ga in gens:
            df = f.diff(ga)
            if df.is_zero():
                continue
            for gb in gens:
                dg = g.diff(gb)
                if dg.is_zero():
                    continue
                acc = acc + df * dg * pair_bracket(ga, gb)
        return acc

    def d(f: Poly) -> Poly:
        acc = ZERO
        for (l, m) in gens:
            df = f.diff((l, m))
            if not df.is_zero():
                if m + 1 > cap:
                    raise GDModelError("derivative order cap exceeded")
                acc = acc + df * Poly.var((l, m + 1))
        return acc

    low = [gen(l, m) for l in letters for m in range(max_order + 1)]
    # antisymmetry on generators
    for a in low:
        for b in low:
            if not (pair_bracket(a, b) + pair_bracket(b, a)).is_zero():
                return False
    # Jacobi on generator triples
    for a in low:
        pa = Poly.var(a)
        for b in low:
            pb = Poly.var(b)
            for cc in low:
                pc = Poly.var(cc)
                jac = (bracket(pa, bracket(pb, pc))
                       + bracket(pb, bracket(pc, pa))
                       + bracket(pc, bracket(pa, pb)))
                if not jac.is_zero():
                    return False
    # d a derivation of the bracket on generator pairs
    for a in low:
        pa = Poly.var(a)
        for b in low:
            pb = Poly.var(b)
            lhs = d(bracket(pa, pb))
            rhs = bracket(d(pa), pb) + bracket(pa, d(pb))
            if not (lhs - rhs).is_zero():
                return False
    return True


def case1_check(cls: Classification, max_order: int = 3) -> bool:
    """Case-1 verification: the commutator identity on the table plus the
    bracket construction closing at the requested derivative order."""
    if cls.case != "case1":
        raise GDModelError("not a case-1 classification")
    return bracket1_check(cls.alpha, cls.gamma, max_order)
