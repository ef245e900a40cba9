"""Small exact commutative polynomial engine.

Used for the finite-dimensional envelope checks: Groebner verification of
commutative relation sets and Leibniz extension of brackets and derivations
from generators.  Variables are arbitrary sortable hashables; monomials are
sorted exponent tuples; the order is degree-lex.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .elements import Combination, axpy, normal_form

Mono = tuple  # tuple[(var, exp), ...] sorted by var, exps > 0

ONE: Mono = ()


def mono(*pairs) -> Mono:
    """The monomial of the (variable, exponent) pairs: the exponents of a
    repeated variable add up, and zero exponents are dropped."""
    acc: dict = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in acc.items() if e))


def mono_mul(a: Mono, b: Mono) -> Mono:
    return mono(*a, *b)


def mono_degree(a: Mono) -> int:
    return sum(e for _v, e in a)


def mono_divides(a: Mono, b: Mono) -> bool:
    bd = dict(b)
    return all(bd.get(v, 0) >= e for v, e in a)


def mono_div(a: Mono, b: Mono) -> Mono:
    if not mono_divides(b, a):
        raise ValueError("monomial division not exact")
    return mono(*a, *((v, -e) for v, e in b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    acc = dict(a)
    for v, e in b:
        acc[v] = max(acc.get(v, 0), e)
    return tuple(sorted(acc.items()))


def mono_key(a: Mono):
    """Graded lex: total degree, then the exponents from the largest
    variable down."""
    return (mono_degree(a), a[::-1])


class Poly(Combination):
    """Exact rational polynomial; immutable by convention."""

    __slots__ = ()

    @classmethod
    def const(cls, c) -> "Poly":
        return cls({ONE: Fraction(c)})

    @classmethod
    def var(cls, v) -> "Poly":
        return cls({mono((v, 1)): 1})

    def __mul__(self, other: "Poly") -> "Poly":
        acc: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            # m1 * m2 is injective in m2, so each row is one sparse add
            axpy(acc, {mono_mul(m1, m2): c2 for m2, c2 in other.terms.items()},
                 c1)
        return self._like(acc)

    def lm(self) -> Mono:
        return self.lead(mono_key)

    def lc(self) -> Fraction:
        return self.terms[self.lm()]

    def diff(self, v) -> "Poly":
        # lowering the exponent of v is injective on the monomials with v
        out: dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            if e := dict(m).get(v):
                out[mono(*m, (v, -1))] = c * e
        return self._like(out)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=mono_key, reverse=True):
            c = self.terms[m]
            body = "*".join(f"{v}^{e}" if e > 1 else f"{v}" for v, e in m) or "1"
            bits.append(f"{c}*{body}")
        return " + ".join(bits)


ZERO = Poly()


def reduce_poly(f: Poly, basis: Sequence[Poly]) -> Poly:
    """Full remainder of f modulo the (assumed Groebner) basis: each
    monomial is rewritten by the first lead, in basis order, dividing it."""
    # each lead with its monic tail, negated
    leads = []
    for g in basis:
        if g:
            lm_g, lc_g = g.lm(), g.lc()
            leads.append((lm_g, {mg: -cg / lc_g for mg, cg in g.terms.items()
                                 if mg != lm_g}))

    def step(m: Mono) -> dict[Mono, Fraction] | None:
        for lm_g, tail in leads:
            if mono_divides(lm_g, m):
                q = mono_div(m, lm_g)
                return {mono_mul(mg, q): v for mg, v in tail.items()}
        return None

    return f._like(normal_form(f.terms, step, {}))


def s_polynomial(f: Poly, g: Poly) -> Poly:
    lf, lg = f.lm(), g.lm()
    l = mono_lcm(lf, lg)
    mf = Poly({mono_div(l, lf): Fraction(1) / f.lc()})
    mg = Poly({mono_div(l, lg): Fraction(1) / g.lc()})
    return mf * f - mg * g


def groebner_report(basis: Sequence[Poly]) -> list[tuple[int, int, Poly]]:
    """S-polynomial check: returns the list of non-vanishing remainders
    (empty exactly when the set is a Groebner basis)."""
    bad = []
    polys = [g for g in basis if g]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            rem = reduce_poly(s_polynomial(polys[i], polys[j]), polys)
            if rem:
                bad.append((i, j, rem))
    return bad


def is_groebner(basis: Sequence[Poly]) -> bool:
    return not groebner_report(basis)
