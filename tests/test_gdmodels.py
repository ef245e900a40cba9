import random
from fractions import Fraction

import pytest

from operadgb.commutative import (
    Poly,
    groebner_report,
    is_groebner,
    mono,
    mono_key,
    mono_mul,
    reduce_poly,
)
from operadgb.gdmodels import (
    CheckReport,
    EnvelopeSpec,
    GDModelError,
    GDTable,
    bracket1_check,
    case1_check,
    case1_envelope,
    case2_envelope,
    case2_table,
    case3_envelope,
    case3_table,
    check_gd_axioms,
    classify_2dim,
    verify_embedding,
)
from oracles import swept_envelope_checks


def test_zero_table_passes_all_axioms():
    t = GDTable(2)
    assert check_gd_axioms(t).passed


def test_case3_table_passes_axioms():
    assert check_gd_axioms(case3_table()).passed


def test_axiom_failure_has_witness():
    # [u,v]=v, u o u = u, everything else 0: the compatibility identity
    # fails at the triple (u,u,v)
    t = GDTable(2, circ={(0, 0): (1, 0)},
                bracket={(0, 1): (0, 1), (1, 0): (0, -1)})
    rep = check_gd_axioms(t)
    assert not rep.passed
    failures = {name: w for name, ok, w in rep.checks if not ok}
    assert "compatibility" in failures
    assert failures["compatibility"] == "(e1,e1,e2)"


AXIOM_NAMES = ("bracket-antisymmetry", "left-symmetry", "right-commutativity",
               "jacobi", "compatibility")

# one table per axiom that fails it alone, with the witness recorded before
# the axioms were evaluated from the presentation's identities
SINGLE_FAILURES = {
    "bracket-antisymmetry": (GDTable(2, bracket={(1, 1): (1, 0)}),
                             "(e2,e2)"),
    "left-symmetry": (GDTable(2, circ={(0, 1): (2, 0)}), "(e1,e2,e2)"),
    "right-commutativity": (GDTable(2, circ={(0, 0): (1, 2), (0, 1): (0, 1)}),
                            "(e1,e1,e2)"),
    "jacobi": (GDTable(3, bracket={(0, 1): (0, 1, 0), (1, 0): (0, -1, 0),
                                   (0, 2): (0, 0, 1), (2, 0): (0, 0, -1),
                                   (1, 2): (1, 0, 0), (2, 1): (-1, 0, 0)}),
               "(e1,e2,e3)"),
    "compatibility": (GDTable(2, circ={(1, 1): (0, 2)},
                              bracket={(0, 1): (1, 0), (1, 0): (-1, 0)}),
                      "(e1,e2,e2)"),
}


@pytest.mark.parametrize("failing", AXIOM_NAMES)
def test_each_axiom_fails_alone_with_its_witness(failing):
    table, witness = SINGLE_FAILURES[failing]
    assert check_gd_axioms(table).checks == [
        (name, name != failing, witness if name == failing else "")
        for name in AXIOM_NAMES]


def test_spec_candidate_table_is_actually_case1():
    """[u,v]=v, u o v = v, v o u = 0, u o u = 0 satisfies every axiom (it is
    the alpha=0, gamma=1 instance of case 1); brute-force evaluation of the
    compatibility identity on all triples confirms this."""
    t = GDTable(2, circ={(0, 1): (0, 1)},
                bracket={(0, 1): (0, 1), (1, 0): (0, -1)})
    assert brute_axiom_check(t)
    rep = check_gd_axioms(t)
    assert rep.passed
    cls = classify_2dim(t)
    assert cls.case == "case1" and (cls.alpha, cls.gamma) == (0, 1)


def brute_axiom_check(t):
    """Oracle: evaluate every defining identity on all basis triples
    directly from the bilinear extensions."""
    dim = t.dim
    bs = [t.basis(i) for i in range(dim)]
    for a in bs:
        for b in bs:
            for c in bs:
                lhs = t.mul_circ(b, t.mul_bracket(a, c))
                rhs = tuple(
                    p - q + r - s for p, q, r, s in zip(
                        t.mul_bracket(a, t.mul_circ(b, c)),
                        t.mul_bracket(c, t.mul_circ(b, a)),
                        t.mul_circ(t.mul_bracket(b, a), c),
                        t.mul_circ(t.mul_bracket(b, c), a)))
                if lhs != rhs:
                    return False
    return True


def test_axiom_checker_against_direct_evaluation():
    rng = random.Random(3)
    for _ in range(30):
        t = GDTable(2,
                    circ={(i, j): (rng.randint(-1, 1), rng.randint(-1, 1))
                          for i in range(2) for j in range(2)},
                    bracket={(0, 1): (rng.randint(-1, 1), rng.randint(-1, 1))})
        t.bracket[1][0] = tuple(-c for c in t.bracket[0][1])
        rep = check_gd_axioms(t)
        compat_ok = [ok for n, ok, _ in rep.checks if n == "compatibility"][0]
        assert compat_ok == brute_axiom_check(t)


def test_classification_cases():
    assert classify_2dim(case3_table()).case == "case3"
    assert classify_2dim(case2_table(1)).case == "case2"
    assert classify_2dim(GDTable(2)).case == "novikov"
    # pure Lie: bracket only
    lie = GDTable(2, bracket={(0, 1): (0, 1), (1, 0): (0, -1)})
    assert classify_2dim(lie).case == "lie-only"
    # case 1: u o u = u, u o v = 2v, v o u = v  ->  alpha=1, gamma=2
    t1 = GDTable(2, circ={(0, 0): (1, 0), (0, 1): (0, 2), (1, 0): (0, 1)},
                 bracket={(0, 1): (0, 1), (1, 0): (0, -1)})
    assert check_gd_axioms(t1).passed
    cls = classify_2dim(t1)
    assert cls.case == "case1" and (cls.alpha, cls.gamma) == (1, 2)


def test_classification_normalizes_basis():
    # same algebra as case3 but with swapped, rescaled basis
    t = GDTable(2, circ={(1, 1): (3, 0)},
                bracket={(0, 1): (-2, 0), (1, 0): (2, 0)})
    # [e2, e1] = 2 e1: u = e2/2, v = e1 ... still a valid GD-algebra
    assert check_gd_axioms(t).passed
    cls = classify_2dim(t)
    assert cls.case == "case3"
    assert cls.delta != 0


def test_classify_rejects_axiom_failures():
    t = GDTable(2, circ={(0, 0): (1, 0)},
                bracket={(0, 1): (0, 1), (1, 0): (0, -1)})
    with pytest.raises(GDModelError):
        classify_2dim(t)


def test_case2_embedding_verified():
    for alpha in (1, 3, Fraction(-2, 5)):
        t = case2_table(alpha)
        assert check_gd_axioms(t).passed
        assert verify_embedding(t, case2_envelope(alpha))


def test_case2_printed_derivation_variant_fails():
    """The variant with d(e) = e/alpha does not preserve u o v = v (the
    product picks up an e*x^2 term), so the envelope only verifies with
    d(e) = 0; the report pinpoints the failing product."""
    t = case2_table(3)
    env = case2_envelope(3)
    env.derivation["e"] = Poly.var("e").scale(Fraction(1, 3))
    rep = CheckReport()
    assert not verify_embedding(t, env, rep)
    failing = [n for n, ok, _ in rep.checks if not ok]
    assert failing == ["embedding preserves the multiplication table"]


def test_case3_embedding_with_derivation_compat_to_degree6():
    t = case3_table()
    rep = CheckReport()
    assert verify_embedding(t, case3_envelope(), rep)
    names = [n for n, _ok, _w in rep.checks]
    assert any("degree <= 6" in n for n in names)


def test_case3_relations_are_groebner():
    env = case3_envelope()
    rels = list(env.relations)
    assert is_groebner(rels)

    def normal(m):
        return reduce_poly(Poly({m: 1}), rels) == Poly({m: 1})

    # normal monomials are u^n, u^m v (plus 1, u', v')
    assert normal(mono(("u", 3)))
    assert normal(mono(("u", 2), ("v", 1)))
    assert not normal(mono(("v", 2)))
    assert not normal(mono(("u", 1), ("u'", 1)))


DERIVATION_CHECK = "derivation compatible with bracket (degree <= 6)"


def _perturbed(env):
    """``env`` with one bracket or derivation entry plus a generator, for
    each entry and each of the first and the last generator."""
    for g in dict.fromkeys((env.generators[0], env.generators[-1])):
        plus = Poly.var(g)
        for k, value in env.bracket.items():
            yield EnvelopeSpec(env.generators, env.relations,
                               {**env.bracket, k: value + plus},
                               env.derivation, env.embedding, env.name)
        for k, value in env.derivation.items():
            yield EnvelopeSpec(env.generators, env.relations, env.bracket,
                               {**env.derivation, k: value + plus},
                               env.embedding, env.name)


# each envelope with the checks that some perturbation of it breaks
ENVELOPES = {
    "case2(1)": (case2_table(1), case2_envelope(1), {DERIVATION_CHECK}),
    "case2(3)": (case2_table(3), case2_envelope(3), {DERIVATION_CHECK}),
    "case2(-2/5)": (case2_table(Fraction(-2, 5)),
                    case2_envelope(Fraction(-2, 5)), {DERIVATION_CHECK}),
    "case3": (case3_table(), case3_envelope(),
              {"jacobi identity", DERIVATION_CHECK}),
}


@pytest.mark.parametrize("name", sorted(ENVELOPES))
def test_envelope_checks_on_generators_match_the_degree6_sweep(name):
    """Checking Jacobi on sorted generator triples and derivation
    compatibility on sorted generator pairs gives the verdicts, and the
    Jacobi witness, of the sweep over ordered triples and over ordered
    pairs of normal monomials up to degree 6."""
    table, env, breaks = ENVELOPES[name]
    broken = set()
    for spec in (env, *_perturbed(env)):
        rep = CheckReport()
        verify_embedding(table, spec, rep)
        got = {n: (ok, w) for n, ok, w in rep.checks}
        jacobi, derivation = swept_envelope_checks(spec)
        assert got["jacobi identity"] == (not jacobi, jacobi)
        assert got[DERIVATION_CHECK][0] == (not derivation)
        broken |= {n for n in ("jacobi identity", DERIVATION_CHECK)
                   if not got[n][0]}
    assert broken == breaks


def test_envelope_spec_rejects_a_bracket_that_is_not_antisymmetric():
    x, y = Poly.var("x"), Poly.var("y")
    for bracket in ({("x", "y"): x, ("y", "x"): x},
                    {("x", "y"): x, ("y", "x"): Poly()},
                    {("x", "x"): y}):
        with pytest.raises(GDModelError, match="not antisymmetric"):
            EnvelopeSpec(("x", "y"), (), bracket, {})
    # one orientation, both as negatives, and a zero {g, g} are accepted
    spec = EnvelopeSpec(("x", "y"), (), {("x", "y"): x, ("y", "x"): -x,
                                         ("x", "x"): Poly()}, {})
    assert spec.pair_bracket("y", "x") == -x
    # and stays so: the checked bracket cannot be edited in place
    with pytest.raises(TypeError):
        spec.bracket[("y", "x")] = x


def test_case3_derivation_closed_form():
    """d(u^n) reduces to n u^(n-2) v for n >= 2, matching the closed form."""
    env = case3_envelope()
    rels = list(env.relations)
    for n in range(2, 7):
        un = Poly({mono(("u", n)): 1})
        got = reduce_poly(env.d(un), rels)
        want = Poly({mono(("u", n - 2), ("v", 1)): n})
        assert got == want
    assert reduce_poly(env.d(Poly.var("u")), rels) == Poly.var("u'")
    assert reduce_poly(env.d(Poly({mono(("u", 1), ("v", 1)): 1})), rels).is_zero()


def test_corrupted_case3_bracket_detected():
    env = case3_envelope()
    env = EnvelopeSpec(env.generators, env.relations,
                       {**env.bracket,
                        ("u", "v'"): Poly.var("v'")},  # should be 2v'
                       env.derivation, env.embedding, env.name)
    rep = CheckReport()
    assert not verify_embedding(case3_table(), env, rep)
    failing = {n for n, ok, _ in rep.checks if not ok}
    assert failing  # jacobi or compatibility or table preservation breaks
    # the witness is the first failing generator triple in scan order
    witnesses = {n: w for n, ok, w in rep.checks if not ok}
    assert witnesses["jacobi identity"] == "(u,v,u')"


def test_bracket1_check():
    assert bracket1_check(0, 1, 3)
    assert bracket1_check(2, 5, 2)
    with pytest.raises(GDModelError):
        bracket1_check(1, 1, 2)


def test_bracket1_proportionality():
    """The case-1 bracket for any (alpha, gamma) is 1/(gamma-alpha) times
    the bracket for (0, 1), on generators and on products."""
    base = case1_envelope(0, 1, 4)
    u1, v2 = Poly.var(("u", 1)), Poly.var(("v", 2))
    f, g = u1 * Poly.var(("v", 0)), v2 * v2 + u1
    assert not base.pair_bracket(("u", 1), ("v", 2)).is_zero()
    for alpha, gamma in ((1, 2), (3, -4), (Fraction(1, 2), Fraction(-2, 3))):
        env = case1_envelope(alpha, gamma, 4)
        c = 1 / (Fraction(gamma) - Fraction(alpha))
        assert env.generators == base.generators
        for a in env.generators:
            for b in env.generators:
                if (a, b) in base.bracket:
                    assert env.pair_bracket(a, b) == \
                        base.pair_bracket(a, b).scale(c)
        assert env.lie_bracket(f, g) == base.lie_bracket(f, g).scale(c)
        assert env.d(f) == base.d(f)


def test_case1_envelope_raises_past_the_derivative_cap():
    """A bracket or derivative that needs order cap + 1 raises instead of
    reading as zero; the brackets that stay within the cap do not."""
    env = case1_envelope(1, 2, 3)
    top_u, top_v = Poly.var(("u", 3)), Poly.var(("v", 3))
    with pytest.raises(GDModelError):
        env.d(top_u)
    with pytest.raises(GDModelError):
        env.d(top_u * Poly.var(("v", 0)))
    with pytest.raises(GDModelError):
        env.lie_bracket(top_u, Poly.var(("v", 0)))  # needs u^(4)
    with pytest.raises(GDModelError):
        env.lie_bracket(Poly.var(("u", 0)), top_v)  # needs v^(4)
    # {u^(3), v'} = -2 u^(3) v'' / (gamma - alpha) needs no order above 3
    assert env.lie_bracket(top_u, Poly.var(("v", 1))) == \
        (top_u * Poly.var(("v", 2))).scale(-2)
    assert env.d(Poly.var(("u", 2))) == top_u
    assert env.lie_bracket(top_u, top_u).is_zero()


def test_case1_check_for_classified_table():
    t1 = GDTable(2, circ={(0, 0): (1, 0), (0, 1): (0, 2), (1, 0): (0, 1)},
                 bracket={(0, 1): (0, 1), (1, 0): (0, -1)})
    cls = classify_2dim(t1)
    assert case1_check(cls)
    # the commutator identity [u,v] = (u o v - v o u)/(gamma - alpha)
    u, v = cls.u, cls.v
    diff = tuple((a - b) / (cls.gamma - cls.alpha) for a, b in
                 zip(t1.mul_circ(u, v), t1.mul_circ(v, u)))
    assert diff == t1.mul_bracket(u, v)


def test_table_parse_format_roundtrip():
    t = case3_table()
    text = t.format()
    t2 = GDTable.parse(text)
    assert t2.circ == t.circ and t2.bracket == t.bracket
    # antisymmetry is filled in automatically
    t3 = GDTable.parse("dim 2\nbracket 1 2 = 0 1\ncirc 1 1 = 0 1\n")
    assert t3.bracket[1][0] == (0, -1)
    with pytest.raises(GDModelError):
        GDTable.parse("dim 2\nbracket 1 2 = 0 1\nbracket 2 1 = 0 1\n")


def test_groebner_report_flags_non_basis():
    u, v = Poly.var("u"), Poly.var("v")
    # {u^2 - v, u*v} is not a Groebner basis (S-poly leaves v^2 ... it does reduce?)
    bad = [u * u - v * v * v, u * v - Poly.const(1)]
    assert groebner_report(bad)


def test_reduce_poly_terminates_under_graded_lex():
    """b > a makes a*b the lead of a^2 - a*b, so a^2 is already normal; an
    order with a^2 > a*b would rewrite a^2 -> a*b -> a^2 forever."""
    a, b = Poly.var("a"), Poly.var("b")
    assert reduce_poly(a * a, [b - a, a * a - a * b]) == a * a


def test_mono_key_is_a_monomial_order():
    rng = random.Random(20211)
    variables = ("a", "b", "c")

    def rand_mono():
        return mono(*((v, rng.randrange(4)) for v in variables))

    assert mono_key(mono()) < mono_key(mono(("a", 1))) < mono_key(mono(("b", 1)))
    for _ in range(2000):
        m1, m2, m3 = rand_mono(), rand_mono(), rand_mono()
        if m1 == m2:
            continue
        assert mono_key(m1) != mono_key(m2)
        if mono_key(m1) > mono_key(m2):
            m1, m2 = m2, m1
        assert mono_key(mono_mul(m1, m3)) < mono_key(mono_mul(m2, m3))


def test_classification_invariant_under_basis_change():
    """Random invertible basis changes of tables in each case keep the
    classification (and the alpha, gamma parameters, which are invariants
    of the normalized bracket)."""
    rng = random.Random(8)

    def change_basis(t, p, q, r, s):
        # new basis f1 = p e1 + q e2, f2 = r e1 + s e2 (det != 0)
        det = p * s - q * r
        assert det != 0
        new = GDTable(2)
        f = [(Fraction(p), Fraction(q)), (Fraction(r), Fraction(s))]
        # inverse transpose to express results in the new basis
        inv = [[Fraction(s) / det, -Fraction(q) / det],
               [-Fraction(r) / det, Fraction(p) / det]]

        def to_new(vec):
            return (inv[0][0] * vec[0] + inv[1][0] * vec[1],
                    inv[0][1] * vec[0] + inv[1][1] * vec[1])

        for i in range(2):
            for j in range(2):
                new.circ[i][j] = to_new(t.mul_circ(f[i], f[j]))
                new.bracket[i][j] = to_new(t.mul_bracket(f[i], f[j]))
        return new

    samples = [
        (case3_table(), "case3", None, None),
        (case2_table(2), "case2", Fraction(2), Fraction(2)),
        (GDTable(2, circ={(0, 0): (1, 0), (0, 1): (0, 2), (1, 0): (0, 1)},
                 bracket={(0, 1): (0, 1), (1, 0): (0, -1)}),
         "case1", Fraction(1), Fraction(2)),
    ]
    for t, case, alpha, gamma in samples:
        for _ in range(5):
            while True:
                p, q, r, s = (rng.randint(-3, 3) for _ in range(4))
                if p * s - q * r != 0:
                    break
            t2 = change_basis(t, p, q, r, s)
            assert check_gd_axioms(t2).passed
            cls = classify_2dim(t2)
            assert cls.case == case
            if alpha is not None:
                assert (cls.alpha, cls.gamma) == (alpha, gamma)
