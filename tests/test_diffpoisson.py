import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from operadgb.commutative import Poly, mono
from operadgb.diffpoisson import (
    Ambiguity,
    Chain,
    DiffPoissonError,
    Letter,
    PMonomial,
    RewriteContext,
    classify_degree4,
    describe_app,
    format_monomial,
    independent_identities,
    measure,
    monomial_degree,
    orbit_pivots,
)
from operadgb.elements import OperadElement
from operadgb.groebner import (
    GroebnerBasis,
    RewriteRule,
    buchberger,
    reduce_element,
)
from operadgb.presentation import (
    Presentation,
    SPECIAL_1,
    SPECIAL_2,
    builtin_presentations,
    convert_instance,
    element_orbit,
    symmetric_to_shuffle,
)
from operadgb.trees import all_trees, leaf, relabel_ordered

from oracles import PoissonModel, rank_kept_residues, worklist_normal_form

BUILTINS = builtin_presentations()


@pytest.fixture(scope="module")
def gd4():
    return buchberger(BUILTINS["gd"], 4)


@pytest.fixture(scope="module")
def ws4():
    return buchberger(BUILTINS["wsgd"], 4)


@pytest.fixture(scope="module")
def ctx(gd4):
    return RewriteContext(gd4)


@pytest.fixture(scope="module")
def gd_plus_spec1():
    return buchberger(Presentation(
        "gd+s1", BUILTINS["gd"].generators,
        BUILTINS["gd"].relations + tuple(symmetric_to_shuffle(SPECIAL_1))), 4)


@pytest.fixture(scope="module")
def gd_plus_spec2():
    return buchberger(Presentation(
        "gd+s2", BUILTINS["gd"].generators,
        BUILTINS["gd"].relations + tuple(symmetric_to_shuffle(SPECIAL_2))), 4)


# -- weight ------------------------------------------------------------------

def chain_weight(c: Chain) -> int:
    return sum(l.order - 1 for l in c) + len(c) - 1


def monomial_weight(pm: PMonomial) -> int:
    return sum(chain_weight(c) for c in pm)


def test_weight_rules(ctx):
    x = (ctx.var_letter(1),)
    assert monomial_weight((x,)) == -1  # wt(x) = -1
    ab1 = ctx.make_monomial([(ctx.var_letter(1),), (ctx.var_letter(2, 1),)])
    assert monomial_weight(ab1) == -1  # wt(a b') = -1
    br = ctx.make_monomial([ctx.make_chain(
        (ctx.var_letter(1), ctx.var_letter(2, 1)))[1]])
    assert monomial_weight(br) == 0  # wt({a, b'}) = 0
    assert monomial_degree(br) == 2


# -- rules -------------------------------------------------------------------

def lie_principal(ctx, a, b, n):
    """The monomial {a, b^(n)} rewritten by the L-rule (a > b)."""
    _s, chain = ctx.make_chain((Letter(a, 0), Letter(b, n)))
    return ctx.make_monomial([chain])


def poisson_replacement(ctx, pm):
    """One step of the first P-rule application on pm."""
    apps = [x for x in ctx.applications(pm) if x[0] != "L"]
    return ctx.apply(pm, apps[0])


def test_lie_rule_table_case(ctx):
    a, b = leaf(2), leaf(1)
    repl = ctx.apply(lie_principal(ctx, a, b, 0), ("L", 0))
    # {a,b} -> [a,b]: a single underived letter of degree 2
    assert len(repl) == 1
    (pm, c), = repl.items()
    assert len(pm) == 1 and len(pm[0]) == 1 and pm[0][0].order == 0
    assert pm[0][0].base.arity == 2


def test_lie_rule_first_derivative(ctx):
    # {b,c'} -> [b,c]' + {c,b'}   (i.e. -{b',c})
    b, c = leaf(2), leaf(1)
    repl = ctx.apply(lie_principal(ctx, b, c, 1), ("L", 0))
    bracket_letter = [pm for pm in repl if pm[0][0].order == 1 and len(pm[0]) == 1]
    swapped = [pm for pm in repl if len(pm[0]) == 2]
    assert len(bracket_letter) == 1 and len(swapped) == 1
    assert repl[swapped[0]] == -1  # the {b',c} chain with coefficient -1
    chain = swapped[0][0]
    assert chain[0].order == 1 and chain[1].order == 0


def test_poisson_rule_product_case(ctx):
    # a b' -> a o b
    a, b = leaf(1), leaf(2)
    repl = poisson_replacement(
        ctx, ctx.make_monomial([(Letter(a, 0),), (Letter(b, 1),)]))
    circ = ctx.compose(a, b, bracket=False)
    want = {ctx.make_monomial([(Letter(beta, 0),)]): c for beta, c in circ.items()}
    assert repl == want


def test_poisson_rule_cooked_matches_known_form(ctx, gd4):
    # a{b,c'} -> [a,b] o c + [b, a o c]   for b > c
    a, b, c = 1, 3, 2
    _s, chain = ctx.make_chain((ctx.var_letter(b), ctx.var_letter(c, 1)))
    pm = ctx.make_monomial([(ctx.var_letter(a),), chain])
    cooked = ctx.to_operad(ctx.normal_form(poisson_replacement(ctx, pm)), 3)
    from operadgb.presentation import C, B as Br
    want_sym = [(1, C(Br(a, b), c)), (1, Br(b, C(a, c)))]
    want = sum((convert_instance(
        _rel("w", 3, [t]), {1: 1, 2: 2, 3: 3}).scale(cc)
        for cc, t in [(cc, t) for cc, t in want_sym]),
        start=_zero3())
    assert cooked == reduce_element(want, gd4)


def _rel(name, nvars, terms):
    from operadgb.presentation import SymmetricRelation
    return SymmetricRelation.of(name, nvars, [(1, t) for t in terms])


def _zero3():
    return OperadElement.zero(3)


def test_poisson_rule_cooked_other_orientation(ctx, gd4):
    # a{c,b'} -> [a,c] o b + [c, a o b]   for c > b
    a, c, b = 1, 3, 2
    _s, chain = ctx.make_chain((ctx.var_letter(c), ctx.var_letter(b, 1)))
    pm = ctx.make_monomial([(ctx.var_letter(a),), chain])
    cooked = ctx.to_operad(ctx.normal_form(poisson_replacement(ctx, pm)), 3)
    from operadgb.presentation import C, B as Br
    want = (convert_instance(_rel("w", 3, [C(Br(a, c), b)]), {1: 1, 2: 2, 3: 3})
            + convert_instance(_rel("w", 3, [Br(c, C(a, b))]), {1: 1, 2: 2, 3: 3}))
    assert cooked == reduce_element(want, gd4)


# -- normal forms ------------------------------------------------------------

def test_normal_form_product_rule(ctx):
    # a b' -> a o b
    pm = ctx.make_monomial([(ctx.var_letter(1),), (ctx.var_letter(2, 1),)])
    nf = ctx.normal_form({pm: Fraction(1)})
    e = ctx.to_operad(nf, 2)
    assert e.terms == ctx.compose(leaf(1), leaf(2), bracket=False)


# -- guards ------------------------------------------------------------------

def test_to_operad_refuses_a_normal_form_that_is_not_a_gd_expression(ctx):
    _s, chain = ctx.make_chain((ctx.var_letter(2), ctx.var_letter(1)))
    for pm in (ctx.make_monomial([chain]),
               ctx.make_monomial([(ctx.var_letter(1),), (ctx.var_letter(2),)]),
               ctx.make_monomial([(ctx.var_letter(1, 1),)])):
        with pytest.raises(DiffPoissonError, match="not a GD expression"):
            ctx.to_operad({pm: Fraction(1)}, 2)


def test_to_operad_refuses_a_letter_that_misses_a_variable(ctx):
    circ = ctx.compose(leaf(1), leaf(3), bracket=False)
    assert circ and all(t.leaves == (1, 3) for t in circ)
    for base in (leaf(1), next(iter(circ))):
        with pytest.raises(DiffPoissonError, match="does not cover all"):
            ctx.to_operad({((Letter(base, 0),),): Fraction(1)}, 3)


def test_compose_refuses_letters_that_share_a_variable(ctx):
    beta = next(iter(ctx.compose(leaf(1), leaf(3), bracket=True)))
    for b1, b2 in ((leaf(2), leaf(2)), (beta, leaf(3)), (leaf(1), beta)):
        for bracket in (False, True):
            with pytest.raises(DiffPoissonError, match="disjoint variables"):
                ctx.compose(b1, b2, bracket)


def test_normal_form_routes_of_a3_monomial(ctx, gd4):
    """The two reduction routes of a b'{c,d'} reach the two published GD
    expressions; their difference is the first special identity."""
    a, b, c, d = 3, 4, 2, 1  # c > d so the bracket is L-reducible
    pm = ctx.make_monomial([
        (ctx.var_letter(a),), (ctx.var_letter(b, 1),),
        ctx.make_chain((ctx.var_letter(c), ctx.var_letter(d, 1)))[1]])
    apps = ctx.applications(pm)
    p0 = [x for x in apps if x[0] == "P0"][0]
    pk = [x for x in apps if x[0] == "P"][0]
    from operadgb.presentation import C, B as Br
    perm = {1: a, 2: b, 3: c, 4: d}
    # product-first: (a o b){c,d'} -> [c,(a o b) o d] - [c, a o b] o d
    product_first = ctx.to_operad(ctx.normal_form(ctx.apply(pm, p0)), 4)
    want1 = (convert_instance(_rel("w", 4, [Br(3, C(C(1, 2), 4))]), perm)
             - convert_instance(_rel("w", 4, [C(Br(3, C(1, 2)), 4)]), perm))
    assert product_first == reduce_element(want1, gd4)
    # bracket-first: -> [c, a o d] o b + ([a,c] o d) o b
    bracket_first = ctx.to_operad(ctx.normal_form(ctx.apply(pm, pk)), 4)
    want2 = (convert_instance(_rel("w", 4, [C(Br(3, C(1, 4)), 2)]), perm)
             + convert_instance(_rel("w", 4, [C(C(Br(1, 3), 4), 2)]), perm))
    assert bracket_first == reduce_element(want2, gd4)


def test_normal_form_matches_worklist_oracle(ctx):
    """The memoized normal form equals an unmemoized greatest-first
    worklist on every degree-4 monomial and every route start; the shared
    context makes later calls hit the memo."""
    starts = [{pm: Fraction(1)} for pm in ctx.weight_minus_one_monomials(4)]
    for amb in ctx.enumerate_ambiguities(4):
        starts += [ctx.apply(amb.monomial, amb.app1),
                   ctx.apply(amb.monomial, amb.app2)]
    assert len(starts) > 200
    for poly in starts:
        assert ctx.normal_form(poly) == worklist_normal_form(ctx, poly)


def test_trace_does_not_depend_on_the_memo(gd4):
    """Each pair's trace is the same on a fresh context as on one that has
    already computed every pair, in reverse order; on a fresh context it
    has one line per reducible monomial the route's normal form visits."""
    warm = RewriteContext(gd4)
    ambs = warm.enumerate_ambiguities(4)
    for amb in reversed(ambs):
        warm.residue(amb)
    for amb in ambs:
        fresh = RewriteContext(gd4)
        starts = [fresh.apply(amb.monomial, app)
                  for app in (amb.app1, amb.app2)]
        fresh.normal_form(starts[0])
        reducible = [m for m, (_den, nf) in fresh._nf_memo.items()
                     if m not in nf]
        got = [fresh.trace(start) for start in starts]
        assert len(got[0]) == len(reducible) > 0
        want = [warm.trace(warm.apply(amb.monomial, app))
                for app in (amb.app1, amb.app2)]
        assert got == want, format_monomial(amb.monomial)


# -- ambiguities -------------------------------------------------------------

def test_degree3_single_family_and_zero_residues(ctx):
    ambs = ctx.enumerate_ambiguities(3)
    assert len(ambs) == 3  # the single family a{b,c'}, b > c, over 3 letters
    for amb in ambs:
        chain = [c for c in amb.monomial if len(c) == 2][0]
        assert chain[0].order == 0 and chain[1].order == 1
        kinds = sorted((amb.app1[0], amb.app2[0]))
        assert kinds == ["L", "P"]
        assert ctx.residue(amb).is_zero()


def test_degree4_families_are_exactly_a1_to_a5(ctx):
    ambs = ctx.enumerate_ambiguities(4)
    monos = {a.monomial for a in ambs}
    fams = Counter(classify_degree4(pm) for pm in monos)
    assert set(fams) == {"A1", "A2", "A3", "A4", "A5"}
    assert all(v > 0 for v in fams.values())


def test_degree4_residues_are_special(ctx, ws4):
    ambs = ctx.enumerate_ambiguities(4)
    residues = [ctx.residue(a) for a in ambs]
    assert any(not r.is_zero() for r in residues)
    for r in residues:
        assert reduce_element(r, ws4).is_zero()


def test_degree4_residue_space_has_rank_two(ctx, gd4):
    """The residues generate, as identities modulo the cubic relations, the
    10-dimensional space spanned by the two degree-4 special identities,
    and greedy filtration finds exactly two independent ones."""
    ambs = ctx.enumerate_ambiguities(4)
    residues = [ctx.residue(a) for a in ambs]
    nonzero = [r for r in residues if not r.is_zero()]
    piv = orbit_pivots(nonzero, gd4)
    assert len(piv) == 10  # = dim GD(4) - dim wSGD(4)
    spec1 = convert_instance(SPECIAL_1, {i: i for i in range(1, 5)})
    spec2 = convert_instance(SPECIAL_2, {i: i for i in range(1, 5)})
    assert len(orbit_pivots([spec1], gd4)) == 4
    assert len(orbit_pivots([spec2], gd4)) == 6
    assert len(orbit_pivots([spec1, spec2], gd4)) == 10
    both = orbit_pivots(nonzero + [spec1, spec2], gd4)
    assert len(both) == 10  # same space
    found = independent_identities(residues, gd4)
    assert len(found) == 2


def kept_indices(found, residues):
    return [i for i, r in enumerate(residues) if any(f is r for f in found)]


def test_independent_identities_match_the_rank_oracle(ctx, gd4):
    """On the degree-4 residues modulo gd, as ``ambiguities`` builds them,
    the kept residues are those that raise the rank."""
    residues = [ctx.residue(a, modulo=gd4)
                for a in ctx.enumerate_ambiguities(4)]
    found = independent_identities(residues, gd4)
    assert kept_indices(found, residues) == \
        rank_kept_residues(residues, gd4)


def test_independent_identities_test_membership_on_every_lead(ctx, gd4):
    """A combination of two orbit images of a kept residue holds several
    pivot leads and lies in the span; adding a normal monomial outside
    every pivot row takes it out."""
    first = next(r for a in ctx.enumerate_ambiguities(4)
                 if (r := ctx.residue(a, modulo=gd4)))
    pivots = orbit_pivots([first], gd4)
    images = [reduce_element(img, gd4) for img in element_orbit(first)]
    combos = (one.scale(2) - two.scale(Fraction(3, 5))
              for one, two in combinations(images, 2))
    combo = next(c for c in combos if sum(t in pivots for t in c.terms) >= 2)
    in_rows = set(pivots).union(*pivots.values())
    outside = next(
        t for t in all_trees(gd4.generators, 4)
        if t not in in_rows and reduce_element(OperadElement.monomial(t), gd4)
        == OperadElement.monomial(t))
    residues = [first, combo, combo + OperadElement.monomial(outside)]
    found = independent_identities(residues, gd4)
    assert kept_indices(found, residues) == [0, 2] == \
        rank_kept_residues(residues, gd4)


def test_orbit_pivots_are_the_reduced_form_in_any_input_order(ctx, gd4):
    ambs = ctx.enumerate_ambiguities(4)
    nonzero = [r for a in ambs if not (r := ctx.residue(a)).is_zero()]
    forward = orbit_pivots(nonzero, gd4)
    assert orbit_pivots(nonzero[::-1], gd4) == forward
    assert not any(t in forward for tail in forward.values() for t in tail)


def test_trace_does_not_depend_on_the_dict_order_of_rule_tails(ctx, gd4):
    """Rule tails keep the iteration order of the elimination that made
    them, and it reaches every rewrite step; the printed steps must not
    show it."""
    flipped = GroebnerBasis(
        gd4.presentation_name, gd4.generators, gd4.order, gd4.max_arity,
        [RewriteRule(r.lead, OperadElement(
            dict(reversed(r.tail.terms.items())), r.arity), r.rid)
         for r in gd4.rules])
    other = RewriteContext(flipped)

    def traces(c):
        return [(format_monomial(a.monomial),
                 [c.trace(c.apply(a.monomial, app)) for app in (a.app1, a.app2)])
                for a in c.enumerate_ambiguities(4)]

    assert traces(other) == traces(ctx)


def test_a3_residue_is_spec1_instance(ctx, gd4):
    a, b, c, d = 3, 4, 2, 1
    pm = ctx.make_monomial([
        (ctx.var_letter(a),), (ctx.var_letter(b, 1),),
        ctx.make_chain((ctx.var_letter(c), ctx.var_letter(d, 1)))[1]])
    apps = ctx.applications(pm)
    p0 = [x for x in apps if x[0] == "P0"][0]
    pk = [x for x in apps if x[0] == "P"][0]
    res = ctx.residue(Ambiguity(pm, pk, p0))
    inst = reduce_element(
        convert_instance(SPECIAL_1, {1: a, 2: b, 3: c, 4: d}), gd4)
    assert res == inst or res == inst.scale(-1)


def test_a4_residues_are_spec2_content(ctx, gd_plus_spec1, gd_plus_spec2):
    pm = ctx.make_monomial([
        (ctx.var_letter(1),), (ctx.var_letter(2),),
        ctx.make_chain((ctx.var_letter(4, 1), ctx.var_letter(3, 1)))[1]])
    papps = [x for x in ctx.applications(pm) if x[0] == "P"]
    assert len(papps) == 4  # two absorbed factors x two bracket orientations
    flip_pairs = [(x, y) for x in papps for y in papps
                  if x < y and x[1] == y[1]]
    for x, y in flip_pairs:
        r = ctx.residue(Ambiguity(pm, x, y))
        assert not r.is_zero()
        assert reduce_element(r, gd_plus_spec2).is_zero()
        assert not reduce_element(r, gd_plus_spec1).is_zero()


def test_a5_first_type_pair_is_symmetric_and_needs_nothing_new(
        ctx, gd_plus_spec1):
    """The two first-type routes are exact mirror images under swapping the
    two absorbed letters, and their residue carries no identity beyond the
    one already produced by (A3)."""
    pm = ctx.make_monomial([
        (ctx.var_letter(1),), (ctx.var_letter(2),),
        ctx.make_chain((ctx.var_letter(4), ctx.var_letter(3, 2)))[1]])
    papps = [x for x in ctx.applications(pm) if x[0] == "P"]
    assert len(papps) == 2
    ra = ctx.apply(pm, papps[0])
    rb = ctx.apply(pm, papps[1])
    swapped = _swap_vars_poly(ctx, ra, {1: 2, 2: 1, 3: 3, 4: 4})
    assert rb == swapped
    res = ctx.residue(Ambiguity(pm, papps[0], papps[1]))
    assert reduce_element(res, gd_plus_spec1).is_zero()


def _swap_vars_poly(ctx, poly, perm):
    out = {}
    for pm, c in poly.items():
        sign = 1
        chains = []
        for ch in pm:
            letters = tuple(
                Letter(relabel_ordered(l.base,
                                       [perm[v] for v in l.base.leaves]),
                       l.order) for l in ch)
            s, nc = ctx.make_chain(letters)
            sign *= s
            chains.append(nc)
        key = ctx.make_monomial(chains)
        out[key] = out.get(key, Fraction(0)) + sign * c
    return {k: v for k, v in out.items() if v}


def family_signature(pm: PMonomial) -> tuple:
    """Shape of a monomial up to renaming letters and flipping innermost
    brackets: the multiset of (chain length, derivative placements)."""
    sigs = []
    for c in pm:
        orders = tuple(l.order for l in c)
        if len(orders) >= 2:
            orders = orders[:-2] + tuple(sorted(orders[-2:], reverse=True))
        sigs.append((len(c), orders))
    return tuple(sorted(sigs))


def test_degree5_contains_published_patterns():
    """The twelve bracket-bearing weight-(-1) degree-5 shapes all occur
    among the ambiguous monomials (the enumeration may legitimately carry
    a few extra shapes whose pairs factor through lower degrees)."""
    ctx = RewriteContext(buchberger(BUILTINS["gd"], 5))
    ambs = ctx.enumerate_ambiguities(5)
    got = {family_signature(a.monomial) for a in ambs}
    published = [
        [(1, (0,)), (4, (0, 0, 1, 0))],   # [a,[b,[c,d']]]e
        [(1, (0,)), (1, (0,)), (3, (0, 2, 0))],     # [a,[b,c'']]de
        [(1, (0,)), (1, (0,)), (3, (0, 1, 1))],     # [a,[b',c']]de
        [(1, (0,)), (1, (0,)), (3, (1, 1, 0))],     # [a',[b,c']]de
        [(1, (0,)), (1, (1,)), (3, (0, 1, 0))],     # [a,[b,c']]de'
        [(1, (0,)), (2, (1, 0)), (2, (1, 0))],      # [a,b'][c,d']e
        [(1, (0,))] * 3 + [(2, (3, 0))],            # [a,b''']cde
        [(1, (0,))] * 3 + [(2, (2, 1))],            # [a',b'']cde
        [(1, (0,)), (1, (0,)), (1, (1,)), (2, (2, 0))],  # [a,b'']cde'
        [(1, (0,)), (1, (0,)), (1, (1,)), (2, (1, 1))],  # [a',b']cde'
        [(1, (0,)), (1, (0,)), (1, (2,)), (2, (1, 0))],  # [a,b']cde''
        [(1, (0,)), (1, (1,)), (1, (1,)), (2, (1, 0))],  # [a,b']cd'e'
    ]
    for sig in published:
        assert tuple(sorted(sig)) in got, sig


# -- soundness against a concrete differential Poisson algebra ----------------

def test_rewriting_sound_in_poisson_model(ctx):
    rng = random.Random(42)
    model = PoissonModel(3, Poly({
        mono((("x", 0), 1), (("p", 1), 1)): 1,
        mono((("x", 1), 2), (("p", 2), 1)): Fraction(1, 2),
        mono((("x", 2), 1), (("p", 0), 1), (("x", 0), 1)): -1,
    }))
    assign = {}
    for v in range(1, 5):
        terms = {}
        for _ in range(2):
            m = mono(*[(var, rng.randint(0, 1)) for var in
                       [("x", rng.randrange(3)), ("p", rng.randrange(3))]])
            terms[m] = terms.get(m, 0) + Fraction(rng.randint(-2, 2))
        assign[v] = Poly(terms) + Poly.var(("x", v % 3))

    def eval_tree(t):
        if t.is_leaf:
            return assign[t.label]
        l, r = map(eval_tree, t.children)
        if t.gen == "x":
            return model.circ(l, r)
        if t.gen == "y":
            return model.circ(r, l)
        return model.bracket(l, r)

    def eval_letter(l):
        val = eval_tree(l.base)
        for _ in range(l.order):
            val = model.d(val)
        return val

    def eval_pm(pm):
        val = Poly.const(1)
        for c in pm:
            cv = eval_letter(c[-1])
            for l in reversed(c[:-1]):
                cv = model.bracket(eval_letter(l), cv)
            val = val * cv
        return val

    def eval_poly(poly):
        acc = Poly()
        for pm, c in poly.items():
            acc = acc + eval_pm(pm).scale(c)
        return acc

    checked = 0
    for n in (3, 4):
        mons = list(ctx.weight_minus_one_monomials(n))
        rng.shuffle(mons)
        for pm in mons[:15]:
            for app in ctx.applications(pm):
                assert eval_pm(pm) == eval_poly(ctx.apply(pm, app)), \
                    (format_monomial(pm), describe_app(pm, app))
                checked += 1
    assert checked > 40
    for pm in list(ctx.weight_minus_one_monomials(3))[:8]:
        assert eval_pm(pm) == eval_poly(ctx.normal_form({pm: Fraction(1)}))


def test_termination_measure_decreases(ctx):
    # exercised by the assert inside apply(); run a batch to be sure
    for n in (3, 4):
        for pm in list(ctx.weight_minus_one_monomials(n))[:40]:
            for app in ctx.applications(pm):
                before = measure(pm)
                for pm2 in ctx.apply(pm, app):
                    assert measure(pm2) < before


def test_ambiguity_display(ctx):
    amb = ctx.enumerate_ambiguities(3)[0]
    text = format_monomial(amb.monomial)
    assert "{" in text and "'" in text
    assert describe_app(amb.monomial, amb.app1)


def test_rules_preserve_weight_and_degree(ctx):
    for n in (3, 4):
        for pm in list(ctx.weight_minus_one_monomials(n))[:40]:
            w, d = monomial_weight(pm), monomial_degree(pm)
            for app in ctx.applications(pm):
                for pm2 in ctx.apply(pm, app):
                    assert monomial_weight(pm2) == w
                    assert monomial_degree(pm2) == d


def test_pure_lie_pairs_never_overlap(ctx):
    """Two L-rule applications always act on distinct factors, so pure Lie
    critical pairs are disjoint (and convergent); this is the representation-
    level content of the triviality of compositions in the differential Lie
    envelope at small degree."""
    from operadgb.diffpoisson import app_footprint
    for n in (3, 4):
        for pm in ctx.weight_minus_one_monomials(n):
            lapps = [a for a in ctx.applications(pm) if a[0] == "L"]
            for i in range(len(lapps)):
                for j in range(i + 1, len(lapps)):
                    assert not (app_footprint(lapps[i])
                                & app_footprint(lapps[j]))
