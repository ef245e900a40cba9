import copy
import hashlib
import pickle
import random
from itertools import combinations, product

import pytest

from operadgb.elements import OperadElement
from operadgb.groebner import RewriteRule, _Reducer, overlaps
from operadgb.presentation import builtin_presentations
from operadgb.trees import (
    GeneratorSymbol,
    Tree,
    TreeError,
    all_trees,
    extensions,
    is_complete,
    leaf,
    min_increasing_blocks,
    node,
    occurrence_at,
    order_for,
    relabel_ordered,
    replace_at,
    shape_labellings,
    slot_shapes,
    substitute,
)

from oracles import covered, find_occurrences, labelled_trees

X = GeneratorSymbol("x", 2)
Y = GeneratorSymbol("y", 2)
Z = GeneratorSymbol("z", 2)
GENS = (X, Y, Z)
ORDER = order_for("pathlex", ("x", "y", "z"))


def t(gen, *kids):
    return node(gen, [leaf(k) if isinstance(k, int) else k for k in kids])


def test_arity():
    assert t("x", 1, 2).arity == 2
    assert leaf(1).arity == 1
    assert t("z", t("z", 1, 2), 3).arity == 3


def test_shuffle_condition_enforced():
    with pytest.raises(TreeError):
        t("x", 2, 1)
    with pytest.raises(TreeError):
        t("x", t("x", 2, 3), 1)
    with pytest.raises(TreeError):
        t("x", 1, 1)


def test_interning_and_equality():
    a = t("z", t("z", 1, 2), 3)
    b = t("z", t("z", 1, 2), 3)
    assert a is b
    assert a == b and hash(a) == hash(b)
    assert t("x", 1, 2) != t("y", 1, 2)


def test_copies_and_pickles_are_the_interned_tree():
    """Trees are equal exactly when identical, so every way to obtain a
    tree again must return the interned object."""
    a = t("z", t("y", 1, 3), 2)
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert copy.deepcopy({a: [a]}) == {a: [a]}
    assert pickle.loads(pickle.dumps(a)) is a
    assert pickle.loads(pickle.dumps(leaf(4))) is leaf(4)
    assert node("z", [node("y", [leaf(1), leaf(3)]), leaf(2)]) is a


def test_compare_basics():
    assert ORDER.key(leaf(1)) == ORDER.key(leaf(1))
    # single-vertex trees differing only in the generator label follow x < y < z
    assert ORDER.key(t("x", 1, 2)) < ORDER.key(t("y", 1, 2)) \
        < ORDER.key(t("z", 1, 2))


def test_total_order_on_arity3():
    mons = all_trees(GENS, 3)
    assert len(mons) == 27
    keys = [ORDER.key(m) for m in mons]
    assert len(set(keys)) == len(keys)  # total: no ties between distinct monomials
    for a, b in combinations(mons, 2):
        ka, kb = ORDER.key(a), ORDER.key(b)
        assert (ka < kb) != (kb < ka)  # antisymmetric
    ranked = sorted(mons, key=ORDER.key)
    for i in range(len(ranked) - 1):
        assert ORDER.key(ranked[i]) < ORDER.key(ranked[i + 1])  # transitive chain


@pytest.mark.parametrize("order_id", ["pathlex", "revpathlex"])
def test_below_agrees_with_the_key(order_id):
    """``below`` decides leaf by leaf what comparing the kept keys decides,
    on every pair of arity-4 monomials and on sampled arity-5 pairs."""
    order = order_for(order_id, ("x", "y", "z"))
    four = all_trees(GENS, 4)
    rng = random.Random(23)
    five = all_trees(GENS, 5)
    pairs = list(product(four, repeat=2)) + \
        [(rng.choice(five), rng.choice(five)) for _ in range(3000)]
    for a, b in pairs:
        assert order.below(a, b) == (order.key(a) < order.key(b)), (a, b)


def test_key_and_below_refuse_a_generator_the_order_does_not_cover():
    order = order_for("pathlex", ("x", "y"))
    t = node("z", [leaf(1), leaf(2)])
    u = node("x", [leaf(1), leaf(2)])
    with pytest.raises(TreeError, match="'z' not covered by order pathlex"):
        order.key(t)
    with pytest.raises(TreeError, match="'z' not covered by order pathlex"):
        order.below(t, u)


def test_enumeration_counts():
    # (2n-3)!! shapes-with-labelings per generator word over one binary generator
    only_z = (Z,)
    assert [len(all_trees(only_z, n)) for n in (1, 2, 3, 4, 5)] == [1, 1, 3, 15, 105]
    assert [len(all_trees(GENS, n)) for n in (1, 2, 3, 4)] == [1, 3, 27, 405]


BUILTINS = builtin_presentations()

# sha256 of the newline-joined texts of all_trees, in its order, which the
# benchmark's input generator samples by index
ALL_TREES_SHA256 = {
    ("novikov", 6):
        "80ec2ce2ad226de7952165effd7bc700ba514ab43f7dcc7306129c9a83045c65",
    ("gd", 5):
        "e72e29f791f5502bc8c6e4dbc98239f951c7418edce09f42affa94866178f53b",
}


@pytest.mark.parametrize("preset, top", [("gd", 5), ("novikov", 6),
                                         ("lie", 6)])
def test_all_trees_match_the_labelling_oracle(preset, top):
    gens = BUILTINS[preset].generators
    for n in range(1, top + 1):
        got = all_trees(gens, n)
        assert len(set(got)) == len(got)
        assert set(got) == set(labelled_trees(gens, n))
        for m in got:
            assert_well_formed(m)


@pytest.mark.parametrize("preset, n", sorted(ALL_TREES_SHA256))
def test_all_trees_keep_their_order(preset, n):
    text = "\n".join(map(str, all_trees(BUILTINS[preset].generators, n)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        ALL_TREES_SHA256[preset, n]


def test_find_occurrences_examples():
    pat = t("z", 1, 2)
    host = t("z", t("z", 1, 2), 3)
    occs = find_occurrences(pat, host)
    assert len(occs) == 2
    assert {o.path for o in occs} == {(), (0,)}
    assert find_occurrences(t("x", 1, 2), t("z", 1, 2)) == []
    own = find_occurrences(host, host)
    assert len(own) == 1 and own[0].path == ()


def test_occurrence_requires_order_isomorphism():
    # z(z(1 3) 2) does not divide z(z(1 2) 3): slot minima are not monotone.
    pat = t("z", t("z", 1, 3), 2)
    host = t("z", t("z", 1, 2), 3)
    assert occurrence_at(pat, host, ()) is None
    # ... but it does divide z(z(1 4) z(2 3)) at the root.
    host2 = t("z", t("z", 1, 4), t("z", 2, 3))
    occ = occurrence_at(pat, host2, ())
    assert occ is not None
    assert [s.min_leaf for s in occ.slots] == [1, 2, 4]


def test_grafting_reconstructs_host():
    host = t("z", t("x", t("z", 1, 3), 2), 4)
    for pat in (t("z", 1, 2), t("x", 1, 2), t("x", t("z", 1, 2), 3)):
        for occ in find_occurrences(pat, host):
            slots = dict(zip(pat.leaves, occ.slots))
            rebuilt = replace_at(host, occ.path, substitute(pat, slots))
            assert rebuilt == host


def test_substitute_and_relabel():
    base = t("x", 1, 2)
    m = substitute(base, {1: t("z", 1, 3), 2: leaf(2)})
    assert m == t("x", t("z", 1, 3), 2)
    assert relabel_ordered(t("z", 1, 2), (4, 7)) == t("z", 4, 7)


def assert_vertex_well_formed(m):
    """``m`` keeps the leaves and size of its children, their minima
    increase, and it is interned under its key, as the checked ``node``
    would have made it."""
    assert Tree._interned[m.gen, m.children, m.label] is m
    if m.is_leaf:
        assert m.leaves == (m.label,) and m.size == 0
        return
    assert m.leaves == tuple(sorted(l for c in m.children for l in c.leaves))
    assert m.size == 1 + sum(c.size for c in m.children)
    minima = [c.min_leaf for c in m.children]
    assert minima == sorted(set(minima))


def assert_well_formed(m):
    """Every vertex of ``m`` is well formed."""
    for c in m.children:
        assert_well_formed(c)
    assert_vertex_well_formed(m)


def test_relabel_keeps_each_vertex_well_formed():
    for m in all_trees(GENS, 4)[::5]:
        assert relabel_ordered(m, (1, 2, 3, 4)) is m
        for labels in combinations(range(1, 8), 4):
            got = relabel_ordered(m, labels[::-1])  # any order of labels
            assert got.leaves == labels
            assert_well_formed(got)
            assert relabel_ordered(got, (1, 2, 3, 4)) is m


@pytest.mark.parametrize("labels", [(101, 101, 103), (0, 102, 104),
                                    (102, 104), (102, 104, 106, 108)])
def test_a_rejected_relabel_interns_nothing(labels):
    """Repeated, zero and too few or too many labels raise before any
    vertex is built, so the intern table gains no half-built tree."""
    m = t("x", t("y", 1, 3), 2)
    before = dict(Tree._interned)
    with pytest.raises(TreeError):
        relabel_ordered(m, labels)
    assert Tree._interned == before


def test_is_complete():
    assert is_complete(t("z", t("z", 1, 2), 3))
    assert not is_complete(t("z", 1, 3))


def common_multiples(t1, t2, max_arity):
    """Distinct minimal common multiples of two leads up to ``max_arity``,
    from the completion's overlap enumerator run on two zero-tail rules."""
    r1 = RewriteRule(t1, OperadElement.zero(t1.arity), 0)
    r2 = r1 if t2 is t1 else RewriteRule(t2, OperadElement.zero(t2.arity), 1)
    rules = [r1] if r2 is r1 else [r1, r2]
    found = []
    for n in range(max(t1.arity, t2.arity), max_arity + 1):
        for m, a, _o1, b, _o2 in overlaps(_Reducer(rules, ORDER), n):
            if {a.rid, b.rid} == {r1.rid, r2.rid} and m not in found:
                found.append(m)
    return found


def brute_common_multiples(t1, t2, max_arity):
    """Oracle: scan all monomials, keep those carrying vertex-sharing,
    jointly covering occurrences of both patterns."""
    out = []
    for n in range(2, max_arity + 1):
        for m in all_trees(GENS, n):
            allv = set()
            stack = [((), m)]
            while stack:
                p, s = stack.pop()
                if not s.is_leaf:
                    allv.add(p)
                    stack.extend((p + (i,), c) for i, c in enumerate(s.children))
            hit = False
            for o1 in find_occurrences(t1, m):
                for o2 in find_occurrences(t2, m):
                    if t1 is t2 and o1.path == o2.path:
                        continue
                    v1, v2 = covered(t1, o1), covered(t2, o2)
                    if v1 & v2 and v1 | v2 == allv:
                        hit = True
            if hit:
                out.append(m)
    return out


def test_common_multiples_against_bruteforce():
    jac_lead = t("z", t("z", 1, 2), 3)
    got = common_multiples(jac_lead, jac_lead, 4)
    expected = brute_common_multiples(jac_lead, jac_lead, 4)
    assert set(got) == set(expected)
    assert got  # the classical self-overlaps of the Lie leading term exist

    mixed = common_multiples(t("x", t("z", 1, 2), 3), t("z", t("z", 1, 2), 3), 4)
    assert set(mixed) == set(brute_common_multiples(
        t("x", t("z", 1, 2), 3), t("z", t("z", 1, 2), 3), 4))


def test_common_multiples_distinct_single_vertex_generators():
    # distinct generators cannot share a vertex
    assert common_multiples(t("x", 1, 2), t("z", 1, 2), 3) == []


def test_self_overlap_symmetry_of_single_vertex_patterns():
    cx = common_multiples(t("x", 1, 2), t("x", 1, 2), 3)
    cz = common_multiples(t("z", 1, 2), t("z", 1, 2), 3)
    assert len(cx) == len(cz)


def test_extensions_are_root_divisible():
    pat = t("z", t("z", 1, 2), 3)
    exts = extensions(pat, 4, GENS)
    assert exts
    seen = set()
    for m, occ in exts:
        assert occ.path == ()
        assert occurrence_at(pat, m, ()) is not None
        assert m.arity == 4
        seen.add(m)
    assert len(seen) == len(exts)
    # oracle: every arity-4 monomial with a root occurrence shows up
    oracle = {m for m in all_trees(GENS, 4) if occurrence_at(pat, m, ()) is not None}
    assert seen == oracle


def skeleton(m):
    return None if m.is_leaf else (m.gen, tuple(map(skeleton, m.children)))


def test_shape_labellings_are_the_monomials_of_one_shape():
    for n in range(1, 6):
        by_shape = {}
        for m in all_trees(GENS, n):
            by_shape.setdefault(skeleton(m), []).append(m)
        for ms in by_shape.values():
            got = shape_labellings(ms[-1])
            assert len(set(got)) == len(got)
            assert set(got) == set(ms)


def test_slot_shapes_hang_the_pattern_below_the_host_leaves():
    jac = t("z", t("z", 1, 2), 3)
    z = ("z", (None, None))

    def shapes(host, path, pattern):
        found = slot_shapes(host, path, pattern)
        return None if found is None else [skeleton(s) for s in found]

    # the pattern's vertex over the host's leaf hangs below it; the host's
    # vertex over the pattern's leaf, and a leaf off the pattern, leave a
    # leaf
    assert shapes(jac, (0,), jac) == [z, None, None]
    assert shapes(jac, (), t("z", 1, t("x", 2, 3))) == \
        [None, None, ("x", (None, None))]
    assert shapes(t("x", t("z", 1, 2), 3), (0,), jac) == [z, None, None]
    # in the host's leaf-label order, not left to right
    assert shapes(t("z", t("z", 1, 3), 2), (0,), t("z", 1, t("x", 2, 3))) \
        == [None, None, ("x", (None, None))]
    # generators or child counts that disagree under one vertex clash
    assert shapes(jac, (), t("z", t("x", 1, 2), 3)) is None
    assert shapes(jac, (0,), t("x", 1, 2)) is None


def test_order_admissibility_under_contexts():
    """a < b implies C(a) < C(b) for any composition context, sampled."""
    rng = random.Random(7)
    mons = {n: list(all_trees(GENS, n)) for n in (2, 3)}
    for _ in range(300):
        n = rng.choice((2, 3))
        a, b = rng.sample(mons[n], 2)
        if ORDER.key(a) > ORDER.key(b):
            a, b = b, a
        host_arity = rng.choice((3, 4, 5))
        if host_arity <= n:
            continue
        hosts = all_trees(GENS, host_arity)
        host = rng.choice(hosts)
        occs = find_occurrences(a, host)
        # build a context from some embedding of an arity-n divisor shape:
        # reuse extension machinery instead: plug a and b into the same context
        for m, occ in extensions(a, host_arity, GENS)[:5]:
            ca = m
            slots = dict(zip(a.leaves, occ.slots))
            cb = replace_at(m, occ.path, substitute(b, slots))
            assert ORDER.key(ca) < ORDER.key(cb), (str(a), str(b), str(m))
        # outer contexts: compose above the root
        outer = t("z", 1, 2)
        for right in range(1, 3):
            ca = substitute(outer, {1: relabel_ordered(a, range(1, n + 1)),
                                    2: leaf(n + 1)})
            cb = substitute(outer, {1: relabel_ordered(b, range(1, n + 1)),
                                    2: leaf(n + 1)})
            assert ORDER.key(ca) < ORDER.key(cb)


def test_min_increasing_blocks():
    blocks = list(min_increasing_blocks((1, 2, 3, 4), (2, 2)))
    assert ((1, 2), (3, 4)) in blocks
    assert ((1, 3), (2, 4)) in blocks
    assert ((1, 4), (2, 3)) in blocks
    assert len(blocks) == 3
    for bs in blocks:
        assert bs[0][0] < bs[1][0]
