import hashlib
import random

import pytest

from operadgb import groebner
from operadgb.elements import OperadElement, integer_form
from operadgb.groebner import (
    BasisFormatError,
    BudgetExceededError,
    RewriteRule,
    _Reducer,
    _checksum,
    _echelon,
    _spoly,
    _stratum_spolys,
    buchberger,
    load_basis,
    overlaps,
    reduce_element,
    reduce_random,
    save_basis,
    validate_interreduced,
)
from operadgb.hilbert import NormalMonomials, emit_table
from operadgb.presentation import builtin_presentations, shuffle_images
from operadgb.trees import (
    GeneratorSymbol,
    Tree,
    all_trees,
    iter_positions,
    leaf,
    node,
    order_for,
    relabel_ordered,
)

from oracles import (
    covered,
    find_occurrences,
    quotient_dimension,
    scanned_overlaps,
    token_list_parse_element,
    token_list_parse_monomial,
)
from test_trees import assert_vertex_well_formed

BUILTINS = builtin_presentations()


@pytest.fixture(scope="module")
def lie6():
    return buchberger(BUILTINS["lie"], 6)


@pytest.fixture(scope="module")
def gd4():
    return buchberger(BUILTINS["gd"], 4)


@pytest.fixture(scope="module")
def gd5():
    return buchberger(BUILTINS["gd"], 5)


@pytest.fixture(scope="module")
def wsgd5():
    return buchberger(BUILTINS["wsgd"], 5)


@pytest.fixture(scope="module")
def novikov6():
    return buchberger(BUILTINS["novikov"], 6)


def s_polynomials(r1, r2, max_arity, basis):
    """S-polynomials of one pair of rules up to ``max_arity``, from the
    completion's overlap enumerator run on just these rules."""
    rules = [r1] if r1 is r2 else [r1, r2]
    out = []
    for K in range(max(r1.arity, r2.arity), max_arity + 1):
        for m, a, o1, b, o2 in overlaps(_Reducer(rules, basis.order), K):
            if {a.rid, b.rid} == {r1.rid, r2.rid}:
                out.append(_spoly(m, a, o1, b, o2))
    return out


def test_lie_is_complete_with_jacobi_alone(lie6):
    assert lie6.rule_counts() == {3: 1}
    assert [NormalMonomials(lie6).count(n) for n in range(1, 7)] == \
        [1, 1, 2, 6, 24, 120]


def test_lie_jacobi_self_spolys_reduce_to_zero(lie6):
    rule = lie6.rules[0]
    spolys = s_polynomials(rule, rule, 4, lie6)
    assert spolys  # the classical overlaps exist
    for s in spolys:
        assert reduce_element(s, lie6).is_zero()


def test_spoly_count_symmetric(gd4):
    r1, r2 = gd4.rules[0], gd4.rules[6]
    a = s_polynomials(r1, r2, 4, gd4)
    b = s_polynomials(r2, r1, 4, gd4)
    assert len(a) == len(b)


def test_relations_reduce_to_zero(gd4):
    for rel in BUILTINS["gd"].relations:
        assert reduce_element(rel, gd4).is_zero()


def test_reduce_rule_element_to_zero(gd4):
    for rule in gd4.rules[:8]:
        assert reduce_element(
            OperadElement.monomial(rule.lead) - rule.tail, gd4).is_zero()


def test_reduce_idempotent_and_graded(gd4):
    rng = random.Random(5)
    mons = all_trees(gd4.generators, 4)
    for _ in range(25):
        f = OperadElement(
            {m: rng.randint(-4, 4) for m in rng.sample(mons, 3)}, 4)
        nf = reduce_element(f, gd4)
        assert reduce_element(nf, gd4) == nf
        for t in nf.terms:
            assert gd4.reducer.find_divisor(t) is None


def test_every_interned_tree_is_well_formed(gd5, wsgd5, novikov6):
    """Trees derived from others (overlaps, grafts, reductions and
    enumeration) are interned without ``node``'s checks; after completing
    and reducing, every tree in the intern table must still be one the
    checked ``node`` would have built."""
    rng = random.Random(20)
    for basis in (gd5, wsgd5, novikov6):
        mons = all_trees(basis.generators, basis.max_arity)
        for _ in range(20):
            reduce_element(OperadElement(
                {m: rng.randint(1, 4) for m in rng.sample(mons, 3)},
                basis.max_arity), basis)
    for name in ("spec1", "spec2", "spec3", "spec4", "spec5"):
        for e in shuffle_images(name):
            reduce_element(e, gd5)
            reduce_element(e, wsgd5)
    for key, t in list(Tree._interned.items()):
        assert key == (t.gen, t.children, t.label)
        assert_vertex_well_formed(t)


def test_dimensions_match_bruteforce_oracle():
    """Normal-monomial counts agree with quotient dimensions computed by
    independent linear algebra over the full monomial basis."""
    for name in ("lie", "novikov", "gd"):
        p = BUILTINS[name]
        basis = buchberger(p, 4)
        for n in range(1, 5):
            assert NormalMonomials(basis).count(n) == quotient_dimension(p, n), \
                (name, n)


def test_wsgd_dimension_drop_at_arity4():
    gd = buchberger(BUILTINS["gd"], 4)
    ws = buchberger(BUILTINS["wsgd"], 4)
    assert NormalMonomials(gd).count(4) == 140
    assert NormalMonomials(ws).count(4) == 130


def test_dimension_monotone_under_more_relations():
    gd = buchberger(BUILTINS["gd"], 4)
    ws = buchberger(BUILTINS["wsgd"], 4)
    for n in range(1, 5):
        assert NormalMonomials(ws).count(n) <= NormalMonomials(gd).count(n)


def test_interreduced_invariant(gd4):
    validate_interreduced(gd4)


def test_emit_table(gd4):
    table = emit_table(gd4, 4)
    assert table.entries == {1: 1, 2: 3, 3: 17, 4: 140}
    assert table.as_rows().splitlines()[0] == "1,1"
    assert "140" in table.as_text()
    with pytest.raises(BudgetExceededError):
        emit_table(gd4, 5)


def test_order_invariance_of_dimensions():
    for order_id in ("pathlex", "revpathlex"):
        basis = buchberger(BUILTINS["gd"], 4, order_id=order_id)
        assert [NormalMonomials(basis).count(n) for n in (3, 4)] == [17, 140]


def test_normal_monomials_are_normal(gd4):
    for t in NormalMonomials(gd4).level(4):
        assert gd4.reducer.find_divisor(t) is None
    # and the reducible ones are exactly the complement
    total = len(all_trees(gd4.generators, 4))
    assert total - NormalMonomials(gd4).count(4) == \
        sum(1 for t in all_trees(gd4.generators, 4)
            if gd4.reducer.find_divisor(t) is not None)


def test_spec1_nonzero_mod_gd(gd4):
    images = shuffle_images("spec1")
    residues = [reduce_element(e, gd4) for e in images]
    assert any(not r.is_zero() for r in residues)


def test_church_rosser_random_strategies(gd4):
    rng = random.Random(17)
    mons = all_trees(gd4.generators, 4)
    for _ in range(30):
        f = OperadElement(
            {m: rng.randint(-3, 3) for m in rng.sample(mons, 3)}, 4)
        det = reduce_element(f, gd4)
        ran = reduce_random(f, gd4, rng)
        assert det == ran


def test_budget_errors(gd4):
    five = OperadElement.monomial(
        node("z", [node("z", [node("z", [node("z", [leaf(1), leaf(2)]),
                                         leaf(3)]), leaf(4)]), leaf(5)]))
    with pytest.raises(BudgetExceededError):
        reduce_element(five, gd4)
    with pytest.raises(BudgetExceededError):
        buchberger(BUILTINS["wsgd"], 3)


def test_save_load_roundtrip(tmp_path, gd4):
    path = tmp_path / "gd4.basis"
    save_basis(gd4, str(path))
    loaded = load_basis(str(path))
    assert loaded.presentation_name == gd4.presentation_name
    assert loaded.order_id == gd4.order_id
    assert loaded.max_arity == gd4.max_arity
    assert {(r.lead, r.tail) for r in loaded.rules} == \
        {(r.lead, r.tail) for r in gd4.rules}
    assert NormalMonomials(loaded).count(4) == 140


FIXTURES = ("gd5", "lie6", "novikov6", "wsgd5")


@pytest.mark.parametrize("name", FIXTURES)
def test_load_save_is_byte_identical(name, tmp_path, request):
    """A loaded basis saves to the bytes it was loaded from."""
    basis = request.getfixturevalue(name)
    path, again = tmp_path / "saved.basis", tmp_path / "again.basis"
    save_basis(basis, str(path))
    save_basis(load_basis(str(path)), str(again))
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name", ["gd5", "wsgd5"])
def test_checksum_is_hashlib_sha256(name, tmp_path, request):
    """The saved checksum is hashlib's SHA-256 of the header lines before
    it and the rules, joined by newlines, whichever module supplies it."""
    path = tmp_path / "saved.basis"
    save_basis(request.getfixturevalue(name), str(path))
    lines = path.read_text().splitlines()
    want = hashlib.sha256("\n".join(lines[:6] + lines[7:]).encode())
    assert _checksum(lines[:6], lines[7:]) == want.hexdigest()
    assert lines[6] == f"checksum: {want.hexdigest()}"


@pytest.mark.parametrize("name", FIXTURES)
def test_load_matches_the_token_list_parser(name, tmp_path, request):
    """Every loaded rule has the lead of the saved one, the very same tree,
    and a tail with the same trees and coefficients, as the token-list
    parser reads them from the file and as the completion made them."""
    basis = request.getfixturevalue(name)
    path = tmp_path / "saved.basis"
    save_basis(basis, str(path))
    loaded = load_basis(str(path))
    made = {r.lead: r for r in basis.rules}
    lines = path.read_text().splitlines()[7:]
    assert len(lines) == len(loaded.rules) == len(basis.rules)
    for line, rule in zip(lines, loaded.rules):
        lead_text, tail_text = line.split(" ", 1)[1].split(" => ")
        assert rule.lead is token_list_parse_monomial(lead_text, basis.generators)
        if tail_text != "0":
            tail = token_list_parse_element(tail_text, basis.generators)
            # trees are equal only when identical, so equal dicts have
            # the very same tail trees
            assert rule.tail.terms == tail.terms
        assert rule.tail.terms == made[rule.lead].tail.terms


def test_load_rejects_tampered_file(tmp_path, gd4):
    path = tmp_path / "gd4.basis"
    save_basis(gd4, str(path))
    text = path.read_text()
    lines = text.splitlines()
    lines[8] = lines[8].replace("1*", "2*", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(BasisFormatError):
        load_basis(str(path))


def test_load_rejects_edited_header(tmp_path):
    # a basis completed to arity 4 must not load claiming arity 5
    ws4 = buchberger(BUILTINS["wsgd"], 4)
    path = tmp_path / "wsgd4.basis"
    save_basis(ws4, str(path))
    text = path.read_text()
    assert "max_arity: 4\n" in text
    path.write_text(text.replace("max_arity: 4\n", "max_arity: 5\n"))
    with pytest.raises(BasisFormatError, match="checksum"):
        load_basis(str(path))


def test_load_rejects_v1_file(tmp_path, gd4):
    path = tmp_path / "gd4.basis"
    save_basis(gd4, str(path))
    lines = path.read_text().splitlines()
    lines[0] = "operadgb-basis v1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(BasisFormatError, match="re-run `gb`"):
        load_basis(str(path))


def test_load_reports_an_unknown_order_as_a_bad_header_field(tmp_path, gd4):
    """An unknown order under a checksum that matches it is a format
    error, found before the rules are parsed, not a bare TreeError."""
    path = tmp_path / "gd4.basis"
    save_basis(gd4, str(path))
    lines = path.read_text().splitlines()
    lines[2] = "order: sideways"
    lines[7] = "3 not a rule"
    lines[6] = f"checksum: {_checksum(lines[:6], lines[7:])}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(BasisFormatError, match=r"^bad header field 'order': "
                       r"unknown order id 'sideways'"):
        load_basis(str(path))


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.basis"
    path.write_text("not a basis\n")
    with pytest.raises(BasisFormatError):
        load_basis(str(path))


def test_spolys_empty_without_overlap(gd4):
    # no common multiple fits below the leads' own arity
    r = gd4.rules[0]
    assert s_polynomials(r, r, r.arity, gd4) == []


def test_wsgd_equals_gd_up_to_arity3():
    gd = buchberger(BUILTINS["gd"], 4)
    ws = buchberger(BUILTINS["wsgd"], 4)
    for n in (1, 2, 3):
        assert NormalMonomials(ws).count(n) == NormalMonomials(gd).count(n)


def test_echelon_independent_of_input_order(gd4):
    """The arity-4 stratum of GD: permuting the reduced S-polynomial vectors
    gives the same reduced echelon form, whose leads are the basis' rules;
    so does every row scaled to its integer numerators."""
    order = gd4.order
    rules3 = [r for r in gd4.rules if r.arity == 3]
    reducer = _Reducer(rules3, order)
    vectors = [reducer.nf_terms(s.terms)
               for s in _stratum_spolys(reducer, 4)]
    vectors = [v for v in vectors if v]
    pivots = _echelon(vectors, order)
    assert set(pivots) == {r.lead for r in gd4.rules if r.arity == 4}
    rng = random.Random(3)
    for _ in range(3):
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        assert _echelon(shuffled, order) == pivots
    assert _echelon([integer_form(v)[1] for v in vectors], order) == pivots


# -- the lead index against a brute-force scan -----------------------------

def scan_occurrences(rules, order, m):
    """Every (rule, occurrence) in ``m`` by pre-order position, then rule
    order (arity, lead key, rid), found by trying every rule everywhere."""
    ranked = sorted(rules, key=lambda r: (r.arity, order.key(r.lead), r.rid))
    position = {p: i for i, p in enumerate(iter_positions(m))}
    found = [(position[occ.path], rank, rule, occ)
             for rank, rule in enumerate(ranked)
             for occ in find_occurrences(rule.lead, m)]
    found.sort(key=lambda f: f[:2])
    return [(rule, occ) for _pos, _rank, rule, occ in found]


def assert_index_matches_scan(rules, order, monomials):
    reducer = _Reducer(rules, order)
    hits = 0
    for m in monomials:
        expected = scan_occurrences(rules, order, m)
        assert list(reducer.occurrences(m)) == expected, m
        hits += len(expected)
    assert hits  # the scan must not be vacuous


def test_lead_index_matches_scan_up_to_arity4(gd5, wsgd5):
    for basis in (gd5, wsgd5):
        monomials = [m for n in range(2, 5)
                     for m in all_trees(basis.generators, n)]
        assert_index_matches_scan(basis.rules, basis.order, monomials)


def test_lead_index_matches_scan_at_arity5(gd5, wsgd5):
    rng = random.Random(41)
    for basis in (gd5, wsgd5, buchberger(BUILTINS["novikov"], 5)):
        sample = rng.sample(all_trees(basis.generators, 5), 300)
        assert_index_matches_scan(basis.rules, basis.order, sample)


def test_memoized_divisor_is_the_first_occurrence(gd5, wsgd5):
    """``find_divisor`` keeps one divisor per subtree and moves a child's
    down to the child; it must still be the first occurrence in pre-order
    and rule order.  Normal forms modulo a completed basis do not depend on
    the divisor chosen, so only a direct comparison shows a wrong one."""
    for basis in (gd5, wsgd5):
        reducer = _Reducer(basis.rules, basis.order)
        threes = all_trees(basis.generators, 3)
        # arity 6 with two arity-3 children, which can both be reducible
        pairs = [node(g.name, [relabel_ordered(a, (1, 3, 4)),
                               relabel_ordered(b, (2, 5, 6))])
                 for g in basis.generators for a in threes for b in threes]
        for m in pairs + [m for n in range(2, 6)
                          for m in all_trees(basis.generators, n)[::3]]:
            assert reducer.find_divisor(m) == \
                next(reducer.occurrences(m), None)


def test_lead_index_with_leaf_children_on_either_side():
    """Leads with a bare leaf left or right of the root, two leads with
    one skeleton, a lead that also occurs inside other leads, and one lead
    under two rule ids."""
    gens = (GeneratorSymbol("x", 2), GeneratorSymbol("y", 2))
    order = order_for("pathlex", ("x", "y"))

    def t(gen, *kids):
        return node(gen, [leaf(k) if isinstance(k, int) else k for k in kids])

    leads = [t("x", 1, t("y", 2, 3)), t("x", t("y", 1, 2), 3),
             t("x", t("y", 1, 3), 2), t("y", 1, 2),
             t("y", t("x", 1, 2), t("x", 3, 4)), t("x", 1, t("y", 2, 3))]
    rules = [RewriteRule(lead, OperadElement.zero(lead.arity), rid)
             for rid, lead in zip((7, 3, 5, 9, 1, 2), leads)]
    monomials = [m for n in range(2, 6) for m in all_trees(gens, n)]
    assert_index_matches_scan(rules, order, monomials)


# -- the overlap enumerator against a scan of every monomial -----------------

def assert_overlaps_match_scan(basis, K, scanned=None):
    """The stratum-K overlaps of ``basis``'s rules below arity K: the same
    unordered keys as the brute-force scan (``scanned``, when it was
    already run on those rules), none twice, each pair of occurrences
    sharing a vertex and covering the monomial.  Returns the number of
    overlaps."""
    reducer = _Reducer([r for r in basis.rules if r.arity < K], basis.order)
    if scanned is None:
        scanned = scanned_overlaps(reducer, K, basis.generators)

    def keys(found):
        return [(m, frozenset({(r1.rid, o1.path), (r2.rid, o2.path)}))
                for m, r1, o1, r2, o2 in found]

    found = list(overlaps(reducer, K))
    got = keys(found)
    assert len(set(got)) == len(got)
    assert set(got) == set(keys(scanned))
    for m, r1, o1, r2, o2 in found:
        assert m.arity == K
        v1, v2 = covered(r1.lead, o1), covered(r2.lead, o2)
        assert v1 & v2
        assert v1 | v2 == set(iter_positions(m))
    return len(got)


@pytest.fixture(scope="module")
def scanned_bases():
    """gd 5, wsgd 5, novikov 6 and lie 6 completed with ``overlaps``
    replaced by the brute-force scan, so that a wrong enumerator shows up
    in the comparisons below as named missing or extra overlaps, not as a
    failure to build the bases they compare on.  Also returns each
    stratum's scan, keyed by (name, K): the completion ran it on the rules
    of the finished basis below K."""
    bases, scans = {}, {}

    def scan(reducer, K, name):
        scans[name, K] = list(scanned_overlaps(reducer, K,
                                               BUILTINS[name].generators))
        return scans[name, K]

    with pytest.MonkeyPatch.context() as mp:
        for name, top in (("gd", 5), ("wsgd", 5), ("novikov", 6), ("lie", 6)):
            mp.setattr(groebner, "overlaps",
                       lambda reducer, K, name=name: scan(reducer, K, name))
            bases[name] = buchberger(BUILTINS[name], top)
    return bases, scans


def test_scanned_overlaps_complete_to_the_same_bases(
        scanned_bases, gd5, wsgd5, novikov6, lie6):
    for basis in (gd5, wsgd5, novikov6, lie6):
        scanned = scanned_bases[0][basis.presentation_name]
        assert [(r.lead, r.tail) for r in scanned.rules] == \
            [(r.lead, r.tail) for r in basis.rules]


def test_overlaps_match_scan_in_every_stratum(scanned_bases):
    bases, scans = scanned_bases
    counts = {name: [assert_overlaps_match_scan(basis, K, scans[name, K])
                     for K in range(3, basis.max_arity + 1)]
              for name, basis in bases.items()}
    assert counts == {"gd": [0, 44, 179], "wsgd": [0, 44, 388],
                      "novikov": [0, 26, 110, 380],
                      "lie": [0, 1, 0, 0]}


@pytest.mark.extended
def test_overlaps_match_scan_at_arity6(scanned_bases):
    bases, _scans = scanned_bases
    assert assert_overlaps_match_scan(bases["gd"], 6) == 1160
    assert assert_overlaps_match_scan(bases["wsgd"], 6) == 4034
