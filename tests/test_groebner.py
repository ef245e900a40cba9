import random

import pytest

from operadgb.elements import OperadElement, integer_form
from operadgb.groebner import (
    BasisFormatError,
    BudgetExceededError,
    RewriteRule,
    _Reducer,
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
from operadgb.hilbert import NormalMonomials, count_normal_monomials, emit_table
from operadgb.presentation import builtin_presentations, shuffle_images
from operadgb.trees import (
    GeneratorSymbol,
    all_trees,
    find_occurrences,
    iter_positions,
    leaf,
    node,
    order_for,
)

from oracles import covered, quotient_dimension, scanned_overlaps

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
    assert [count_normal_monomials(lie6, n) for n in range(1, 7)] == \
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


def test_dimensions_match_bruteforce_oracle():
    """Normal-monomial counts agree with quotient dimensions computed by
    independent linear algebra over the full monomial basis."""
    for name in ("lie", "novikov", "gd"):
        p = BUILTINS[name]
        basis = buchberger(p, 4)
        for n in range(1, 5):
            assert count_normal_monomials(basis, n) == quotient_dimension(p, n), \
                (name, n)


def test_wsgd_dimension_drop_at_arity4():
    gd = buchberger(BUILTINS["gd"], 4)
    ws = buchberger(BUILTINS["wsgd"], 4)
    assert count_normal_monomials(gd, 4) == 140
    assert count_normal_monomials(ws, 4) == 130


def test_dimension_monotone_under_more_relations():
    gd = buchberger(BUILTINS["gd"], 4)
    ws = buchberger(BUILTINS["wsgd"], 4)
    for n in range(1, 5):
        assert count_normal_monomials(ws, n) <= count_normal_monomials(gd, n)


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
        assert [count_normal_monomials(basis, n) for n in (3, 4)] == [17, 140]


def test_normal_monomials_are_normal(gd4):
    for t in NormalMonomials(gd4).level(4):
        assert gd4.reducer.find_divisor(t) is None
    # and the reducible ones are exactly the complement
    total = len(all_trees(gd4.generators, 4))
    assert total - count_normal_monomials(gd4, 4) == \
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
    assert count_normal_monomials(loaded, 4) == 140


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
        assert count_normal_monomials(ws, n) == count_normal_monomials(gd, n)


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


# -- the overlap enumerator against a scan of every extension ----------------

def assert_overlaps_match_scan(basis, K):
    """The stratum-K overlaps of ``basis``'s rules below arity K: the same
    unordered keys as the brute-force scan, none twice, each pair of
    occurrences sharing a vertex and covering the monomial.  Returns the
    number of overlaps."""
    reducer = _Reducer([r for r in basis.rules if r.arity < K], basis.order)

    def keys(found):
        return [(m, frozenset({(r1.rid, o1.path), (r2.rid, o2.path)}))
                for m, r1, o1, r2, o2 in found]

    found = list(overlaps(reducer, K))
    got = keys(found)
    assert len(set(got)) == len(got)
    assert set(got) == set(keys(scanned_overlaps(reducer, K,
                                                 basis.generators)))
    for m, r1, o1, r2, o2 in found:
        assert m.arity == K
        v1, v2 = covered(r1.lead, o1), covered(r2.lead, o2)
        assert v1 & v2
        assert v1 | v2 == set(iter_positions(m))
    return len(got)


def test_overlaps_match_scan_in_every_stratum(gd5, wsgd5, novikov6, lie6):
    counts = {basis.presentation_name: [
        assert_overlaps_match_scan(basis, K)
        for K in range(3, basis.max_arity + 1)]
        for basis in (gd5, wsgd5, novikov6, lie6)}
    assert counts == {"gd": [0, 44, 179], "wsgd": [0, 44, 388],
                      "novikov": [0, 26, 110, 380],
                      "lie": [0, 1, 0, 0]}


@pytest.mark.extended
def test_overlaps_match_scan_at_arity6(gd5, wsgd5):
    assert assert_overlaps_match_scan(gd5, 6) == 1160
    assert assert_overlaps_match_scan(wsgd5, 6) == 4034
