"""Acceptance suite: each test enforces one acceptance criterion at its
stated tolerance (everything here is exact arithmetic, so tolerances are
exact equalities) and prints a PASS line on success.

The arity-6 dimensions are long computations and run only when
OPERADGB_EXTENDED=1 (about 20 s for gd and 3 minutes for wsgd).
"""

import hashlib
import random
from collections import Counter
from itertools import permutations

import pytest

from operadgb.diffpoisson import (
    RewriteContext,
    classify_degree4,
    independent_identities,
    orbit_pivots,
)
from operadgb.elements import OperadElement
from operadgb.gdmodels import (
    CheckReport,
    case1_check,
    case2_envelope,
    case2_table,
    case3_envelope,
    case3_table,
    check_gd_axioms,
    classify_2dim,
    verify_embedding,
)
from operadgb.groebner import (
    buchberger,
    reduce_element,
    reduce_random,
    save_basis,
)
from operadgb.hilbert import NormalMonomials
from operadgb.presentation import (
    JACOBI,
    LEFT_SYMMETRY,
    GD_COMPAT,
    RIGHT_COMMUTATIVITY,
    SPECIAL_1,
    SPECIAL_2,
    builtin_presentations,
    convert_instance,
    shuffle_images,
    symmetric_to_shuffle,
)
from operadgb.syntax import format_element, parse_element
from operadgb.trees import all_trees

from oracles import quotient_dimension
from published_relations import (
    JACOBI_RELATION_LINE,
    MIXED_RELATION_LINES,
    NOVIKOV_RELATION_LINES,
    SPECIAL1_RELATION_LINES,
    SPECIAL2_RELATION_LINES,
)

BUILTINS = builtin_presentations()


@pytest.fixture(scope="module")
def gd5():
    return buchberger(BUILTINS["gd"], 5)


@pytest.fixture(scope="module")
def wsgd5():
    return buchberger(BUILTINS["wsgd"], 5)


@pytest.fixture(scope="module")
def gd4():
    return buchberger(BUILTINS["gd"], 4)


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_gd_dimension_table(gd5):
    """dim GD(n) = 1, 3, 17, 140, 1524 for n = 1..5, exactly."""
    dims = [NormalMonomials(gd5).count(n) for n in range(1, 6)]
    assert dims == [1, 3, 17, 140, 1524]
    report("1: dim GD(1..5) = 1, 3, 17, 140, 1524  PASS")


def basis_sha256(basis, tmp_path) -> str:
    """sha256 of the file ``save_basis`` writes, as ``gb -o`` would."""
    path = tmp_path / "saved.basis"
    save_basis(basis, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.extended
def test_criterion_1_extended_gd_dimension_6(tmp_path):
    basis = buchberger(BUILTINS["gd"], 6)
    assert basis.rule_counts()[6] == 247
    assert NormalMonomials(basis).count(6) == 20699
    assert basis_sha256(basis, tmp_path) == \
        "8f17e0b2eaaae731c324e189c39e3bf14f43b75dbd67de00b006a76e3345b5ee"
    report("1 (extended): 247 rules at arity 6, dim GD(6) = 20699  PASS")


def test_criterion_2_wsgd_dimension_table(wsgd5):
    """dim wSGD(n) = 1, 3, 17, 130, 1219 for n = 1..5, exactly."""
    dims = [NormalMonomials(wsgd5).count(n) for n in range(1, 6)]
    assert dims == [1, 3, 17, 130, 1219]
    report("2: dim wSGD(1..5) = 1, 3, 17, 130, 1219  PASS")


@pytest.mark.extended
def test_criterion_2_extended_wsgd_dimension_6(tmp_path):
    basis = buchberger(BUILTINS["wsgd"], 6)
    assert basis.rule_counts()[6] == 662
    assert NormalMonomials(basis).count(6) == 13412
    assert basis_sha256(basis, tmp_path) == \
        "8e8e42516edfe49384365ceef4d66d52100de0bcfe4d9fcdf49e50fc164b124e"
    report("2 (extended): 662 rules at arity 6, dim wSGD(6) = 13412  PASS")


def test_criterion_3_ideal_membership(gd4, wsgd5):
    """Degree-5 special identities reduce to exactly zero modulo the wsgd
    basis; the two degree-4 identities do not reduce to zero modulo gd."""
    for name in ("spec4", "spec3", "spec5"):
        for image in shuffle_images(name):
            assert reduce_element(image, wsgd5).is_zero(), name
    for name in ("spec1", "spec2"):
        images = shuffle_images(name)
        residues = [reduce_element(e, gd4) for e in images]
        assert any(not r.is_zero() for r in residues), name
        inst = convert_instance(BUILTINS and _named(name),
                                {i: i for i in range(1, 5)})
        assert not reduce_element(inst, gd4).is_zero()
    report("3: spec3/4/5 = 0 mod wsgd; spec1/2 != 0 mod gd  PASS")


def _named(name):
    from operadgb.presentation import NAMED_IDENTITIES
    return NAMED_IDENTITIES[name]


def test_criterion_4_oracle_equivalence():
    """Normal-monomial counts for lie, novikov, gd at n <= 4 equal the
    quotient dimensions computed by independent brute-force linear algebra;
    the Lie operad gives (n-1)! for n <= 6, matching the count of
    multilinear Lyndon words."""
    for name in ("lie", "novikov", "gd"):
        p = BUILTINS[name]
        basis = buchberger(p, 4)
        for n in range(1, 5):
            assert NormalMonomials(basis).count(n) == \
                quotient_dimension(p, n), (name, n)
    lie6 = buchberger(BUILTINS["lie"], 6)
    for n in range(1, 7):
        assert NormalMonomials(lie6).count(n) == _lyndon_count(n)
    report("4: oracle equivalence (lie, novikov, gd at n<=4; "
           "Lie = (n-1)! for n<=6)  PASS")


def _lyndon_count(n: int) -> int:
    """Multilinear Lyndon words on n distinct letters (brute force)."""
    count = 0
    for w in permutations(range(n)):
        if all(w < w[i:] + w[:i] for i in range(1, n)):
            count += 1
    return count


def test_criterion_5_critical_pair_rederivation(gd4, wsgd5, gd5):
    """Degree-4 ambiguities fall into exactly the five families; their
    residues span, as identities modulo the cubic relations, the rank-two
    identity space generated by the two degree-4 special identities; the
    degree-3 residues vanish; degree-5 residues vanish modulo wsgd."""
    ctx = RewriteContext(gd4)
    # degree 3: the single ambiguity family is convergent
    ambs3 = ctx.enumerate_ambiguities(3)
    assert ambs3
    for amb in ambs3:
        assert ctx.residue(amb).is_zero()
    # degree 4: exactly the five families
    ambs4 = ctx.enumerate_ambiguities(4)
    families = Counter(classify_degree4(a.monomial) for a in ambs4)
    assert set(families) == {"A1", "A2", "A3", "A4", "A5"}
    residues = [ctx.residue(a) for a in ambs4]
    nonzero = [r for r in residues if not r.is_zero()]
    assert nonzero
    # the residues generate exactly the Spec1+Spec2 identity space (rank 10
    # as a subspace of the 140-dimensional quotient at arity 4), and the
    # greedy filtration re-derives exactly two independent identities
    spec1 = convert_instance(SPECIAL_1, {i: i for i in range(1, 5)})
    spec2 = convert_instance(SPECIAL_2, {i: i for i in range(1, 5)})
    span_specs = orbit_pivots([spec1, spec2], gd4)
    span_res = orbit_pivots(nonzero, gd4)
    span_both = orbit_pivots(nonzero + [spec1, spec2], gd4)
    assert len(span_specs) == len(span_res) == len(span_both) == 10
    assert len(independent_identities(residues, gd4)) == 2
    # degree 5: everything is a consequence of the degree-4 identities
    ctx5 = RewriteContext(gd5)
    ambs5 = ctx5.enumerate_ambiguities(5)
    assert ambs5
    for amb in ambs5:
        assert ctx5.residue(amb, modulo=wsgd5).is_zero()
    report("5: degree-4 families = A1..A5, residue space = <Spec1,Spec2> "
           "(2 independent identities), degree-3 zero, degree-5 zero mod "
           "wsgd  PASS")


def test_criterion_6_confluence_suite(gd5):
    """1000 random elements of arity <= 5 reduce to identical normal forms
    under the deterministic and randomized strategies; reduce is idempotent
    on all of them."""
    rng = random.Random(2024)
    mons = {n: list(all_trees(gd5.generators, n)) for n in (2, 3, 4, 5)}
    for i in range(1000):
        n = rng.choice((2, 3, 3, 4, 4, 5, 5, 5))
        f = OperadElement(
            {m: rng.randint(-4, 4) for m in rng.sample(mons[n], 3)}, n)
        det = reduce_element(f, gd5)
        ran = reduce_random(f, gd5, rng)
        assert det == ran, i
        assert reduce_element(det, gd5) == det, i
    report("6: 1000 random elements, deterministic == randomized normal "
           "forms, reduce idempotent  PASS")


def test_criterion_7_theorem2_verification():
    """The three case constructions verify with exact arithmetic."""
    # case 2 with the normalized table and u -> x, v -> ex
    t2 = case2_table(3)
    assert check_gd_axioms(t2).passed
    assert classify_2dim(t2).case == "case2"
    rep2 = CheckReport()
    assert verify_embedding(t2, case2_envelope(3), rep2)
    # case 3 with the eight-relation Groebner basis, including the
    # derivation-bracket compatibility on normal monomials up to degree 6
    t3 = case3_table()
    assert check_gd_axioms(t3).passed
    assert classify_2dim(t3).case == "case3"
    rep3 = CheckReport()
    assert verify_embedding(t3, case3_envelope(), rep3)
    assert any("degree <= 6" in name for name, _ok, _w in rep3.checks)
    # case 1 via the bracket construction closing at derivative order 3
    from operadgb.gdmodels import GDTable
    t1 = GDTable(2, circ={(0, 0): (1, 0), (0, 1): (0, 2), (1, 0): (0, 1)},
                 bracket={(0, 1): (0, 1), (1, 0): (0, -1)})
    assert check_gd_axioms(t1).passed
    cls = classify_2dim(t1)
    assert cls.case == "case1"
    assert case1_check(cls)
    report("7: case 1 (bracket closure, order 3), case 2 (u->x, v->ex), "
           "case 3 (eight-relation basis, d{f,g} to degree 6)  PASS")


def test_criterion_8_parser_golden(gd4):
    """Every published relation string parses and canonicalizes stably;
    converting the defining identities reproduces the printed lists."""
    order = BUILTINS["gd"].order()
    gens = BUILTINS["gd"].generators
    all_lines = (NOVIKOV_RELATION_LINES + (JACOBI_RELATION_LINE,)
                 + MIXED_RELATION_LINES + SPECIAL1_RELATION_LINES
                 + SPECIAL2_RELATION_LINES)
    for line in all_lines:
        e = parse_element(line, gens)
        canonical = format_element(e, order)
        assert parse_element(canonical, gens) == e
        assert format_element(parse_element(canonical, gens), order) == canonical
    canon = lambda line: parse_element(line, gens).monic(order)
    got_nov = (symmetric_to_shuffle(LEFT_SYMMETRY)
               + symmetric_to_shuffle(RIGHT_COMMUTATIVITY))
    assert set(got_nov) == {canon(l) for l in NOVIKOV_RELATION_LINES}
    got_jac = symmetric_to_shuffle(JACOBI)
    assert got_jac == [canon(JACOBI_RELATION_LINE)]
    got_mixed = symmetric_to_shuffle(GD_COMPAT)
    assert set(got_mixed) == {canon(l) for l in MIXED_RELATION_LINES}
    report("8: published relation strings parse and round-trip; identity "
           "conversion reproduces the printed lists  PASS")
