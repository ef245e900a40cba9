"""The integer kernels of ``elements`` against their Fraction oracles.

``memo_normal_form`` keeps each normal form as a primitive integer pair and
``echelon`` eliminates fraction-free over integer rows; both must give
exactly what the Fraction versions in ``oracles`` give, on the rows of
every stratum of the four presets and on constructed hard cases.
"""

import random
from copy import deepcopy
from fractions import Fraction
from math import gcd

import pytest

from operadgb.diffpoisson import RewriteContext
from operadgb.elements import (
    echelon,
    fraction_terms,
    graft_at,
    integer_form,
    memo_normal_form,
)
from operadgb.groebner import _Reducer, _stratum_rows, buchberger, reduce_element
from operadgb.presentation import (
    SPECIAL_1,
    SPECIAL_2,
    builtin_presentations,
    convert_instance,
    element_orbit,
)
from operadgb.trees import all_trees

from oracles import fraction_echelon, fraction_memo_normal_form

BUILTINS = builtin_presentations()
PRESETS = {"gd": 5, "wsgd": 5, "novikov": 6, "lie": 6}


@pytest.fixture(scope="module")
def bases():
    return {name: buchberger(BUILTINS[name], n) for name, n in PRESETS.items()}


def assert_primitive_memo(memo):
    """Every memo value is ``(den, {monomial: int})`` with ``den >= 1``,
    no zero numerator and ``gcd(den, *nums) == 1``."""
    for m, (den, nums) in memo.items():
        assert type(den) is int and den >= 1, m
        assert all(type(v) is int and v for v in nums.values()), m
        assert gcd(den, *nums.values()) == 1, m


def fraction_step(reducer):
    """The reducer's one rewrite step over Fraction tails."""
    def step(m):
        div = reducer.find_divisor(m)
        if div is None:
            return None
        rule, occ = div
        return graft_at(m, occ, rule.tail).terms
    return step


def oracle_nf(terms, step, memo):
    acc: dict = {}
    for t, c in terms.items():
        for u, v in fraction_memo_normal_form(t, step, memo).items():
            s = acc.get(u, Fraction(0)) + c * v
            if s:
                acc[u] = s
            else:
                acc.pop(u, None)
    return acc


def test_every_stratum_matches_the_fraction_kernels(bases):
    """For each stratum of the four presets: the memoized normal forms,
    the rows and their echelon form agree with the Fraction oracles, and
    the echelon form is the basis' own rules at that arity."""
    strata = 0
    for name, basis in bases.items():
        order = basis.order
        relations = BUILTINS[name].relations_by_arity()
        for K in range(min(relations), basis.max_arity + 1):
            reducer = _Reducer([r for r in basis.rules if r.arity < K], order)
            rows = _stratum_rows(reducer, K, relations.get(K, ()))
            assert_primitive_memo(reducer._memo)
            step, memo = fraction_step(reducer), {}
            for m, pair in reducer._memo.items():
                assert fraction_terms(*pair) == \
                    fraction_memo_normal_form(m, step, memo), (name, K, m)
            pivots = echelon(rows, order.key)
            assert pivots == fraction_echelon(rows, order.key), (name, K)
            assert pivots == {r.lead: {t: -c for t, c in r.tail.terms.items()}
                              for r in basis.rules if r.arity == K}
            strata += 1
    assert strata == 3 + 3 + 4 + 4


def test_normal_forms_of_random_elements_match_the_oracle(bases):
    rng = random.Random(12)
    for name, basis in bases.items():
        reducer = _Reducer(basis.rules, basis.order)
        step, memo = fraction_step(reducer), {}
        for n in range(3, basis.max_arity + 1):
            monomials = all_trees(basis.generators, n)
            for _ in range(3):
                terms = {m: Fraction(rng.randint(-2 ** 70, 2 ** 70),
                                     rng.choice((1, 2, 3, 7, 2 ** 65 + 1)))
                         for m in rng.sample(monomials, min(25, len(monomials)))}
                got = reducer.nf_terms(terms)
                assert got == oracle_nf(terms, step, memo), (name, n)
                assert all(type(v) is Fraction for v in got.values())
        assert_primitive_memo(reducer._memo)


def test_rewrite_context_normal_forms_match_the_oracle(bases):
    ctx = RewriteContext(bases["gd"])
    memo: dict = {}
    for amb in ctx.enumerate_ambiguities(4):
        for app in (amb.app1, amb.app2):
            start = ctx.apply(amb.monomial, app)
            assert ctx.normal_form(start) == oracle_nf(start, ctx.step, memo)
    assert_primitive_memo(ctx._nf_memo)


def test_memo_normal_form_keeps_denominators_primitive():
    """n -> (n-1)/2 + (n-2)/3: the pairs carry the denominators, and
    every memo value stays primitive."""
    def step(n):
        return (6, {n - 1: 3, n - 2: 2}) if n >= 2 else None

    def fraction_step_(n):
        return {n - 1: Fraction(1, 2), n - 2: Fraction(1, 3)} if n >= 2 else None

    memo: dict = {}
    den, nums = memo_normal_form(40, step, memo)
    assert fraction_terms(den, nums) == \
        fraction_memo_normal_form(40, fraction_step_, {})
    assert den > 2 ** 40
    assert_primitive_memo(memo)
    # a step whose terms cancel gives the zero pair
    cancel = memo_normal_form(
        "a", lambda m: (2, {"b": 1, "c": -1}) if m == "a" else
        ((1, {"d": 1}) if m in "bc" else None), {})
    assert cancel == (1, {})


def test_integer_form_is_primitive():
    assert integer_form({"a": Fraction(1, 6), "b": Fraction(-3, 4)}) == \
        (12, {"a": 2, "b": -9})
    assert integer_form({"a": 4, "b": -6}) == (1, {"a": 4, "b": -6})
    assert integer_form({}) == (1, {})


def random_rows(rng, columns, count, width, big):
    rows = []
    for _ in range(count):
        row = {}
        for c in rng.sample(columns, width):
            num = rng.randint(-big, big) or 1
            row[c] = Fraction(num, rng.choice((1, 1, 2, 5, big + 3)))
        rows.append(row)
    return rows


@pytest.mark.parametrize("big", [9, 2 ** 64 + 13, 2 ** 130])
def test_echelon_matches_oracle_on_large_and_negative_coefficients(big):
    rng = random.Random(big)
    columns = [f"c{i:02d}" for i in range(30)]
    key = columns.index
    height = 0
    for count in (5, 12, 40):
        rows = random_rows(rng, columns, count, 6, big)
        before = deepcopy(rows)
        got = echelon(rows, key)
        assert got == fraction_echelon(rows, key)
        assert rows == before
        # integer rows, ints only, carry the same span
        ints = [integer_form(row)[1] for row in rows]
        assert echelon(ints, key) == got
        height = max([height] + [max(abs(v.numerator), v.denominator)
                                 for tail in got.values()
                                 for v in tail.values()])
    assert (height > 2 ** 64) == (big > 2 ** 64)


def test_echelon_with_contents_that_do_not_cancel():
    """Rows whose entries share a large content: b*r - a*p keeps a common
    factor that only the content division removes."""
    rng = random.Random(5)
    columns = list(range(12))
    key = lambda c: -c  # noqa: E731 - column 0 is the greatest
    base = random_rows(rng, columns, 8, 5, 50)
    rows = [{c: v * content for c, v in row.items()}
            for row, content in zip(base, (6, 2 ** 70, 10, 3 ** 50, 1, 15,
                                           2 ** 64 * 3, 7))]
    got = echelon(rows, key)
    assert got == fraction_echelon(rows, key) == fraction_echelon(base, key)
    # two rows with equal leads and contents 6 and 10
    pair = [{0: 6, 1: 12, 2: 18}, {0: 10, 1: 10, 3: 20}]
    assert echelon(pair, key) == fraction_echelon(pair, key) == {
        0: {2: Fraction(-3), 3: Fraction(4)},
        1: {2: Fraction(3), 3: Fraction(-2)}}


def test_echelon_extends_a_reduced_form_like_orbit_pivots(bases):
    """The ``reduced`` argument as ``orbit_pivots`` uses it: the orbit of
    one special identity extends the reduced form of the other's, and the
    result equals the oracle's and the form of both orbits at once."""
    gd = bases["gd"]
    key = gd.order.key

    def orbit_rows(rel):
        return [reduce_element(img, gd).terms
                for img in element_orbit(convert_instance(
                    rel, {i: i for i in range(1, rel.nvars + 1)}))]

    first, second = orbit_rows(SPECIAL_1), orbit_rows(SPECIAL_2)
    reduced = echelon(first, key)
    assert reduced == fraction_echelon(first, key)
    snapshot = deepcopy(reduced)
    extended = echelon(second, key, reduced)
    assert reduced == snapshot
    assert extended == fraction_echelon(second, key, reduced)
    assert extended == echelon(first + second, key)
    assert len(extended) > len(reduced)

