import random
from fractions import Fraction

import pytest

from operadgb.elements import (
    ElementError,
    OperadElement,
    axpy,
    echelon,
    graft_at,
    memo_normal_form,
    shuffle_compose,
)
from operadgb.groebner import buchberger
from operadgb.presentation import builtin_presentations
from operadgb.trees import (
    GeneratorSymbol,
    ShufflePartition,
    all_trees,
    find_occurrences,
    leaf,
    node,
    order_for,
)

GENS = (GeneratorSymbol("x", 2), GeneratorSymbol("y", 2), GeneratorSymbol("z", 2))
ORDER = order_for("pathlex", ("x", "y", "z"))


def t(gen, *kids):
    return node(gen, [leaf(k) if isinstance(k, int) else k for k in kids])


def mono(tree, c=1):
    return OperadElement.monomial(tree, c)


def test_add_basics():
    f = mono(t("x", 1, 2))
    zero = OperadElement.zero(2)
    assert f + zero == f
    assert (f + f.scale(-1)).is_zero()
    assert f + f == f.scale(2)
    with pytest.raises(ElementError):
        f + mono(t("z", t("z", 1, 2), 3))


def test_canonicalization_drops_zeros():
    f = OperadElement({t("x", 1, 2): Fraction(0), t("y", 1, 2): Fraction(1, 2)})
    assert len(f) == 1 and f.coeff(t("y", 1, 2)) == Fraction(1, 2)
    with pytest.raises(ElementError):
        OperadElement({t("x", 1, 2): 1, leaf(1): 1})


def test_leading_and_monic():
    f = mono(t("x", 1, 2), 2) + mono(t("z", 1, 2), 4)
    assert f.leading_monomial(ORDER) == t("z", 1, 2)
    g = f.monic(ORDER)
    assert g.leading_coeff(ORDER) == 1
    assert g.coeff(t("x", 1, 2)) == Fraction(1, 2)


def test_compose_identity_axiom():
    rng = random.Random(3)
    mons = all_trees(GENS, 3)
    f = mono(rng.choice(mons)) + mono(rng.choice(mons), -2)
    pi = ShufflePartition(((1,), (2,), (3,)))
    args = [mono(leaf(1))] * 3
    assert shuffle_compose(f, pi, args) == f
    # and composing the identity with f
    pi2 = ShufflePartition(((1, 2, 3),))
    assert shuffle_compose(mono(leaf(1)), pi2, [f]) == f


def test_compose_definition_unfolding():
    f = mono(t("z", 1, 2))
    pi = ShufflePartition(((1, 2), (3,)))
    got = shuffle_compose(f, pi, [mono(t("z", 1, 2)), mono(leaf(1))])
    assert got == mono(t("z", t("z", 1, 2), 3))


def test_compose_associativity_spot_check():
    # two composition routes to the same arity-4 element agree
    zz = mono(t("z", 1, 2))
    one = mono(leaf(1))
    # route 1: first graft g onto f with interleaved labels, then deepen
    a = shuffle_compose(zz, ShufflePartition(((1, 3), (2,))), [zz, one])
    assert a == mono(t("z", t("z", 1, 3), 2))
    route1 = shuffle_compose(a, ShufflePartition(((1, 3), (2,), (4,))),
                             [zz, one, one])
    # route 2: deepen the first argument before grafting onto f
    c = shuffle_compose(zz, ShufflePartition(((1, 2), (3,))), [zz, one])
    route2 = shuffle_compose(zz, ShufflePartition(((1, 3, 4), (2,))), [c, one])
    expected = mono(t("z", t("z", t("z", 1, 3), 4), 2))
    assert route1 == route2 == expected


def test_compose_bilinearity_sampled():
    rng = random.Random(11)
    mons2 = all_trees(GENS, 2)
    partitions = [ShufflePartition(((1, 2), (3, 4))),
                  ShufflePartition(((1, 3), (2, 4))),
                  ShufflePartition(((1, 4), (2, 3)))]
    for _ in range(40):
        f1 = mono(rng.choice(mons2), rng.randint(1, 3))
        f2 = mono(rng.choice(mons2), rng.randint(-3, -1))
        g = mono(rng.choice(mons2), rng.choice((1, 2, -1)))
        h = mono(rng.choice(mons2))
        pi = rng.choice(partitions)
        left = shuffle_compose(f1 + f2, pi, [g, h])
        right = (shuffle_compose(f1, pi, [g, h])
                 + shuffle_compose(f2, pi, [g, h]))
        assert left == right
        assert shuffle_compose(f1, pi, [g + g, h]) == \
            shuffle_compose(f1, pi, [g, h]).scale(2)


def test_graft_at_identity_and_linearity():
    host = t("z", t("z", 1, 2), 3)
    pat = t("z", 1, 2)
    occs = find_occurrences(pat, host)
    for occ in occs:
        assert graft_at(host, occ, mono(pat)) == mono(host)
        assert graft_at(host, occ, OperadElement.zero(2)).is_zero()
        two = graft_at(host, occ, mono(pat, 2))
        assert two == mono(host, 2)


def test_graft_matches_compose():
    # replacing the root divisor z(1 2) of z(z(1 2) 3) by z(1 z(2 3))'s shape
    host = t("z", t("z", 1, 2), 3)
    occ = [o for o in find_occurrences(t("z", 1, 2), host) if o.path == ()][0]
    repl = mono(t("z", 1, 2))  # graft back the same: identity
    assert graft_at(host, occ, repl) == mono(host)
    # now replace with the other association and check against a direct composition
    repl2 = mono(t("z", 1, 2), -1)
    direct = shuffle_compose(repl2, ShufflePartition(((1, 2), (3,))),
                             [mono(t("z", 1, 2)), mono(leaf(1))])
    assert graft_at(host, occ, repl2) == direct


def test_echelon_compares_by_equality_and_only_reads_its_input():
    """Commutative monomials are plain tuples: rows built separately hold
    equal but distinct key objects, which the kernel must treat as one.
    ``echelon`` copies its rows and the reduced form it extends, although
    back-substitution changes the extended form's tails."""
    from copy import deepcopy

    from operadgb.commutative import mono_key

    def fresh(*pairs):
        return tuple([tuple(p) for p in pairs])

    rows = [{fresh(("a", 2)): Fraction(2), fresh(("b", 1)): Fraction(1)},
            {fresh(("a", 2)): Fraction(4), fresh(("b", 1)): Fraction(2)}]
    assert rows[0].keys() == rows[1].keys()
    assert all(k is not j for k in rows[0] for j in rows[1])
    rows_before = deepcopy(rows)
    reduced = echelon(rows, mono_key)
    assert reduced == {fresh(("a", 2)): {fresh(("b", 1)): Fraction(1, 2)}}
    assert rows == rows_before
    reduced_before = deepcopy(reduced)
    more = [{fresh(("b", 1)): Fraction(3), fresh(("a", 1)): Fraction(3)}]
    assert echelon(more, mono_key, reduced) == {
        fresh(("a", 2)): {fresh(("a", 1)): Fraction(-1, 2)},
        fresh(("b", 1)): {fresh(("a", 1)): Fraction(1)}}
    assert reduced == reduced_before
    assert more == [{fresh(("b", 1)): Fraction(3), fresh(("a", 1)): Fraction(3)}]


def test_axpy_cancels_and_keeps_fractions():
    acc = {"a": Fraction(1), "b": Fraction(1, 2)}
    assert axpy(acc, {"a": 1, "c": 2}, -1) is acc
    assert acc == {"b": Fraction(1, 2), "c": Fraction(-2)}
    assert all(type(v) is Fraction for v in acc.values())


def test_axpy_with_zero_scale_stores_nothing():
    acc = {"a": Fraction(1)}
    assert axpy(acc, {"a": Fraction(-1), "b": Fraction(2)}, 0) is acc
    assert acc == {"a": Fraction(1)}
    assert axpy({}, {"b": Fraction(2)}, Fraction(0)) == {}


def test_axpy_without_scale_stores_fractions_from_ints():
    acc = axpy({}, {"a": 3, "b": -1})
    assert acc == {"a": 3, "b": -1}
    assert all(type(v) is Fraction for v in acc.values())
    # reduce_row divides stored values; an int would make that a float
    assert type(acc["a"] / 2) is Fraction


def test_axpy_never_mutates_terms():
    """The reducer's memoized normal forms are added into rows by
    reference, so they must come out of every reduction unchanged."""
    basis = buchberger(builtin_presentations()["novikov"], 4)
    reducer = basis.reducer
    f = OperadElement({m: Fraction(i % 5 - 2) for i, m in
                       enumerate(all_trees(basis.generators, 4))}, 4)
    first = reducer.nf_terms(f.terms)
    snapshot = {m: (den, dict(nf)) for m, (den, nf) in reducer._memo.items()}
    assert reducer.nf_terms(f.terms) == first
    assert reducer.nf_terms(f.scale(3).terms) == OperadElement(first, 4).scale(3).terms
    assert {m: (den, dict(nf)) for m, (den, nf) in reducer._memo.items()} \
        == snapshot


def test_memo_normal_form_is_linear_and_steps_each_monomial_once():
    """n -> (n-1) + (n-2) for n >= 2 has normal form fib(n)*[1] +
    fib(n-1)*[0]; the memo makes it one step per monomial."""
    calls = []

    def step(n):
        calls.append(n)
        return (1, {n - 1: 1, n - 2: 1}) if n >= 2 else None

    memo: dict = {}
    assert memo_normal_form(30, step, memo) == (1, {1: 832040, 0: 514229})
    assert sorted(calls) == list(range(31))
    assert memo_normal_form(20, step, memo) == (1, {1: 6765, 0: 4181})
    assert len(calls) == 31


def test_memo_normal_form_deep_chain_and_cycle():
    chain = memo_normal_form(5000, lambda n: (1, {n - 1: 2}) if n else None, {})
    assert chain == (1, {0: 2 ** 5000})
    with pytest.raises(ValueError, match="does not terminate"):
        memo_normal_form(0, lambda n: (1, {1 - n: 1}), {})
