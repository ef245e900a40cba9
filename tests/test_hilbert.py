import pytest

from operadgb.groebner import BudgetExceededError, buchberger
from operadgb.hilbert import NormalMonomials, emit_table
from operadgb.presentation import builtin_presentations
from operadgb.trees import all_trees

BUILTINS = builtin_presentations()


@pytest.fixture(scope="module")
def lie5():
    return buchberger(BUILTINS["lie"], 5)


def test_lie_table_factorials(lie5):
    table = emit_table(lie5, 5)
    assert [table.entries[n] for n in range(1, 6)] == [1, 1, 2, 6, 24]


def test_entry_one_at_arity_one(lie5):
    assert NormalMonomials(lie5).count(1) == 1


def test_bottom_up_matches_filtering(lie5):
    # the bottom-up enumeration agrees with filtering all monomials
    for n in (2, 3, 4):
        normals = set(NormalMonomials(lie5).level(n))
        filtered = {m for m in all_trees(lie5.generators, n)
                    if lie5.reducer.find_divisor(m) is None}
        assert normals == filtered


def test_table_text_and_rows(lie5):
    table = emit_table(lie5, 4)
    text = table.as_text()
    assert "lie" in text and "pathlex" in text
    assert table.as_rows() == "1,1\n2,1\n3,2\n4,6"


def test_out_of_range(lie5):
    with pytest.raises(BudgetExceededError):
        NormalMonomials(lie5).count(6)
