"""The benchmark tracer wraps package functions by name; a rename must
fail here rather than as failed operations in a benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

from operadgb import groebner
from operadgb.groebner import _Reducer, buchberger
from operadgb.presentation import builtin_presentations
from operadgb.trees import all_trees, iter_positions, order_for, subtree_at

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACED = PERFBENCH / "traced.py"


def traced_targets():
    for stmt in ast.parse(TRACED.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"no TARGETS list in {TRACED}")


def test_traced_targets_resolve():
    targets = traced_targets()
    assert targets
    for mod_name, path, kind in targets:
        owner = importlib.import_module(f"operadgb.{mod_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"operadgb.{mod_name}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"operadgb.{mod_name}.{path}"
        if kind == "gen":
            assert inspect.isgeneratorfunction(owner), f"{mod_name}.{path}"


def test_benchmark_imports_resolve():
    """Every name the benchmark's input generator and output checks import
    from the package exists, so removing one fails here and not in set-up."""
    seen = 0
    for script in ("gen_inputs.py", "checks.py"):
        tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.module and \
                    stmt.module.split(".")[0] == "operadgb":
                owner = importlib.import_module(stmt.module)
                for alias in stmt.names:
                    assert hasattr(owner, alias.name), \
                        f"{script}: {stmt.module}.{alias.name}"
                    seen += 1
    assert seen


def test_reducer_keeps_the_memo_the_tracer_reads():
    assert isinstance(_Reducer((), order_for("pathlex", ("x",)))._memo, dict)


def test_reducer_matches_through_the_module_global(monkeypatch):
    """The tracer counts ``trees.occurrence_at`` by replacing the name in
    ``groebner``; the reducer must look it up there, once per trie
    candidate at most."""
    basis = buchberger(builtin_presentations()["gd"], 4)
    reducer = _Reducer(basis.rules, basis.order)
    monomials = all_trees(basis.generators, 4)[::7]
    candidates = sum(len(reducer.candidates(subtree_at(m, p)))
                     for m in monomials for p in iter_positions(m))
    calls = []
    real = groebner.occurrence_at

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "occurrence_at", counted)
    for m in monomials:
        list(reducer.occurrences(m))
    assert 0 < len(calls) <= candidates


def test_buchberger_eliminates_through_the_module_global(monkeypatch):
    """The tracer reads ``groebner.echelon_rows`` and ``new_rules`` from
    its wrapper of ``groebner._echelon``: one call per stratum, whose
    result holds exactly the stratum's new rules."""
    results = []
    real = groebner._echelon

    def counted(vectors, order):
        results.append(real(vectors, order))
        return results[-1]

    monkeypatch.setattr(groebner, "_echelon", counted)
    basis = buchberger(builtin_presentations()["gd"], 5)
    assert [len(r) for r in results] == list(basis.rule_counts().values())
    assert basis.rule_counts() == {3: 10, 4: 9, 5: 31}
