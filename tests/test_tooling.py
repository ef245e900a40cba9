"""The benchmark tracer wraps package functions by name; a rename must
fail here rather than as failed operations in a benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

from operadgb.groebner import _Reducer
from operadgb.trees import order_for

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


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


def test_reducer_keeps_the_memo_the_tracer_reads():
    assert isinstance(_Reducer((), order_for("pathlex", ("x",)))._memo, dict)
