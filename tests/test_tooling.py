"""The benchmark tracer wraps package functions by name; a rename must
fail here rather than as failed operations in a benchmark run."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
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


SRC = Path(__file__).resolve().parent.parent / "src" / "operadgb"


def _loaded_by(module):
    """The ``operadgb`` modules a fresh interpreter holds after importing
    ``module`` alone."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*sorted("
         "m for m in sys.modules if m.startswith('operadgb.')))"],
        env=env, capture_output=True, text=True, timeout=600, check=True)
    return set(done.stdout.split())


def test_each_module_loads_only_what_it_imports():
    """The package root re-exports nothing, so importing one module does
    not load the others; ``cli`` imports every module the tracer wraps,
    which it looks up in ``sys.modules`` right after importing ``cli``."""
    assert _loaded_by("operadgb.trees") == {"operadgb.trees"}
    assert not _loaded_by("operadgb.groebner") & {
        f"operadgb.{m}" for m in ("diffpoisson", "gdmodels", "commutative",
                                  "hilbert", "cli")}
    assert {f"operadgb.{m}" for m, _path, _kind in traced_targets()} \
        <= _loaded_by("operadgb.cli")


def test_src_has_no_unused_imports():
    """Every name a module imports is read somewhere in it; annotations
    count, since they parse as names."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for stmt in ast.walk(tree):
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = stmt.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items()
                   if name not in read and name != "annotations"]
    assert not unused, unused


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def _read_names(tree):
    """Names an AST reads: bare names, attribute names and imported names."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _bound(fn):
    """The parameters of ``fn`` and every name stored inside it, nested
    scopes included: a load of one of these names in ``fn`` may be a
    local, so it does not count as reading a top-level name."""
    a = fn.args
    params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
    stored = {n.id for n in ast.walk(fn)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    declared = {name for n in ast.walk(fn) if isinstance(n, ast.Global)
                for name in n.names}
    return {p.arg for p in params if p} | stored - declared


class _FreeLoads(ast.NodeVisitor):
    """Names loaded where no enclosing function, lambda or comprehension
    binds the same name."""

    def __init__(self):
        self.bound, self.loads = [], set()

    def visit_Name(self, name):
        if isinstance(name.ctx, ast.Load) and \
                not any(name.id in b for b in self.bound):
            self.loads.add(name.id)

    def _scope(self, node, names):
        self.bound.append(names)
        self.generic_visit(node)
        self.bound.pop()

    def visit_FunctionDef(self, fn):
        self._scope(fn, _bound(fn))

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def visit_ListComp(self, comp):
        self._scope(comp, {n.id for g in comp.generators
                           for n in ast.walk(g.target)
                           if isinstance(n, ast.Name)})

    visit_SetComp = visit_DictComp = visit_GeneratorExp = visit_ListComp


def _top_level_readers(tree):
    """What reads a top-level name: a load that no local or parameter of
    the same name shadows, or an import of it."""
    visitor = _FreeLoads()
    visitor.visit(tree)
    return visitor.loads | {alias.name for n in ast.walk(tree)
                            if isinstance(n, ast.ImportFrom)
                            for alias in n.names}


def test_every_src_name_has_a_reader():
    """Each top-level name and each public method defined in
    ``src/operadgb`` is read somewhere in the package (its own definition
    aside) or by the benchmark scripts, whose tracer names its targets as
    strings.  A method is read only through an attribute of its name, and
    a top-level name only through a load that is not a same-named local or
    parameter, or an import.  Test-only code belongs in ``tests/``."""
    names = {part for _mod, path, _kind in traced_targets()
             for part in path.split(".")}
    attributes = set(names)
    defined, methods = {}, {}
    for path in sorted([*PERFBENCH.glob("*.py"), *SRC.glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attributes |= {n.attr for n in ast.walk(tree)
                       if isinstance(n, ast.Attribute)}
        if path.parent == PERFBENCH:
            names |= _top_level_readers(tree)
            continue
        for stmt in tree.body:
            own = _defined_names(stmt)
            names |= _top_level_readers(stmt) - own
            for name in own:
                defined[name] = f"{path.name}:{stmt.lineno}: {name}"
            if isinstance(stmt, ast.ClassDef):
                for method in stmt.body:
                    if isinstance(method, ast.FunctionDef) and \
                            not method.name.startswith("_"):
                        methods[method.name] = (f"{path.name}:{method.lineno}"
                                                f": {stmt.name}.{method.name}")
    unread = [where for name, where in sorted(defined.items())
              if name not in names]
    unread += [where for name, where in sorted(methods.items())
               if name not in attributes]
    assert not unread, unread


def test_integer_pairs_stay_inside_elements():
    """The normal-form memo's integer pairs are made and read only in
    ``elements``: no other module reads the names that handle them, so
    rewrite steps and normal forms stay plain maps."""
    private = {"integer_form", "fraction_terms", "memo_normal_form",
               "_combine"}
    leaks = [f"{path.name}: {name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "elements.py"
             for name in sorted(private & _read_names(
                 ast.parse(path.read_text(encoding="utf-8"))))]
    assert not leaks, leaks


def test_only_leaf_and_vertex_intern_trees():
    """``Tree._intern`` is called only by ``leaf`` and ``trees._vertex``,
    so every derived tree is interned in one place, and ``node`` checks a
    tree before handing it there."""

    class Callers(ast.NodeVisitor):
        def __init__(self, where):
            self.where, self.scope, self.found = where, [], set()

        def visit_FunctionDef(self, fn):
            self.scope.append(fn.name)
            self.generic_visit(fn)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, call):
            if isinstance(call.func, ast.Attribute) and \
                    call.func.attr == "_intern":
                self.found.add(f"{self.where}: "
                               f"{self.scope[-1] if self.scope else '<module>'}")
            self.generic_visit(call)

    callers = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = Callers(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        callers |= visitor.found
    assert callers == {"trees.py: leaf", "trees.py: _vertex"}, sorted(callers)


def test_tree_order_has_one_comparison():
    """``TreeOrder.key`` is the one encoding of the monomial order: it is
    the class's only public method, and no code outside the class reads
    the key cache or the helpers that build a key."""
    private = {"_keys", "_collect", "_letter"}

    class Readers(ast.NodeVisitor):
        def __init__(self, where):
            self.where, self.classes, self.found = where, [], set()

        def visit_ClassDef(self, cls):
            self.classes.append(cls.name)
            self.generic_visit(cls)
            self.classes.pop()

        def visit_Attribute(self, attr):
            if attr.attr in private and self.classes[-1:] != ["TreeOrder"]:
                self.found.add(f"{self.where}:{attr.lineno}: {attr.attr}")
            self.generic_visit(attr)

    methods, readers = None, set()
    tests = Path(__file__).resolve().parent
    for path in sorted([*SRC.glob("*.py"), *PERFBENCH.glob("*.py"),
                        *tests.glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visitor = Readers(path.name)
        visitor.visit(tree)
        readers |= visitor.found
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "TreeOrder":
                methods = {fn.name for fn in cls.body
                           if isinstance(fn, ast.FunctionDef)
                           and not fn.name.startswith("_")}
    assert methods == {"key"}, methods
    assert not readers, sorted(readers)


def test_only_record_sets_fields_through_object():
    """``object.__setattr__`` is called only inside ``trees.Record``, and
    no other class in ``src`` defines ``__setattr__`` or ``__delattr__``,
    so the value records share one implementation of immutability."""

    class Setters(ast.NodeVisitor):
        def __init__(self, where):
            self.where, self.classes, self.found = where, [], set()

        def visit_ClassDef(self, cls):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and \
                        fn.name in ("__setattr__", "__delattr__"):
                    self.found.add(f"{self.where}: {cls.name}.{fn.name}")
            self.classes.append(cls.name)
            self.generic_visit(cls)
            self.classes.pop()

        def visit_Call(self, call):
            func = call.func
            if isinstance(func, ast.Attribute) and \
                    func.attr == "__setattr__" and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id == "object":
                owner = self.classes[-1] if self.classes else "<module>"
                self.found.add(f"{self.where}: object.__setattr__ in {owner}")
            self.generic_visit(call)

    found = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = Setters(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= visitor.found
    assert found == {"trees.py: Record.__setattr__",
                     "trees.py: Record.__delattr__",
                     "trees.py: object.__setattr__ in Record"}, sorted(found)
