"""Run one operadgb command in-process with its module functions wrapped.

    python3 perfbench/traced.py TRACE.json -- <operadgb arguments>

The command runs through ``operadgb.cli.main`` exactly as the console
command would; its output and exit code are unchanged.  Before it runs,
the functions listed in ``TARGETS`` are replaced, in their module and in
every module that imported them by name, by wrappers that record:

* ``span``: one span per call (name, start, end, parent span), kept in
  memory and written out at the end;
* ``timed``: a call counter plus summed time (the hot inner functions);
* ``gen``: the same for a generator, timing each step it takes;
* ``count``: a call counter only, for functions too hot to time.

Every span and timed call also keeps the time of the wrapped calls made
directly inside it, so each function's self time is its own time minus
that of its children.  ``TRACE.json`` gets the spans, the per-function
calls, total and self times, and the counters below.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from operadgb import cli  # noqa: E402

clock = time.perf_counter

# (module, attribute path, kind)
TARGETS = [
    ("groebner", "buchberger", "span"),
    ("groebner", "_echelon", "span"),
    ("groebner", "_stratum_spolys", "gen"),
    ("groebner", "_Reducer.nf_terms", "timed"),
    ("groebner", "reduce_element", "timed"),
    ("groebner", "load_basis", "span"),
    ("groebner", "validate_interreduced", "span"),
    ("groebner", "save_basis", "span"),
    ("trees", "extensions", "timed"),
    ("trees", "occurrence_at", "timed"),
    ("trees", "node", "count"),
    ("elements", "graft_at", "timed"),
    ("syntax", "parse_element", "timed"),
    ("syntax", "parse_monomial", "timed"),
    ("syntax", "format_element", "timed"),
    ("hilbert", "emit_table", "span"),
    ("hilbert", "NormalMonomials._root_reducible", "count"),
    ("diffpoisson", "RewriteContext.enumerate_ambiguities", "span"),
    ("diffpoisson", "RewriteContext.residue", "span"),
    ("diffpoisson", "RewriteContext.normal_form", "timed"),
    ("diffpoisson", "RewriteContext.apply", "timed"),
    ("diffpoisson", "RewriteContext.pm_key", "count"),
    ("diffpoisson", "independent_identities", "span"),
    ("gdmodels", "check_gd_axioms", "span"),
    ("gdmodels", "classify_2dim", "span"),
    ("gdmodels", "verify_embedding", "span"),
    ("gdmodels", "case1_check", "span"),
    ("commutative", "reduce_poly", "timed"),
]

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.origin = clock()
        # frame = [time of wrapped children, span id or None, name]
        self.stack: list[list] = [[0.0, None, ROOT]]
        self.functions: dict[str, list] = {}   # name -> [calls, total, self]
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self.open_spans: list[int] = []
        self.memo_sizes: dict[int, int] = {}
        self.distinct_rewritten: set = set()
        self.last_spoly = None

    def open_span(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({
            "id": sid, "name": name,
            "parent": self.open_spans[-1] if self.open_spans else None,
            "start_s": clock() - self.origin, "end_s": None})
        self.open_spans.append(sid)
        return sid

    def close_span(self, sid: int) -> None:
        self.spans[sid]["end_s"] = clock() - self.origin
        self.open_spans.pop()

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self.stack)


T = Tracer()


def wrap_call(name, fn, span, before=None, after=None):
    stats = T.functions.setdefault(name, [0, 0.0, 0.0])
    stack = T.stack

    def wrapper(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        frame = [0.0, T.open_span(name) if span else None, name]
        stack.append(frame)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            stack.pop()
            stack[-1][0] += dt
            stats[0] += 1
            stats[1] += dt
            stats[2] += dt - frame[0]
            if span:
                T.close_span(frame[1])
        if after is not None:
            after(args, result)
        return result
    return wrapper


def wrap_gen(name, fn, on_item):
    stats = T.functions.setdefault(name, [0, 0.0, 0.0])
    stack = T.stack
    done = object()

    def wrapper(*args, **kwargs):
        stats[0] += 1
        it = fn(*args, **kwargs)
        while True:
            frame = [0.0, None, name]
            stack.append(frame)
            t0 = clock()
            try:
                item = next(it, done)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stats[1] += dt
                stats[2] += dt - frame[0]
            if item is done:
                return
            on_item(item)
            yield item
    return wrapper


def wrap_count(name, fn):
    counters = T.counters

    def wrapper(*args, **kwargs):
        counters[name] += 1
        return fn(*args, **kwargs)
    return wrapper


# -- hooks that turn calls into the counters the benchmark reports ----------

C = T.counters


def echelon_before(args, kwargs):
    def rows(vectors):
        for vec in vectors:
            C["groebner.echelon_rows"] += 1
            C["groebner.echelon_terms"] += len(vec)
            yield vec
    return (rows(args[0]),) + args[1:], kwargs


def echelon_after(args, result):
    C["groebner.new_rules"] += len(result)


def spoly_item(spoly):
    C["groebner.spolys"] += 1
    if spoly.is_zero():
        C["groebner.spolys_zero"] += 1
        T.last_spoly = None
    else:
        T.last_spoly = spoly.terms


def nf_terms_after(args, result):
    reducer, terms = args[0], args[1]
    serial = reducer.__dict__.setdefault("_trace_serial", len(T.memo_sizes))
    T.memo_sizes[serial] = len(reducer._memo)
    if terms is T.last_spoly:
        T.last_spoly = None
        if not result:
            C["groebner.spolys_zero"] += 1


def apply_before(args, kwargs):
    # a rewrite step of the deterministic strategy, not the first step of
    # a critical pair's route
    if T.stack[-1][2] == "diffpoisson.RewriteContext.normal_form":
        C["diffpoisson.rewrite_steps"] += 1
        T.distinct_rewritten.add(args[1])
    return args, kwargs


def buchberger_before(args, kwargs):
    if T.inside("diffpoisson.independent_identities"):
        C["diffpoisson.independent_completions"] += 1
    return args, kwargs


def ambiguities_after(args, result):
    C["diffpoisson.critical_pairs"] += len(result)


HOOKS = {
    "groebner._echelon": (echelon_before, echelon_after),
    "groebner._Reducer.nf_terms": (None, nf_terms_after),
    "groebner.buchberger": (buchberger_before, None),
    "diffpoisson.RewriteContext.apply": (apply_before, None),
    "diffpoisson.RewriteContext.enumerate_ambiguities":
        (None, ambiguities_after),
}


def install() -> None:
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "operadgb" or k.startswith("operadgb.")]
    for mod_name, path, kind in TARGETS:
        owner = sys.modules[f"operadgb.{mod_name}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        orig = getattr(owner, attr)
        name = f"{mod_name}.{path}"
        if kind == "count":
            new = wrap_count(name, orig)
        elif kind == "gen":  # _stratum_spolys, the only generator target
            new = wrap_gen(name, orig, spoly_item)
        else:
            before, after = HOOKS.get(name, (None, None))
            new = wrap_call(name, orig, kind == "span", before, after)
        setattr(owner, attr, new)
        if outer:
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    trace_path, argv = sys.argv[1], sys.argv[3:]
    install()
    root = T.open_span(ROOT)
    t0 = clock()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    wall = clock() - t0
    T.close_span(root)
    sys.stdout.flush()
    T.functions[ROOT] = [1, wall, wall - T.stack[0][0]]
    counters = dict(T.counters)
    counters["groebner.nf_memo_entries"] = sum(T.memo_sizes.values())
    counters["diffpoisson.distinct_rewritten"] = len(T.distinct_rewritten)
    report = {
        "argv": argv,
        "exit_code": rc,
        "wall_s": wall,
        "functions": {name: {"calls": c, "total_s": tot, "self_s": own}
                      for name, (c, tot, own) in sorted(T.functions.items())},
        "counters": dict(sorted(counters.items())),
        "spans": T.spans,
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
