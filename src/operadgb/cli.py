"""Command-line interface.

Subcommands:

* ``gb``           complete a presentation and persist the basis
* ``dims``         print the dimension table of a saved basis
* ``reduce``       normal form / ideal membership of an element
* ``ambiguities``  critical pairs of the differential Poisson rewriting
* ``check-gd``     axioms, classification and envelope checks for a table

Exit codes: 0 success; 1 parse/usage error; 2 arity budget exceeded;
3 nonzero result where zero was asked (membership failure, axiom failure).
All outputs are deterministic given the inputs and the order id.
"""

from __future__ import annotations

import argparse
import sys

from .diffpoisson import (
    RewriteContext,
    classify_degree4,
    describe_app,
    format_monomial,
    independent_identities,
)
from .gdmodels import (
    CASE1_ORDER,
    CheckReport,
    GDModelError,
    GDTable,
    case1_check,
    case2_envelope,
    case2_table,
    case3_envelope,
    case3_table,
    check_gd_axioms,
    classify_2dim,
    verify_embedding,
)
from .groebner import (
    BudgetExceededError,
    GroebnerError,
    OrderMismatchError,
    buchberger,
    load_basis,
    reduce_element,
    save_basis,
)
from .hilbert import emit_table
from .presentation import (
    NAMED_IDENTITIES,
    builtin_presentations,
    parse_presentation,
    shuffle_images,
)
from .syntax import ParseError, format_element, parse_element
from .trees import TreeError

CI_ARITY_BUDGET = 5

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_BUDGET = 2
EXIT_NONZERO = 3


class UsageError(ValueError):
    """A bad command-line argument; it has no source position."""


def _read_text(path: str) -> str:
    """The contents of a UTF-8 text file; an undecodable one is a usage
    error that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _load_presentation(args: argparse.Namespace):
    if args.preset and args.input_path:
        raise UsageError("give --preset or --input, not both")
    if args.preset:
        builtins = builtin_presentations()
        if args.preset not in builtins:
            raise UsageError(f"unknown preset {args.preset!r}; "
                             f"known: {sorted(builtins)}")
        return builtins[args.preset]
    if not args.input_path:
        raise UsageError("need --preset or --input")
    return parse_presentation(_read_text(args.input_path))


def cmd_gb(args: argparse.Namespace) -> int:
    if args.max_arity < 1:
        raise UsageError(f"--max-arity must be positive, got {args.max_arity}")
    p = _load_presentation(args)
    if args.max_arity < p.max_relation_arity:
        raise BudgetExceededError(
            f"--max-arity {args.max_arity} below relation arity "
            f"{p.max_relation_arity}")
    if args.max_arity > CI_ARITY_BUDGET and not args.extended:
        raise BudgetExceededError(
            f"arity {args.max_arity} exceeds the default budget "
            f"{CI_ARITY_BUDGET}; pass --extended to allow it")
    basis = buchberger(p, args.max_arity, args.order_id, progress=print)
    print(f"completed {p.name} up to arity {args.max_arity} "
          f"under order {args.order_id}")
    for arity, count in sorted(basis.rule_counts().items()):
        print(f"  arity {arity}: {count} rules")
    if args.output_path:
        save_basis(basis, args.output_path)
        print(f"basis written to {args.output_path}")
    return EXIT_OK


def cmd_dims(args: argparse.Namespace) -> int:
    if args.max_arity < 0:
        raise UsageError(f"--up-to must be 0 (the basis's max arity) or "
                         f"positive, got {args.max_arity}")
    basis = load_basis(args.basis_path)
    table = emit_table(basis, args.max_arity or basis.max_arity)
    print(table.as_text())
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(table.as_rows() + "\n")
        print(f"rows written to {args.output_path}")
    return EXIT_OK


def _generators_used(t) -> set[tuple[str, int]]:
    """The generator name and child count of every vertex of ``t``."""
    return set() if t.is_leaf else {(t.gen, len(t.children))}.union(
        *map(_generators_used, t.children))


def cmd_reduce(args: argparse.Namespace) -> int:
    if args.identity and args.input_path:
        raise UsageError("give --input or --identity, not both")
    basis = load_basis(args.basis_path)
    if args.order_id and args.order_id != basis.order_id:
        raise OrderMismatchError(
            f"basis was computed under order {basis.order_id!r}, "
            f"refusing a reduction tagged {args.order_id!r}")
    if args.identity:
        if args.identity not in NAMED_IDENTITIES:
            raise UsageError(f"unknown identity {args.identity!r}; known: "
                             f"{sorted(NAMED_IDENTITIES)}")
        elems = shuffle_images(args.identity)
        label = args.identity
        used = set().union(*(_generators_used(m)
                             for e in elems for m in e.terms))
        missing = sorted(used - {(g.name, g.arity) for g in basis.generators})
        if missing:
            name, k = missing[0]
            raise UsageError(
                f"identity {label!r} uses generator {name}/{k}, not one of "
                f"the basis generators {' '.join(map(str, basis.generators))}")
    else:
        if not args.input_path:
            raise UsageError("need --input or --identity")
        lines = [l.split("#", 1)[0].strip()
                 for l in _read_text(args.input_path).splitlines()]
        elems = [parse_element(l, basis.generators, line=i + 1)
                 for i, l in enumerate(lines) if l]
        if not elems:
            # reducing nothing would read as membership of everything
            raise UsageError(f"{args.input_path}: no elements to reduce")
        label = args.input_path
    all_zero = True
    for i, e in enumerate(elems):
        nf = reduce_element(e, basis)
        tag = f"{label}[{i}]" if len(elems) > 1 else label
        if nf.is_zero():
            print(f"{tag}: 0")
        else:
            all_zero = False
            print(f"{tag}: {format_element(nf, basis.order)}")
    return EXIT_OK if all_zero else EXIT_NONZERO


def cmd_ambiguities(args: argparse.Namespace) -> int:
    n = args.degree
    if n < 3:
        raise UsageError(f"critical pairs start at degree 3, got --degree {n}")
    if n > CI_ARITY_BUDGET and not args.extended:
        raise BudgetExceededError(
            f"degree {n} exceeds the default budget; pass --extended")
    builtins = builtin_presentations()
    gd_basis = buchberger(builtins["gd"], n)
    if args.modulo == "gd":
        modulo_basis = gd_basis
    else:
        # wsgd has arity-4 relations; arities <= n do not depend on the top
        wsgd = builtins["wsgd"]
        modulo_basis = buchberger(wsgd, max(n, wsgd.max_relation_arity))
    ctx = RewriteContext(gd_basis)
    ambs = ctx.enumerate_ambiguities(n)
    nonzero = 0
    residues = []
    for amb in ambs:
        res = ctx.residue(amb, modulo=modulo_basis)
        if args.modulo == "gd":
            residues.append(res)
        fam = f" [{classify_degree4(amb.monomial)}]" if n == 4 else ""
        print(f"ambiguity{fam}: {format_monomial(amb.monomial)}  "
              f"{describe_app(amb.monomial, amb.app1)} vs "
              f"{describe_app(amb.monomial, amb.app2)}")
        if args.emit_trace:
            for route, app in (("route-1", amb.app1), ("route-2", amb.app2)):
                print(f"  {route}:")
                for line in ctx.trace(ctx.apply(amb.monomial, app)):
                    print(f"    {line}")
        if res.is_zero():
            print("  residue: 0")
        else:
            nonzero += 1
            print(f"  residue: {format_element(res, gd_basis.order)}")
    print(f"{len(ambs)} critical pairs at degree {n}; "
          f"{nonzero} nonzero residues modulo {args.modulo}")
    if args.modulo == "gd":
        found = independent_identities(residues, gd_basis)
        print(f"independent special identities found: {len(found)}")
    return EXIT_OK


def cmd_check_gd(args: argparse.Namespace) -> int:
    table = GDTable.parse(_read_text(args.input_path))
    report = check_gd_axioms(table)
    print(report.as_text())
    if not report.passed:
        print("axioms fail; no classification")
        return EXIT_NONZERO
    if table.dim != 2:
        print("axioms pass (classification implemented for dimension 2)")
        return EXIT_OK
    cls = classify_2dim(table)
    print(f"classification: {cls}")
    if cls.case == "case1":
        ok = case1_check(cls)
        print("case-1 bracket construction "
              + ("verified (Jacobi and derivation compatibility close "
                 f"at derivative order {CASE1_ORDER})" if ok else "FAILED"))
        return EXIT_OK if ok else EXIT_NONZERO
    if cls.case in ("case2", "case3"):
        if cls.case == "case2":
            model, env = case2_table(cls.alpha), case2_envelope(cls.alpha)
        else:
            model, env = case3_table(), case3_envelope()
        rep = CheckReport()
        ok = verify_embedding(model, env, rep)
        print(rep.as_text())
        print("embedding " + ("verified" if ok else "FAILED"))
        return EXIT_OK if ok else EXIT_NONZERO
    if cls.case == "novikov":
        print("pure Novikov algebra: embeds in its differential "
              "commutative envelope with the trivial bracket")
    else:
        print("pure Lie algebra: embeds in the graded Poisson algebra of "
              "its associative envelope with the zero derivation")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="operadgb",
        description="Groebner bases for shuffle operads and the "
                    "Gelfand-Dorfman dimension tables")
    sub = ap.add_subparsers(dest="command", required=True)

    gb = sub.add_parser("gb", help="complete a presentation")
    gb.set_defaults(handler=cmd_gb)
    gb.add_argument("--preset", help="builtin presentation name")
    gb.add_argument("--input", dest="input_path", help="presentation file")
    gb.add_argument("--max-arity", type=int, default=CI_ARITY_BUDGET)
    gb.add_argument("--order", dest="order_id", default="pathlex",
                    choices=("pathlex", "revpathlex"))
    gb.add_argument("-o", "--output", dest="output_path")
    gb.add_argument("--extended", action="store_true",
                    help="allow computations beyond the default budget")

    dims = sub.add_parser("dims", help="dimension table of a saved basis")
    dims.set_defaults(handler=cmd_dims)
    dims.add_argument("--basis", dest="basis_path", required=True)
    dims.add_argument("--up-to", dest="max_arity", type=int, default=0)
    dims.add_argument("-o", "--output", dest="output_path",
                      help="also write machine-readable n,dim rows")

    red = sub.add_parser("reduce", help="normal form modulo a saved basis")
    red.set_defaults(handler=cmd_reduce)
    red.add_argument("--basis", dest="basis_path", required=True)
    red.add_argument("--input", dest="input_path",
                     help="file with one element per line")
    red.add_argument("--identity",
                     help="reduce the shuffle orbit of a named identity")
    red.add_argument("--order", dest="order_id", default="",
                     help="refuse unless it matches the basis order")

    amb = sub.add_parser("ambiguities",
                         help="critical pairs of the rewriting system")
    amb.set_defaults(handler=cmd_ambiguities)
    amb.add_argument("--degree", type=int, required=True)
    amb.add_argument("--modulo", default="gd", choices=("gd", "wsgd"))
    amb.add_argument("--emit-trace", action="store_true")
    amb.add_argument("--extended", action="store_true")

    chk = sub.add_parser("check-gd", help="axioms and classification of a "
                                          "structure-constant table")
    chk.set_defaults(handler=cmd_check_gd)
    chk.add_argument("input_path", metavar="table-file")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its help (code 0) or its usage and error
        return EXIT_OK if exc.code == 0 else EXIT_PARSE
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, ParseError, TreeError, GroebnerError, GDModelError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
