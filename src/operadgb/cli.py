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
from dataclasses import dataclass

from .diffpoisson import (
    RewriteContext,
    classify_degree4,
    describe_app,
    format_monomial,
    independent_identities,
)
from .gdmodels import (
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


@dataclass
class RunConfig:
    command: str
    preset: str | None = None
    input_path: str | None = None
    basis_path: str | None = None
    output_path: str | None = None
    max_arity: int = CI_ARITY_BUDGET
    degree: int = 4
    order_id: str = "pathlex"
    modulo: str = "gd"
    identity: str | None = None
    emit_trace: bool = False
    extended: bool = False


def _load_presentation(cfg: RunConfig):
    if cfg.preset:
        builtins = builtin_presentations()
        if cfg.preset not in builtins:
            raise ParseError(f"unknown preset {cfg.preset!r}; "
                             f"known: {sorted(builtins)}", 0, 0)
        return builtins[cfg.preset]
    if not cfg.input_path:
        raise ParseError("need --preset or --input", 0, 0)
    with open(cfg.input_path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def cmd_gb(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    p = _load_presentation(cfg)
    if cfg.max_arity < p.max_relation_arity:
        raise BudgetExceededError(
            f"--max-arity {cfg.max_arity} below relation arity "
            f"{p.max_relation_arity}")
    if cfg.max_arity > CI_ARITY_BUDGET and not cfg.extended:
        raise BudgetExceededError(
            f"arity {cfg.max_arity} exceeds the default budget "
            f"{CI_ARITY_BUDGET}; pass --extended to allow it")
    basis = buchberger(p, cfg.max_arity, cfg.order_id,
                       progress=lambda msg: print(msg, file=out))
    print(f"completed {p.name} up to arity {cfg.max_arity} "
          f"under order {cfg.order_id}", file=out)
    for arity, count in sorted(basis.rule_counts().items()):
        print(f"  arity {arity}: {count} rules", file=out)
    if cfg.output_path:
        save_basis(basis, cfg.output_path)
        print(f"basis written to {cfg.output_path}", file=out)
    return EXIT_OK


def cmd_dims(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    basis = load_basis(cfg.basis_path)
    up_to = cfg.max_arity if cfg.max_arity else basis.max_arity
    up_to = min(up_to, basis.max_arity)
    table = emit_table(basis, up_to)
    print(table.as_text(), file=out)
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(table.as_rows() + "\n")
        print(f"rows written to {cfg.output_path}", file=out)
    return EXIT_OK


def cmd_reduce(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    basis = load_basis(cfg.basis_path)
    if cfg.order_id and cfg.order_id != basis.order_id:
        raise OrderMismatchError(
            f"basis was computed under order {basis.order_id!r}, "
            f"refusing a reduction tagged {cfg.order_id!r}")
    if cfg.identity:
        if cfg.identity not in NAMED_IDENTITIES:
            raise ParseError(f"unknown identity {cfg.identity!r}; known: "
                             f"{sorted(NAMED_IDENTITIES)}", 0, 0)
        elems = shuffle_images(cfg.identity)
        label = cfg.identity
    else:
        if not cfg.input_path:
            raise ParseError("need --input or --identity", 0, 0)
        with open(cfg.input_path, encoding="utf-8") as fh:
            lines = [l.split("#", 1)[0].strip() for l in fh.read().splitlines()]
        elems = [parse_element(l, basis.generators, line=i + 1)
                 for i, l in enumerate(lines) if l]
        label = cfg.input_path
    all_zero = True
    for i, e in enumerate(elems):
        nf = reduce_element(e, basis)
        tag = f"{label}[{i}]" if len(elems) > 1 else label
        if nf.is_zero():
            print(f"{tag}: 0", file=out)
        else:
            all_zero = False
            print(f"{tag}: {format_element(nf, basis.order)}", file=out)
    return EXIT_OK if all_zero else EXIT_NONZERO


def cmd_ambiguities(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    n = cfg.degree
    if n > CI_ARITY_BUDGET and not cfg.extended:
        raise BudgetExceededError(
            f"degree {n} exceeds the default budget; pass --extended")
    builtins = builtin_presentations()
    if cfg.modulo not in ("gd", "wsgd"):
        raise ParseError(f"--modulo must be gd or wsgd, got {cfg.modulo!r}", 0, 0)
    gd_basis = buchberger(builtins["gd"], n)
    modulo_basis = gd_basis if cfg.modulo == "gd" \
        else buchberger(builtins["wsgd"], n)
    ctx = RewriteContext(gd_basis)
    ambs = ctx.enumerate_ambiguities(n)
    nonzero = 0
    residues = []
    for amb in ambs:
        res = ctx.residue(amb, modulo=modulo_basis)
        if cfg.modulo == "gd":
            residues.append(res)
        fam = f" [{classify_degree4(amb.monomial)}]" if n == 4 else ""
        print(f"ambiguity{fam}: {format_monomial(amb.monomial)}  "
              f"{describe_app(amb.monomial, amb.app1)} vs "
              f"{describe_app(amb.monomial, amb.app2)}", file=out)
        if cfg.emit_trace:
            for route, app in (("route-1", amb.app1), ("route-2", amb.app2)):
                print(f"  {route}:", file=out)
                for line in ctx.trace(ctx.apply(amb.monomial, app)):
                    print(f"    {line}", file=out)
        if res.is_zero():
            print("  residue: 0", file=out)
        else:
            nonzero += 1
            print(f"  residue: {format_element(res, gd_basis.order)}", file=out)
    print(f"{len(ambs)} critical pairs at degree {n}; "
          f"{nonzero} nonzero residues modulo {cfg.modulo}", file=out)
    if cfg.modulo == "gd":
        found = independent_identities(residues, gd_basis)
        print(f"independent special identities found: {len(found)}", file=out)
    return EXIT_OK


def cmd_check_gd(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    with open(cfg.input_path, encoding="utf-8") as fh:
        table = GDTable.parse(fh.read())
    report = check_gd_axioms(table)
    print(report.as_text(), file=out)
    if not report.passed:
        print("axioms fail; no classification", file=out)
        return EXIT_NONZERO
    if table.dim != 2:
        print("axioms pass (classification implemented for dimension 2)",
              file=out)
        return EXIT_OK
    cls = classify_2dim(table)
    print(f"classification: {cls}", file=out)
    if cls.case == "case1":
        ok = case1_check(cls, max_order=3)
        print("case-1 bracket construction "
              + ("verified (Jacobi and derivation compatibility close "
                 "at derivative order 3)" if ok else "FAILED"), file=out)
        return EXIT_OK if ok else EXIT_NONZERO
    if cls.case == "case2":
        rep = CheckReport()
        ok = verify_embedding(case2_table(cls.alpha),
                              case2_envelope(cls.alpha), 6, rep)
        print(rep.as_text(), file=out)
        print("embedding " + ("verified" if ok else "FAILED"), file=out)
        return EXIT_OK if ok else EXIT_NONZERO
    if cls.case == "case3":
        rep = CheckReport()
        ok = verify_embedding(case3_table(), case3_envelope(), 6, rep)
        print(rep.as_text(), file=out)
        print("embedding " + ("verified" if ok else "FAILED"), file=out)
        return EXIT_OK if ok else EXIT_NONZERO
    if cls.case == "novikov":
        print("pure Novikov algebra: embeds in its differential "
              "commutative envelope with the trivial bracket", file=out)
    else:
        print("pure Lie algebra: embeds in the graded Poisson algebra of "
              "its associative envelope with the zero derivation", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="operadgb",
        description="Groebner bases for shuffle operads and the "
                    "Gelfand-Dorfman dimension tables")
    sub = ap.add_subparsers(dest="command", required=True)

    gb = sub.add_parser("gb", help="complete a presentation")
    gb.add_argument("--preset", help="builtin presentation name")
    gb.add_argument("--input", dest="input_path", help="presentation file")
    gb.add_argument("--max-arity", type=int, default=CI_ARITY_BUDGET)
    gb.add_argument("--order", dest="order_id", default="pathlex",
                    choices=("pathlex", "revpathlex"))
    gb.add_argument("-o", "--output", dest="output_path")
    gb.add_argument("--extended", action="store_true",
                    help="allow computations beyond the default budget")

    dims = sub.add_parser("dims", help="dimension table of a saved basis")
    dims.add_argument("--basis", dest="basis_path", required=True)
    dims.add_argument("--up-to", dest="max_arity", type=int, default=0)
    dims.add_argument("-o", "--output", dest="output_path",
                      help="also write machine-readable n,dim rows")

    red = sub.add_parser("reduce", help="normal form modulo a saved basis")
    red.add_argument("--basis", dest="basis_path", required=True)
    red.add_argument("--input", dest="input_path",
                     help="file with one element per line")
    red.add_argument("--identity",
                     help="reduce the shuffle orbit of a named identity")
    red.add_argument("--order", dest="order_id", default="",
                     help="refuse unless it matches the basis order")

    amb = sub.add_parser("ambiguities",
                         help="critical pairs of the rewriting system")
    amb.add_argument("--degree", type=int, required=True)
    amb.add_argument("--modulo", default="gd", choices=("gd", "wsgd"))
    amb.add_argument("--emit-trace", action="store_true")
    amb.add_argument("--extended", action="store_true")

    chk = sub.add_parser("check-gd", help="axioms and classification of a "
                                          "structure-constant table")
    chk.add_argument("input_path", metavar="table-file")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command)
    for field_name in ("preset", "input_path", "basis_path", "output_path",
                       "max_arity", "degree", "order_id", "modulo",
                       "identity", "emit_trace", "extended"):
        if hasattr(args, field_name):
            value = getattr(args, field_name)
            if value is not None:
                setattr(cfg, field_name, value)
    handlers = {
        "gb": cmd_gb,
        "dims": cmd_dims,
        "reduce": cmd_reduce,
        "ambiguities": cmd_ambiguities,
        "check-gd": cmd_check_gd,
    }
    try:
        return handlers[cfg.command](cfg)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, TreeError, GroebnerError, GDModelError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
