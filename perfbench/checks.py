"""Correctness checks on the outputs of the benchmarked commands.

Each check compares an output with the paper, a known formula or a
property the method must have; none compares with a stored copy of an
earlier output.  A check gets the command line as its tag, the exit code,
the printed text and the run's context (``work`` directory and ``seed``),
and returns a list of ``(name, ok, detail)``.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

from operadgb.elements import OperadElement, shuffle_compose
from operadgb.groebner import load_basis, reduce_random
from operadgb.presentation import builtin_presentations, permute_element, shuffle_images
from operadgb.syntax import format_element, parse_element
from operadgb.trees import ShufflePartition, leaf, min_increasing_blocks, node

DIMS = {
    # the paper's tables
    "gd": [1, 3, 17, 140, 1524],
    "wsgd": [1, 3, 17, 130, 1219],
    # known closed forms
    "novikov": [comb(2 * n - 2, n - 1) for n in range(1, 7)],
    "lie": [factorial(n - 1) for n in range(1, 7)],
}
FAMILIES = ("A1", "A2", "A3", "A4", "A5")


def printed_rule_counts(text: str) -> dict[int, int]:
    return {int(a): int(c)
            for a, c in re.findall(r"^\s+arity (\d+): (\d+) rules$", text, re.M)}


def check_gb(tag, rc, text, ctx, basis_file: str):
    counts = printed_rule_counts(text)
    out = [(f"{tag}: exit 0 and rule counts printed", rc == 0 and bool(counts),
            f"exit {rc}, {counts}")]
    try:
        basis = load_basis(str(ctx["work"] / basis_file), validate=True)
        loaded = basis.rule_counts()
        out.append((f"{tag}: saved basis loads with validation and has the "
                    f"printed rule counts", loaded == counts, f"{loaded}"))
    except Exception as exc:  # any load failure is a failed check
        out.append((f"{tag}: saved basis loads with validation", False,
                    repr(exc)))
    return out


def check_dims(tag, rc, text, ctx, preset: str):
    rows = [l.split()[1:] for l in text.splitlines() if l.startswith("dim ")]
    got = [int(v) for v in rows[0]] if len(rows) == 1 else None
    want = DIMS[preset]
    return [(f"{tag}: dimensions {want}", rc == 0 and got == want,
             f"exit {rc}, got {got}")]


def reduce_lines(text: str) -> list[str]:
    """The printed normal forms, in input order."""
    return [l.split(": ", 1)[1] for l in text.splitlines() if ": " in l]


def check_identity(tag, rc, text, ctx, in_ideal: bool):
    nfs = reduce_lines(text)
    if in_ideal:
        ok = rc == 0 and nfs and all(nf == "0" for nf in nfs)
        want = "every shuffle image reduces to 0"
    else:
        ok = rc == 3 and any(nf != "0" for nf in nfs)
        want = "some shuffle image has a nonzero normal form"
    return [(f"{tag}: {want}", bool(ok), f"exit {rc}, {len(nfs)} images")]


def check_reduce_input(tag, rc, text, ctx, basis_file: str, stem: str):
    """Random combinations: the printed normal form equals the one a
    randomized reduction strategy finds (a Groebner basis gives the same
    normal form under any strategy).  Ideal elements: printed 0."""
    work, seed = ctx["work"], ctx["seed"]
    basis = load_basis(str(work / basis_file), validate=False)
    lines = [l for l in (work / f"{stem}.in").read_text().splitlines()
             if l and not l.startswith("#")]
    kinds = json.loads((work / f"{stem}.kinds").read_text())
    nfs = reduce_lines(text)
    if len(nfs) != len(lines) or len(kinds) != len(lines):
        return [(f"{tag}: one normal form per input", False,
                 f"{len(nfs)} printed for {len(lines)} inputs")]
    bad_random, bad_ideal = [], []
    for i, (line, kind, nf) in enumerate(zip(lines, kinds, nfs)):
        if kind == "ideal":
            if nf != "0":
                bad_ideal.append(i)
            continue
        e = parse_element(line, basis.generators)
        rng = random.Random(f"{seed}/{stem}/{i}")
        want = format_element(reduce_random(e, basis, rng), basis.order)
        if nf != want:
            bad_random.append(i)
    nonzero = any(nf != "0" for nf in nfs)
    return [
        (f"{tag}: random combinations match a randomized reduction",
         not bad_random, f"mismatch at {bad_random}"),
        (f"{tag}: ideal elements reduce to 0", not bad_ideal,
         f"nonzero at {bad_ideal}"),
        (f"{tag}: exit code says whether all are 0",
         rc == (3 if nonzero else 0), f"exit {rc}"),
    ]


def parse_ambiguities(text: str):
    pairs = re.findall(r"^ambiguity(?: \[(A\d)\])?:", text, re.M)
    residues = re.findall(r"^  residue: (.*)$", text, re.M)
    summary = re.search(r"^(\d+) critical pairs at degree (\d+); (\d+) nonzero "
                        r"residues modulo (\w+)$", text, re.M)
    found = re.search(r"^independent special identities found: (\d+)$",
                      text, re.M)
    return pairs, residues, summary, found


def check_ambiguities(tag, rc, text, ctx, degree: int, modulo: str):
    pairs, residues, summary, found = parse_ambiguities(text)
    nonzero = [r for r in residues if r != "0"]
    out = [(f"{tag}: exit 0 and one residue per critical pair",
            rc == 0 and summary is not None and len(pairs) == len(residues)
            == int(summary.group(1)),
            f"exit {rc}, {len(pairs)} pairs, {len(residues)} residues")]
    if summary is None:
        return out
    out.append((f"{tag}: reported nonzero count matches the residues",
                int(summary.group(3)) == len(nonzero),
                f"{summary.group(3)} reported, {len(nonzero)} printed"))
    if degree == 4:
        fams = sorted(set(pairs))
        out.append((f"{tag}: families A1-A5", tuple(fams) == FAMILIES,
                    f"{fams}"))
    if modulo == "wsgd":
        out.append((f"{tag}: every residue is 0 modulo wsgd", not nonzero,
                    f"{len(nonzero)} nonzero"))
    else:
        n_found = int(found.group(1)) if found else None
        out.append((f"{tag}: exactly 2 independent special identities",
                    n_found == 2, f"{n_found}"))
        ok, detail = residues_span_spec12(nonzero)
        out.append((f"{tag}: residue orbits span Spec1+Spec2 modulo the "
                    f"arity-4 GD ideal", ok, detail))
    return out


def check_gd_case(tag, rc, text, ctx, case: str):
    ok = (rc == 0 and f"classification: {case}" in text
          and "FAILED" not in text and text.rstrip().splitlines()[-1]
          .count("verified") == 1)
    return [(f"{tag}: classified as {case} and verified", ok, f"exit {rc}")]


# -- exact elimination over the brute-force arity-4 GD ideal ----------------

def _extend(pivots: dict, rows, key) -> dict:
    """Echelon pivots of the span of ``pivots`` and ``rows``; ``pivots`` is
    left untouched."""
    pivots = dict(pivots)
    for terms in rows:
        row = dict(terms)
        while row:
            lead = max(row, key=key)
            piv = pivots.get(lead)
            if piv is None:
                lc = row[lead]
                pivots[lead] = {t: c / lc for t, c in row.items()}
                break
            c = row[lead]
            for t, v in piv.items():
                s = row.get(t, Fraction(0)) - c * v
                if s:
                    row[t] = s
                else:
                    row.pop(t, None)
    return pivots


def _one_step(rel: OperadElement, gens) -> list[OperadElement]:
    """``rel`` composed with one generator, into every argument and above
    the root, over every shuffle partition."""
    out = []
    one = OperadElement.monomial(leaf(1))
    n = rel.arity
    for g in gens:
        corolla = OperadElement.monomial(
            node(g.name, [leaf(i) for i in range(1, g.arity + 1)]))
        total = n + g.arity - 1
        for top, inner, slots in ((rel, corolla, n), (corolla, rel, g.arity)):
            for i in range(slots):
                sizes = [1] * slots
                sizes[i] = inner.arity
                args = [one] * slots
                args[i] = inner
                for blocks in min_increasing_blocks(range(1, total + 1), sizes):
                    out.append(shuffle_compose(top, ShufflePartition(blocks),
                                               args))
    return out


def residues_span_spec12(residue_texts: list[str]):
    gd = builtin_presentations()["gd"]
    key = gd.order().key
    ideal = [m for r in gd.relations if r.arity == 3
             for m in _one_step(r, gd.generators)]
    base = _extend({}, (e.terms for e in ideal), key)
    residues = [parse_element(t, gd.generators) for t in residue_texts]
    perms = [dict(zip(range(1, 5), p)) for p in permutations(range(1, 5))]
    res_rows = [permute_element(e, p).terms for e in residues for p in perms]
    spec_rows = [e.terms for name in ("spec1", "spec2")
                 for e in shuffle_images(name)]
    with_res = _extend(base, res_rows, key)
    with_spec = _extend(base, spec_rows, key)
    both = _extend(with_res, spec_rows, key)
    ranks = [len(base), len(with_res), len(with_spec), len(both)]
    ok = ranks[1] == ranks[2] == ranks[3] > ranks[0]
    return ok, (f"ideal rank {ranks[0]}; with residue orbits +{ranks[1] - ranks[0]}, "
                f"with Spec1+Spec2 +{ranks[2] - ranks[0]}, "
                f"with both +{ranks[3] - ranks[0]}")
