"""Seeded input files for one benchmark workload.

    python3 perfbench/gen_inputs.py --workload NAME --seed N --out DIR

Writes, for each ``reduce --input`` the workload runs, a file of elements
(one per line) and a ``.kinds`` file saying which lines are random
combinations of monomials and which are random elements of the ideal, and
the ``check-gd`` case tables.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from operadgb.elements import OperadElement, shuffle_compose  # noqa: E402
from operadgb.gdmodels import case2_table, case3_table  # noqa: E402
from operadgb.presentation import builtin_presentations  # noqa: E402
from operadgb.syntax import format_element  # noqa: E402
from operadgb.trees import (  # noqa: E402
    ShufflePartition,
    all_trees,
    leaf,
    min_increasing_blocks,
    node,
)

# (file stem, preset, arity): the reduce --input files of each workload
REDUCE_INPUTS = {
    "paper-arity5": [("wsgd5", "wsgd", 5)],
    "presets-arity5": [("novikov6", "novikov", 6)],
    "residues-degree4": [],
}
PER_KIND = 12       # random combinations, then as many ideal elements
TERMS = 4           # monomials per random combination
COEFFS = [Fraction(c) for c in (1, -1, 2, -2, 3, -5)] + [Fraction(3, 2),
                                                         Fraction(-1, 3)]

# the three 2-dimensional cases of check-gd; case 1 is the normalized
# table with alpha = 1, gamma = 2
CASE_TABLES = {
    "case1.gd": "dim 2\ncirc 1 1 = 1 0\ncirc 1 2 = 0 2\ncirc 2 1 = 0 1\n"
                "bracket 1 2 = 0 1\n",
    "case2.gd": case2_table(Fraction(2)).format(),
    "case3.gd": case3_table().format(),
}
CHECK_GD = {"presets-arity5": sorted(CASE_TABLES)}


def random_combination(rng: random.Random, monomials, n: int) -> OperadElement:
    picks = rng.sample(range(len(monomials)), TERMS)
    return OperadElement({monomials[i]: rng.choice(COEFFS) for i in picks}, n)


def random_consequence(rng: random.Random, pres, n: int) -> OperadElement:
    """A relation composed with random generators, one at a time, above
    the root or into a random argument, over a random shuffle partition,
    until it has arity n."""
    one = OperadElement.monomial(leaf(1))
    e = rng.choice([r for r in pres.relations if r.arity <= n])
    while e.arity < n:
        g = rng.choice(pres.generators)
        corolla = OperadElement.monomial(
            node(g.name, [leaf(i) for i in range(1, g.arity + 1)]))
        if rng.random() < 0.5:
            top, slots, inner = corolla, g.arity, e
        else:
            top, slots, inner = e, e.arity, corolla
        i = rng.randrange(slots)
        sizes = [1] * slots
        sizes[i] = inner.arity
        args = [one] * slots
        args[i] = inner
        total = e.arity + g.arity - 1
        blocks = rng.choice(list(min_increasing_blocks(range(1, total + 1),
                                                       sizes)))
        e = shuffle_compose(top, ShufflePartition(blocks), args)
    return e.scale(rng.choice(COEFFS))


def ideal_element(rng: random.Random, pres, n: int) -> OperadElement:
    while True:
        e = random_consequence(rng, pres, n) + random_consequence(rng, pres, n)
        if not e.is_zero():
            return e


def write_inputs(workload: str, seed: int, out: Path) -> None:
    if workload not in REDUCE_INPUTS:
        raise SystemExit(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    presets = builtin_presentations()
    for stem, preset, n in REDUCE_INPUTS[workload]:
        rng = random.Random(f"{seed}/{stem}")
        pres = presets[preset]
        order = pres.order()
        monomials = all_trees(pres.generators, n)
        elems = [random_combination(rng, monomials, n)
                 for _ in range(PER_KIND)]
        elems += [ideal_element(rng, pres, n) for _ in range(PER_KIND)]
        kinds = ["random"] * PER_KIND + ["ideal"] * PER_KIND
        lines = [f"# seed {seed}: {PER_KIND} random combinations of "
                 f"{TERMS} monomials, then {PER_KIND} elements of the "
                 f"{preset} ideal"]
        lines += [format_element(e, order) for e in elems]
        (out / f"{stem}.in").write_text("\n".join(lines) + "\n")
        (out / f"{stem}.kinds").write_text(json.dumps(kinds) + "\n")
    for name in CHECK_GD.get(workload, ()):
        (out / name).write_text(CASE_TABLES[name])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    write_inputs(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
