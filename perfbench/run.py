"""End-to-end benchmark of the operadgb commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each command of a workload runs as
its own process (``python3 -m operadgb.cli ...``), one after another.  Set-up
writes the seeded input files five times, each in a fresh process, and
reports the median.  Then whole rounds of the workload's commands run for
about ``S`` seconds: a round starts only if, taking as long as the last one,
it ends within them (the first always runs).  Every output of the first
round is checked, and every later round must print the same text and save
the same bytes.

``--trace 0`` reports the end-to-end metrics (medians over rounds).
``--trace 1`` alternates an untraced round with a round whose commands run
in-process under ``perfbench/traced.py``, and reports the per-module
metrics of the traced rounds and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Result and trace files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 5
DEADLINE_S = 170.0   # the whole run, commands included
MODULES = ("cli", "groebner", "trees", "elements", "syntax", "hilbert",
           "diffpoisson", "gdmodels", "commutative")
KINDS = ("gb", "dims", "reduce", "ambiguities", "check-gd")


# A command: (operadgb arguments, accepted exit codes, check in checks.py,
# extra arguments of the check)

def gb(preset, n, out):
    argv = ["gb", "--preset", preset, "--max-arity", str(n), "-o", out]
    return argv + (["--extended"] if n > 5 else []), (0,), "check_gb", (out,)


def dims(basis, preset):
    return ["dims", "--basis", basis], (0,), "check_dims", (preset,)


def reduce_identity(basis, name, in_ideal):
    return (["reduce", "--basis", basis, "--identity", name],
            (0,) if in_ideal else (3,), "check_identity", (in_ideal,))


def reduce_input(basis, stem):
    return (["reduce", "--basis", basis, "--input", f"{stem}.in"], (0, 3),
            "check_reduce_input", (basis, stem))


def ambiguities(degree, modulo):
    return (["ambiguities", "--degree", str(degree), "--modulo", modulo], (0,),
            "check_ambiguities", (degree, modulo))


def check_gd(table, case):
    return ["check-gd", table], (0,), "check_gd_case", (case,)


WORKLOADS = {
    # the paper's two tables at arity 5 and membership of the special
    # identities: completion, save, load and reduction of the GD bases
    "paper-arity5": [
        gb("gd", 5, "gd5.basis"),
        gb("wsgd", 5, "wsgd5.basis"),
        dims("gd5.basis", "gd"),
        dims("wsgd5.basis", "wsgd"),
        reduce_identity("gd5.basis", "spec1", False),
        reduce_identity("gd5.basis", "spec2", False),
        reduce_identity("wsgd5.basis", "spec3", True),
        reduce_identity("wsgd5.basis", "spec4", True),
        reduce_identity("wsgd5.basis", "spec5", True),
        reduce_input("wsgd5.basis", "wsgd5"),
    ],
    # the other presets, the degree-4 identity search and the
    # two-dimensional case checks
    "presets-arity5": [
        gb("novikov", 6, "novikov6.basis"),
        gb("lie", 6, "lie6.basis"),
        dims("novikov6.basis", "novikov"),
        dims("lie6.basis", "lie"),
        reduce_input("novikov6.basis", "novikov6"),
        ambiguities(4, "gd"),
        check_gd("case1.gd", "case1"),
        check_gd("case2.gd", "case2"),
        check_gd("case3.gd", "case3"),
    ],
    # differential Poisson rewriting of every degree-4 critical pair
    "residues-degree4": [
        ambiguities(4, "wsgd"),
    ],
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}


def per_layer(fn, cnt, cmd_s, walls) -> dict:
    """Per-module metrics of one traced round.  ``fn(name, field)`` sums a
    wrapped function's calls/total_s/self_s over the round's commands and
    ``cnt(name)`` a counter."""
    total = lambda name: fn(name, "total_s")  # noqa: E731
    calls = lambda name: fn(name, "calls")  # noqa: E731
    spolys = cnt("groebner.spolys")
    steps = cnt("diffpoisson.rewrite_steps")
    distinct = cnt("diffpoisson.distinct_rewritten")
    m = {
        "groebner.echelon_s": fn("groebner._echelon", "self_s"),
        "groebner.echelon_rows": cnt("groebner.echelon_rows"),
        "groebner.echelon_terms": cnt("groebner.echelon_terms"),
        "groebner.new_rules": cnt("groebner.new_rules"),
        "groebner.spolys": spolys,
        "groebner.spolys_zero": cnt("groebner.spolys_zero"),
        "groebner.spoly_yield":
            cnt("groebner.new_rules") / spolys if spolys else 0.0,
        "groebner.overlap_s": total("groebner._stratum_spolys"),
        "trees.extensions_s": total("trees.extensions"),
        "groebner.reduce_s": total("groebner._Reducer.nf_terms"),
        "groebner.nf_memo_entries": cnt("groebner.nf_memo_entries"),
        "elements.graft_at_calls": calls("elements.graft_at"),
        "elements.graft_at_s": total("elements.graft_at"),
        "trees.occurrence_at_calls": calls("trees.occurrence_at"),
        "trees.occurrence_at_s": total("trees.occurrence_at"),
        "trees.node_calls": cnt("trees.node"),
        "groebner.load_s": total("groebner.load_basis"),
        "groebner.validate_s": total("groebner.validate_interreduced"),
        "syntax.parse_s":
            total("syntax.parse_element") + total("syntax.parse_monomial"),
        "groebner.save_s": total("groebner.save_basis"),
        "syntax.format_s": total("syntax.format_element"),
        "hilbert.emit_table_s": total("hilbert.emit_table"),
        "hilbert.root_checks": cnt("hilbert.NormalMonomials._root_reducible"),
        "groebner.reduce_element_calls": calls("groebner.reduce_element"),
        "groebner.reduce_element_s": total("groebner.reduce_element"),
        "diffpoisson.normal_form_s":
            total("diffpoisson.RewriteContext.normal_form"),
        "diffpoisson.rewrite_steps": steps,
        "diffpoisson.distinct_rewritten": distinct,
        "diffpoisson.rewrite_share": steps / distinct if distinct else 0.0,
        "diffpoisson.pm_key_calls": cnt("diffpoisson.RewriteContext.pm_key"),
        "diffpoisson.enumerate_s":
            total("diffpoisson.RewriteContext.enumerate_ambiguities"),
        "diffpoisson.critical_pairs": cnt("diffpoisson.critical_pairs"),
        "diffpoisson.independent_s":
            total("diffpoisson.independent_identities"),
        "diffpoisson.independent_completions":
            cnt("diffpoisson.independent_completions"),
        "gdmodels.verify_embedding_s": total("gdmodels.verify_embedding"),
        "gdmodels.case1_check_s": total("gdmodels.case1_check"),
        "commutative.reduce_poly_calls": calls("commutative.reduce_poly"),
    }
    for mod in MODULES:
        m[f"self.{mod}_s"] = fn(mod, "module_self_s")
    for kind in KINDS:
        m[f"cmd.{kind.replace('-', '_')}_s"] = cmd_s.get(kind, 0.0)
    m["trace.untraced_wall_s"], m["trace.traced_wall_s"] = walls
    m["trace.overhead_s"] = walls[1] - walls[0]
    return m


PER_LAYER_UNITS = {"_s": "s", "_yield": "ratio", "_share": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# -- running commands -------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(cmd, cwd: Path, stdout: Path, deadline: float) -> dict:
    """Run one process to its end; wall, CPU and peak RSS from wait4."""
    with open(stdout, "w", encoding="utf-8") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=fh,
                                stderr=subprocess.STDOUT, env=child_env())
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def run_round(commands, work: Path, deadline: float, traced: bool,
              tag: str) -> dict:
    results = []
    for i, (argv, ok_codes, _check, _args) in enumerate(commands):
        stdout = work / f"{tag}.{i}.out"
        if traced:
            cmd = [sys.executable, str(HERE / "traced.py"),
                   str(work / f"{tag}.{i}.trace.json"), "--"] + argv
        else:
            cmd = [sys.executable, "-m", "operadgb.cli"] + argv
        res = run_process(cmd, work, stdout, deadline)
        res["kind"] = argv[0]
        res["failed"] = res["rc"] not in ok_codes
        res["text"] = stdout.read_text(encoding="utf-8")
        if traced:
            trace_file = work / f"{tag}.{i}.trace.json"
            res["trace"] = (json.loads(trace_file.read_text())
                            if trace_file.exists() else None)
        results.append(res)
    return {
        "commands": results,
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "rss_mb": max(r["rss_mb"] for r in results),
        "bases": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(work.glob("*.basis"))},
    }


def set_up(workload: str, seed: int, work: Path, deadline: float):
    """Write the seeded inputs SETUPS times, each in a fresh process; the
    copies must be byte-identical.  Returns the set-up times."""
    times, digests = [], []
    for k in range(SETUPS):
        target = work / f"setup{k}"
        res = run_process([sys.executable, str(HERE / "gen_inputs.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--out", str(target)],
                          work, work / f"setup{k}.log", deadline)
        if res["rc"] != 0:
            raise RuntimeError((work / f"setup{k}.log").read_text())
        times.append(res["wall_s"])
        digests.append({p.name: p.read_bytes() for p in target.iterdir()})
    for name, data in digests[0].items():
        (work / name).write_bytes(data)
    return times, all(d == digests[0] for d in digests)


def check_first_round(rnd: dict, commands, ctx) -> list:
    import checks  # imports operadgb, so only once src is on sys.path
    out = []
    for (argv, _codes, check, args), res in zip(commands, rnd["commands"]):
        tag = " ".join(argv)
        try:
            out += getattr(checks, check)(tag, res["rc"], res["text"], ctx,
                                          *args)
        except Exception as exc:  # a crash in a check is a failed check
            out.append((tag, False, repr(exc)))
    return out


def repeats(first: dict, rnd: dict) -> tuple[bool, bool]:
    """Later rounds must print the same text and save the same bytes."""
    return (all(a["text"] == b["text"] for a, b in
                zip(first["commands"], rnd["commands"])),
            rnd["bases"] == first["bases"])


# -- traced rounds ----------------------------------------------------------

def traced_metrics(untraced: dict, traced: dict) -> dict:
    reports = [c["trace"] or {} for c in traced["commands"]]

    def fn(name, field):
        if field == "module_self_s":
            return sum(v["self_s"] for r in reports
                       for k, v in r.get("functions", {}).items()
                       if k.split(".")[0] == name)
        return sum(r.get("functions", {}).get(name, {}).get(field, 0)
                   for r in reports)

    def cnt(name):
        return sum(r.get("counters", {}).get(name, 0) for r in reports)

    cmd_s: dict = {}
    for c in untraced["commands"]:
        cmd_s[c["kind"]] = cmd_s.get(c["kind"], 0.0) + c["wall_s"]
    return per_layer(fn, cnt, cmd_s, (untraced["wall_s"], traced["wall_s"]))


def span_self_times(spans: list) -> None:
    child: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + \
                s["end_s"] - s["start_s"]
    for s in spans:
        s["self_s"] = s["end_s"] - s["start_s"] - child.get(s["id"], 0.0)


def write_trace(path: Path, workload, seed, pairs, metrics) -> None:
    untraced, traced = pairs[-1]
    commands = []
    for c in traced["commands"]:
        rep = dict(c["trace"] or {})
        span_self_times(rep.get("spans", []))
        rep["process_wall_s"] = c["wall_s"]
        commands.append(rep)
    path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "untraced_round_walls_s": [u["wall_s"] for u, _ in pairs],
        "traced_round_walls_s": [t["wall_s"] for _, t in pairs],
        "metrics": metrics,
        "last_traced_round": commands,
    }, indent=1))


# -- main -------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "operadgb" / "cli.py").is_file():
        print(f"error: no operadgb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + DEADLINE_S
    commands = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    ctx = {"work": work, "seed": args.seed}
    try:
        setup_times, same_inputs = set_up(args.workload, args.seed, work,
                                          deadline)
        rounds, pairs, results = [], [], []
        text_repeats = bytes_repeat = True
        t_measure = time.monotonic()
        while True:
            # whole rounds only: the next starts if, taking as long as the
            # last, it ends within the measured time and before the deadline
            if rounds:
                last = sum(r["wall_s"] for r in rounds[-1 - args.trace:])
                now = time.monotonic()
                if now + last > min(t_measure + args.seconds, deadline):
                    break
            pair = []
            for traced in (False, True)[:1 + args.trace]:
                rnd = run_round(commands, work, deadline, traced,
                                f"r{len(rounds)}")
                if not rounds:
                    results = check_first_round(rnd, commands, ctx)
                else:
                    same_text, same_bytes = repeats(rounds[0], rnd)
                    text_repeats &= same_text
                    bytes_repeat &= same_bytes
                rounds.append(rnd)
                pair.append(rnd)
            pairs.append(pair)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results += [
        ("set-up writes byte-identical inputs every time", same_inputs, ""),
        ("every round prints what the first printed", text_repeats, ""),
        ("every round saves the bases of the first, byte for byte",
         bytes_repeat, ""),
    ]
    attempted = sum(len(r["commands"]) for r in rounds)
    failed = sum(c["failed"] for r in rounds for c in r["commands"])

    if args.trace:
        per_pair = [traced_metrics(u, t) for u, t in pairs]
        # median_low keeps counts whole
        metrics = {name: statistics.median_low(p[name] for p in per_pair)
                   for name in per_pair[0]}
        write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    args.workload, args.seed, pairs, metrics)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END

    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}"
              + (f"  ({detail})" if detail else ""))
    for name, digest in rounds[0]["bases"].items():
        print(f"{name}: sha256 {digest}")
    print(f"{len(rounds)} rounds of {len(commands)} commands: {attempted} "
          f"attempted, {failed} failed; set-up "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    result = {
        "correct": all(ok for _, ok, _ in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    per_round = [[{k: c[k] for k in ("kind", "rc", "wall_s", "cpu_s", "rss_mb")}
                  for c in r["commands"]] for r in rounds]
    record = dict(result, setup_times_s=setup_times,
                  bases_sha256=rounds[0]["bases"], rounds=per_round)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
