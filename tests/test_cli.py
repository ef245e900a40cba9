import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from operadgb.cli import main
from operadgb.gdmodels import case3_table
from operadgb.groebner import _checksum


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gb_dims_roundtrip(tmp_path, capsys):
    basis_path = str(tmp_path / "gd4.basis")
    code, out, _ = run(["gb", "--preset", "gd", "--max-arity", "4",
                        "-o", basis_path], capsys)
    assert code == 0
    assert "arity 4" in out

    rows_path = str(tmp_path / "rows.csv")
    code, out, _ = run(["dims", "--basis", basis_path, "-o", rows_path], capsys)
    assert code == 0
    assert "140" in out
    with open(rows_path) as fh:
        assert fh.read().splitlines() == ["1,1", "2,3", "3,17", "4,140"]


def test_gb_requires_extended_beyond_budget(capsys):
    code, _out, err = run(["gb", "--preset", "gd", "--max-arity", "6"], capsys)
    assert code == 2
    assert "extended" in err


def test_gb_unknown_preset(capsys):
    code, _out, err = run(["gb", "--preset", "nope"], capsys)
    assert code == 1
    assert "unknown preset" in err


def test_reduce_own_relation_to_zero(tmp_path, capsys):
    basis_path = str(tmp_path / "gd4.basis")
    assert main(["gb", "--preset", "gd", "--max-arity", "4",
                 "-o", basis_path]) == 0
    capsys.readouterr()
    elem_path = tmp_path / "jacobi.txt"
    elem_path.write_text("z(z(1 2) 3) - z(1 z(2 3)) - z(z(1 3) 2)\n")
    code, out, _ = run(["reduce", "--basis", basis_path,
                        "--input", str(elem_path)], capsys)
    assert code == 0
    assert out.strip().endswith(": 0")


def test_zero_denominator_is_a_parse_error(tmp_path, capsys):
    """``3/0`` is reported at the denominator's line and column, by both
    commands that parse elements, instead of raising ZeroDivisionError."""
    pres_path = tmp_path / "p.txt"
    pres_path.write_text("operad p\nextends gd\nrelations:\n"
                         "x(x(1 2) 3) - 3/0 x(1 x(2 3))\n")
    code, _out, err = run(["gb", "--input", str(pres_path),
                           "--max-arity", "3"], capsys)
    assert (code, err) == (1, "error: line 4, column 17: zero denominator\n")
    basis_path = str(tmp_path / "gd3.basis")
    assert main(["gb", "--preset", "gd", "--max-arity", "3",
                 "-o", basis_path]) == 0
    capsys.readouterr()
    elem_path = tmp_path / "elem.txt"
    elem_path.write_text("x(x(1 2) 3)\n3/0 x(1 x(2 3))\n")
    code, _out, err = run(["reduce", "--basis", basis_path,
                           "--input", str(elem_path)], capsys)
    assert (code, err) == (1, "error: line 2, column 3: zero denominator\n")


def test_gb_refuses_a_relation_with_a_zero_coefficient(tmp_path, capsys):
    """``0 x(...)`` parses to the zero element, so it is refused as a zero
    relation instead of completing with no rules."""
    path = tmp_path / "p.txt"
    path.write_text("operad p\ngenerators x/2\nrelations:\n0 x(x(1 2) 3)\n")
    assert run(["gb", "--input", str(path), "--max-arity", "3"], capsys) == (
        1, "", "error: p: zero relation\n")


@pytest.mark.parametrize("argv", [
    ["gb", "--input", "{bad}", "--max-arity", "3"],
    ["dims", "--basis", "{bad}"],
    ["reduce", "--basis", "{bad}", "--identity", "spec1"],
    ["reduce", "--basis", "{basis}", "--input", "{bad}"],
    ["check-gd", "{bad}"],
], ids=["gb", "dims", "reduce-basis", "reduce-input", "check-gd"])
def test_a_file_that_is_not_utf8_is_a_parse_error(argv, tmp_path, capsys):
    """Undecodable input is one ``error:`` line that names the file and
    exit 1, not a ``UnicodeDecodeError`` traceback."""
    bad, basis = tmp_path / "bad.txt", tmp_path / "gd3.basis"
    bad.write_bytes(b"\xff\xfeoperad p\n")
    assert run(["gb", "--preset", "gd", "--max-arity", "3", "-o", str(basis)],
               capsys)[0] == 0
    code, out, err = run([a.format(bad=bad, basis=basis) for a in argv],
                         capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err
    assert "Traceback" not in err


def test_reduce_spec1_nonzero_mod_gd(tmp_path, capsys):
    basis_path = str(tmp_path / "gd4.basis")
    assert main(["gb", "--preset", "gd", "--max-arity", "4",
                 "-o", basis_path]) == 0
    capsys.readouterr()
    code, out, _ = run(["reduce", "--basis", basis_path,
                        "--identity", "spec1"], capsys)
    assert code == 3  # not in the ideal


def test_reduce_spec1_zero_mod_wsgd(tmp_path, capsys):
    basis_path = str(tmp_path / "ws4.basis")
    assert main(["gb", "--preset", "wsgd", "--max-arity", "4",
                 "-o", basis_path]) == 0
    capsys.readouterr()
    code, out, _ = run(["reduce", "--basis", basis_path,
                        "--identity", "spec1"], capsys)
    assert code == 0


def test_reduce_order_mismatch(tmp_path, capsys):
    basis_path = str(tmp_path / "gd4.basis")
    assert main(["gb", "--preset", "gd", "--max-arity", "4",
                 "-o", basis_path]) == 0
    capsys.readouterr()
    code, _out, err = run(["reduce", "--basis", basis_path,
                           "--identity", "spec1",
                           "--order", "revpathlex"], capsys)
    assert code == 1
    assert "order" in err


def test_ambiguities_degree3(capsys):
    code, out, _ = run(["ambiguities", "--degree", "3", "--modulo", "gd"],
                       capsys)
    assert code == 0
    assert "3 critical pairs at degree 3" in out
    assert "0 nonzero residues" in out
    assert "independent special identities found: 0" in out


def test_ambiguities_degree4_finds_two_identities(capsys):
    code, out, _ = run(["ambiguities", "--degree", "4", "--modulo", "gd"],
                       capsys)
    assert code == 0
    assert "independent special identities found: 2" in out
    for fam in ("[A1]", "[A2]", "[A3]", "[A4]", "[A5]"):
        assert fam in out


def test_ambiguities_degree4_modulo_wsgd_all_zero(capsys):
    code, out, _ = run(["ambiguities", "--degree", "4", "--modulo", "wsgd"],
                       capsys)
    assert code == 0
    assert "0 nonzero residues modulo wsgd" in out


def test_ambiguities_degree3_modulo_wsgd(capsys):
    """wsgd has arity-4 relations; the degree-3 residues are reduced modulo
    its completion to arity 4, not refused for a budget never asked for."""
    code, out, err = run(["ambiguities", "--degree", "3", "--modulo", "wsgd"],
                         capsys)
    assert (code, err) == (0, "")
    assert out.endswith("3 critical pairs at degree 3; "
                        "0 nonzero residues modulo wsgd\n")


def test_ambiguities_trace(capsys):
    code, out, _ = run(["ambiguities", "--degree", "3", "--emit-trace"],
                       capsys)
    assert code == 0
    assert "route-1" in out and "->" in out


# sha256 of the whole stdout of ``ambiguities``: every critical pair, every
# rewrite step of both routes and every residue, in order.  No other test
# pins a whole step line, a residue or the order of a step's terms.
AMBIGUITIES_SHA256 = {
    ("3", "gd", True):
        "876d3762f376680c207445c5c7a7f6f796422e46afe011e2f9d73e7a585b7aa9",
    ("4", "gd", True):
        "c5cfd6b7a03b64fc8520235ca28131c97cd66560858c9a83c881ef9d73d6730a",
    ("4", "wsgd", True):
        "79b050baf031a42587fe44a352227973ae8bf7732515fa20c01747ef898ed1de",
    ("5", "wsgd", False):
        "6431c10166f1a3b42c26cd7655d4a8292ac33deef0d8881ab19b55ee7dd16f34",
    ("5", "gd", False):
        "4a8e07d5bdadeff7a63947540927ce49010b483f8affd2fd69325d7e860027a5",
}


def ambiguities_sha256(degree, modulo, trace, capsys):
    argv = ["ambiguities", "--degree", degree, "--modulo", modulo]
    code, out, _ = run(argv + ["--emit-trace"] * trace, capsys)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("degree,modulo", [("3", "gd"), ("4", "gd"),
                                           ("4", "wsgd")])
def test_ambiguities_trace_is_pinned(degree, modulo, capsys):
    assert ambiguities_sha256(degree, modulo, True, capsys) \
        == AMBIGUITIES_SHA256[degree, modulo, True]


@pytest.mark.parametrize("modulo", [
    "wsgd", pytest.param("gd", marks=pytest.mark.extended)])
def test_ambiguities_degree5_is_pinned(modulo, capsys):
    """Degree 5 is the first with P-rules on 4-letter chains; modulo gd
    adds the independence filtration, which takes longer."""
    assert ambiguities_sha256("5", modulo, False, capsys) \
        == AMBIGUITIES_SHA256["5", modulo, False]


# sha256 of the basis file ``gb ... -o`` writes and of the stdout of
# ``dims`` on it, recorded before the unused code in the package was cut
BASIS_SHA256 = {
    ("gd", "5"): (
        "83e3d2028e760df334e09d90c391724dd81e12e978c6d5345fb7da2542fc8728",
        "34753fb95f2cd3eff17b1d64488a036c17308347ba34ee8cacc95c1bd6215777"),
    ("wsgd", "5"): (
        "55d6e5dcb8123817c9d7ed917dc381d88d241c22b1f5bb2e7f577633a846a749",
        "f022d4d00034314edf1174b449d02ca843d1bb66df22b3a551c6a8b269ac750b"),
    ("novikov", "6"): (
        "9a7174847aabe0b6fe3a395343ede2f8017e36fd53b8b4eb9ced559c9c0c4351",
        "37bcb576583441f717039c3d58b39c31f25573c677b5c394addaabf0c143cc14"),
    ("lie", "6"): (
        "0b7f75660f6c1e390bce2a663e3ccbd0360aaaf755a9703e2d7ee5f0fc8f86e8",
        "dd9e5898acc29bfdfabb8abd13c7c46bbe1fcfbd3af75d6107c9495bbecc4faf"),
}


@pytest.mark.parametrize("preset,arity", sorted(BASIS_SHA256))
def test_saved_basis_and_dims_are_pinned(preset, arity, tmp_path, capsys):
    path = tmp_path / f"{preset}{arity}.basis"
    code, _out, _ = run(["gb", "--preset", preset, "--max-arity", arity,
                         "--extended", "-o", str(path)], capsys)
    assert code == 0
    code, out, _ = run(["dims", "--basis", str(path)], capsys)
    assert code == 0
    assert (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(out.encode()).hexdigest()) \
        == BASIS_SHA256[preset, arity]


@pytest.mark.parametrize("field, value", [
    ("max_arity", "3x"),
    ("rules", "ten"),
    ("generators", "x y/2 z/2"),
    ("generators", "x/2 y/2 z/2 u/1"),
    # a name no rule could spell, not an unknown generator 'a' in a rule
    ("generators", "x/2 a-b/2 z/2"),
])
def test_dims_reports_a_bad_header_field(field, value, tmp_path, capsys):
    """A header field that does not parse is a format error, even under a
    checksum that matches it."""
    path = tmp_path / "gd3.basis"
    assert run(["gb", "--preset", "gd", "--max-arity", "3", "-o", str(path)],
               capsys)[0] == 0
    lines = path.read_text().splitlines()
    lines = [f"{field}: {value}" if l.startswith(f"{field}:") else l
             for l in lines]
    lines[6] = f"checksum: {_checksum(lines[:6], lines[7:])}"
    path.write_text("\n".join(lines) + "\n")
    code, _out, err = run(["dims", "--basis", str(path)], capsys)
    assert code == 1
    assert err.startswith("error: ") and field in err and "Traceback" not in err


def test_dims_refuses_a_basis_that_claims_no_arity(tmp_path, capsys):
    """A header ``max_arity: 0``, under a checksum that matches it, claims
    no arity at all, so it is refused rather than read as an empty table;
    ``gb`` does not write one."""
    path = tmp_path / "gd3.basis"
    assert run(["gb", "--preset", "gd", "--max-arity", "3", "-o", str(path)],
               capsys)[0] == 0
    lines = path.read_text().splitlines()
    lines[4] = "max_arity: 0"
    lines[6] = f"checksum: {_checksum(lines[:6], lines[7:])}"
    path.write_text("\n".join(lines) + "\n")
    assert run(["dims", "--basis", str(path)], capsys) == (
        1, "", "error: header field 'max_arity' must be positive, got 0\n")


def _vouched(lines):
    """``lines`` under the checksum that matches them."""
    lines[6] = f"checksum: {_checksum(lines[:6], lines[7:])}"
    return lines


def _rule_edits(lines):
    """A gd 3 basis with a wrong arity field under a checksum that matches
    it, and with a rule line after the counted ones, which the checksum
    does not cover, and with a rule whose tail has a smaller arity than
    its lead under a checksum that matches it.  Also, under matching
    checksums, the basis with a header ``max_arity: 2`` below its rules,
    and a one-rule basis whose tail is above its lead under ``pathlex``."""
    arity = _vouched(lines[:7] + ["9" + lines[7][1:]] + lines[8:])
    tail = _vouched(lines[:7] + [lines[7].split(" => ")[0] + " => x(1 2)"]
                    + lines[8:])
    over = _vouched(lines[:4] + ["max_arity: 2"] + lines[5:])
    upward = _vouched(lines[:5] + ["rules: 1", "",
                                   "3 x(1 x(2 3)) => 1*x(x(1 2) 3)"])
    return {"arity-field": (arity, "bad rule line 1: arity field '9'"),
            "trailing-rule": (lines + [lines[7]],
                              f"line {len(lines) + 1}: text after the"),
            "tail-arity": (tail, "bad rule line 1: rule tail arity differs"),
            "over-max-arity": (over, "bad rule line 1: arity 3 exceeds "
                                     "max_arity 2\n"),
            "tail-above-lead": (upward, "bad rule line 1: tail monomial "
                                        "x(x(1 2) 3) is not below the lead "
                                        "under pathlex\n")}


@pytest.mark.parametrize("case", ["arity-field", "trailing-rule",
                                  "tail-arity", "over-max-arity",
                                  "tail-above-lead"])
def test_dims_rejects_a_rule_line_the_checksum_does_not_vouch_for(
        case, tmp_path, capsys):
    path = tmp_path / "gd3.basis"
    assert run(["gb", "--preset", "gd", "--max-arity", "3", "-o", str(path)],
               capsys)[0] == 0
    lines, message = _rule_edits(path.read_text().splitlines())[case]
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(["dims", "--basis", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")


def test_reduce_refuses_an_input_with_no_elements(tmp_path, capsys):
    """A file of blanks and comments holds nothing to reduce; it printed
    nothing and exited 0, which reads as membership success."""
    basis, elems = tmp_path / "gd3.basis", tmp_path / "empty.txt"
    assert run(["gb", "--preset", "gd", "--max-arity", "3", "-o", str(basis)],
               capsys)[0] == 0
    elems.write_text("\n# nothing here\n   \n")
    assert run(["reduce", "--basis", str(basis), "--input", str(elems)],
               capsys) == (1, "", f"error: {elems}: no elements to reduce\n")


def test_dims_rejects_a_negative_up_to(tmp_path, capsys):
    path, rows = tmp_path / "gd3.basis", tmp_path / "rows.csv"
    assert run(["gb", "--preset", "gd", "--max-arity", "3", "-o", str(path)],
               capsys)[0] == 0
    code, out, err = run(["dims", "--basis", str(path), "--up-to", "-1",
                          "-o", str(rows)], capsys)
    assert (code, out) == (1, "") and err.startswith("error: ")
    assert not rows.exists()
    # 0 is the basis's own max arity
    assert run(["dims", "--basis", str(path), "--up-to", "0"], capsys) \
        == run(["dims", "--basis", str(path)], capsys)


def test_dims_refuses_an_up_to_beyond_the_basis(tmp_path, capsys):
    """A table past the completed arities is a budget error, not a table
    cut short at the basis's max arity."""
    path = tmp_path / "gd3.basis"
    assert run(["gb", "--preset", "gd", "--max-arity", "3", "-o", str(path)],
               capsys)[0] == 0
    assert run(["dims", "--basis", str(path), "--up-to", "4"], capsys) == (
        2, "", "error: table up to arity 4 exceeds completed range 3\n")
    code, out, _ = run(["dims", "--basis", str(path), "--up-to", "3"], capsys)
    assert code == 0 and out.splitlines()[-1].split()[1:] == ["1", "3", "17"]


def test_gb_rejects_a_unary_generator(tmp_path, capsys):
    """A unary generator makes every component infinite-dimensional; it
    was accepted and ``dims`` printed finite counts."""
    path = tmp_path / "unary.txt"
    path.write_text("operad unary\ngenerators x/2 u/1\nrelations:\n"
                    "x(x(1 2) 3) - x(1 x(2 3))\n")
    assert run(["gb", "--input", str(path), "--max-arity", "3"], capsys) == (
        1, "", "error: line 2, column 16: generator u: arity must be >= 2\n")


@pytest.mark.parametrize("spec, message", [
    ("1x/2", "line 2, column 12: bad generator name '1x'"),
    ("x/2 x/2", "line 2, column 16: generator 'x' already defined"),
], ids=["name", "repeat"])
def test_gb_reports_a_bad_generator_at_its_position(spec, message, tmp_path,
                                                    capsys):
    """A bad or repeated generator is reported at its own line and column,
    not without a position or at the first relation's line."""
    path = tmp_path / "p.txt"
    path.write_text(f"operad p\ngenerators {spec}\nrelations:\n"
                    "x(x(1 2) 3) - x(1 x(2 3))\n")
    assert run(["gb", "--input", str(path), "--max-arity", "3"], capsys) == (
        1, "", f"error: {message}\n")


def _dims_under_generators(spec, tmp_path, capsys):
    """``dims`` on a gd 3 basis whose header lists the generators
    ``spec``, under a checksum that matches it."""
    path = tmp_path / "gd3.basis"
    assert run(["gb", "--preset", "gd", "--max-arity", "3", "-o", str(path)],
               capsys)[0] == 0
    lines = path.read_text().splitlines()
    lines[3] = f"generators: {spec}"
    lines[6] = f"checksum: {_checksum(lines[:6], lines[7:])}"
    path.write_text("\n".join(lines) + "\n")
    return run(["dims", "--basis", str(path)], capsys)


def test_dims_frames_a_repeated_header_generator(tmp_path, capsys):
    """A generator repeated in a basis header, under a checksum that
    matches it, is a bad header field, not an error about an order."""
    assert _dims_under_generators("x/2 y/2 z/2 x/2", tmp_path, capsys) == (
        1, "", "error: bad header field 'generators': line 4, column 25: "
        "generator 'x' already defined\n")


def test_dims_reports_a_header_generator_spec_at_its_column(tmp_path, capsys):
    """A header generator that is not ``name/arity`` is reported at its own
    column, like every other generator error, not at column 1."""
    assert _dims_under_generators("x/2 y z/2", tmp_path, capsys) == (
        1, "", "error: bad header field 'generators': line 4, column 17: "
        "generator spec 'y' must look like name/arity\n")


@pytest.mark.parametrize("argv, message", [
    (["gb", "--preset", "nope"], "unknown preset 'nope'; known: "
     "['gd', 'lie', 'novikov', 'wsgd']"),
    (["gb"], "need --preset or --input"),
    (["reduce", "--basis", "{basis}"], "need --input or --identity"),
    (["reduce", "--basis", "{basis}", "--identity", "nope"],
     "unknown identity 'nope'; known: "),
    (["dims", "--basis", "{basis}", "--up-to", "-2"],
     "--up-to must be 0 (the basis's max arity) or positive, got -2"),
    # refused before any completion, not as a budget the user never set
    *[(["ambiguities", "--degree", d],
       f"critical pairs start at degree 3, got --degree {d}\n")
      for d in ("2", "1", "0", "-1")],
    *[(["gb", "--preset", "gd", "--max-arity", n],
       f"--max-arity must be positive, got {n}\n") for n in ("0", "-2")],
    # a second input would be dropped without a word
    (["gb", "--preset", "lie", "--input", "foo.pres"],
     "give --preset or --input, not both\n"),
    (["reduce", "--basis", "{basis}", "--identity", "spec1", "--input", "F"],
     "give --input or --identity, not both\n"),
], ids=["preset", "no-input", "no-element", "identity", "up-to",
        "degree-2", "degree-1", "degree-0", "degree-minus-1",
        "max-arity-0", "max-arity-minus-2", "preset-and-input",
        "identity-and-input"])
def test_usage_errors_have_no_position(argv, message, tmp_path, capsys):
    basis = tmp_path / "gd3.basis"
    assert run(["gb", "--preset", "gd", "--max-arity", "3", "-o", str(basis)],
               capsys)[0] == 0
    code, out, err = run([a.format(basis=basis) for a in argv], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "line" not in err


ARGPARSE_ERRORS = {
    "no-command": [],
    "no-degree": ["ambiguities"],
    "bad-int": ["gb", "--max-arity", "x"],
}


@pytest.mark.parametrize("argv", ARGPARSE_ERRORS.values(),
                         ids=ARGPARSE_ERRORS.keys())
def test_argparse_errors_return_the_usage_code(argv, capsys):
    """An argument argparse refuses is a usage error, exit 1 like every
    other: 2 is the arity budget.  ``main`` returns it rather than raising
    ``SystemExit``, and argparse's usage text stays on stderr."""
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: operadgb") and "error: " in err


def test_help_returns_zero(capsys):
    code, out, err = run(["--help"], capsys)
    assert (code, err) == (0, "") and out.startswith("usage: operadgb")


def test_the_process_exits_1_on_an_argparse_error(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "operadgb.cli",
                           "ambiguities"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert (done.returncode, done.stdout) == (1, "")
    assert "the following arguments are required: --degree" in done.stderr


@pytest.mark.parametrize("source, identity, message", [
    (["--input", "{pres}"], "left-symmetry",
     "identity 'left-symmetry' uses generator x/2, not one of the basis "
     "generators x/3 y/2 z/2\n"),
    (["--preset", "novikov"], "spec1",
     "identity 'spec1' uses generator z/2, not one of the basis "
     "generators x/2 y/2\n"),
], ids=["child-count", "name"])
def test_reduce_refuses_an_identity_over_other_generators(
        source, identity, message, tmp_path, capsys):
    """An identity whose images use a generator the basis lacks, by name or
    by child count, is a usage error, not a membership answer."""
    pres, basis = tmp_path / "p.txt", tmp_path / "p.basis"
    pres.write_text("operad p\ngenerators x/3 y/2 z/2\nrelations:\n")
    assert run(["gb", *[a.format(pres=pres) for a in source],
                "--max-arity", "3", "-o", str(basis)], capsys)[0] == 0
    assert run(["reduce", "--basis", str(basis), "--identity", identity],
               capsys) == (1, "", f"error: {message}")


@pytest.mark.parametrize("directive, line", [("extends", "extends novikov"),
                                             ("operad", "operad q")])
def test_a_repeated_directive_is_refused_at_its_line(directive, line,
                                                     tmp_path, capsys):
    """A second ``extends`` would drop the first preset's relations and a
    second ``operad`` would rename the operad, so both are refused."""
    path = tmp_path / "p.txt"
    path.write_text(f"operad p\nextends gd\n{line}\nrelations:\n"
                    "x(x(1 2) 3) - x(1 x(2 3))\n")
    assert run(["gb", "--input", str(path)], capsys) == (
        1, "", f"error: line 3, column 1: repeated {directive!r} "
               "directive\n")


def test_unknown_extends_keeps_its_line(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("operad p\nextends nope\nrelations:\n")
    assert run(["gb", "--input", str(path)], capsys) == (
        1, "", "error: line 2, column 1: unknown preset 'nope'\n")


@pytest.mark.parametrize("table, message", [
    ("dim 2\ncirc 0 1 = 1 0\n", "line 2: expected an integer in 1..2, got '0'"),
    ("dim 2\ncirc 1 3 = 1 0\n", "line 2: expected an integer in 1..2, got '3'"),
    ("dim 2\nbracket 1 b = 1 0\n",
     "line 2: expected an integer in 1..2, got 'b'"),
    ("dim two\n", "line 1: expected an integer of at least 1, got 'two'"),
    ("# a table\ndim 0\n", "line 2: expected an integer of at least 1, got '0'"),
    ("dim 2\ncirc 1 1 = 1 x\n",
     "line 2: coefficients must be rationals like -3/2, got '1 x'"),
    ("dim 2\ncirc 1 1 = 1/0 0\n",
     "line 2: coefficients must be rationals like -3/2, got '1/0 0'"),
    ("dim\n", "line 1: expected one 'dim n' line"),
    ("dim 2\ncirc 1 1 = 1 0\ndim 3\n", "line 3: expected one 'dim n' line"),
    ("dim 2\ncirc 1 1 = 1 0\ncirc 1 1 = 0 0\nbracket 1 2 = 0 1\n",
     "line 3: expected one 'circ 1 1' line"),
    ("dim 2\nbracket 1 2 = 0 1\nbracket 1 2 = 0 1\n",
     "line 3: expected one 'bracket 1 2' line"),
])
def test_check_gd_rejects_a_misread_table(table, message, tmp_path, capsys):
    path = tmp_path / "bad.gd"
    path.write_text(table)
    code, out, err = run(["check-gd", str(path)], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_check_gd_case3(tmp_path, capsys):
    path = tmp_path / "case3.gd"
    path.write_text(case3_table().format())
    code, out, _ = run(["check-gd", str(path)], capsys)
    assert code == 0
    assert "PASS" in out
    assert "case3" in out
    assert "embedding verified" in out


def test_check_gd_axiom_failure(tmp_path, capsys):
    path = tmp_path / "bad.gd"
    path.write_text("dim 2\ncirc 1 1 = 1 0\nbracket 1 2 = 0 1\n")
    code, out, _ = run(["check-gd", str(path)], capsys)
    assert code == 3
    assert "FAIL" in out


def test_check_gd_case1(tmp_path, capsys):
    path = tmp_path / "case1.gd"
    path.write_text("dim 2\n"
                    "circ 1 1 = 1 0\ncirc 1 2 = 0 2\ncirc 2 1 = 0 1\n"
                    "bracket 1 2 = 0 1\n")
    code, out, _ = run(["check-gd", str(path)], capsys)
    assert code == 0
    assert "case1" in out and "verified" in out


# check-gd stdout and exit code, recorded before the axiom checks were
# rewritten over the presentation's identities
AXIOMS_PASS = """\
PASS  bracket-antisymmetry
PASS  left-symmetry
PASS  right-commutativity
PASS  jacobi
PASS  compatibility
"""

EMBEDDING_VERIFIED = """\
PASS  relations form a commutative Groebner basis
PASS  ideal closed under the bracket
PASS  ideal closed under the derivation
PASS  jacobi identity
PASS  derivation compatible with bracket (degree <= 6)
PASS  embedding preserves the multiplication table
PASS  images linearly independent
embedding verified
"""

CHECK_GD_GOLDEN = {
    "case1": (
        "dim 2\ncirc 1 1 = 1 0\ncirc 1 2 = 0 2\ncirc 2 1 = 0 1\n"
        "bracket 1 2 = 0 1\n",
        0,
        AXIOMS_PASS
        + "classification: case1(alpha=1, gamma=2, delta=0)\n"
          "case-1 bracket construction verified (Jacobi and derivation "
          "compatibility close at derivative order 3)\n"),
    "case2": (
        "dim 2\ncirc 1 1 = 1 0\ncirc 1 2 = 0 1\ncirc 2 1 = 0 1\n"
        "bracket 1 2 = 0 1/2\nbracket 2 1 = 0 -1/2\n",
        0,
        AXIOMS_PASS
        + "classification: case2(alpha=2, gamma=2, delta=0)\n"
        + EMBEDDING_VERIFIED),
    "case3": (
        "dim 2\ncirc 1 1 = 0 1\nbracket 1 2 = 0 1\nbracket 2 1 = 0 -1\n",
        0,
        AXIOMS_PASS
        + "classification: case3(alpha=0, gamma=0, delta=1)\n"
        + EMBEDDING_VERIFIED),
    "novikov": (
        "dim 2\ncirc 1 1 = 1 0\ncirc 1 2 = 0 1\ncirc 2 1 = 0 1\n",
        0,
        AXIOMS_PASS
        + "classification: novikov\n"
          "pure Novikov algebra: embeds in its differential commutative "
          "envelope with the trivial bracket\n"),
    "lie-only": (
        "dim 2\nbracket 1 2 = 0 1\n",
        0,
        AXIOMS_PASS
        + "classification: lie-only(alpha=0, gamma=0, delta=0)\n"
          "pure Lie algebra: embeds in the graded Poisson algebra of its "
          "associative envelope with the zero derivation\n"),
    "axiom-failure": (
        "dim 2\ncirc 1 1 = 1 0\nbracket 1 2 = 0 1\n",
        3,
        AXIOMS_PASS.replace("PASS  compatibility\n",
                            "FAIL  compatibility  (witness (e1,e1,e2))\n")
        + "axioms fail; no classification\n"),
}


@pytest.mark.parametrize("name", sorted(CHECK_GD_GOLDEN))
def test_check_gd_golden(name, tmp_path, capsys):
    table, want_code, want_out = CHECK_GD_GOLDEN[name]
    path = tmp_path / f"{name}.gd"
    path.write_text(table)
    code, out, _ = run(["check-gd", str(path)], capsys)
    assert (code, out) == (want_code, want_out)


# every kind of command in one fresh interpreter; the last line printed is
# the exit codes and the heavy modules the commands left loaded
FOOTPRINT_SCRIPT = """
import sys
from operadgb.cli import main
from operadgb.gdmodels import case3_table
with open("case1.gd", "w") as fh:
    fh.write("dim 2\\ncirc 1 1 = 1 0\\ncirc 1 2 = 0 2\\ncirc 2 1 = 0 1\\n"
             "bracket 1 2 = 0 1\\n")
with open("case3.gd", "w") as fh:
    fh.write(case3_table().format())
codes = [main(argv.split()) for argv in (
    "gb --preset gd --max-arity 4 -o gd4.basis",
    "dims --basis gd4.basis",
    "reduce --basis gd4.basis --identity spec1",
    "ambiguities --degree 4 --modulo gd",
    "check-gd case1.gd",
    "check-gd case3.gd")]
print(codes, [m for m in ("_hashlib", "_ssl", "inspect", "dataclasses")
              if m in sys.modules])
"""


def test_commands_load_neither_openssl_nor_dataclasses(tmp_path):
    """The basis checksum comes from the interpreter's built-in SHA-256 and
    the record classes are written out, so no command maps OpenSSL through
    ``hashlib`` or loads ``inspect`` through ``dataclasses``.  With CPython
    3.11 on Linux they add about 3 MB and 0.9 MB to every process's peak
    RSS."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 3, 0, 0, 0] []"
