import hashlib

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


@pytest.mark.extended
@pytest.mark.parametrize("modulo", ["wsgd", "gd"])
def test_ambiguities_degree5_is_pinned(modulo, capsys):
    """Degree 5 is the first with P-rules on 4-letter chains."""
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
