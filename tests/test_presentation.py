"""Golden tests pinning the builtin presentations to the known converted
relation lists for the Novikov, Lie, Gelfand-Dorfman and weak-special
operads."""

import copy
import pickle

import pytest

from operadgb.elements import OperadElement
from operadgb.gdmodels import CheckReport, case3_envelope
from operadgb.presentation import (
    JACOBI,
    LEFT_SYMMETRY,
    GD_COMPAT,
    RIGHT_COMMUTATIVITY,
    SPECIAL_1,
    SPECIAL_2,
    builtin_presentations,
    parse_presentation,
    symmetric_to_shuffle,
)
from operadgb.syntax import (
    ParseError,
    format_element,
    parse_element,
    parse_monomial,
)
from operadgb.trees import GeneratorSymbol, ShufflePartition

from oracles import (
    consequence_pivots,
    span_rank,
    token_list_parse_element,
    token_list_parse_monomial,
)
from published_relations import (
    JACOBI_RELATION_LINE,
    MIXED_RELATION_LINES,
    NOVIKOV_RELATION_LINES,
    SPECIAL1_RELATION_LINES,
    SPECIAL2_RELATION_LINES,
)

GD = builtin_presentations()["gd"]
WSGD = builtin_presentations()["wsgd"]
ORDER = GD.order()

ALL_PAPER_LINES = (NOVIKOV_RELATION_LINES + (JACOBI_RELATION_LINE,)
                   + MIXED_RELATION_LINES + SPECIAL1_RELATION_LINES
                   + SPECIAL2_RELATION_LINES)


def canon(line):
    return parse_element(line, GD.generators).monic(ORDER)


def canon_set(lines):
    return {canon(l) for l in lines}


def test_parse_examples():
    jac = parse_element(JACOBI_RELATION_LINE, GD.generators)
    assert len(jac) == 3 and jac.arity == 3
    rc = parse_element("x(x(1 2) 3) - x(x(1 3) 2)", GD.generators)
    assert len(rc) == 2
    with pytest.raises(ParseError):
        parse_element("x(2 1)", GD.generators)
    with pytest.raises(ParseError):
        parse_element("w(1 2)", GD.generators)
    with pytest.raises(ParseError):
        parse_element("x(1 2 3)", GD.generators)


@pytest.mark.parametrize("parse, text, message", [
    (parse_monomial, "x(1 #2)", "line 1, column 4: unexpected character '#'"),
    (parse_element, "x(1 2)#", "line 1, column 7: unexpected character '#'"),
    # the column is where the unmatched text starts, blanks included
    (parse_element, "x(1 2) - #y(1 2)",
     "line 1, column 9: unexpected character '#'"),
    (parse_element, "x(1 2)   $", "line 1, column 7: unexpected character '$'"),
    (parse_monomial, "x(1 2) 3", "line 1, column 8: trailing input after monomial"),
    (parse_monomial, "x(1 y(2 3)", "line 1, column 11: unclosed '('"),
    (parse_element, "x(1 2) - 3/ x(1 2)", "line 1, column 13: expected denominator"),
    (parse_element, "3/y x(1 2)", "line 1, column 3: expected denominator"),
])
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text, GD.generators)
    assert str(err.value) == message


# texts that must parse exactly as the token-list parser parses them: the
# malformed cases above and in the tests below, malformed rule lines, and
# valid ones in every coefficient style
ORACLE_TEXTS = [
    "x(1 #2)", "x(1 2)#", "x(1 2) - #y(1 2)", "x(1 2)   $", "x(1 2) 3",
    "x(1 y(2 3)", "x(1 2) - 3/ x(1 2)", "3/y x(1 2)", "x(2 1)", "w(1 2)",
    "x(1 2 3)", "", "   ", "+", "-", "x(1 2) -", "x(1 2) x(1 2)",
    "x(1 2) * y(1 2)", "x(1 2) / y(1 2)", "3/0 x(1 2)", "3/0*x(1 2)", "3/",
    "3/ ", "- 3/+x(1 2)", "2 3 x(1 2)", "2 * * x(1 2)", "*x(1 2)",
    "x(1 2) - y(1 2 3)", "x(1 2) - x(x(1 2) 3)", "x(1 1)", "x(0 1)",
    "x(1 2", "x 1 2", "x(1 2))", "x()", "x(", "x", "(1 2)", "1", "1 + 1",
    "1 x(1 2)", "1 1", "11 + x(1 2)", "x(1 2) + 1", "x(1 3)", "x(x(1 3) 2) + x(1 2)", "é",
    "x(1\t2) -\t2*y(1 2)", "- 1*x(1 2) + 1*x(1 2)", "1/2*x(1 2) - 3/4 y(1 2)",
    "12 x(1 2) - 7/12*y(1 2)", "4/6 x(1 2)", "x(1 2)- -y(1 2)",
    "z(z(1 2) 3) - z(1 z(2 3)) - z(z(1 3) 2)", "x(1 2) + x(1 2)",
    "1*x(y(1 3) 2) - 2*y(x(1 3) 2) + 1/3 * z(1 z(2 3))",
    "\u0663 x(1 2)", "x(1 2)\u00a0- y(1 2)",
]


def outcome(parse, text, gens, line=1):
    """The value of ``parse``, with its trees, or its error's type and text."""
    try:
        value = parse(text, gens, line=line)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(value, OperadElement):
        return value.arity, [(id(t), c) for t, c in value.terms.items()]
    return id(value)


@pytest.mark.parametrize("parse, oracle", [
    (parse_element, token_list_parse_element),
    (parse_monomial, token_list_parse_monomial),
], ids=["element", "monomial"])
def test_parser_matches_the_token_list_parser(parse, oracle):
    """Same trees, coefficients and error texts as the token-list parser,
    and the same again once the memo holds every monomial parsed before."""
    for _warm in range(2):
        for text in ORACLE_TEXTS + list(ALL_PAPER_LINES):
            assert outcome(parse, text, GD.generators, 7) \
                == outcome(oracle, text, GD.generators, 7), text


def test_memoized_monomial_is_parsed_again_under_other_generators():
    """A text parsed under one generator list is not taken from the memo
    under a list without that generator, or with another arity for it."""
    x, w = GeneratorSymbol("x", 2), GeneratorSymbol("w", 2)
    assert str(parse_monomial("w(1 2)", (x, w))) == "w(1 2)"
    assert len(parse_element("2*w(1 2) - x(1 2)", (x, w))) == 2
    with pytest.raises(ParseError) as err:
        parse_monomial("w(1 2)", (x,))
    assert str(err.value) == "line 1, column 1: unknown generator 'w'"
    with pytest.raises(ParseError) as err:
        parse_element("2*w(1 2) - x(1 2)", (x,))
    assert str(err.value) == "line 1, column 3: unknown generator 'w'"
    with pytest.raises(ParseError) as err:
        parse_element("2*w(1 2)", (x, GeneratorSymbol("w", 3)))
    assert str(err.value) == \
        "line 1, column 3: generator 'w' has arity 3, got 2 children"


def test_parse_error_keeps_line_and_allows_blanks():
    with pytest.raises(ParseError) as err:
        parse_monomial("x(1 #2)", GD.generators, line=5)
    assert (err.value.line, err.value.col) == (5, 4)
    assert parse_monomial("  x(1 2)  ", GD.generators) == \
        parse_monomial("x(1 2)", GD.generators)


def test_roundtrip_canonical_stability():
    for line in ALL_PAPER_LINES:
        e = parse_element(line, GD.generators)
        c = format_element(e, ORDER)
        e2 = parse_element(c, GD.generators)
        assert e2 == e
        assert format_element(e2, ORDER) == c


def test_novikov_conversion_matches_published_list():
    got = (symmetric_to_shuffle(LEFT_SYMMETRY)
           + symmetric_to_shuffle(RIGHT_COMMUTATIVITY))
    assert len(got) == 6
    assert set(got) == canon_set(NOVIKOV_RELATION_LINES)


def test_jacobi_orbit_collapses_to_one_relation():
    got = symmetric_to_shuffle(JACOBI)
    assert len(got) == 1
    assert got[0] == canon(JACOBI_RELATION_LINE)


def test_gd_compat_orbit_matches_published_list():
    got = symmetric_to_shuffle(GD_COMPAT)
    assert len(got) == 3
    assert set(got) == canon_set(MIXED_RELATION_LINES)


def test_special_orbits_generate_the_published_ideal():
    """The degree-4 special identity orbits and the published 18 lines agree
    modulo consequences of the cubic relations (the published lines were
    reduced before printing, so term-for-term equality only holds mod gd)."""
    piv = consequence_pivots(GD, 4)
    base = len(piv)
    paper = [parse_element(l, GD.generators)
             for l in SPECIAL1_RELATION_LINES + SPECIAL2_RELATION_LINES]
    mine = (symmetric_to_shuffle(SPECIAL_1)
            + symmetric_to_shuffle(SPECIAL_2))
    r_paper, _ = span_rank(paper, ORDER, piv)
    r_mine, _ = span_rank(mine, ORDER, piv)
    r_both, _ = span_rank(paper + mine, ORDER, piv)
    assert r_paper == r_mine == r_both == base + 10
    # six of the published special lines are literal orbit elements
    assert canon_set(SPECIAL2_RELATION_LINES) <= set(mine)


def test_builtin_shapes():
    b = builtin_presentations()
    assert set(b) == {"lie", "novikov", "gd", "wsgd"}
    assert len(b["gd"].relations) == 10
    assert all(r.arity == 3 for r in b["gd"].relations)
    assert len(b["wsgd"].relations) == 46
    by_arity = b["wsgd"].relations_by_arity()
    assert len(by_arity[3]) == 10 and len(by_arity[4]) == 36
    assert len(b["lie"].relations) == 1
    assert b["lie"].gen_names == ("z",)
    assert len(b["novikov"].relations) == 6


def test_wsgd_is_gd_plus_the_special_orbits():
    """wSGD is GD modulo its two degree-4 special identities, each given by
    its full shuffle orbit."""
    b = builtin_presentations()
    assert b["wsgd"].relations == (b["gd"].relations
                                   + tuple(symmetric_to_shuffle(SPECIAL_1))
                                   + tuple(symmetric_to_shuffle(SPECIAL_2)))


def format_presentation(p):
    """Presentation file text: unit coefficients left implicit."""
    lines = [f"operad {p.name}",
             "generators " + " ".join(map(str, p.generators)),
             "relations:"]
    for rel in p.relations:
        parts = []
        for t, c in rel.sorted_terms(ORDER):
            body = str(t) if abs(c) == 1 else f"{abs(c)} {t}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'-' if c < 0 else '+'} {body}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def test_presentation_file_roundtrip():
    text = format_presentation(GD)
    p = parse_presentation(text)
    assert p.name == "gd"
    assert p.gen_names == ("x", "y", "z")
    assert {r.monic(ORDER) for r in p.relations} == \
        {r.monic(ORDER) for r in GD.relations}


def test_presentation_extends():
    text = "operad gdplus\nextends gd\nrelations:\nx(x(1 2) 3) - x(1 x(2 3))\n"
    p = parse_presentation(text)
    assert len(p.relations) == 11
    assert p.gen_names == ("x", "y", "z")


def test_generators_lines_add_up():
    p = parse_presentation("operad p\ngenerators x/2\ngenerators y/2\n"
                           "relations:\nx(x(1 2) 3) - y(1 y(2 3))\n")
    assert p.gen_names == ("x", "y")


def test_records_are_immutable_values():
    """The checked records refuse assignment and deletion, and their
    copies and pickles are equal to them, rebuilt through the checking
    constructors.  The hashable ones hash as the tuple of their fields;
    a spec and a report are unhashable."""
    gd = builtin_presentations()["gd"]
    records = [(GeneratorSymbol("x", 2), "arity"),
               (ShufflePartition(((1, 3), (2,))), "blocks"),
               (LEFT_SYMMETRY, "terms"),
               (gd, "relations"),
               (case3_envelope(), "bracket"),
               (CheckReport([("c", False, "w")], "at "), "checks")]
    for record, field in records:
        with pytest.raises(AttributeError, match=f"field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError,
                           match=f"cannot delete field '{field}'"):
            delattr(record, field)
        for again in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert again == record and type(again) is type(record)
    fields = [("x", 2), (((1, 3), (2,)),),
              (LEFT_SYMMETRY.name, LEFT_SYMMETRY.nvars, LEFT_SYMMETRY.terms),
              (gd.name, gd.generators, gd.relations)]
    for (record, _field), values in zip(records, fields):
        assert hash(record) == hash(values)
    for record, _field in records[4:]:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    assert repr(records[0][0]) == "GeneratorSymbol(name='x', arity=2)"
    assert repr(records[1][0]) == "ShufflePartition(blocks=((1, 3), (2,)))"
    assert repr(CheckReport([("c", False, "w")], "at ")) == \
        "CheckReport(checks=[('c', False, 'w')], witness_label='at ')"


def test_presentation_errors():
    with pytest.raises(ParseError):
        parse_presentation("generators x/2\nrelations:\nx(1 2)\n")  # no name
    with pytest.raises(ParseError):
        parse_presentation("operad bad\ngenerators x/2\nrelations:\nx(2 1)\n")
    with pytest.raises(ParseError) as err:
        parse_presentation("operad bad\ngenerators x/2 y\n")
    assert str(err.value) == \
        "line 2, column 16: generator spec 'y' must look like name/arity"


@pytest.mark.parametrize("text, message", [
    ("operad p\ngenerators x/2 u/1\n",
     "line 2, column 16: generator u: arity must be >= 2"),
    ("operad p\ngenerators 1x/2\n", "line 2, column 12: bad generator name '1x'"),
    # names the monomial syntax cannot spell, so no relation could use them
    ("operad p\ngenerators x/2 a-b/2\n",
     "line 2, column 16: bad generator name 'a-b'"),
    ("operad p\ngenerators \u00e9/2\n",
     "line 2, column 12: bad generator name '\u00e9'"),
    ("operad p\ngenerators x/2 y\n",
     "line 2, column 16: generator spec 'y' must look like name/arity"),
    ("operad p\n  generators  x/2   x/2  # twice\nrelations:\nx(1 2)\n",
     "line 2, column 21: generator 'x' already defined"),
    ("operad p\ngenerators x/2\ngenerators y/2 x/2\n",
     "line 3, column 16: generator 'x' already defined"),
    ("operad p\nextends gd\ngenerators w/2 z/2\n",
     "line 3, column 16: generator 'z' already defined"),
    # a clash with a base named later is reported at the generator too
    ("operad p\ngenerators w/2 y/2\nextends gd\nrelations:\nw(1 2)\n",
     "line 2, column 16: generator 'y' already defined"),
], ids=["arity", "name", "hyphen", "non-ascii", "spec", "repeat",
        "two-lines", "base", "base-after"])
def test_generator_errors_have_their_position(text, message):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert str(err.value) == message


# -- symmetric-side cross-check ------------------------------------------------

def _symmetric_term_basis():
    """All multilinear degree-3 compositions over the two binary operations,
    as raw symbolic terms (48 of them)."""
    from itertools import product, permutations
    terms = []
    for op0, op1 in product(("circ", "br"), repeat=2):
        for a, b, c in permutations((1, 2, 3)):
            terms.append((op0, (op1, a, b), c))
            terms.append((op0, a, (op1, b, c)))
    return sorted(set(terms), key=repr)


def _swap_br_once(term, path=()):
    """All single-step antisymmetry moves t -> t with one bracket swapped."""
    out = []
    if isinstance(term, int):
        return out
    op, a, b = term
    if op == "br":
        out.append((op, b, a))
    for sub, rebuild in ((a, lambda s: (op, s, b)), (b, lambda s: (op, a, s))):
        for swapped in _swap_br_once(sub):
            out.append(rebuild(swapped))
    return out


def test_conversion_completeness_by_symmetric_bruteforce():
    """Independent check that converting to shuffle relations loses nothing:
    impose bracket antisymmetry and all identity instances directly on the
    48 raw symmetric compositions of degree 3 and row-reduce; the quotient
    dimensions match the shuffle-side normal-monomial counts."""
    from fractions import Fraction
    from itertools import permutations
    from operadgb.presentation import (GD_COMPAT, JACOBI, LEFT_SYMMETRY,
                                       RIGHT_COMMUTATIVITY, _permute_term)

    basis_terms = _symmetric_term_basis()
    index = {t: i for i, t in enumerate(basis_terms)}

    def rank_of(rows):
        pivots = {}
        for row in rows:
            row = dict(row)
            while row:
                lead = max(row)
                if lead in pivots:
                    c = row.pop(lead)
                    for k, v in pivots[lead].items():
                        if k == lead:
                            continue
                        s = row.get(k, Fraction(0)) - c * v
                        if s:
                            row[k] = s
                        else:
                            row.pop(k, None)
                else:
                    lc = row[lead]
                    pivots[lead] = {k: c / lc for k, c in row.items()}
                    break
        return len(pivots)

    def relation_rows(identities, terms):
        rows = []
        for t in terms:
            for swapped in _swap_br_once(t):
                rows.append({index[t]: Fraction(1), index[swapped]: Fraction(1)}
                            if swapped != t else {index[t]: Fraction(2)})
        for rel in identities:
            for sigma in permutations((1, 2, 3)):
                perm = {1: sigma[0], 2: sigma[1], 3: sigma[2]}
                row = {}
                for c, term in rel.terms:
                    k = index[_permute_term(term, perm)]
                    row[k] = row.get(k, Fraction(0)) + c
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
        return rows

    gd_rows = relation_rows(
        (LEFT_SYMMETRY, RIGHT_COMMUTATIVITY, JACOBI, GD_COMPAT), basis_terms)
    assert 48 - rank_of(gd_rows) == 17  # == dim GD(3) on the shuffle side

    # Novikov only: 12 circ-only terms, quotient dimension 6
    circ_terms = [t for t in basis_terms
                  if "br" not in repr(t)]
    cindex = {t: i for i, t in enumerate(circ_terms)}
    rows = []
    for rel in (LEFT_SYMMETRY, RIGHT_COMMUTATIVITY):
        for sigma in permutations((1, 2, 3)):
            perm = {1: sigma[0], 2: sigma[1], 3: sigma[2]}
            row = {}
            for c, term in rel.terms:
                k = cindex[_permute_term(term, perm)]
                row[k] = row.get(k, Fraction(0)) + c
            rows.append({k: v for k, v in row.items() if v})
    def rank2(rows):
        pivots = {}
        for row in rows:
            row = dict(row)
            while row:
                lead = max(row)
                if lead in pivots:
                    c = row.pop(lead)
                    for k, v in pivots[lead].items():
                        if k != lead:
                            s = row.get(k, Fraction(0)) - c * v
                            if s:
                                row[k] = s
                            else:
                                row.pop(k, None)
                else:
                    pivots[lead] = {k: c / row[lead] for k, c in row.items()}
                    break
        return len(pivots)
    assert 12 - rank2(rows) == 6  # == dim Novikov(3)
