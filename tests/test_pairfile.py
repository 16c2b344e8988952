from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liepair import catalog
from liepair.algebra import ValidationError, bracket
from liepair.catalog import (
    build_fixture,
    fixture_names,
    fixtures_dir,
    load_fixture_file,
)
from liepair.checks import check_complex_spherical, check_tempered
from liepair.linalg import frac, integer_row
from liepair.pairfile import (
    ParseError,
    _parse_fraction,
    parse_pair_text,
    serialize_pair,
)

F = Fraction

SL2_TORUS_FILE = """
pair sl2 / Cartan
provenance test

begin algebra g
name sl2
dim 3
labels H E F
c 1 2 = 2:2
c 1 3 = 3:-2
c 2 3 = 1:1
end

begin subalgebra h
row = 1 0 0
end

begin torus h
row = 1 0 0
end

begin torus g
row = 1 0 0
end

expect tempered yes_certified margin=4 source=abelian h
"""


def test_parse_minimal_file_and_run():
    pair = parse_pair_text(SL2_TORUS_FILE)
    assert pair.name == "sl2 / Cartan"
    assert pair.g.dim == 3 and pair.h.dim == 1
    e = pair.expectations[0]
    assert e.question == "tempered" and e.margin == 4
    v = check_tempered(pair)
    assert v.outcome == "yes_certified" and v.certificate["margin"] == 4


def test_round_trip_every_fixture_in_memory():
    for name in fixture_names():
        pair = build_fixture(name)
        text = serialize_pair(pair)
        reparsed = parse_pair_text(text, origin=pair.provenance)
        assert reparsed == pair, name


def test_shipped_fixture_files_match_catalog():
    for name in fixture_names():
        from_file = load_fixture_file(name)
        built = build_fixture(name)
        assert from_file == built, name


def test_unicode_minus_accepted():
    text = SL2_TORUS_FILE.replace("c 1 3 = 3:-2", "c 1 3 = 3:−2")
    pair = parse_pair_text(text)
    g = pair.g
    assert bracket(g, integer_row(g.basis_vector(0)),
                   integer_row(g.basis_vector(2))) == ((0, 0, -2), 1)


def test_parse_error_carries_line_number():
    bad = SL2_TORUS_FILE.replace("c 1 2 = 2:2", "c 1 2 = 2:two")
    with pytest.raises(ParseError, match=r"line \d+: bad fraction"):
        parse_pair_text(bad)


def test_structure_constants_require_upper_triangle():
    bad = SL2_TORUS_FILE.replace("c 1 2 = 2:2", "c 2 1 = 2:-2")
    with pytest.raises(ParseError, match="i < j"):
        parse_pair_text(bad)


@pytest.mark.parametrize("old,new", [
    ("c 2 3 = 1:1", "c 2 3 = 9:1"),
    ("c 2 3 = 1:1", "c 2 3 = 0:1"),
    ("dim 3", "dim x"),
    ("c 2 3 = 1:1", "c 2 x = 1:1"),
    ("c 2 3 = 1:1", "c 2 3 = x:1"),
    ("c 2 3 = 1:1", "c 2 3 = 1:1\nmatsize x"),
    ("c 2 3 = 1:1", "c 2 3 = 1:1\nmatsize 2\nmatrix x = 1 0 0 -1"),
    ("dim 3", "dim -2"),
    ("c 2 3 = 1:1", "c 2 3 = 1:1\nmatsize 0"),
], ids=["target-above-dim", "target-zero", "dim", "c-index", "c-target",
        "matsize", "matrix-index", "dim-negative", "matsize-zero"])
def test_bad_index_or_integer_is_a_parse_error_with_line(old, new):
    bad = SL2_TORUS_FILE.replace(old, new)
    assert bad != SL2_TORUS_FILE
    with pytest.raises(ParseError, match=r"^line \d+: "):
        parse_pair_text(bad)


SL2_MATRICES = ("matsize 2\nmatrix 1 = 1 0 0 -1\nmatrix 2 = 0 1 0 0\n"
                "matrix 3 = 0 0 1 0\n")
SL2_COMPLEX = "".join(f"complex {k} = 0 0 0\n" for k in (1, 2, 3))


def assert_parse_error_at(text, offending):
    """The parser rejects `text` with the number of the last line that
    reads `offending`."""
    lineno = max(i for i, line in enumerate(text.splitlines())
                 if line == offending) + 1
    with pytest.raises(ParseError, match=rf"^line {lineno}: "):
        parse_pair_text(text)


@pytest.mark.parametrize("extra", [
    SL2_MATRICES + "matrix 9 = 0 0 0 0",
    SL2_MATRICES + "matrix 0 = 0 0 0 0",
    SL2_COMPLEX + "complex 4 = 0 0 0",
], ids=["matrix-above-dim", "matrix-zero", "complex-above-dim"])
def test_matrix_or_complex_index_outside_dim_is_a_parse_error(extra):
    text = SL2_TORUS_FILE.replace("c 2 3 = 1:1\n", f"c 2 3 = 1:1\n{extra}\n")
    assert_parse_error_at(text, extra.splitlines()[-1])


@pytest.mark.parametrize("repeated", [
    "c 1 2 = 2:2",
    "matrix 2 = 0 1 0 0",
    "complex 1 = 0 0 0",
], ids=["c", "matrix", "complex"])
def test_repeated_line_is_a_parse_error(repeated):
    text = SL2_TORUS_FILE.replace(
        "c 2 3 = 1:1\n", f"c 2 3 = 1:1\n{SL2_MATRICES}{SL2_COMPLEX}{repeated}\n")
    assert_parse_error_at(text, repeated)


def test_repeated_target_in_one_c_line_is_a_parse_error():
    text = SL2_TORUS_FILE.replace("c 1 2 = 2:2", "c 1 2 = 2:2 2:1")
    assert_parse_error_at(text, "c 1 2 = 2:2 2:1")


MUTANT_TOKENS = ("-", "x", "1/0", "3.5", "0", "1", "-1", "99", "=", ":",
                 "1:", "2:3", "row", "end", "c", "matrix", "complex")


@pytest.mark.parametrize("name", fixture_names())
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_mutated_fixture_parses_or_fails_cleanly(name, data):
    # one token replaced or deleted: a Pair, a ParseError or a
    # ValidationError, and never another exception
    lines = (fixtures_dir() / f"{name}.pair").read_text().splitlines()
    places = [(i, j) for i, line in enumerate(lines)
              for j in range(len(line.split()))]
    i, j = data.draw(st.sampled_from(places))
    toks = lines[i].split()
    new = data.draw(st.sampled_from((None,) + MUTANT_TOKENS))
    if new is None:
        del toks[j]
    else:
        toks[j] = new
    lines[i] = " ".join(toks)
    try:
        parse_pair_text("\n".join(lines))
    except (ParseError, ValidationError):
        pass


@pytest.mark.parametrize("line,message", [
    ("expect frobnicate maybe", "unknown question 'frobnicate'"),
    ("expect tempered maybe margin=1", "unknown outcome 'maybe'"),
    ("expect tempered_ yes_certified", "unknown question 'tempered_'"),
])
def test_expect_line_outside_the_grammar_is_a_parse_error(line, message):
    text = SL2_TORUS_FILE + line + "\n"
    lineno = len(text.splitlines())
    with pytest.raises(ParseError, match=rf"^line {lineno}: {message}; "
                       "expected one of "):
        parse_pair_text(text)


# [e_1, e_2] = e_1 is a Lie algebra, but its realization by the diagonal
# units E_11 and E_22 is abelian: neither product of the two is nonzero
DISJOINT_REALIZATION = """
begin algebra g
dim 2
c 1 2 = 1:1
matsize 2
matrix 1 = 1 0 0 0
matrix 2 = 0 0 0 1
end
begin subalgebra h
end
begin torus h
end
begin torus g
end
"""


def test_bracket_of_matrices_with_disjoint_supports_is_checked():
    # both products vanish, so only the stored bracket can be wrong
    with pytest.raises(ValidationError, match=(
            r"^algebra invalid: matrix realization disagrees with structure "
            r"constants at basis pair \(1, 2\)$")):
        parse_pair_text(DISJOINT_REALIZATION)
    abelian = parse_pair_text(DISJOINT_REALIZATION.replace("c 1 2 = 1:1\n", ""))
    assert abelian.g.sparse == (((), ()), ((), ()))


def test_unfaithful_realization_rejected():
    # [e1, e2] = e3 and [e1, e3] = e1 break Jacobi; 25 zero matrices of
    # size 1 "realize" any structure constants, so faithfulness is checked
    n = 25
    text = "\n".join(
        ["begin algebra g", f"dim {n}", "c 1 2 = 3:1", "c 1 3 = 1:1",
         "matsize 1"]
        + [f"matrix {k} = 0" for k in range(1, n + 1)]
        + ["end", "begin subalgebra h", "end",
           "begin torus h", "end", "begin torus g", "end", ""])
    with pytest.raises(ValidationError, match="not faithful"):
        parse_pair_text(text)


def test_jacobi_violation_reported_with_triple():
    bad = SL2_TORUS_FILE.replace("c 2 3 = 1:1", "c 2 3 = 2:1")
    with pytest.raises(ValidationError, match=r"Jacobi.*\(1, 2, 3\)"):
        parse_pair_text(bad)


def test_subalgebra_closure_violation_names_rows():
    bad = SL2_TORUS_FILE.replace("begin subalgebra h\nrow = 1 0 0",
                                 "begin subalgebra h\nrow = 1 0 0\nrow = 0 1 1")
    with pytest.raises(ValidationError, match=r"row 1, row 2"):
        parse_pair_text(bad)


def test_unterminated_block():
    bad = SL2_TORUS_FILE.split("begin torus g")[0] + "begin torus g\nrow = 1 0 0\n"
    last = len(bad.splitlines())
    with pytest.raises(ParseError, match=rf"^line {last}: unterminated"):
        parse_pair_text(bad)


def test_unknown_directive_rejected():
    with pytest.raises(ParseError, match="unknown directive"):
        parse_pair_text("frobnicate 7\n" + SL2_TORUS_FILE)


def test_end_outside_a_block_is_an_unknown_directive():
    with pytest.raises(ParseError, match="^line 1: unknown directive 'end'"):
        parse_pair_text("end\n" + SL2_TORUS_FILE)


def test_matrix_realization_mismatch_rejected():
    text = SL2_TORUS_FILE.replace(
        "c 2 3 = 1:1\nend",
        "c 2 3 = 1:1\nmatsize 2\n"
        "matrix 1 = 1 0 0 -1\nmatrix 2 = 0 1 0 0\nmatrix 3 = 0 0 2 0\nend")
    with pytest.raises(ValidationError, match="realization"):
        parse_pair_text(text)


def test_complexify_auto_round_trip():
    text = SL2_TORUS_FILE + "complexify auto\n"
    pair = parse_pair_text(text)
    assert pair.complexification is not None
    assert pair.complexification.g.dim == 6
    text2 = serialize_pair(pair)
    assert parse_pair_text(text2, origin=pair.provenance) == pair


def test_expectation_attributes_round_trip():
    pair = parse_pair_text(SL2_TORUS_FILE)
    e = replace(pair.expectations[0], dimension=3, source="with dim")
    pair2 = replace(pair, expectations=(e,))
    text = serialize_pair(pair2)
    assert parse_pair_text(text, origin=pair2.provenance) == pair2


# --- integer tokens --------------------------------------------------------

def _outcome(parse, tok):
    """(True, value) when parse accepts tok, (False, None) when it rejects."""
    try:
        return True, parse(tok)
    except (ValueError, ZeroDivisionError):
        return False, None


# ASCII and Unicode digits (Arabic-Indic, fullwidth, superscript) and the
# characters a fraction literal may or may not contain
TOKEN_ALPHABET = "0123456789٣５²+-−/.e_ "


@given(st.text(alphabet=TOKEN_ALPHABET, max_size=8))
@settings(max_examples=1500, deadline=None)
@example("-0")
@example("007")
@example("-")
@example("")
@example("+5")
@example("1_0")
@example("−3")
@example("٣")
@example(" 5")
@example("3/0")
def test_integer_fast_path_agrees_with_fraction_literals(tok):
    # the old path of every token was frac, i.e. Fraction(str) after
    # mapping U+2212 to '-'; accept/reject and value must not change
    got = _outcome(lambda t: _parse_fraction(t, 1), tok)
    assert got == _outcome(frac, tok)
    if got[0]:
        assert type(got[1]) is Fraction


# --- deferred complexification ---------------------------------------------

def _sl2c_cartan_text(compact_row):
    text = (fixtures_dir() / "sl2c_cartan.pair").read_text()
    return text.replace("cartan-compact = 0 0 0 1 0 0",
                        f"cartan-compact = {compact_row}")


def test_cartan_compact_row_of_wrong_length_fails_at_parse():
    text = _sl2c_cartan_text("0 0 0 1 0")
    lineno = text.splitlines().index("cartan-compact = 0 0 0 1 0") + 1
    with pytest.raises(ParseError, match=rf"line {lineno}: cartan-compact "
                       "row has length 5"):
        parse_pair_text(text)


def test_invalid_cartan_compact_row_fails_on_first_use(monkeypatch):
    # iE does not commute with the split torus H of the complexification
    pair = parse_pair_text(_sl2c_cartan_text("0 0 0 0 1 0"))
    assert check_tempered(pair).outcome == "yes_certified"
    with pytest.raises(ValidationError,
                       match="cannot build the complexification: torus rows "
                       "1 and 2 do not commute"):
        pair.complexification
    with pytest.raises(ValidationError, match="complexification"):
        check_complex_spherical(pair, samples=4)


def test_complexification_is_built_once_on_first_read(monkeypatch):
    pair = parse_pair_text(SL2_TORUS_FILE + "complexify auto\n")
    built = []
    complexify_pair = catalog.complexify_pair
    monkeypatch.setattr(catalog, "complexify_pair",
                        lambda p: built.append(p) or complexify_pair(p))
    assert built == []
    comp = pair.complexification
    assert comp.g.dim == 6 and built == [pair]
    assert pair.complexification is comp and built == [pair]


def test_has_complexification_does_not_build():
    from liepair.report import report_for_pair

    pair = parse_pair_text(SL2_TORUS_FILE + "complexify auto\n")
    rep = report_for_pair(pair, ["tempered"])
    assert rep["pair"]["has_complexification"] is True
    assert "complexification" not in pair.__dict__
    assert "complexify auto" in serialize_pair(pair)
    assert "complexification" not in pair.__dict__
