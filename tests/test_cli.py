import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import liepair
from liepair.catalog import FAMILIES, construct_from_spec, fixtures_dir
from liepair.checks import rho_pair
from liepair.cli import main
from liepair.pairfile import parse_pair_text, serialize_pair
from liepair.polyhedral import decide_dominance


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_triple_sl2_real_spherical(capsys):
    code, out, _ = run(capsys, "check", "--family", "triple_diagonal:sl2",
                       "--questions", "real-spherical")
    assert code == 0
    assert "real_spherical] -> yes_certified" in out
    assert "finite multiplicity" in out


def test_check_whittaker_real_spherical(capsys):
    code, out, _ = run(capsys, "check", "--family", "whittaker_nilradical:sl3",
                       "--questions", "real-spherical")
    assert code == 0
    assert "yes_certified" in out


def test_check_machine_output_is_deterministic(capsys):
    args = ("check", "--family", "diagonal_pair:sl2", "--format", "machine",
            "--seed", "7", "--samples", "16")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["schema"] == "liepair.report/3"
    assert report["settings"]["seed"] == 7


def test_check_from_file(tmp_path, capsys):
    src = fixtures_dir() / "sl2_split_torus.pair"
    code, out, _ = run(capsys, "check", "--file", str(src),
                       "--questions", "tempered", "--format", "machine")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"][0]["outcome"] == "yes_certified"


def test_check_file_with_an_unknown_expect_question_exits_2(tmp_path, capsys):
    text = (fixtures_dir() / "sl2_split_torus.pair").read_text()
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("expect "))
    lines[at] = "expect frobnicate maybe margin=1"
    src = tmp_path / "bad_expect.pair"
    src.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "check", "--file", str(src),
                         "--questions", "tempered")
    assert code == 2 and out == ""
    assert f"line {at + 1}: unknown question 'frobnicate'" in err


def test_check_file_with_a_second_expect_for_a_question_exits_2(tmp_path,
                                                                capsys):
    # sl2_point expects tempered yes_certified; a contradicting second line
    # for the same question is refused, not run and reported as a mismatch
    text = (fixtures_dir() / "sl2_point.pair").read_text()
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.startswith("expect tempered "))
    lines.append("expect tempered no_certified")
    src = tmp_path / "two_expects.pair"
    src.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "check", "--file", str(src),
                         "--questions", "tempered")
    assert code == 2 and out == ""
    assert err == (f"error: line {len(lines)}: expect tempered repeats "
                   f"line {at + 1}\n")


def test_check_requires_source(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2 and "required" in err


def test_unknown_family_exits_2(capsys):
    code, _, err = run(capsys, "check", "--family", "nope:sl2")
    assert code == 2 and "unknown family" in err


# one parameter too few for every family, and one too many for every family
# that takes a fixed number of them
WRONG_PARAMETER_COUNTS = [
    "sl_n_R", "sl_n_R:2:3", "so_p_q:2", "so_p_q:1:2:3", "su_p_q:1",
    "su_p_q:1:1:1", "sp_n_R", "sp_n_R:2:4", "complex_simple_realified",
    "complex_simple_realified:sl2:sl2", "direct_sum", "diagonal_pair",
    "diagonal_pair:sl2:extra", "triple_diagonal", "triple_diagonal:sl2:sl2",
    "symmetric_pair_fixed_points",
    "symmetric_pair_fixed_points:sl2:neg_transpose:extra",
    "whittaker_nilradical", "whittaker_nilradical:sl3:sl3", "torus_pair",
    "torus_pair:sl2:sl2", "block_pair:5", "block_pair:5:3:2"]


def test_wrong_parameter_counts_cover_every_family():
    assert {spec.split(":")[0] for spec in WRONG_PARAMETER_COUNTS} \
        == set(FAMILIES)


@pytest.mark.parametrize("spec", WRONG_PARAMETER_COUNTS)
def test_wrong_parameter_count_exits_2(capsys, spec):
    code, out, err = run(capsys, "check", "--family", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: bad parameters ")
    assert f" for family {spec.split(':')[0]}: " in err


def test_unknown_question_exits_2(capsys):
    code, _, err = run(capsys, "check", "--family", "diagonal_pair:sl2",
                       "--questions", "is-nice")
    assert code == 2


def test_explicit_complex_question_without_data_exits_2(capsys):
    code, _, err = run(capsys, "check", "--family", "su_p_q:1:1",
                       "--questions", "complex-spherical")
    assert code == 2 and "complexification" in err


def test_default_questions_degrade_gracefully(capsys):
    # default run includes complex_spherical, which this pair cannot answer
    code, out, _ = run(capsys, "check", "--family", "su_p_q:1:1",
                       "--samples", "8")
    assert code == 0
    assert "complex_spherical] -> unknown" in out


def test_complexifying_su_p_q_exits_2(capsys):
    code, _, err = run(capsys, "check", "--family",
                       "complex_simple_realified:su_1_2")
    assert code == 2 and "no compact Cartan data" in err
    code, out, _ = run(capsys, "check", "--family", "su_p_q:1:2",
                       "--questions", "tempered", "--format", "machine")
    assert code == 0
    assert json.loads(out)["pair"]["has_complexification"] is False


def test_complex_rows_that_do_not_preserve_h_exit_2(tmp_path, capsys):
    # h = ℝ·H inside sl(2, C) realified: J·H = iH lies outside h
    text = serialize_pair(construct_from_spec("complex_simple_realified:sl2"))
    assert "complex 1 =" in text
    src = tmp_path / "real_line.pair"
    src.write_text(text.replace("begin subalgebra h\nend",
                                "begin subalgebra h\nrow = 1 0 0 0 0 0\nend"))
    code, _, err = run(capsys, "check", "--file", str(src),
                       "--questions", "tempered")
    assert code == 2
    assert "not stable under the complex structure" in err


# J of multiplication by i on sl(2, C) realified, one row per `complex`
# line: J e_k = e_(k+3) and J e_(k+3) = −e_k for k = 1, 2, 3
SL2C_COMPLEX_ROWS = """complex 1 = 0 0 0 -1 0 0
complex 2 = 0 0 0 0 -1 0
complex 3 = 0 0 0 0 0 -1
complex 4 = 1 0 0 0 0 0
complex 5 = 0 1 0 0 0 0
complex 6 = 0 0 1 0 0 0
"""


@pytest.mark.parametrize("rows, message", [
    # J e_1 = 2·e_4, so J² e_1 = −2·e_1
    (SL2C_COMPLEX_ROWS.replace("complex 4 = 1 0", "complex 4 = 2 0"),
     "complex structure does not square to -1"),
    # J² = −1, but J pairs H1 with iE12 and E12 with iH1:
    # [J H1, H1] = [iE12, H1] = −2i·E12 while J[H1, H1] = 0
    ("""complex 1 = 0 0 0 0 -1 0
complex 2 = 0 0 0 -1 0 0
complex 3 = 0 0 0 0 0 -1
complex 4 = 0 1 0 0 0 0
complex 5 = 1 0 0 0 0 0
complex 6 = 0 0 1 0 0 0
""", "bracket is not complex-linear for the stored complex structure at "
     "basis pair (1, 1)"),
])
def test_a_bad_complex_structure_exits_2(tmp_path, capsys, rows, message):
    text = serialize_pair(construct_from_spec("complex_simple_realified:sl2"))
    assert SL2C_COMPLEX_ROWS in text
    src = tmp_path / "bad_j.pair"
    src.write_text(text.replace(SL2C_COMPLEX_ROWS, rows))
    code, _, err = run(capsys, "check", "--file", str(src),
                       "--questions", "tempered")
    assert code == 2
    assert message in err


# torus_pair:sl2C in the basis H1, E12, E21/3, 2iH1, 2iE12, 2iE21/3: its
# structure constants are over 3, its matrices over 3 and J over 2
RESCALED = Path(__file__).parent / "data" / "sl2c_cartan_rescaled.pair"


def test_a_pair_with_denominators_round_trips():
    text = RESCALED.read_text(encoding="utf-8")
    pair = parse_pair_text(text)
    assert pair.g.den == 3 and pair.g.matrix_realization[1] == 3
    assert pair.complex_structure[1] == 2
    assert serialize_pair(pair) == text


def test_a_pair_with_denominators_checks_and_verifies(tmp_path, capsys):
    path = tmp_path / "rescaled.json"
    code, _, _ = run(capsys, "check", "--file", str(RESCALED),
                     "--format", "machine", "--output", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 4
    code, out, _ = run(capsys, "check", "--family", "torus_pair:sl2C",
                       "--questions", "tempered", "--format", "machine")
    assert code == 0
    ours = json.loads(path.read_text())["verdicts"][0]
    theirs = json.loads(out)["verdicts"][0]
    assert ours["question"] == theirs["question"] == "tempered"
    assert (ours["outcome"], ours["certificate"]) \
        == (theirs["outcome"], theirs["certificate"]) \
        == ("yes_certified", {"kind": "termwise"})
    # abelian h is decided term by term, with no margin; the lines agree
    assert decide_dominance(*rho_pair(parse_pair_text(RESCALED.read_text(
        encoding="utf-8")))).margin == decide_dominance(*rho_pair(
            construct_from_spec("torus_pair:sl2C"))).margin == 8


@pytest.mark.parametrize("edits, message", [
    # J e_1 = e_4, so J² e_1 = −2·e_1
    ({"complex 4 = 1/2 0": "complex 4 = 1 0"},
     "complex structure does not square to -1"),
    # J² = −1 still, but [J e_1, e_2] = 2·e_5 while J [e_1, e_2] = e_5
    ({"complex 4 = 1/2 0": "complex 4 = 1 0",
      "complex 1 = 0 0 0 -2 0": "complex 1 = 0 0 0 -1 0"},
     "bracket is not complex-linear for the stored complex structure at "
     "basis pair (1, 2)"),
])
def test_a_bad_complex_structure_with_denominators_exits_2(
        tmp_path, capsys, edits, message):
    text = RESCALED.read_text(encoding="utf-8")
    for old, new in edits.items():
        assert text.count(old) == 1
        text = text.replace(old, new)
    src = tmp_path / "bad_j.pair"
    src.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", "--file", str(src),
                         "--questions", "tempered")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# so23_so22 with its torus rows B13, B24 rescaled to B13/2, B24/3, in both
# torus blocks: its weights are not integers, and their denominator is 6
RESCALED_TORUS = Path(__file__).parent / "data" / \
    "so23_so22_rescaled_torus.pair"


def test_fractional_weights_are_written_as_fractions(capsys):
    text = RESCALED_TORUS.read_text(encoding="utf-8")
    assert serialize_pair(parse_pair_text(text)) == text
    code, out, _ = run(capsys, "rho", "--file", str(RESCALED_TORUS),
                       "--space", "g")
    assert code == 0
    lines = out.splitlines()
    start = lines.index("weights (value on torus basis : multiplicity):")
    end = lines.index("rho forms (nonzero weights):")
    assert lines[start + 1:end] == [
        "  (-1/2, -1/3) : 1", "  (-1/2, 0) : 1", "  (-1/2, 1/3) : 1",
        "  (0, -1/3) : 1", "  (0, 0) : 2", "  (0, 1/3) : 1",
        "  (1/2, -1/3) : 1", "  (1/2, 0) : 1", "  (1/2, 1/3) : 1"]


def test_fractional_weights_decide_and_verify(tmp_path, capsys):
    path = tmp_path / "rescaled_torus.json"
    code, _, _ = run(capsys, "check", "--file", str(RESCALED_TORUS),
                     "--format", "machine", "--output", str(path))
    assert code == 0
    tempered = json.loads(path.read_text())["verdicts"][0]
    assert (tempered["question"], tempered["outcome"]) \
        == ("tempered", "no_certified")
    cert = tempered["certificate"]
    assert (cert["ray"], cert["rho_h"], cert["rho_quotient"]) \
        == (["-1", "0"], "2", "1")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 4


@pytest.mark.parametrize("command", [("check", "--questions", "tempered"),
                                     ("rho", "--space", "g")])
def test_a_pair_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "bad.pair"
    path.write_bytes(bytes.fromhex("fffe00626164"))
    code, out, err = run(capsys, command[0], "--file", str(path),
                         *command[1:])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path} is not UTF-8 text: ")


@pytest.mark.parametrize("points, token", [
    ("abc", "abc"), ("1/0", "1/0"), ("1;2,x", "2,x"), ("3;", "")])
def test_rho_with_a_bad_point_exits_2(capsys, points, token):
    code, out, err = run(capsys, "rho", "--family", "torus_pair:sl2",
                         "--space", "g", "--points", points)
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad point {token!r} in --points")


def test_no_numpy_or_sympy_is_imported(tmp_path):
    # a fresh interpreter runs the fixture suite, then checks and verifies
    # a pair with a non-diagonal torus and a complex search
    script = """
import contextlib, io, os, sys
from liepair.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(list(argv)) == 0, argv
    return out.getvalue()

run("fixtures")
for spec, question in (("torus_pair:so_4_4", "tempered"),
                       ("diagonal_pair:sp_4", "complex-spherical")):
    path = os.path.join(sys.argv[1], spec.replace(":", "_") + ".json")
    run("check", "--family", spec, "--questions", question,
        "--format", "machine", "--output", path)
    out = run("verify", path)
    assert "PASS" in out and "FAIL" not in out, out
print(sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "sympy"}))
"""
    env = dict(os.environ,
               PYTHONPATH=str(Path(liepair.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_cone_budget_exit_3(capsys):
    # on the diagonal of (sl5, sl3) the forms y_i − y_j and y_i cut the
    # plane along 6 lines: 7 flats with the plane
    code, _, err = run(capsys, "check", "--family", "block_pair:5:3",
                       "--questions", "tempered", "--cone-budget", "2")
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("command", ["check", "fixtures"])
@pytest.mark.parametrize("flag, value, why", [
    ("--samples", "-3", "at least 1"), ("--samples", "0", "at least 1"),
    ("--samples", "2.5", "invalid integer"),
    ("--cone-budget", "-1", "at least 1"), ("--cone-budget", "0", "at least 1"),
])
def test_run_flags_below_one_exit_2(capsys, command, flag, value, why):
    argv = [command, flag, value, "--format", "machine"]
    if command == "check":
        argv += ["--family", "triple_diagonal:sl3",
                 "--questions", "real-spherical"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert flag in out.err and why in out.err


def test_rho_values(capsys):
    code, out, _ = run(capsys, "rho", "--family", "torus_pair:sl2",
                       "--space", "g", "--points", "1;3;0")
    assert code == 0
    assert "rho(1) = 4" in out
    assert "rho(3) = 12" in out
    assert "rho(0) = 0" in out


def test_rho_quotient_sl3_sl2(capsys):
    src = fixtures_dir() / "sl3_sl2_topleft.pair"
    code, out, _ = run(capsys, "rho", "--file", str(src),
                       "--space", "g/h", "--points", "1")
    assert code == 0
    assert "rho(1) = 4" in out


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "triple_diagonal" in out and "whittaker_nilradical" in out
    assert "symmetric_sl3_so3" in out  # fixtures listed with expectations
    code, out, _ = run(capsys, "catalog", "show", "symmetric_pair_fixed_points")
    assert code == 0 and "involution" in out
    code, _, err = run(capsys, "catalog", "show", "nothing")
    assert code == 2


def test_verify_subcommand_round_trip(tmp_path, capsys):
    rep_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "check", "--family", "diagonal_pair:sl2",
                     "--format", "machine", "--output", str(rep_path),
                     "--samples", "16")
    assert code == 0
    code, out, _ = run(capsys, "verify", str(rep_path))
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 3


def test_verify_detects_tampering(tmp_path, capsys):
    rep_path = tmp_path / "report.json"
    run(capsys, "check", "--family", "diagonal_pair:sl2", "--format",
        "machine", "--output", str(rep_path), "--questions", "tempered")
    rep = json.loads(rep_path.read_text())
    rep["verdicts"][0]["certificate"]["margin"] = "5"
    rep_path.write_text(json.dumps(rep))
    code, out, _ = run(capsys, "verify", str(rep_path))
    assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("question, outcome", [
    ("real_spherical", "yes_certified"), ("tempered", "no_certified"),
    ("tempered", "certified")])  # the last outcome is outside the schema
def test_verify_fails_a_certified_verdict_without_a_certificate(
        tmp_path, capsys, question, outcome):
    rep_path = tmp_path / "report.json"
    run(capsys, "check", "--family", "torus_pair:sl4", "--format", "machine",
        "--output", str(rep_path), "--questions", "real-spherical,tempered")
    rep = json.loads(rep_path.read_text())
    outcomes = {v["question"]: v["outcome"] for v in rep["verdicts"]}
    assert outcomes == {"tempered": "yes_certified",
                        "real_spherical": "probable_no"}
    (verdict,) = [v for v in rep["verdicts"] if v["question"] == question]
    verdict.update(outcome=outcome, certificate=None)
    rep_path.write_text(json.dumps(rep))
    code, out, _ = run(capsys, "verify", str(rep_path))
    assert code == 1
    assert f"FAIL sl4 / Cartan [{question}]: no certificate attached" in out
    if question == "tempered":
        # a probable_no verdict carries no certificate, and has none to check
        assert ("---- sl4 / Cartan [real_spherical]: no certificate "
                "(nothing to verify)") in out


def test_verify_rejects_an_old_schema(tmp_path, capsys):
    rep_path = tmp_path / "report.json"
    run(capsys, "check", "--family", "diagonal_pair:sl2", "--format",
        "machine", "--output", str(rep_path), "--questions", "tempered")
    rep = json.loads(rep_path.read_text())
    rep["schema"] = "liepair.report/1"
    rep_path.write_text(json.dumps(rep))
    code, out, err = run(capsys, "verify", str(rep_path))
    assert code == 2 and out == ""
    assert "liepair.report/1" in err and "schema" in err
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps({"schema": "liepair.report-suite/1",
                                      "reports": [rep]}))
    code, out, err = run(capsys, "verify", str(suite_path))
    assert code == 2 and out == "" and "liepair.report-suite/1" in err


def test_verify_fails_a_word_step_without_t(tmp_path, capsys):
    rep_path = tmp_path / "report.json"
    run(capsys, "check", "--family", "triple_diagonal:sl2", "--format",
        "machine", "--output", str(rep_path), "--questions", "real-spherical")
    rep = json.loads(rep_path.read_text())
    cert = rep["verdicts"][0]["certificate"]
    assert cert["kind"] == "open-orbit" and cert["word"]
    del cert["word"][0]["t"]
    rep_path.write_text(json.dumps(rep))
    code, out, err = run(capsys, "verify", str(rep_path))
    assert code == 1 and err == ""
    assert out.startswith("FAIL") and "missing key 't'" in out


@pytest.mark.parametrize("content", [b"not json {", b"\xff\xfe\x00", b""])
def test_verify_rejects_a_file_that_is_not_json(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert "not a JSON report" in err


@pytest.mark.parametrize("report", [
    {"schema": "liepair.report/3"},
    {"schema": "liepair.report/3", "pair": {"source": "SL2"}},
    {"schema": "liepair.report/3", "pair": "SL2", "verdicts": []},
    {"schema": "liepair.report/3", "pair": {"source": 1}, "verdicts": []},
    {"schema": "liepair.report/3", "pair": {"source": "SL2"},
     "verdicts": [1]},
    {"schema": "liepair.report-suite/3"},
], ids=["no-pair", "no-verdicts", "pair-string", "source-number",
        "verdict-number", "suite-without-reports"])
def test_verify_rejects_a_report_without_its_fields(tmp_path, capsys, report):
    sl2 = (fixtures_dir() / "sl2_split_torus.pair").read_text()
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report).replace('"SL2"', json.dumps(sl2)))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and err.startswith("error: malformed")


def test_verify_rejects_a_directory(tmp_path, capsys):
    code, out, err = run(capsys, "verify", str(tmp_path))
    assert code == 2 and out == "" and "directory" in err.lower()


def test_fixtures_subcommand_human(capsys):
    code, out, _ = run(capsys, "fixtures", "--samples", "16")
    assert code == 0
    assert "all matched" in out


def test_fixtures_fails_an_expected_margin_that_the_certificate_lacks(
        capsys, monkeypatch):
    # the tempered certificate of sl2_split_torus is termwise with unequal
    # tables (rho_h = 0), which carries no margin; the lines give margin 4
    text = (fixtures_dir() / "sl2_split_torus.pair").read_text()
    old = "expect tempered yes_certified source="
    assert old in text
    pair = parse_pair_text(text.replace(
        old, "expect tempered yes_certified margin=4 source="))
    monkeypatch.setattr(
        "liepair.report.FIXTURES",
        (SimpleNamespace(name="sl2_split_torus", build=lambda: pair),))
    code, out, _ = run(capsys, "fixtures", "--samples", "16")
    assert code == 1
    assert "MISMATCH sl2_split_torus/tempered: margin None != 4" in out
    assert "expectations: 1 mismatches" in out


def test_verify_accepts_suite_reports(tmp_path, capsys):
    code, out, _ = run(capsys, "fixtures", "--samples", "16",
                       "--format", "machine")
    assert code == 0
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(out)
    code, out, _ = run(capsys, "verify", str(suite_path))
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 20


def _break_cartan_compact(text):
    # iE in place of iH: it does not commute with the split torus H of the
    # complexification, so the complexification fails torus validation
    assert "cartan-compact = 0 0 0 1 0 0" in text
    return text.replace("cartan-compact = 0 0 0 1 0 0",
                        "cartan-compact = 0 0 0 0 1 0")


def test_invalid_cartan_compact_row_fails_only_the_complex_question(
        tmp_path, capsys):
    path = tmp_path / "broken.pair"
    path.write_text(_break_cartan_compact(
        (fixtures_dir() / "sl2c_cartan.pair").read_text()))
    code, out, _ = run(capsys, "check", "--file", str(path),
                       "--questions", "tempered")
    assert code == 0 and "tempered] -> yes_certified" in out
    code, out, err = run(capsys, "check", "--file", str(path),
                         "--questions", "complex-spherical")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot build the complexification")


def test_verify_fails_a_complex_certificate_whose_complexification_breaks(
        tmp_path, capsys):
    rep_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "check", "--file",
                     str(fixtures_dir() / "sl2c_cartan.pair"), "--format",
                     "machine", "--output", str(rep_path), "--questions",
                     "tempered,complex-spherical", "--samples", "16")
    assert code == 0
    rep = json.loads(rep_path.read_text())
    assert [v["outcome"] for v in rep["verdicts"]] == ["yes_certified"] * 2
    rep["pair"]["source"] = _break_cartan_compact(rep["pair"]["source"])
    rep_path.write_text(json.dumps(rep))
    code, out, err = run(capsys, "verify", str(rep_path))
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("PASS") and "[tempered]" in lines[0]
    assert lines[1].startswith("FAIL") and "[complex_spherical]" in lines[1]
    assert "cannot build the complexification" in lines[1]
