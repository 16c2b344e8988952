import json

from liepair.catalog import fixtures_dir
from liepair.cli import main


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
    assert report["schema"] == "liepair.report/2"
    assert report["settings"]["seed"] == 7


def test_check_from_file(tmp_path, capsys):
    src = fixtures_dir() / "sl2_split_torus.pair"
    code, out, _ = run(capsys, "check", "--file", str(src),
                       "--questions", "tempered", "--format", "machine")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"][0]["outcome"] == "yes_certified"


def test_check_requires_source(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2 and "required" in err


def test_unknown_family_exits_2(capsys):
    code, _, err = run(capsys, "check", "--family", "nope:sl2")
    assert code == 2 and "unknown family" in err


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


def test_cone_budget_exit_3(capsys):
    # the roots of sl3 cut the plane along 3 lines: 4 flats with the plane
    code, _, err = run(capsys, "check", "--family", "torus_pair:sl3",
                       "--questions", "tempered", "--cone-budget", "2")
    assert code == 3 and "budget" in err


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


def test_fixtures_subcommand_human(capsys):
    code, out, _ = run(capsys, "fixtures", "--samples", "16")
    assert code == 0
    assert "all matched" in out


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
