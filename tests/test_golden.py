"""Machine reports, byte for byte: the fixture suite's, and those of four
searches that the fixtures do not run.

`tests/golden/fixtures_seed0.machine.json` is the output of

    liepair fixtures --format machine --seed 0

A change that is meant to keep every verdict and certificate must leave
these bytes alone.  A change that bumps the report schema or the tool
version, or that changes a certificate on purpose, regenerates the file
with the command above (from a checkout, `PYTHONPATH=src python -c "import
sys; from liepair.cli import main; sys.exit(main())" fixtures --format
machine --seed 0 > tests/golden/fixtures_seed0.machine.json`) and says in
its change log why the bytes moved.
"""

from pathlib import Path

import pytest

from liepair.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "fixtures_seed0.machine.json"

# Open-orbit and stabilizer searches the fixture file does not pin: a torus
# pair on each space, a search that finds a witness, and searches on a
# complexification of dim 40.  Each file is the output of
#
#     liepair check --family SPEC --questions QUESTIONS --format machine --seed 0
#
# and is named check_<SPEC>_<QUESTIONS>_seed0.machine.json, with ':' and ','
# written as '_'; regenerate it as the fixture file above, with these
# arguments in place of `fixtures ...`.
SEARCHES = (
    ("torus_pair:sl4", "real-spherical"),
    ("torus_pair:sl3", "complex-spherical"),
    ("whittaker_nilradical:sl4", "real-spherical"),
    ("diagonal_pair:sp_4", "complex-spherical,stabilizer"),
)


def test_fixtures_machine_report_matches_golden_bytes(capsysbinary):
    assert main(["fixtures", "--format", "machine", "--seed", "0"]) == 0
    assert capsysbinary.readouterr().out == GOLDEN.read_bytes()


@pytest.mark.parametrize("spec, questions", SEARCHES)
def test_search_machine_report_matches_golden_bytes(capsysbinary, spec,
                                                    questions):
    name = (f"check_{spec.replace(':', '_')}_"
            f"{questions.replace(',', '_')}_seed0.machine.json")
    assert main(["check", "--family", spec, "--questions", questions,
                 "--format", "machine", "--seed", "0"]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN_DIR / name).read_bytes()
