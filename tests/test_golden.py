"""The fixture suite's machine report, byte for byte.

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

from liepair.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "fixtures_seed0.machine.json"


def test_fixtures_machine_report_matches_golden_bytes(capsysbinary):
    assert main(["fixtures", "--format", "machine", "--seed", "0"]) == 0
    assert capsysbinary.readouterr().out == GOLDEN.read_bytes()
