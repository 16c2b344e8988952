#!/usr/bin/env python3
"""Print one SHA-256 digest per benchmark workload, one for the fixture
suite, one for `liepair rho` and two for the pair-file parser, so that two
checkouts can be compared for byte-identical output.

A workload's digest covers, for every job of the workload (as listed in
`perfbench/workloads.py`) at the first three pass seeds of benchmark run
seed 0, the machine report that `liepair check --format machine` writes and
the (question, ok, detail) results of `report.verify_report` on it.  The
fourth digest covers the output and exit code of `liepair fixtures --format
machine` at seeds 0, 1 and 2.  The fifth covers the output and exit code of
`liepair rho --space g|h|g/h` on each shipped `.pair` file and on
`torus_pair:so_4_4`, each without points and with three points of the rank
of torus_h.  The sixth covers what `parse_pair_text` makes of each shipped
`.pair` file with one non-blank line deleted, and with one line written
twice, for every line: the exception's type and message, or else the
`serialize_pair` text of the pair.  The seventh covers the same for each
shipped `.pair` file with one entry of one `c`, `matrix` or `row` line
incremented by 1, for every such entry (of a `c` line, the coefficient
after the colon).

Run from the repository root of each checkout and compare the lines:
    python scripts/report_digest.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from liepair import report  # noqa: E402
from liepair.catalog import construct_from_spec  # noqa: E402
from liepair.cli import main as liepair_main  # noqa: E402
from liepair.pairfile import (  # noqa: E402
    parse_pair_file,
    parse_pair_text,
    serialize_pair,
)
from worker import check_pass, pass_seed  # noqa: E402
from workloads import WORKLOADS, setup  # noqa: E402

PASSES = 3
FIXTURE_FILES = sorted((ROOT / "src/liepair/fixtures").glob("*.pair"))
RHO_FAMILIES = ("torus_pair:so_4_4",)
COORDINATES = ("1", "1/2", "-3", "2/7", "-5/3", "4")


def _verify_detail(text):
    """The (question, ok, detail) results of re-checking one machine text,
    or the error the re-check raised; None for a job that failed to run."""
    if text is None:
        return None
    try:
        return [list(r) for r in report.verify_report(json.loads(text))]
    except Exception as e:  # a verifier crash is part of the output
        return {"error": f"{type(e).__name__}: {e}"}


def workload_digest(name):
    jobs = setup(name)
    h = hashlib.sha256()
    for index in range(PASSES):
        s = pass_seed(0, index)
        texts, _, errors = check_pass(jobs, s)
        for (job, _), text in zip(jobs, texts):
            h.update(json.dumps([job.spec, s, text, _verify_detail(text)],
                                sort_keys=True).encode())
        h.update(json.dumps(errors).encode())
    return h.hexdigest()


def fixture_suite_digest():
    h = hashlib.sha256()
    for s in range(PASSES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = liepair_main(["fixtures", "--format", "machine",
                                 "--seed", str(s)])
        h.update(json.dumps([s, code, buf.getvalue()]).encode())
    return h.hexdigest()


def _cli_output(argv):
    """Exit code, stdout and stderr of one `liepair` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = liepair_main(argv)
    return [code, out.getvalue(), err.getvalue()]


def _points(rank):
    """Three points of this rank in `--points` syntax, or None at rank 0."""
    if rank == 0:
        return None
    return ";".join(",".join(COORDINATES[(i + j) % len(COORDINATES)]
                             for j in range(rank)) for i in range(3))


def rho_digest():
    sources = [(["--file", str(path.relative_to(ROOT))], parse_pair_file(path))
               for path in FIXTURE_FILES]
    sources += [(["--family", spec], construct_from_spec(spec))
                for spec in RHO_FAMILIES]
    h = hashlib.sha256()
    for source, pair in sources:
        points = _points(pair.torus_h.rank)
        for space in ("g", "h", "g/h"):
            argv = ["rho", *source, "--space", space]
            h.update(json.dumps([argv, _cli_output(argv)]).encode())
            if points is not None:
                argv += ["--points", points]
                h.update(json.dumps([argv, _cli_output(argv)]).encode())
    return h.hexdigest()


def _parse_outcome(text):
    """The canonical text of the pair parsed from `text`, or the error the
    parser raised."""
    try:
        return serialize_pair(parse_pair_text(text))
    except Exception as e:  # a parser crash is part of the output
        return f"{type(e).__name__}: {e}"


def parse_digest():
    h = hashlib.sha256()
    for path in FIXTURE_FILES:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for i, line in enumerate(lines):
            edits = [("doubled", lines[:i + 1] + lines[i:])]
            if line.strip():
                edits.append(("deleted", lines[:i] + lines[i + 1:]))
            for edit, edited in edits:
                h.update(json.dumps([path.name, i + 1, edit,
                                     _parse_outcome("".join(edited))]).encode())
    return h.hexdigest()


# the first entry of each line kind that may be incremented
ENTRY_START = {"c": 4, "matrix": 3, "row": 2}


def _incremented(tok):
    """The token with its value incremented by 1; of a `c` entry `k:v`, v."""
    target, colon, value = tok.rpartition(":")
    return f"{target}{colon}{Fraction(value.replace('−', '-')) + 1}"


def entry_edit_digest():
    h = hashlib.sha256()
    for path in FIXTURE_FILES:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for i, line in enumerate(lines):
            toks = line.split()
            start = ENTRY_START.get(toks[0]) if toks else None
            if start is None:
                continue
            for t in range(start, len(toks)):
                edited = " ".join(toks[:t] + [_incremented(toks[t])]
                                  + toks[t + 1:]) + "\n"
                text = "".join(lines[:i] + [edited] + lines[i + 1:])
                h.update(json.dumps([path.name, i + 1, t,
                                     _parse_outcome(text)]).encode())
    return h.hexdigest()


def main():
    for name in WORKLOADS:
        print(f"{name:24s} {workload_digest(name)}")
    print(f"{'liepair fixtures':24s} {fixture_suite_digest()}")
    print(f"{'liepair rho':24s} {rho_digest()}")
    print(f"{'pair-file parser':24s} {parse_digest()}")
    print(f"{'pair-file entries':24s} {entry_edit_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
