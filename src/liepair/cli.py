"""Command-line driver.

Exit codes: 0 = all requested questions answered (whatever the outcomes),
2 = input error (bad family, bad file, unsupported question for the pair,
--samples or --cone-budget below 1),
3 = budget exceeded: the hyperplane arrangement of the tempered check has
more flats than --cone-budget allows (the flat count never exceeds the
number of cones of the arrangement).

Every source of nondeterminism is a flag (--seed, --samples, --cone-budget);
machine output is byte-deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from .algebra import ValidationError
from .catalog import FAMILIES, FIXTURES, UnsupportedParams, construct_from_spec
from .checks import DEFAULT_SAMPLES, QUESTIONS, InconsistentVerdicts
from .linalg import frac
from .pairfile import ParseError, parse_pair_file
from .polyhedral import DEFAULT_CONE_BUDGET, ConeBudgetExceeded
from .report import (
    SUITE_SCHEMA,
    render_human,
    render_machine,
    report_for_pair,
    run_fixture_suite,
    verify_report,
)
from .weights import (
    quotient_weights,
    rho_eval,
    rho_from_weights,
    weight_decomposition,
)

_QUESTION_ALIASES = {
    "tempered": "tempered",
    "real-spherical": "real_spherical",
    "real_spherical": "real_spherical",
    "complex-spherical": "complex_spherical",
    "complex_spherical": "complex_spherical",
    "stabilizer": "generic_stabilizer_abelian",
    "generic-stabilizer": "generic_stabilizer_abelian",
    "generic_stabilizer_abelian": "generic_stabilizer_abelian",
}


def _load_pair(args):
    if getattr(args, "family", None):
        return construct_from_spec(args.family)
    if getattr(args, "file", None):
        return parse_pair_file(args.file)
    raise UnsupportedParams("one of --family or --file is required")


def _parse_questions(spec):
    if not spec:
        return list(QUESTIONS), False
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if tok not in _QUESTION_ALIASES:
            raise UnsupportedParams(f"unknown question {tok!r}")
        q = _QUESTION_ALIASES[tok]
        if q not in out:
            out.append(q)
    return [q for q in QUESTIONS if q in out], True


def cmd_check(args) -> int:
    pair = _load_pair(args)
    questions, explicit = _parse_questions(args.questions)
    t0 = time.monotonic()
    report = report_for_pair(pair, questions, samples=args.samples,
                             seed=args.seed, cone_budget=args.cone_budget,
                             strict=explicit)
    elapsed = time.monotonic() - t0
    text = render_machine(report) if args.format == "machine" \
        else render_human(report, elapsed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_rho(args) -> int:
    pair = _load_pair(args)
    torus = pair.torus_h
    if args.space == "g/h":
        weights = quotient_weights(weight_decomposition(torus, "g"),
                                   weight_decomposition(torus, "h"))
    else:
        weights = weight_decomposition(torus, args.space).weights
    rho = rho_from_weights(torus, weights)

    def values(lam):
        return ", ".join(str(Fraction(x, torus.den)) for x in lam)

    out = []
    out.append(f"pair: {pair.name}")
    out.append(f"space: {args.space} (dim {sum(m for _, m in weights)}), "
               f"torus rank {torus.rank}")
    out.append("weights (value on torus basis : multiplicity):")
    for lam, m in weights:
        out.append(f"  ({values(lam)}) : {m}")
    out.append("rho forms (nonzero weights):")
    for lam, m in rho.forms:
        out.append(f"  ({values(lam)}) x {m}")
    if args.points:
        for tok in args.points.split(";"):
            try:
                pt = [frac(x) for x in tok.split(",")]
            except (ValueError, ZeroDivisionError):
                raise UnsupportedParams(
                    f"bad point {tok!r} in --points: each coordinate must "
                    "be a fraction literal such as -3/2") from None
            out.append(f"rho({tok}) = {rho_eval(rho, pt)}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        print("families:")
        for fam, (params, _) in FAMILIES.items():
            print(f"  {fam}: {params}")
        print("bundled fixtures:")
        for fx in FIXTURES:
            print(f"  {fx.name}: {fx.description}")
            pair = fx.build()
            for e in pair.expectations:
                extra = ""
                if e.margin is not None:
                    extra += f" margin={e.margin}"
                if e.dimension is not None:
                    extra += f" dim={e.dimension}"
                print(f"    expect {e.question} = {e.outcome}{extra}"
                      f"  [{e.source}]")
        return 0
    if args.action == "show":
        if not args.name:
            raise UnsupportedParams("catalog show needs a family name")
        if args.name in FAMILIES:
            params, _ = FAMILIES[args.name]
            print(f"{args.name}: parameters = {params}")
            return 0
        for fx in FIXTURES:
            if fx.name == args.name:
                print(f"fixture {fx.name}: {fx.description}")
                return 0
        raise UnsupportedParams(f"unknown family or fixture {args.name!r}")
    raise UnsupportedParams(f"unknown catalog action {args.action!r}")


def cmd_verify(args) -> int:
    import json

    with open(args.report, encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except ValueError as e:  # not UTF-8, or not JSON
            raise ValidationError(
                f"{args.report} is not a JSON report: {e}") from e
    is_suite = isinstance(report, dict) and report.get("schema") == SUITE_SCHEMA
    reports = report.get("reports") if is_suite else [report]
    if not isinstance(reports, list):
        raise ValidationError(
            f"malformed suite report: {args.report} has no list of reports")
    all_ok = True
    for rep in reports:
        # before any field is read, so a report of another schema exits 2
        results = verify_report(rep)
        label = rep.get("fixture") or rep["pair"].get("name")
        for question, ok, detail in results:
            status = "PASS" if ok else ("----" if ok is None else "FAIL")
            print(f"{status} {label} [{question}]: {detail}")
            if ok is False:
                all_ok = False
    return 0 if all_ok else 1


def cmd_fixtures(args) -> int:
    suite = run_fixture_suite(seed=args.seed, samples=args.samples,
                              cone_budget=args.cone_budget)
    if args.format == "machine":
        sys.stdout.write(render_machine(suite))
    else:
        for rep in suite["reports"]:
            outcomes = ", ".join(f"{v['question']}={v['outcome']}"
                                 for v in rep["verdicts"])
            print(f"{rep['fixture']}: {outcomes}")
        for m in suite["expectation_mismatches"]:
            print(f"MISMATCH {m}")
        print("expectations: "
              + ("all matched" if not suite["expectation_mismatches"]
                 else f"{len(suite['expectation_mismatches'])} mismatches"))
    return 0 if not suite["expectation_mismatches"] else 1


def _at_least_one(text):
    """argparse type of a count flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    ap = argparse.ArgumentParser(
        prog="liepair",
        description="Exact temperedness and sphericity checks for reductive "
                    "pairs (g, h)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_pair_source(p):
        p.add_argument("--family", help="catalog spec, e.g. triple_diagonal:sl2")
        p.add_argument("--file", help="pair file path")

    def add_run_flags(p):
        p.add_argument("--samples", type=_at_least_one, default=DEFAULT_SAMPLES)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cone-budget", type=_at_least_one,
                       default=DEFAULT_CONE_BUDGET,
                       dest="cone_budget",
                       help="most flats of the tempered check's hyperplane "
                            "arrangement to enumerate (exit 3 beyond it)")

    pc = sub.add_parser("check", help="run decision procedures on a pair")
    add_pair_source(pc)
    pc.add_argument("--questions",
                    help="comma list: tempered,real-spherical,"
                         "complex-spherical,stabilizer (default: all)")
    add_run_flags(pc)
    pc.add_argument("--format", choices=("human", "machine"), default="human")
    pc.add_argument("--output", help="write the report to a file")
    pc.set_defaults(func=cmd_check)

    pr = sub.add_parser("rho", help="weights and exact rho values on torus_h")
    add_pair_source(pr)
    pr.add_argument("--space", choices=("h", "g/h", "g"), required=True)
    pr.add_argument("--points",
                    help="semicolon-separated points, coords comma-separated, "
                         "e.g. '1;1/2,-3'")
    pr.set_defaults(func=cmd_rho)

    pcat = sub.add_parser("catalog", help="list families and fixtures")
    pcat.add_argument("action", choices=("list", "show"))
    pcat.add_argument("name", nargs="?")
    pcat.set_defaults(func=cmd_catalog)

    pv = sub.add_parser("verify",
                        help="re-verify certificates embedded in a machine "
                             "report")
    pv.add_argument("report")
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("fixtures", help="run the bundled fixture suite")
    add_run_flags(pf)
    pf.add_argument("--format", choices=("human", "machine"), default="human")
    pf.set_defaults(func=cmd_fixtures)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConeBudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (UnsupportedParams, ParseError, ValidationError,
            FileNotFoundError, IsADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InconsistentVerdicts as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
