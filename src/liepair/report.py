"""Verdict reports: canonical machine-readable JSON and a human rendering.

The machine document is the tool's API: fixed key order, exact fractions as
strings, no floats, and nothing wall-clock dependent, so byte-identical
output is guaranteed for identical (input, flags, seed, version).  Timing is
shown in the human rendering only.  The embedded pair source makes a report
self-contained for standalone certificate re-verification.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .algebra import ValidationError
from .catalog import FIXTURES
from .checks import (
    DEFAULT_SAMPLES,
    Interpretation,
    MissingComplexData,
    Pair,
    UnsupportedQuery,
    Verdict,
    interpret,
    run_question,
    verify_certificate,
)
from .pairfile import parse_pair_text, serialize_pair
from .polyhedral import DEFAULT_CONE_BUDGET

SCHEMA = "liepair.report/3"
SUITE_SCHEMA = "liepair.report-suite/3"


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def verdict_to_json(v: Verdict) -> dict:
    return {
        "question": v.question,
        "outcome": v.outcome,
        "samples_used": v.samples_used,
        "seed": v.seed,
        "certificate": _jsonable(v.certificate),
        "conclusions": list(v.conclusions),
        "notes": list(v.notes),
    }


def verdict_from_json(d: dict) -> Verdict:
    return Verdict(question=d["question"], outcome=d["outcome"],
                   certificate=d.get("certificate"),
                   samples_used=d.get("samples_used", 0),
                   seed=d.get("seed"),
                   conclusions=tuple(d.get("conclusions", ())),
                   notes=tuple(d.get("notes", ())))


def build_report(pair: Pair, verdicts, interpretation: Interpretation,
                 questions, samples, seed, cone_budget) -> dict:
    return {
        "schema": SCHEMA,
        "tool": {"name": "liepair", "version": __version__},
        "pair": {
            "name": pair.name,
            "provenance": pair.provenance,
            "dim_g": pair.g.dim,
            "dim_h": pair.h.dim,
            "rank_torus_h": pair.torus_h.rank,
            "rank_torus_g": pair.torus_g.rank,
            "is_complex_pair": pair.is_complex_pair,
            "has_complexification": pair.compact_cartan_rows is not None,
            "source": serialize_pair(pair),
        },
        "settings": {
            "questions": list(questions),
            "samples": samples,
            "seed": seed,
            "cone_budget": cone_budget,
        },
        "verdicts": [verdict_to_json(v) for v in verdicts],
        "conclusions": list(interpretation.conclusions),
        "cross_checks": list(interpretation.cross_checks),
    }


def render_machine(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def render_human(report: dict, elapsed=None) -> str:
    p = report["pair"]
    lines = []
    lines.append(f"pair: {p['name']}")
    lines.append(f"  provenance: {p['provenance']}")
    lines.append(f"  dim g = {p['dim_g']}, dim h = {p['dim_h']}, "
                 f"rank a_h = {p['rank_torus_h']}, rank a_g = {p['rank_torus_g']}")
    if p["is_complex_pair"]:
        lines.append("  complex pair (carries a complex structure)")
    s = report["settings"]
    lines.append(f"settings: seed={s['seed']} samples={s['samples']} "
                 f"cone_budget={s['cone_budget']}")
    for v in report["verdicts"]:
        lines.append(f"[{v['question']}] -> {v['outcome']} "
                     f"(samples used: {v['samples_used']})")
        cert = v.get("certificate")
        if cert:
            kind = cert.get("kind")
            if kind == "dominance":
                lines.append(f"    margin {cert['margin']} over "
                             f"{cert['line_count']} lines")
            elif kind == "dominance-violation":
                lines.append(f"    violating ray {cert['ray']}: "
                             f"rho_h = {cert['rho_h']} > "
                             f"rho_g/h = {cert['rho_quotient']}")
            elif kind == "open-orbit":
                lines.append(f"    witness word of length "
                             f"{len(cert['word'])} on space {cert['space']}")
            elif kind == "stabilizer":
                lines.append(f"    minimal stabilizer dim {cert['dimension']}"
                             f", abelian: {cert['abelian']}")
        for note in v.get("notes", ()):
            lines.append(f"    note: {note}")
    if report["conclusions"]:
        lines.append("conclusions:")
        for c in report["conclusions"]:
            lines.append(f"  - {c}")
    for c in report["cross_checks"]:
        lines.append(f"cross-check: {c}")
    if elapsed is not None:
        lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines) + "\n"


def run_checks(pair: Pair, questions, samples=DEFAULT_SAMPLES, seed=0,
               cone_budget=DEFAULT_CONE_BUDGET, strict=True):
    """Run the requested questions in canonical order.

    With strict=False, questions the pair cannot support (missing
    complexification, unasserted torus maximality) yield an 'unknown' verdict
    with a diagnostic note instead of raising; that is the behaviour for the
    default run-everything mode of the CLI.
    """
    verdicts = []
    for q in questions:
        try:
            verdicts.append(run_question(pair, q, samples=samples, seed=seed,
                                         cone_budget=cone_budget))
        except (MissingComplexData, UnsupportedQuery) as e:
            if strict:
                raise
            verdicts.append(Verdict(question=q, outcome="unknown",
                                    certificate=None, samples_used=0,
                                    seed=seed, conclusions=(),
                                    notes=(str(e),)))
    return verdicts


def report_for_pair(pair: Pair, questions, samples=DEFAULT_SAMPLES, seed=0,
                    cone_budget=DEFAULT_CONE_BUDGET, strict=True) -> dict:
    verdicts = run_checks(pair, questions, samples=samples, seed=seed,
                          cone_budget=cone_budget, strict=strict)
    interp = interpret(pair, verdicts)
    return build_report(pair, verdicts, interp, questions, samples, seed,
                        cone_budget)


def run_fixture_suite(seed=0, samples=DEFAULT_SAMPLES,
                      cone_budget=DEFAULT_CONE_BUDGET) -> dict:
    """One machine document covering every bundled fixture, running exactly
    the questions its expectations announce.  Deterministic for a fixed
    seed; the acceptance suite compares two runs byte for byte."""
    reports = []
    mismatches = []
    for fx in FIXTURES:
        pair = fx.build()
        questions = [e.question for e in pair.expectations]
        rep = report_for_pair(pair, questions, samples=samples, seed=seed,
                              cone_budget=cone_budget)
        rep["fixture"] = fx.name
        outcomes = {v["question"]: v for v in rep["verdicts"]}
        for e in pair.expectations:
            got = outcomes[e.question]
            problems = []
            if got["outcome"] != e.outcome:
                problems.append(f"outcome {got['outcome']} != {e.outcome}")
            if e.margin is not None:
                cert = got.get("certificate") or {}
                margin = cert.get("margin")
                if margin is None or Fraction(margin) != e.margin:
                    problems.append(f"margin {margin} != {e.margin}")
            if e.dimension is not None:
                cert = got.get("certificate") or {}
                if cert.get("dimension") != e.dimension:
                    problems.append(
                        f"dimension {cert.get('dimension')} != {e.dimension}")
            if problems:
                mismatches.append(
                    f"{fx.name}/{e.question}: " + "; ".join(problems))
        reports.append(rep)
    return {
        "schema": SUITE_SCHEMA,
        "tool": {"name": "liepair", "version": __version__},
        "settings": {"seed": seed, "samples": samples,
                     "cone_budget": cone_budget},
        "reports": reports,
        "expectation_mismatches": mismatches,
    }


def verify_report(report: dict):
    """Re-check every certificate embedded in a machine report, from the
    serialized pair source alone.  Returns a list of (question, ok, detail),
    ok None for an uncertified verdict without a certificate.  A report of
    another schema, or one without a pair source or verdicts, raises
    ValidationError."""
    schema = report.get("schema") if isinstance(report, dict) else None
    if schema != SCHEMA:
        raise ValidationError(
            f"unsupported report schema {schema!r}: this liepair reads "
            f"{SCHEMA!r} and {SUITE_SCHEMA!r}; run liepair again to "
            "regenerate the report")
    try:
        source = report["pair"]["source"]
        verdicts = [verdict_from_json(vd) for vd in report["verdicts"]]
    except (AttributeError, KeyError, TypeError) as e:
        raise ValidationError(
            f"malformed report: {type(e).__name__}: {e}") from None
    if not isinstance(source, str):
        raise ValidationError("malformed report: the pair source is not text")
    pair = parse_pair_text(source)
    out = []
    for v in verdicts:
        if v.certificate is None and v.outcome in ("probable_no", "unknown"):
            out.append((v.question, None, "no certificate (nothing to verify)"))
            continue
        ok, detail = verify_certificate(pair, v)
        out.append((v.question, ok, detail))
    return out
