"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is deterministic (fixed seeds throughout).
"""

import itertools
import json
from fractions import Fraction
from random import Random

import numpy as np

from liepair.catalog import build_fixture
from liepair.checks import (
    check_generic_stabilizer,
    check_real_spherical,
    check_tempered,
    interpret,
    run_question,
    verify_certificate,
)
from liepair.linalg import fraction_row
from liepair.pairfile import parse_pair_text, serialize_pair
from liepair.polyhedral import decide_dominance
from liepair.report import (
    render_machine,
    run_fixture_suite,
    verdict_from_json,
    verdict_to_json,
)
from liepair.weights import (
    rho_eval,
    rho_from_weights,
)

from conftest import (
    module_weights,
    numeric_rho,
    random_fraction,
    randomized_dominance_oracle,
    rho_of,
)

F = Fraction

RHO_ORACLE_PAIRS = (
    "group_sl2", "triple_sl2", "triple_sl3", "sl2_split_torus",
    "sl2c_cartan", "group_sl2c", "sl2c_full", "sl3_sl2_topleft",
    "product_sl2_sl2_first", "sl2_point",
)


def _passed(n, text):
    print(f"ACCEPTANCE {n}: {text} ... PASS")


def test_criterion_1_rho_definition_oracle():
    """Exact rho equals the numerical |Re eigenvalue| sum, rtol 1e-9."""
    rng = Random(1)
    checked = 0
    for name in RHO_ORACLE_PAIRS:
        pair = build_fixture(name)
        r = pair.torus_h.rank
        rhos = {space: rho_from_weights(
                    pair.torus_h, module_weights(pair.torus_h, space))
                for space in ("h", "g/h")}
        for _ in range(20):
            y = [random_fraction(rng) for _ in range(r)]
            for space, rho in rhos.items():
                exact = float(rho_eval(rho, y))
                numeric = numeric_rho(pair.torus_h, space, y)
                assert abs(exact - numeric) <= 1e-9 * max(1.0, abs(exact)), \
                    (name, space, y, exact, numeric)
                checked += 1
    assert checked == len(RHO_ORACLE_PAIRS) * 20 * 2
    _passed(1, f"rho eigensolver oracle on {checked} evaluations "
               f"({len(RHO_ORACLE_PAIRS)} pairs x 20 points x 2 spaces)")


def _random_rho(rng, rank, max_forms=4, entry=3, max_mult=3):
    forms = []
    for _ in range(rng.randint(0, max_forms)):
        lam = tuple(F(rng.randint(-entry, entry)) for _ in range(rank))
        if any(x != 0 for x in lam):
            forms.append((lam, rng.randint(1, max_mult)))
    return rho_of(rank, forms)


def _sweep_dominates(f, g, N=25):
    """Exact integer ray sweep via int64 (entries are small integers)."""
    rank = f.rank
    pts = np.array([p for p in itertools.product(range(-N, N + 1), repeat=rank)
                    if any(p)], dtype=np.int64).T

    def eval_all(fn):
        total = np.zeros(pts.shape[1], dtype=np.int64)
        for lam, m in fn.forms:
            total += m * np.abs(np.array([int(x) for x in lam],
                                         dtype=np.int64) @ pts)
        return total

    return bool(np.all(eval_all(f) <= eval_all(g)))


def test_criterion_2_dominance_correctness_small_rank():
    """decide_dominance vs integer sweep (rank <= 2) and the randomized
    oracle (rank <= 3), zero disagreements."""
    rng = Random(1789)
    for i in range(200):
        rank = rng.randint(1, 2)
        f, g = _random_rho(rng, rank), _random_rho(rng, rank)
        verdict = decide_dominance(f, g)
        assert verdict.holds == _sweep_dominates(f, g), (i, f, g)
        if not verdict.holds:
            w = fraction_row(verdict.witness)
            assert rho_eval(f, w) > rho_eval(g, w)
    rng = Random(2024)
    for i in range(200):
        rank = rng.randint(1, 3)
        f, g = _random_rho(rng, rank), _random_rho(rng, rank)
        verdict = decide_dominance(f, g)
        oracle = randomized_dominance_oracle(f, g, samples=10 ** 4,
                                             seed=1000 + i)
        assert verdict.holds == oracle.agrees, (i, f, g)
        if not oracle.agrees:
            assert oracle.f_value > oracle.g_value
    _passed(2, "dominance agrees with the [-25,25] integer sweep on 200 "
               "rank<=2 pairs and the 10^4-sample oracle on 200 rank<=3 "
               "pairs")


def test_criterion_3_temperedness_fixtures():
    """(a) rank-0 torus => tempered; (b) group case margin exactly 0;
    (c) (sl2, torus) tempered; all certificates re-checkable."""
    produced = []
    for name in ("symmetric_sl2_so2", "symmetric_sl3_so3", "whittaker_sl3"):
        pair = build_fixture(name)
        assert pair.torus_h.rank == 0
        v = check_tempered(pair)
        assert v.outcome == "yes_certified", name
        produced.append((pair, v))
    pair = build_fixture("group_sl2")
    v = check_tempered(pair)
    assert v.outcome == "yes_certified" and v.certificate["margin"] == 0
    produced.append((pair, v))
    pair = build_fixture("sl2_split_torus")
    v = check_tempered(pair)
    assert v.outcome == "yes_certified"
    produced.append((pair, v))
    for pair, v in produced:
        ok, detail = verify_certificate(pair, v)
        assert ok, (pair.name, detail)
    _passed(3, "temperedness fixtures (compact shortcut, group case margin "
               "0, split-torus case) with re-checked certificates")


def test_criterion_4_sphericity_fixtures():
    """Symmetric pairs and the Whittaker pair certify; the sl3 triple space
    stays probable_no, settled by the dimension count with no word applied
    of the 64 allowed."""
    for name in ("symmetric_sl2_so2", "symmetric_sl3_so3", "triple_sl2",
                 "whittaker_sl3"):
        pair = build_fixture(name)
        v = check_real_spherical(pair, samples=64, seed=0)
        assert v.outcome == "yes_certified", name
        ok, detail = verify_certificate(pair, v)
        assert ok, (name, detail)
    pair = build_fixture("triple_sl3")
    v = check_real_spherical(pair, samples=64, seed=0)
    assert v.outcome == "probable_no"
    assert v.samples_used == 0
    _passed(4, "sphericity fixtures: symmetric sl2/sl3 and whittaker "
               "certified, triple sl2 certified, triple sl3 probable_no by "
               "the dimension count")


def test_criterion_5_corollary_cross_check_complex_pairs():
    """tempered <=> abelian generic stabilizer on every complex fixture."""
    complex_fixtures = ("sl2c_cartan", "group_sl2c", "sl2c_full")
    for name in complex_fixtures:
        pair = build_fixture(name)
        assert pair.is_complex_pair
        vt = check_tempered(pair)
        vs = check_generic_stabilizer(pair, samples=64, seed=0)
        out = interpret(pair, [vt, vs])  # raises InconsistentVerdicts on a bug
        tempered_yes = vt.outcome == "yes_certified"
        assert tempered_yes == bool(vs.certificate["abelian"]), name
        assert out.cross_checks
    _passed(5, f"corollary cross-check on {len(complex_fixtures)} complex "
               "pairs (both tempered and non-tempered cases)")


def test_criterion_6_certificate_soundness():
    """100% of yes_certified verdicts re-verify from serialized data alone."""
    total = 0
    for fx_name in RHO_ORACLE_PAIRS + ("symmetric_sl2_so2",
                                       "symmetric_sl3_so3", "whittaker_sl3",
                                       "so23_so22"):
        pair = build_fixture(fx_name)
        fresh_pair = parse_pair_text(serialize_pair(pair),
                                     origin=pair.provenance)
        for e in pair.expectations:
            v = run_question(pair, e.question, samples=64, seed=0)
            if v.outcome != "yes_certified":
                continue
            blob = json.loads(json.dumps(verdict_to_json(v)))
            ok, detail = verify_certificate(fresh_pair,
                                            verdict_from_json(blob))
            assert ok, (fx_name, e.question, detail)
            total += 1
    assert total >= 15
    _passed(6, f"all {total} yes_certified certificates re-verified from "
               "serialized pair + certificate alone")


def test_criterion_7_determinism_byte_identical():
    """Two runs of the full fixture suite with the same seed produce
    byte-identical machine reports (and match every expectation)."""
    a = run_fixture_suite(seed=0, samples=64)
    b = run_fixture_suite(seed=0, samples=64)
    text_a, text_b = render_machine(a), render_machine(b)
    assert text_a == text_b
    assert a["expectation_mismatches"] == []
    _passed(7, f"fixture suite byte-identical across two runs "
               f"({len(text_a)} bytes, {len(a['reports'])} fixtures, "
               "no expectation mismatches)")
