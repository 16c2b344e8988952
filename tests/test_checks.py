import json
from fractions import Fraction

import pytest

from liepair.algebra import Subspace
from liepair.catalog import build_fixture, pair_symmetric, pair_trivial_h
from liepair.checks import (
    AdWord,
    DegenerateFunctional,
    InconsistentVerdicts,
    MissingComplexData,
    UnsupportedQuery,
    Verdict,
    check_complex_spherical,
    check_generic_stabilizer,
    check_real_spherical,
    check_tempered,
    generic_stabilizer,
    interpret,
    minimal_parabolic,
    run_question,
    verify_certificate,
)
from liepair.report import verdict_from_json, verdict_to_json

F = Fraction


def unit(L, label):
    v = [F(0)] * L.dim
    v[L.basis_labels.index(label)] = F(1)
    return v


# --- minimal parabolic -----------------------------------------------------

def test_minimal_parabolic_sl2_explicit_chamber():
    pair = build_fixture("sl2_split_torus")
    par = minimal_parabolic(pair, xi=[F(1)])
    expected = Subspace.from_rows(3, [unit(pair.g, "H1"), unit(pair.g, "E12")])
    assert par.subspace == expected
    assert par.zero_weight_dim == 1


def test_minimal_parabolic_sl3_upper_triangular():
    pair = build_fixture("sl3_sl2_topleft")
    par = minimal_parabolic(pair, xi=[F(1), F(1)])
    expected = Subspace.from_rows(8, [
        unit(pair.g, "H1"), unit(pair.g, "H2"),
        unit(pair.g, "E12"), unit(pair.g, "E13"), unit(pair.g, "E23")])
    assert par.subspace == expected
    assert par.subspace.dim == 5


def test_minimal_parabolic_generic_is_closed_and_contains_zero_space():
    for name in ("group_sl2", "sl2c_cartan", "whittaker_sl3"):
        pair = build_fixture(name)
        par = minimal_parabolic(pair, seed=0)
        assert par.subspace.dim >= (pair.g.dim + pair.torus_g.rank) // 2
        for row in pair.torus_g.rows:
            assert par.subspace.contains_vector(list(row))


def test_minimal_parabolic_well_formed_for_every_catalog_base():
    # bracket-closed (asserted by construction) and contains the full
    # zero-weight space, i.e. the centralizer of torus_g
    from liepair.weights import weight_decomposition, weight_vectors_in_ambient

    for spec in ("sl2", "sl3", "sl4", "so_2_3", "su_1_2", "sp_4", "sl2C"):
        pair = pair_trivial_h(spec)
        par = minimal_parabolic(pair, seed=0)
        ws = weight_decomposition(pair.torus_g, "g")
        for lam, v in weight_vectors_in_ambient(ws):
            if all(x == 0 for x in lam):
                assert par.subspace.contains_vector(v), spec
        assert par.subspace.dim == par.zero_weight_dim + \
            (pair.g.dim - par.zero_weight_dim) // 2, spec


def test_minimal_parabolic_compact_base_is_everything():
    pair = pair_trivial_h("so3")
    par = minimal_parabolic(pair)
    assert par.subspace.dim == 3


def test_degenerate_functional_rejected():
    pair = build_fixture("sl3_sl2_topleft")
    # (2, 1) pairs to zero with the root (-1, 2)... check: -2 + 2 = 0
    with pytest.raises(DegenerateFunctional):
        minimal_parabolic(pair, xi=[F(2), F(1)])


# --- real sphericity -------------------------------------------------------

def test_symmetric_pairs_certify_real_spherical():
    for spec in ("sl2", "sl3"):
        pair = pair_symmetric(spec)
        v = check_real_spherical(pair, samples=64, seed=0)
        assert v.outcome == "yes_certified"
        ok, detail = verify_certificate(pair, v)
        assert ok, detail


def test_triple_sl2_yes_triple_sl3_probable_no():
    v2 = check_real_spherical(build_fixture("triple_sl2"), samples=64, seed=0)
    assert v2.outcome == "yes_certified"
    p3 = build_fixture("triple_sl3")
    v3 = check_real_spherical(p3, samples=8, seed=0)
    assert v3.outcome == "probable_no"
    assert v3.samples_used == 8
    assert any("dimension count" in n for n in v3.notes)


def test_whittaker_real_spherical():
    pair = build_fixture("whittaker_sl3")
    v = check_real_spherical(pair, samples=64, seed=0)
    assert v.outcome == "yes_certified"


def test_genericity_stability_two_seeds():
    for name in ("triple_sl2", "whittaker_sl3", "product_sl2_sl2_first"):
        pair = build_fixture(name)
        a = check_real_spherical(pair, samples=24, seed=1).outcome
        b = check_real_spherical(pair, samples=24, seed=2).outcome
        assert a == b


# --- complex sphericity ----------------------------------------------------

def test_complex_spherical_flag_variety():
    pair = build_fixture("sl2_split_torus")
    v = check_complex_spherical(pair, samples=64, seed=0)
    assert v.outcome == "yes_certified"
    ok, detail = verify_certificate(pair, v)
    assert ok, detail


def test_complex_spherical_whittaker_quasi_split():
    v = check_complex_spherical(build_fixture("whittaker_sl3"),
                                samples=64, seed=0)
    assert v.outcome == "yes_certified"


def test_missing_complex_data():
    pair = pair_trivial_h("su_1_1")
    assert pair.complexification is None
    with pytest.raises(MissingComplexData):
        check_complex_spherical(pair)


# --- temperedness ----------------------------------------------------------

def test_tempered_trivial_h_group_case():
    v = check_tempered(build_fixture("sl2_point"))
    assert v.outcome == "yes_certified"
    assert v.certificate["kind"] == "rank-zero-torus"


def test_tempered_group_case_margin_exactly_zero():
    pair = build_fixture("group_sl2")
    v = check_tempered(pair)
    assert v.outcome == "yes_certified"
    assert v.certificate["margin"] == 0
    ok, detail = verify_certificate(pair, v)
    assert ok, detail


def test_tempered_sl2_mod_torus():
    v = check_tempered(build_fixture("sl2_split_torus"))
    assert v.outcome == "yes_certified"
    assert v.certificate["margin"] == 4


def test_not_tempered_with_witness():
    pair = build_fixture("sl2c_full")
    v = check_tempered(pair)
    assert v.outcome == "no_certified"
    cert = v.certificate
    assert cert["rho_h"] > cert["rho_quotient"]
    ok, detail = verify_certificate(pair, v)
    assert ok, detail


def test_tempered_refused_without_maximality_assertion():
    pair = build_fixture("sl2_split_torus")
    assert pair.complexification is not None
    with pytest.raises(UnsupportedQuery):
        check_tempered(pair.complexification)


# --- generic stabilizer ----------------------------------------------------

def test_stabilizer_group_case_is_cartan():
    rep = generic_stabilizer(build_fixture("group_sl2"), samples=64, seed=0)
    assert rep.dimension == 1 and rep.abelian


def test_stabilizer_trivial_h():
    rep = generic_stabilizer(build_fixture("sl2_point"), samples=4, seed=0)
    assert rep.dimension == 0 and rep.abelian


def test_stabilizer_two_cartans_meet_at_zero():
    rep = generic_stabilizer(build_fixture("sl2c_cartan"), samples=64, seed=0)
    assert rep.dimension == 0 and rep.abelian


def test_stabilizer_full_pair_not_abelian():
    rep = generic_stabilizer(build_fixture("sl2c_full"), samples=4, seed=0)
    assert rep.dimension == 6 and not rep.abelian


# --- interpret and the corollary cross-check -------------------------------

def test_interpret_collects_citations():
    pair = build_fixture("sl2_point")
    v = check_tempered(pair)
    out = interpret(pair, [v])
    assert any("tempered" in c for c in out.conclusions)
    assert any("Benoist-Kobayashi" in c for c in out.conclusions)


def test_corollary_cross_check_on_complex_fixtures():
    for name in ("sl2c_cartan", "group_sl2c", "sl2c_full"):
        pair = build_fixture(name)
        vt = check_tempered(pair)
        vs = check_generic_stabilizer(pair, samples=64, seed=0)
        out = interpret(pair, [vt, vs])
        assert out.cross_checks, name


def test_inconsistent_verdicts_raise():
    pair = build_fixture("sl2c_full")
    vt = check_tempered(pair)  # no_certified
    forged = Verdict(question="generic_stabilizer_abelian",
                     outcome="yes_certified",
                     certificate={"kind": "stabilizer", "abelian": True,
                                  "dimension": 0, "rows": [], "word": []})
    with pytest.raises(InconsistentVerdicts):
        interpret(pair, [vt, forged])


# --- certificates ----------------------------------------------------------

def all_fixture_verdicts():
    out = []
    for name in ("group_sl2", "sl2_split_torus", "sl2c_full", "whittaker_sl3"):
        pair = build_fixture(name)
        for e in pair.expectations:
            out.append((name, pair,
                        run_question(pair, e.question, samples=64, seed=0)))
    return out


def test_every_certificate_survives_json_round_trip():
    for name, pair, v in all_fixture_verdicts():
        if v.certificate is None:
            continue
        blob = json.dumps(verdict_to_json(v))
        v2 = verdict_from_json(json.loads(blob))
        ok, detail = verify_certificate(pair, v2)
        assert ok, f"{name}/{v.question}: {detail}"


def test_tampered_certificates_fail_verification():
    pair = build_fixture("group_sl2")
    v = check_tempered(pair)
    blob = verdict_to_json(v)
    blob["certificate"]["margin"] = "1/2"
    ok, _ = verify_certificate(pair, verdict_from_json(blob))
    assert not ok

    vs = check_real_spherical(pair, samples=16, seed=0)
    blob = verdict_to_json(vs)
    blob["certificate"]["rank_achieved"] = pair.g.dim - 1
    ok, _ = verify_certificate(pair, verdict_from_json(blob))
    assert not ok


def _tampered_dominance(mutate):
    pair = build_fixture("triple_sl3")
    blob = verdict_to_json(check_tempered(pair))
    assert blob["certificate"]["kind"] == "dominance"
    mutate(blob["certificate"])
    return verify_certificate(pair, verdict_from_json(blob))


def test_dominance_certificate_without_lines_fails():
    ok, detail = _tampered_dominance(lambda c: c.pop("lines"))
    assert not ok and "lines" in detail


@pytest.mark.parametrize("lines", [
    "1", None, [["1"]], [["x", "0"]], [["0", "0"]], [1, 2], [["1", "1/0"]],
    [["1", 0.5]], ["10"]])
def test_dominance_certificate_with_malformed_lines_fails(lines):
    ok, detail = _tampered_dominance(lambda c: c.update(lines=lines))
    assert not ok and "malformed" in detail


@pytest.mark.parametrize("count", [None, 0, 4, "3"])
def test_dominance_certificate_with_wrong_line_count_fails(count):
    def mutate(cert):
        assert cert["line_count"] == 3
        if count is None:
            cert.pop("line_count")
        else:
            cert["line_count"] = count
    ok, detail = _tampered_dominance(mutate)
    assert not ok and "line_count" in detail


def test_ad_word_json_round_trip():
    pair = build_fixture("sl2_point")
    word = AdWord(steps=((tuple(unit(pair.g, "E12")), F(-3, 2)),
                         (tuple(unit(pair.g, "E21")), F(2))))
    text = json.dumps(word.to_json(), default=str)
    assert AdWord.from_json(json.loads(text)) == word


def test_word_application_is_exact():
    pair = build_fixture("sl2_point")
    g = pair.g
    word = AdWord(steps=((tuple(unit(g, "E12")), F(1, 2)),))
    moved = word.apply_to_rows(g, [unit(g, "H1")])
    # Ad(exp(t ad E))H = H - 2tE for sl2
    assert moved == [[F(1), F(-1), F(0)]]
