import json
from fractions import Fraction
from functools import lru_cache
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ad_oracle,
    bracket_oracle,
    exp_nilpotent_oracle,
    moved_fractions,
    rref_oracle,
    solve_oracle,
)
from liepair.algebra import Subspace, ValidationError
from liepair.catalog import (
    build_fixture,
    construct_from_spec,
    fixture_names,
    pair_symmetric,
    pair_trivial_h,
)
from liepair import checks
from liepair.checks import (
    AdWord,
    DegenerateFunctional,
    InconsistentVerdicts,
    MissingComplexData,
    NonTerminatingSeries,
    UnsupportedQuery,
    Verdict,
    _intersect,
    check_complex_spherical,
    check_generic_stabilizer,
    check_real_spherical,
    check_tempered,
    generic_stabilizer,
    interpret,
    minimal_parabolic,
    nilpotent_pool,
    rho_pair,
    run_question,
    verify_certificate,
)
from liepair.linalg import (
    canonical_rows,
    fraction_row,
    integer_rank,
    integer_row,
    mat_vec,
)
from liepair.polyhedral import (
    ConeBudgetExceeded,
    build_arrangement,
    enumerate_lines,
    normalize_form,
)
from liepair.report import verdict_from_json, verdict_to_json
from liepair.weights import rho_eval, weight_decomposition

F = Fraction


def g_weights(pair):
    return weight_decomposition(pair.torus_g, "g")


def zero_weight_dim(ws):
    return sum(m for lam, m in ws.weights if not any(lam))


def in_span(sub, v):
    return solve_oracle([[F(x) for x in r] for r in sub.rows],
                        [[F(x) for x in v]])[0] is not None


def unit(L, label):
    v = [F(0)] * L.dim
    v[L.basis_labels.index(label)] = F(1)
    return v


# --- minimal parabolic -----------------------------------------------------

def test_minimal_parabolic_sl2_explicit_chamber():
    pair = build_fixture("sl2_split_torus")
    ws = g_weights(pair)
    par = minimal_parabolic(ws, xi=[F(1)])
    expected = Subspace.from_rows(3, [integer_row(unit(pair.g, label))[0]
                                      for label in ("H1", "E12")])
    assert par.subspace == expected
    assert zero_weight_dim(ws) == 1


def test_minimal_parabolic_sl3_upper_triangular():
    pair = build_fixture("sl3_sl2_topleft")
    par = minimal_parabolic(g_weights(pair), xi=[F(1), F(1)])
    expected = Subspace.from_rows(8, [
        integer_row(unit(pair.g, label))[0]
        for label in ("H1", "H2", "E12", "E13", "E23")])
    assert par.subspace == expected
    assert par.subspace.dim == 5


def test_minimal_parabolic_generic_is_closed_and_contains_zero_space():
    for name in ("group_sl2", "sl2c_cartan", "whittaker_sl3"):
        pair = build_fixture(name)
        par = minimal_parabolic(g_weights(pair), seed=0)
        assert par.subspace.dim >= (pair.g.dim + pair.torus_g.rank) // 2
        for row in pair.torus_g.rows:
            assert in_span(par.subspace, fraction_row(row))


LADDER_SPECS = (
    "torus_pair:sl6", "torus_pair:sp_8", "torus_pair:so_4_4", "torus_pair:sl5",
    "diagonal_pair:sl5", "direct_sum:sl4:sl2", "torus_pair:sl4",
    "torus_pair:sl3", "whittaker_nilradical:sl4", "diagonal_pair:sp_4",
    "diagonal_pair:sl4", "triple_diagonal:sl3")


def _parabolic_pairs():
    """Every catalog base with trivial h, every fixture and every pair of
    the benchmark ladders, each followed by its complexification."""
    pairs = [pair_trivial_h(spec) for spec in
             ("sl2", "sl3", "sl4", "so_2_3", "su_1_2", "sp_4", "sl2C")]
    pairs += [build_fixture(name) for name in fixture_names()]
    pairs += [construct_from_spec(spec) for spec in LADDER_SPECS]
    for pair in pairs:
        yield pair
        if pair.complexification is not None:
            yield pair.complexification


def test_minimal_parabolic_well_formed_for_every_catalog_base():
    # bracket-closed, which [g_λ, g_μ] ⊆ g_{λ+μ} proves on a valid algebra
    # and torus, and contains the full zero-weight space, i.e. the
    # centralizer of torus_g
    count = 0
    for pair in _parabolic_pairs():
        ws = g_weights(pair)
        par = minimal_parabolic(ws, seed=0)
        rows = [list(r) for r in canonical_rows(par.subspace.rows)]
        brackets = [bracket_oracle(pair.g, rows[i], rows[j])
                    for i in range(len(rows)) for j in range(i + 1, len(rows))]
        assert None not in solve_oracle(rows, brackets), pair.name
        for (lam, _), space in zip(ws.weights, ws.spaces):
            if not any(lam):
                for v in space:
                    assert in_span(par.subspace, v), pair.name
        zero = zero_weight_dim(ws)
        assert par.subspace.dim == zero + (pair.g.dim - zero) // 2, pair.name
        count += 1
    # 7 bases, 14 fixtures and 12 ladder pairs; 24 have a complexification
    assert count == 7 + len(fixture_names()) + len(LADDER_SPECS) + 24


def test_minimal_parabolic_compact_base_is_everything():
    pair = pair_trivial_h("so3")
    par = minimal_parabolic(g_weights(pair))
    assert par.subspace.dim == 3


def test_degenerate_functional_rejected():
    pair = build_fixture("sl3_sl2_topleft")
    # (2, 1) pairs to zero with the root (-1, 2)... check: -2 + 2 = 0
    with pytest.raises(DegenerateFunctional):
        minimal_parabolic(g_weights(pair), xi=[F(2), F(1)])


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
    word = AdWord(steps=((integer_row(unit(pair.g, "E12")), F(-3, 2)),
                         (integer_row(unit(pair.g, "E21")), F(2))))
    text = json.dumps(word.to_json(), default=str)
    assert AdWord.from_json(json.loads(text)) == word


def test_word_application_is_exact():
    pair = build_fixture("sl2_point")
    g = pair.g
    word = AdWord(steps=((integer_row(unit(g, "E12")), F(1, 2)),))
    moved = word.apply_to_rows(g, [integer_row(unit(g, "H1"))])
    # Ad(exp(t ad E))H = H - 2tE for sl2
    assert moved_fractions(moved) == [[F(1), F(-1), F(0)]]
    assert moved == [([1, -1, 0], 1)]


# --- word application against the dense exponential -------------------------

WORD_PAIRS = ("sl2_split_torus", "group_sl2", "triple_sl2", "whittaker_sl3",
              "so23_so22", "group_sl2c")


@lru_cache(maxsize=None)
def pair_and_pool(name):
    pair = build_fixture(name)
    return pair, nilpotent_pool(g_weights(pair))


@st.composite
def word_on_pair(draw):
    """A catalog pair and a random word of 1-4 root-vector steps from its
    nilpotent pool, as the searches sample them."""
    pair, pool = pair_and_pool(draw(st.sampled_from(WORD_PAIRS)))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(pool),
                  st.fractions(min_value=-9, max_value=9, max_denominator=9)),
        min_size=1, max_size=4))
    return pair, AdWord(steps=tuple(steps))


@settings(max_examples=40, deadline=None)
@given(word_on_pair())
def test_word_application_matches_dense_exponential(case):
    pair, word = case
    g = pair.g
    rows = [list(r) for r in
            canonical_rows(minimal_parabolic(g_weights(pair)).subspace.rows)]
    want = [list(r) for r in rows]
    for z, t in reversed(word.steps):
        M = exp_nilpotent_oracle(ad_oracle(g, fraction_row(z)), t)
        want = [mat_vec(M, r) for r in want]
    assert moved_fractions(
        word.apply_to_rows(g, [integer_row(r) for r in rows])) == want


@settings(max_examples=40, deadline=None)
@given(word_on_pair())
def test_stabilizer_rank_shortcut_equals_intersection(case):
    pair, word = case
    h_rows = [fraction_row(r) for r in pair.h.rows]
    moved = word.apply_to_rows(pair.g, pair.h.rows)
    shortcut = integer_rank([nums for nums, _ in pair.h.rows]
                            + [nums for nums, _ in moved])
    assert shortcut == len(rref_oracle(h_rows + moved_fractions(moved))[0])
    assert 2 * len(h_rows) - shortcut \
        == _intersect(pair.h.subspace, moved).dim


def test_non_nilpotent_step_raises_a_validation_error():
    pair = build_fixture("sl2_split_torus")
    g = pair.g
    word = AdWord(steps=((integer_row(unit(g, "E12")), F(1)),
                         (pair.torus_g.rows[0], F(1, 3))))
    with pytest.raises(NonTerminatingSeries, match="step 2") as err:
        word.apply_to_rows(g, [integer_row(unit(g, "E12"))])
    assert isinstance(err.value, ValidationError)
    with pytest.raises(ValidationError, match="length 2"):
        AdWord(steps=((((1, 0), 1), F(1)),)).apply_to_rows(
            g, [integer_row(unit(g, "H1"))])


def test_shared_columns_still_name_the_failing_step():
    pair = build_fixture("sl2_split_torus")
    g = pair.g
    H = pair.torus_g.rows[0]
    ad = checks._AdColumns(g)
    # ad H is expanded here, on a row where its series stops at once ...
    AdWord(steps=((H, F(1)),)).apply_to_rows(g, [H], ad=ad)
    word = AdWord(steps=((integer_row(unit(g, "E12")), F(1)), (H, F(1, 3))))
    # ... and read back from the shared columns at step 2, where it does not
    with pytest.raises(NonTerminatingSeries, match="word step 2"):
        word.apply_to_rows(g, [integer_row(unit(g, "E12"))], ad=ad)


# --- the open-orbit rank moves the smaller of p and h ------------------------

@settings(max_examples=40, deadline=None)
@given(word_on_pair())
def test_the_inverse_word_undoes_the_word(case):
    pair, word = case
    g = pair.g
    rows = [integer_row(r) for r in
            canonical_rows(minimal_parabolic(g_weights(pair)).subspace.rows)]
    moved = word.apply_to_rows(g, rows)
    # the moved rows are exact, so the round trip gives the rows back exactly
    back = word.inverse().apply_to_rows(g, moved)
    assert [(list(nums), den) for nums, den in back] \
        == [(list(nums), den) for nums, den in rows]
    assert word.inverse().inverse() == word
    assert not word.inverse().inverse().inverted


# name: (how to build the pair, whether the search runs on its
# complexification, whether h is the side that moves)
ORBIT_SIDES = {
    "triple_sl3": (lambda: build_fixture("triple_sl3"), False, True),
    "group_sl2c": (lambda: build_fixture("group_sl2c"), False, True),
    "torus_pair:sl3": (lambda: construct_from_spec("torus_pair:sl3"), True,
                       True),
    "sl2c_full": (lambda: build_fixture("sl2c_full"), False, False),
}


@lru_cache(maxsize=None)
def orbit_case(name):
    """The space an open-orbit search of ORBIT_SIDES[name] runs on, its
    root vectors and its minimal parabolic."""
    make, complexified, _ = ORBIT_SIDES[name]
    target = make().complexification if complexified else make()
    ws = g_weights(target)
    return target, nilpotent_pool(ws), minimal_parabolic(ws).subspace


@st.composite
def orbit_word(draw):
    name = draw(st.sampled_from(sorted(ORBIT_SIDES)))
    _, pool, _ = orbit_case(name)
    steps = draw(st.lists(
        st.tuples(st.sampled_from(pool),
                  st.fractions(min_value=-9, max_value=9, max_denominator=9)),
        min_size=1, max_size=3))
    return name, AdWord(steps=tuple(steps))


@settings(max_examples=30, deadline=None)
@given(orbit_word())
def test_orbit_rank_equals_the_dense_rank_on_either_side(case):
    name, word = case
    target, _, parabolic = orbit_case(name)
    g = target.g
    sides = checks._orbit_sides(parabolic, target.h)
    assert sides[2] == ORBIT_SIDES[name][2]
    want = [list(r) for r in canonical_rows(parabolic.rows)]
    for z, t in reversed(word.steps):
        M = exp_nilpotent_oracle(ad_oracle(g, fraction_row(z)), t)
        want = [mat_vec(M, r) for r in want]
    dense = len(rref_oracle(want + [fraction_row(r)
                                    for r in target.h.rows])[0])
    assert checks._orbit_rank(word, sides, checks._AdColumns(g)) == dense


def test_a_forged_step_is_named_by_its_stored_index_when_h_moves():
    pair, text = triple_sl2_open_orbit()
    par = minimal_parabolic(g_weights(pair))
    assert pair.h.dim < par.subspace.dim  # so the verifier moves h
    word = json.loads(text)["certificate"]["word"]
    assert len(word) >= 2
    for i in range(len(word)):
        blob = json.loads(text)
        # ad of a torus element is not nilpotent on the rows it reaches
        blob["certificate"]["word"][i]["z"] = [
            str(x) for x in fraction_row(pair.torus_g.rows[0])]
        ok, detail = verify_certificate(pair, verdict_from_json(blob))
        assert not ok and f"word step {i + 1}: " in detail, detail


# --- ad(Z) is expanded once per distinct Z of a question ---------------------

def count_ad_columns(monkeypatch):
    """Patch checks.ad_matrix to record the Z of each expansion."""
    seen = []
    expand = checks.ad_matrix

    def counting(g, z):
        seen.append(z)
        return expand(g, z)

    monkeypatch.setattr(checks, "ad_matrix", counting)
    return seen


@pytest.mark.parametrize("name, search", (
    ("product_sl2_sl2_first", check_real_spherical),
    ("group_sl2", generic_stabilizer)))
def test_a_search_expands_each_step_once(monkeypatch, name, search):
    pair = build_fixture(name)
    seen = count_ad_columns(monkeypatch)
    applied = []
    apply = AdWord.apply_to_rows

    def recording(word, g, rows, ad=None):
        applied.append(word)
        return apply(word, g, rows, ad=ad)

    monkeypatch.setattr(AdWord, "apply_to_rows", recording)
    first = search(pair, samples=64, seed=0)
    steps = [z for word in applied for z, _ in word.steps]
    # all 64 words ran, and their steps repeat root vectors of the pool
    assert len(applied) == first.samples_used == 64
    assert len(seen) == len(set(seen)) == len(set(steps)) < len(steps)
    # nothing outlives the question: a second run expands as much again
    count = len(seen)
    second = search(pair, samples=64, seed=0)
    assert len(seen) == 2 * count and seen[count:] == seen[:count]
    assert second == first


@pytest.mark.parametrize("name, check, seed", (
    ("group_sl2", check_real_spherical, 2),
    ("symmetric_sl2_so2", check_generic_stabilizer, 0)))
def test_a_replayed_certificate_expands_each_distinct_step_once(
        monkeypatch, name, check, seed):
    pair = build_fixture(name)
    blob = json.loads(json.dumps(verdict_to_json(check(pair, seed=seed)),
                                 default=str))
    steps = [tuple(step["z"]) for step in blob["certificate"]["word"]]
    assert len(set(steps)) < len(steps)  # the stored word repeats a step
    seen = count_ad_columns(monkeypatch)
    assert verify_certificate(pair, verdict_from_json(blob))[0]
    assert len(seen) == len(set(seen)) == len(set(steps))


# --- the verifier reads the claimed outcome and never raises ---------------

def test_violation_relabelled_yes_fails():
    pair = build_fixture("so23_so22")
    blob = verdict_to_json(check_tempered(pair))
    assert blob["certificate"]["kind"] == "dominance-violation"
    assert verify_certificate(pair, verdict_from_json(blob))[0]
    blob["outcome"] = "yes_certified"
    ok, detail = verify_certificate(pair, verdict_from_json(blob))
    assert not ok and "supports no_certified" in detail


def test_forged_dominance_certificate_with_a_subset_of_lines_fails():
    # so23_so22 is not tempered: of its 4 lines, 2 violate dominance; a
    # "yes" certificate that keeps only the other 2 must not verify
    pair = build_fixture("so23_so22")
    rho_h, rho_q = rho_pair(pair)
    lines = map(normalize_form, enumerate_lines(build_arrangement(rho_h,
                                                                  rho_q)))
    kept = [line for line in lines
            if rho_eval(rho_q, list(line)) >= rho_eval(rho_h, list(line))]
    assert len(kept) == 2
    forged = Verdict(question="tempered", outcome="yes_certified",
                     certificate={"kind": "dominance",
                                  "lines": [[str(x) for x in line]
                                            for line in kept],
                                  "margin": "0", "line_count": 2})
    ok, detail = verify_certificate(pair, verdict_from_json(
        json.loads(json.dumps(verdict_to_json(forged)))))
    assert not ok and "not the lines of the arrangement" in detail


def test_dominance_recheck_over_the_budget_fails():
    pair = build_fixture("triple_sl3")
    v = check_tempered(pair)
    assert v.certificate["kind"] == "dominance"
    with patch("liepair.polyhedral.enumerate_lines",
               side_effect=ConeBudgetExceeded("over budget")):
        ok, detail = verify_certificate(pair, v)
    assert not ok and "over budget" in detail


# --- mutated tempered certificates ------------------------------------------

TEMPERED_PAIRS = {
    "triple_sl3": lambda: build_fixture("triple_sl3"),
    "so23_so22": lambda: build_fixture("so23_so22"),
    "torus_pair:sl4": lambda: construct_from_spec("torus_pair:sl4"),
}
DELTAS = (1, -1, F(1, 7), F(-1, 7))


@lru_cache(maxsize=None)
def tempered_certificate(name):
    """The pair and the JSON text of its tempered verdict."""
    pair = TEMPERED_PAIRS[name]()
    return pair, json.dumps(verdict_to_json(check_tempered(pair)))


def _shifted(x, delta):
    return str(F(x) + delta)


@st.composite
def mutated_tempered_verdict(draw):
    """A tempered verdict of a TEMPERED_PAIRS pair, as JSON, with one
    mutation of its dominance or dominance-violation certificate."""
    name = draw(st.sampled_from(sorted(TEMPERED_PAIRS)))
    pair, text = tempered_certificate(name)
    blob = json.loads(text)
    cert = blob["certificate"]
    delta = draw(st.sampled_from(DELTAS))
    if cert["kind"] == "dominance-violation":
        key = draw(st.sampled_from(("ray", "rho_h", "rho_quotient")))
        if key == "ray":
            k = draw(st.integers(0, len(cert["ray"]) - 1))
            cert["ray"][k] = _shifted(cert["ray"][k], delta)
        else:
            cert[key] = _shifted(cert[key], delta)
        return name, pair, blob
    lines = cert["lines"]
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(("drop", "duplicate", "swap", "negate",
                                "double", "add 1/7", "margin",
                                "line_count")))
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, list(lines[i]))
    elif how == "swap":
        j = draw(st.integers(0, len(lines) - 1).filter(lambda j: j != i))
        lines[i], lines[j] = lines[j], lines[i]
    elif how == "negate":
        lines[i] = [str(-F(x)) for x in lines[i]]
    elif how == "double":
        lines[i] = [str(2 * F(x)) for x in lines[i]]
    elif how == "add 1/7":
        k = draw(st.integers(0, len(lines[i]) - 1))
        lines[i][k] = _shifted(lines[i][k], F(1, 7))
    elif how == "margin":
        cert["margin"] = _shifted(cert["margin"], delta)
    else:
        count = cert["line_count"] + delta
        cert["line_count"] = count if isinstance(delta, int) else str(count)
    return name, pair, blob


def test_tempered_certificates_of_the_mutation_pairs_verify():
    kinds = set()
    for name in TEMPERED_PAIRS:
        pair, text = tempered_certificate(name)
        v = verdict_from_json(json.loads(text))
        kinds.add(v.certificate["kind"])
        assert verify_certificate(pair, v)[0], name
    assert kinds == {"dominance", "dominance-violation"}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(mutated_tempered_verdict())
def test_every_mutated_tempered_certificate_fails(case):
    name, pair, blob = case
    ok, detail = verify_certificate(pair, verdict_from_json(blob))
    assert not ok, f"{name}: a mutated certificate verified: {detail}"
    assert isinstance(detail, str) and detail


# --- mutated open-orbit and stabilizer certificates -------------------------

WORD_CERTIFICATES = {
    "triple_diagonal:sl2": (lambda: construct_from_spec("triple_diagonal:sl2"),
                            check_real_spherical),
    "so23_so22": (lambda: build_fixture("so23_so22"), check_complex_spherical),
    "group_sl2": (lambda: build_fixture("group_sl2"), check_generic_stabilizer),
    "sl2c_cartan": (lambda: build_fixture("sl2c_cartan"),
                    check_generic_stabilizer),
}
# a word or chamber is one point of a Zariski-open condition, so its mutation
# may still be a witness; every other field is pinned by the verifier
MAY_STAY_VALID = ("chamber", "t", "z", "drop step")


@lru_cache(maxsize=None)
def word_certificate(name):
    """The pair, the root vectors of the space its certificate lives on and
    the JSON text of the verdict."""
    build, check = WORD_CERTIFICATES[name]
    pair = build()
    v = check(pair)
    on_complexification = v.certificate.get("space") == "complexification"
    target = pair.complexification if on_complexification else pair
    return pair, nilpotent_pool(g_weights(target)), json.dumps(verdict_to_json(v))


@st.composite
def mutated_word_verdict(draw):
    """A verdict of a WORD_CERTIFICATES pair, as JSON, with one mutation of
    its open-orbit or stabilizer certificate, and the mutation's name."""
    name = draw(st.sampled_from(sorted(WORD_CERTIFICATES)))
    pair, pool, text = word_certificate(name)
    blob = json.loads(text)
    cert = blob["certificate"]
    word = cert["word"]
    hows = ["t", "z", "drop step"] if word else []
    if cert["kind"] == "open-orbit":
        hows += ["rank_achieved", "space", "drop parabolic row",
                 "parabolic entry", "chamber", "scale parabolic row",
                 "add parabolic row"]
    else:
        hows += ["dimension", "abelian"]
        if cert["rows"]:
            hows += ["rows entry", "drop row", "scale row"]
        if len(cert["rows"]) > 1:
            hows += ["add row"]
    how = draw(st.sampled_from(hows))
    if how in ("t", "z", "drop step"):
        i = draw(st.integers(0, len(word) - 1))
        if how == "t":
            word[i]["t"] = _shifted(word[i]["t"], draw(st.sampled_from(
                (F(1, 7), F(-1, 7)))))
        elif how == "z":
            z = draw(st.sampled_from(pool).filter(
                lambda z: [str(x) for x in fraction_row(z)] != word[i]["z"]))
            word[i]["z"] = [str(x) for x in fraction_row(z)]
        else:
            del word[i]
    elif how in ("rank_achieved", "dimension"):
        cert[how] += draw(st.sampled_from((1, -1)))
    elif how == "space":
        cert["space"] = {"g": "complexification",
                         "complexification": "g"}[cert["space"]]
    elif how in ("drop parabolic row", "drop row"):
        rows = cert["parabolic_rows" if how == "drop parabolic row" else "rows"]
        del rows[draw(st.integers(0, len(rows) - 1))]
    elif how in ("parabolic entry", "rows entry"):
        rows = cert["parabolic_rows" if how == "parabolic entry" else "rows"]
        i = draw(st.integers(0, len(rows) - 1))
        k = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][k] = _shifted(rows[i][k], F(1, 7))
    elif how in ("scale parabolic row", "scale row", "add parabolic row",
                 "add row"):
        # the same span in a basis that is not the canonical one
        rows = cert["parabolic_rows" if "parabolic" in how else "rows"]
        i = draw(st.integers(0, len(rows) - 1))
        if how.startswith("scale"):
            rows[i] = [str(2 * F(x)) for x in rows[i]]
        else:
            j = draw(st.integers(0, len(rows) - 1).filter(lambda j: j != i))
            rows[i] = [str(F(a) + F(b)) for a, b in zip(rows[i], rows[j])]
    elif how == "chamber":
        k = draw(st.integers(0, len(cert["chamber"]) - 1))
        cert["chamber"][k] = _shifted(cert["chamber"][k],
                                      draw(st.sampled_from(DELTAS)))
    else:
        cert["abelian"] = not cert["abelian"]
    return name, how, pair, blob


@lru_cache(maxsize=None)
def _oracle_exp(g, z, t):
    """The dense matrix exp(t·ad Z), from JSON strings z and t."""
    return exp_nilpotent_oracle(ad_oracle(g, [F(x) for x in z]), F(t))


def _oracle_moved(g, word, rows):
    """Ad(w) applied to rows through dense exp(t·ad Z) matrices."""
    rows = [list(r) for r in rows]
    for step in reversed(word):
        M = _oracle_exp(g, tuple(step["z"]), step["t"])
        rows = [mat_vec(M, r) for r in rows]
    return rows


def _oracle_span(rows, n):
    return [r for r in rref_oracle(rows, n)[0] if any(r)] if rows else []


def _oracle_confirms(pair, cert):
    """Whether a mutated word or chamber is, independently of the verifier,
    still a valid certificate of the same claim."""
    if cert["kind"] == "open-orbit":
        target = pair if cert["space"] == "g" else pair.complexification
        n = target.g.dim
        par = minimal_parabolic(g_weights(target), xi=cert["chamber"])
        stored = [[F(x) for x in r] for r in cert["parabolic_rows"]]
        if canonical_rows(par.subspace.rows) != _oracle_span(stored, n):
            return False
        moved = _oracle_moved(target.g, cert["word"], stored)
        return len(_oracle_span(moved + [fraction_row(r)
                                         for r in target.h.rows], n)) == n
    n = pair.g.dim
    h_rows = [fraction_row(r) for r in pair.h.rows]
    moved = _oracle_moved(pair.g, cert["word"], h_rows)
    # Zassenhaus: rows of the reduced [[h, h], [Ad(w)h, 0]] whose left half
    # is zero span h ∩ Ad(w)h in their right half
    block = [r + r for r in h_rows] + [r + [F(0)] * n for r in moved]
    inter = [r[n:] for r in _oracle_span(block, 2 * n) if not any(r[:n])]
    stored = [[F(x) for x in r] for r in cert["rows"]]
    return _oracle_span(inter, n) == _oracle_span(stored, n)


def test_word_certificates_of_the_mutation_pairs_verify():
    kinds = set()
    for name in WORD_CERTIFICATES:
        pair, _, text = word_certificate(name)
        v = verdict_from_json(json.loads(text))
        kinds.add((v.certificate["kind"], v.certificate.get("space")))
        assert v.certificate["word"], name
        assert verify_certificate(pair, v)[0], name
        assert _oracle_confirms(pair, v.certificate), name
    assert kinds == {("open-orbit", "g"), ("open-orbit", "complexification"),
                     ("stabilizer", None)}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(mutated_word_verdict())
def test_every_mutated_word_certificate_fails(case):
    name, how, pair, blob = case
    ok, detail = verify_certificate(pair, verdict_from_json(blob))
    assert isinstance(detail, str) and detail
    if ok:
        assert how in MAY_STAY_VALID and \
            _oracle_confirms(pair, blob["certificate"]), \
            f"{name}: a mutated certificate ({how}) verified: {detail}"


def test_every_certificate_fails_under_another_outcome_or_question():
    from liepair.checks import OUTCOMES, QUESTIONS

    for name, pair, v in all_fixture_verdicts():
        if v.certificate is None:
            continue
        for question in QUESTIONS:
            for outcome in OUTCOMES:
                if (question, outcome) == (v.question, v.outcome):
                    continue
                blob = verdict_to_json(v)
                blob.update(question=question, outcome=outcome)
                ok, _ = verify_certificate(pair, verdict_from_json(blob))
                assert not ok, (name, v.question, question, outcome)


def _drop(key):
    return lambda cert: cert["word"][0].pop(key)


def _set_step(key, value):
    return lambda cert: cert["word"][0].update({key: value})


@lru_cache(maxsize=None)
def triple_sl2_open_orbit():
    pair = construct_from_spec("triple_diagonal:sl2")
    v = check_real_spherical(pair, samples=64, seed=0)
    assert v.outcome == "yes_certified" and v.certificate["word"]
    return pair, json.dumps(verdict_to_json(v))


@pytest.mark.parametrize("mutate", [
    _drop("t"), _drop("z"), _set_step("z", ["1", "0"]),
    _set_step("z", None), _set_step("t", "1/0"), _set_step("t", 0.5),
    lambda c: c.update(word="abc"), lambda c: c.update(word=[["1"]]),
    lambda c: c.pop("chamber"), lambda c: c.update(chamber=["0"] * len(c["chamber"])),
    lambda c: c.update(space="elsewhere"),
], ids=["no-t", "no-z", "short-z", "null-z", "zero-denominator", "float-t",
        "word-string", "step-list", "no-chamber", "degenerate-chamber",
        "unknown-space"])
def test_malformed_open_orbit_certificate_fails(mutate):
    pair, text = triple_sl2_open_orbit()
    blob = json.loads(text)
    mutate(blob["certificate"])
    ok, detail = verify_certificate(pair, verdict_from_json(blob))
    assert not ok and "malformed open-orbit certificate" in detail


def test_non_terminating_word_step_fails():
    pair, text = triple_sl2_open_orbit()
    blob = json.loads(text)
    # a torus element: ad of it is semisimple with nonzero eigenvalues, so
    # its series never stops on the root vectors among the parabolic rows
    blob["certificate"]["word"][0]["z"] = [
        str(x) for x in fraction_row(pair.torus_g.rows[0])]
    ok, detail = verify_certificate(pair, verdict_from_json(blob))
    assert not ok and "nonzero term" in detail


def test_malformed_stabilizer_certificate_fails():
    pair = build_fixture("group_sl2")
    blob = verdict_to_json(check_generic_stabilizer(pair, samples=64, seed=0))
    assert blob["certificate"]["word"]
    blob["certificate"]["word"][0].pop("t")
    ok, detail = verify_certificate(pair, verdict_from_json(blob))
    assert not ok and "malformed stabilizer" in detail
    blob["certificate"]["abelian"] = "yes"
    ok, detail = verify_certificate(pair, verdict_from_json(blob))
    assert not ok and "abelian" in detail
