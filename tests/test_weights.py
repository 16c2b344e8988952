from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepair import catalog, weights
from liepair.algebra import SubalgebraEmbedding, ValidationError
from liepair.catalog import (
    base_algebra,
    build_fixture,
    construct_from_spec,
    direct_sum,
    fixture_names,
    sl_n_R,
    so_p_q,
)
from liepair.algebra import Subspace, subspace_intersect
from liepair.checks import Pair
from liepair.linalg import (
    fraction_row,
    integer_row,
    is_diagonal,
    mat_vec,
    rank,
    rref,
)
from liepair.pairfile import parse_pair_text
from liepair.report import report_for_pair, verify_report
from liepair.weights import (
    IrrationalWeights,
    NotAbelian,
    NotInSubalgebra,
    NotSemisimpleElement,
    WeightSystem,
    _joint_eigensplit,
    quotient_weights,
    rho_eval,
    rho_from_weights,
    validate_torus,
    weight_decomposition,
)

from conftest import (
    action_operators,
    canonical_fractions,
    as_ad,
    assert_rho_matches_numeric,
    extend_torus_greedily,
    mat_mul,
    module_weights,
    quotient_operators,
    random_fraction,
    rho_of,
    rref_oracle,
)

F = Fraction


def whole(L):
    return SubalgebraEmbedding.whole(L)


def unit(L, label):
    v = [F(0)] * L.dim
    v[L.basis_labels.index(label)] = F(1)
    return v


def exact(L, label):
    """unit(L, label) as the exact vector the library's constructors take."""
    return integer_row(unit(L, label))


# --- torus validation ------------------------------------------------------

def test_validate_torus_sl2_cartan(sl2):
    t = validate_torus([exact(sl2, "H1")], whole(sl2))
    assert t.rank == 1


def test_validate_torus_rejects_compact_rotation():
    so3 = base_algebra("so3").algebra
    with pytest.raises(IrrationalWeights) as err:
        validate_torus([integer_row([F(1), F(0), F(0)])], whole(so3))
    # ad of a rotation has eigenvalues 0, +-i: charpoly t^3 + t up to scale
    assert "not rationally diagonalizable" in str(err.value)


def test_validate_torus_rejects_nilpotent(sl2):
    with pytest.raises(NotSemisimpleElement):
        validate_torus([exact(sl2, "E12")], whole(sl2))


def test_validate_torus_names_the_first_row_that_fails():
    # one joint split proves all rows; the message still names the row
    g = direct_sum([sl_n_R(2), sl_n_R(2)]).algebra
    with pytest.raises(NotSemisimpleElement,
                       match="torus row 2 is not semisimple"):
        validate_torus([exact(g, "H1.1"), exact(g, "E12.2")], whole(g))
    g = direct_sum([sl_n_R(2), so_p_q(0, 3)]).algebra
    rotation = [F(0)] * 3 + [F(1), F(0), F(0)]  # eigenvalues 0, ±i
    with pytest.raises(IrrationalWeights,
                       match="torus row 2 is not rationally diagonalizable"):
        validate_torus([exact(g, "H1.1"), integer_row(rotation)], whole(g))


def test_validate_torus_rejects_noncommuting(sl2):
    with pytest.raises(NotAbelian):
        validate_torus([exact(sl2, "E12"), exact(sl2, "E21")], whole(sl2))


def test_validate_torus_rejects_outsider(sl2):
    h = SubalgebraEmbedding.create(sl2, [exact(sl2, "H1")])
    with pytest.raises(NotInSubalgebra):
        validate_torus([exact(sl2, "E12")], h)
    # the message names the first row outside h
    with pytest.raises(NotInSubalgebra, match="torus row 2 is not inside"):
        validate_torus([exact(sl2, "H1"), exact(sl2, "E12"), exact(sl2, "E21")],
                       h)


def test_validate_torus_empty_is_rank_zero(sl2):
    t = validate_torus([], whole(sl2))
    assert t.rank == 0


# --- greedy extension ------------------------------------------------------

def test_extend_greedily_sl2_pool(sl2):
    seed = validate_torus([], whole(sl2))
    pool = [unit(sl2, "H1"), unit(sl2, "E12"), unit(sl2, "E21")]
    t = extend_torus_greedily(seed, whole(sl2), pool)
    assert t.rank == 1
    assert fraction_row(t.rows[0]) == unit(sl2, "H1")


def test_extend_greedily_already_maximal(sl2):
    t0 = validate_torus([exact(sl2, "H1")], whole(sl2))
    pool = [unit(sl2, "H1"), unit(sl2, "E12"), unit(sl2, "E21")]
    t = extend_torus_greedily(t0, whole(sl2), pool)
    assert t.rows == t0.rows


def test_extend_greedily_sl3_diagonals(sl3):
    seed = validate_torus([], whole(sl3))
    pool = [unit(sl3, "H1"), unit(sl3, "H2")]
    t = extend_torus_greedily(seed, whole(sl3), pool)
    assert t.rank == 2


def test_extend_greedily_uses_centralizer_projection():
    # pool vector (E, H) does not commute with the seed (H, 0), but its
    # zero-weight component (0, H) does and extends the torus to rank 2
    pair = build_fixture("group_sl2")  # g = sl2 + sl2, h = g via whole
    g = pair.g
    full = whole(g)
    H1 = unit(g, "H1.1")
    mixed = [a + b for a, b in zip(unit(g, "E12.1"), unit(g, "H1.2"))]
    seed = validate_torus([integer_row(H1)], full)
    t = extend_torus_greedily(seed, full, [mixed])
    assert t.rank == 2
    # the adjoined direction is the projection (0, H), not the raw vector
    assert fraction_row(t.rows[1]) == unit(g, "H1.2")


# --- weight decompositions -------------------------------------------------

def test_sl2_adjoint_weights(sl2):
    t = validate_torus([exact(sl2, "H1")], whole(sl2))
    ws = weight_decomposition(t, "g")
    assert ws.weights == (((F(-2),), 1), ((F(0),), 1), ((F(2),), 1))


def test_rank_zero_torus_single_weight(sl3):
    h = SubalgebraEmbedding.create(
        sl3, [exact(sl3, "H1"), exact(sl3, "E12"), exact(sl3, "E21")])
    t = validate_torus([], h)
    ws = weight_decomposition(t, "g")
    assert ws.weights == (((), sl3.dim),)


def sl3_sl2_pair(sl3):
    h = SubalgebraEmbedding.create(
        sl3, [exact(sl3, "H1"), exact(sl3, "E12"), exact(sl3, "E21")])
    return h, validate_torus([exact(sl3, "H1")], h)


def test_sl3_mod_sl2_quotient_weights(sl3):
    # sl3 = sl2 + standard + dual standard + trivial line under top-left sl2;
    # the standard modules contribute weights +-1 twice
    h, t = sl3_sl2_pair(sl3)
    assert module_weights(t, "g/h") \
        == (((F(-1),), 2), ((F(0),), 1), ((F(1),), 2))


def test_weight_multiplicities_sum_to_dim(sl3):
    h, t = sl3_sl2_pair(sl3)
    for space, expected in (("h", 3), ("g/h", 5), ("g", 8)):
        assert sum(m for _, m in module_weights(t, space)) == expected


@pytest.mark.parametrize("name", fixture_names() + ["torus_pair:so_4_4"])
def test_quotient_weights_match_induced_action(name):
    # subtraction against the exact joint split of the induced action on a
    # complement of h; the so(4,4) torus is not diagonal in its basis
    pair = construct_from_spec(name) if ":" in name else build_fixture(name)
    n = pair.g.dim - pair.h.dim
    blocks = _joint_eigensplit(
        [as_ad(M) for M in quotient_operators(pair.torus_h)], n)
    assert module_weights(pair.torus_h, "g/h") \
        == tuple(sorted((lam, len(rows)) for lam, rows in blocks))


@pytest.mark.parametrize("name", fixture_names() + ["torus_pair:so_4_4"])
def test_cached_g_weights_equal_a_fresh_joint_split(name):
    # validate_torus keeps its joint split as the weight system on g; the
    # so(4,4) torus is not diagonal in its basis
    pair = construct_from_spec(name) if ":" in name else build_fixture(name)
    for torus in (pair.torus_h, pair.torus_g):
        fresh = sorted((lam, tuple(rref(rows)[0]))
                       for lam, rows in _joint_eigensplit(
                           [as_ad(M) for M in action_operators(torus, "g")],
                           pair.g.dim))
        ws = weight_decomposition(torus, "g")
        assert ws.weights == tuple((lam, len(rows)) for lam, rows in fresh)
        assert ws.spaces == tuple(rows for _, rows in fresh)


TEMPERED_LADDER = ("torus_pair:sl6", "torus_pair:sp_8", "torus_pair:so_4_4",
                   "torus_pair:sl5", "diagonal_pair:sl5", "direct_sum:sl4:sl2")


def test_parse_and_verify_split_each_torus_on_g_once(monkeypatch):
    # machine-independent count of the saving: re-verifying a tempered
    # report builds no complexification, splits each distinct torus on g
    # once and splits nothing on h
    pairs = [construct_from_spec(spec) for spec in TEMPERED_LADDER]
    reports = [report_for_pair(pair, ["tempered"]) for pair in pairs]
    calls = {"complexify": 0, "g": 0, "h": 0, "dense on g": 0}
    g_dim = [None]
    split = weights._torus_split
    joint = weights._joint_eigensplit
    complexify_pair = catalog.complexify_pair

    def counting_split(g, rows):
        calls["g" if g.dim == g_dim[0] else "h"] += 1
        return split(g, rows)

    def counting_joint(ops, dim):
        calls["dense on g" if dim == g_dim[0] else "h"] += 1
        return joint(ops, dim)

    def counting_complexify(pair):
        calls["complexify"] += 1
        return complexify_pair(pair)

    monkeypatch.setattr(weights, "_torus_split", counting_split)
    monkeypatch.setattr(weights, "_joint_eigensplit", counting_joint)
    monkeypatch.setattr(catalog, "complexify_pair", counting_complexify)
    for pair, rep in zip(pairs, reports):
        g_dim[0] = pair.g.dim
        parse_pair_text(rep["pair"]["source"])
        assert [ok for _, ok, _ in verify_report(rep)] == [True]
    # two parses of each report; the four torus pairs have torus_g = torus_h,
    # the other two have two tori; the dominance re-check reads the weights
    # on h from the split on g; only so(4,4)'s torus is not diagonal in its
    # basis, so only its split builds and splits dense operators
    assert calls == {"complexify": 0, "g": 2 * (4 * 1 + 2 * 2), "h": 0,
                     "dense on g": 2 * 1}


def test_reverify_searches_eigenspaces_only_for_a_non_diagonal_torus(
        monkeypatch):
    # machine-independent count: a torus whose ad(Y) are diagonal in g's
    # basis is split by coordinates; only so(4,4)'s torus is not, and its
    # joint split restricts its four operators to blocks 32 times through
    # the public linalg.eigensplit per parse, 15 of them not diagonal, so
    # that they run an eigenspace search
    pairs = [construct_from_spec(spec) for spec in TEMPERED_LADDER]
    reports = [report_for_pair(pair, ["tempered"]) for pair in pairs]
    splits = []
    eigensplit = weights.eigensplit
    monkeypatch.setattr(weights, "eigensplit",
                        lambda M, d: splits.append(is_diagonal(M))
                        or eigensplit(M, d))
    counts = {}
    for spec, rep in zip(TEMPERED_LADDER, reports):
        splits.clear()
        assert [ok for _, ok, _ in verify_report(rep)] == [True]
        counts[spec] = (len(splits), splits.count(False))
    assert counts == {spec: (32, 15) if spec == "torus_pair:so_4_4"
                      else (0, 0) for spec in TEMPERED_LADDER}


def test_create_splits_a_torus_g_equal_to_torus_h_once(monkeypatch):
    pair = construct_from_spec("torus_pair:so_4_4")
    rows = list(pair.torus_h.rows)
    assert pair.torus_g.rows == pair.torus_h.rows
    calls = []
    split = weights._torus_split
    monkeypatch.setattr(weights, "_torus_split",
                        lambda g, rows: calls.append(g.dim) or split(g, rows))
    created = Pair.create(pair.g, pair.h.rows, rows, rows)
    assert calls == [pair.g.dim]
    fresh = validate_torus(rows, whole(pair.g))
    assert created.torus_g == fresh  # parent g and rows
    assert created.torus_g.g_split == fresh.g_split  # weights and spaces


def h_weights_oracle(pair):
    """The weights on h and the canonical rows of their spaces in
    g-coordinates, from the joint split of ad restricted to h."""
    split = sorted(_joint_eigensplit(
        [as_ad(M) for M in action_operators(pair.torus_h, "h")], pair.h.dim))
    h_rows = [fraction_row(r) for r in pair.h.rows]
    spaces = []
    for _, rows in split:
        in_g = [[sum((c * r[i] for c, r in zip(row, h_rows) if c), F(0))
                 for i in range(pair.g.dim)] for row in rows]
        spaces.append(tuple(rref_oracle(in_g)[0]))
    return tuple((lam, len(rows)) for lam, rows in split), tuple(spaces)


@pytest.mark.parametrize("name", fixture_names() + list(TEMPERED_LADDER)
                         + ["whittaker_nilradical:sl4"])
def test_h_weights_equal_the_split_of_the_restricted_action(name):
    # the weights on h, read from the split on g, against the joint split
    # of ad restricted to h, on the pair and on its complexification; the
    # so(4,4) torus is not diagonal in its basis
    pair = construct_from_spec(name) if ":" in name else build_fixture(name)
    for p in (pair, pair.complexification):
        if p is None:
            continue
        ws = weight_decomposition(p.torus_h, "h")
        weights_, spaces = h_weights_oracle(p)
        assert ws.weights == weights_
        assert tuple(tuple(canonical_fractions(rows)) for rows in ws.spaces) \
            == spaces


RANK_ZERO_H = ("whittaker_nilradical:sl4", "symmetric_sl3_so3", "sl2_point")


@pytest.mark.parametrize("name", list(RANK_ZERO_H)
                         + [spec for spec in TEMPERED_LADDER
                            if spec != "torus_pair:so_4_4"])
def test_rank_zero_h_weights_solve_nothing(monkeypatch, name):
    # a split into unit rows, as of a rank-0 torus (one block, g itself)
    # or of the five diagonal tempered-ladder tori, gives h ∩ g_λ from h's
    # entries at g_λ's coordinates, with no solve; for a rank-0 torus that
    # is h's rref under the empty weight
    pair = construct_from_spec(name) if ":" in name else build_fixture(name)

    def no_solve(*args):
        raise AssertionError("solved against a split into unit rows")

    monkeypatch.setattr(weights, "coordinates", no_solve)
    ws = weight_decomposition(pair.torus_h, "h")
    assert (pair.torus_h.rank == 0) == (name in RANK_ZERO_H)
    if name in RANK_ZERO_H:
        rows = tuple(rref([nums for nums, _ in pair.h.rows])[0])
        assert ws.weights == ((((), len(rows)),) if rows else ())
        assert ws.spaces == ((rows,) if rows else ())
    weights_, spaces = h_weights_oracle(pair)
    assert ws.weights == weights_
    assert tuple(tuple(canonical_fractions(rows)) for rows in ws.spaces) \
        == spaces


def test_create_validates_a_torus_g_that_differs():
    g = sl_n_R(2).algebra
    H, E = g.basis_vector(0), g.basis_vector(1)
    Pair.create(g, [H], [H], [H])
    with pytest.raises(NotSemisimpleElement, match="torus row 1"):
        Pair.create(g, [H], [H], [E])


def test_whittaker_build_splits_its_torus_on_g_once(monkeypatch):
    # pair_whittaker validates the split rows on g to find the nilradical
    # and hands that torus to Pair.create, which does not split it again;
    # the other split on g is the empty torus_h's, of no operator
    calls = []
    split = weights._torus_split
    monkeypatch.setattr(weights, "_torus_split",
                        lambda g, rows: calls.append((g.dim, len(rows)))
                        or split(g, rows))
    pair = construct_from_spec("whittaker_nilradical:so_4_4")
    assert pair.torus_h.rank == 0 and pair.torus_g.rank > 0
    assert calls == [(pair.g.dim, pair.torus_g.rank), (pair.g.dim, 0)]
    fresh = validate_torus(pair.torus_g.rows, whole(pair.g))
    assert pair.torus_g == fresh
    assert pair.torus_g.g_split == fresh.g_split


def test_create_takes_a_split_torus_of_g_only():
    g = sl_n_R(2).algebra
    H = g.basis_vector(0)
    torus = validate_torus([H], whole(g))
    assert Pair.create(g, [H], [H], torus).torus_g is torus
    other = sl_n_R(2).algebra
    with pytest.raises(ValidationError, match="whole of this algebra"):
        Pair.create(other, [H], [H], torus)
    on_h = validate_torus([H], SubalgebraEmbedding.create(g, [H]))
    with pytest.raises(ValidationError, match="whole of this algebra"):
        Pair.create(g, [H], [H], on_h)


def test_weight_decomposition_takes_g_and_h_only(sl3):
    h, t = sl3_sl2_pair(sl3)
    with pytest.raises(ValueError, match="expected 'g' or 'h'"):
        weight_decomposition(t, "g/h")


def test_quotient_weights_reject_excess_on_h(sl2):
    t = validate_torus([exact(sl2, "H1")], whole(sl2))
    ws_g = WeightSystem(torus=t, weights=(((0,), 1), ((2,), 1)), spaces=())
    ws_h = WeightSystem(torus=t, weights=(((2,), 2),), spaces=())
    with pytest.raises(ValidationError, match=r"\(2\) has multiplicity 2"):
        quotient_weights(ws_g, ws_h)


def test_irrational_weights_error_in_decomposition():
    so23 = base_algebra("so_2_3")
    alg = so23.algebra
    # a compact rotation direction has ad eigenvalues 0, +-i
    rot = [F(0)] * alg.dim
    rot[alg.basis_labels.index("R12")] = F(1)
    with pytest.raises(IrrationalWeights):
        validate_torus([integer_row(rot)], whole(alg))


def test_irrational_weights_message_carries_charpoly():
    so3 = base_algebra("so3").algebra
    with pytest.raises(IrrationalWeights) as err:
        validate_torus([integer_row([F(1), F(0), F(0)])], whole(so3))
    assert "characteristic polynomial" in str(err.value)
    assert err.value.charpoly_coeffs is not None


def test_weight_spaces_partition_the_module(sl3):
    # distinct weight spaces intersect trivially and sum to everything:
    # their rows together have rank dim g
    h, t = sl3_sl2_pair(sl3)
    ws = weight_decomposition(t, "g")
    spaces = [Subspace.from_rows(sl3.dim, rows) for rows in ws.spaces]
    for i, s in enumerate(spaces):
        for s2 in spaces[i + 1:]:
            assert subspace_intersect(s, s2).dim == 0
    assert rank([r for s in spaces for r in s.rows]) == sl3.dim


def test_weight_completeness_across_fixtures():
    for name in fixture_names():
        pair = build_fixture(name)
        for space, dim in (("h", pair.h.dim), ("g/h", pair.g.dim - pair.h.dim),
                           ("g", pair.g.dim)):
            assert sum(m for _, m in module_weights(pair.torus_h, space)) \
                == dim, (name, space)


def unimodular_pair(n, rng, steps=12):
    """(P, P^-1) for a random product of integer elementary matrices."""
    P = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        P[i] = [a + c * b for a, b in zip(P[i], P[j])]  # row i += c row j
        for row in Pinv:  # column j -= c column i
            row[j] -= c * row[i]
    return P, Pinv


@pytest.mark.parametrize("name,torus,space", [
    ("triple_sl2", "torus_g", "g"),
    ("triple_sl2", "torus_h", "g"),
    ("sl3_sl2_topleft", "torus_g", "g"),
    ("group_sl2c", "torus_h", "h"),
    ("triple_sl3", "torus_h", "g"),
])
def test_refinement_split_agrees_with_coordinate_split(name, torus, space):
    # conjugating the diagonal operators by a unimodular change of basis
    # forces the refinement path; the weights and multiplicities must agree
    ops = action_operators(getattr(build_fixture(name), torus), space)
    assert all(is_diagonal(M) for M in ops)
    n = len(ops[0])
    coordinate = _joint_eigensplit([as_ad(M) for M in ops], n)
    P, Pinv = unimodular_pair(n, Random(f"{name}/{space}"))
    assert mat_mul(P, Pinv) == [[int(i == j) for j in range(n)]
                                for i in range(n)]
    conj = [mat_mul(mat_mul(P, M), Pinv) for M in ops]
    assert not all(is_diagonal(M) for M in conj)
    refined = _joint_eigensplit([as_ad(M) for M in conj], n)
    assert sorted((lam, len(rows)) for lam, rows in refined) \
        == [(lam, len(rows)) for lam, rows in coordinate]
    for lam, rows in refined:
        for v in rows:
            for M, x in zip(conj, lam):
                assert mat_vec(M, list(v)) == [x * a for a in v]


# --- rho -------------------------------------------------------------------

def test_rho_sl2_adjoint_evaluation(sl2):
    t = validate_torus([exact(sl2, "H1")], whole(sl2))
    rho = rho_from_weights(t, weight_decomposition(t, "g").weights)
    assert rho_eval(rho, [F(3)]) == 12
    assert rho_eval(rho, [F(0)]) == 0


def test_rho_zero_for_rank_zero(sl2):
    h = SubalgebraEmbedding.create(sl2, [])
    t = validate_torus([], h)
    rho = rho_from_weights(t, weight_decomposition(t, "g").weights)
    assert rho.forms == ()
    assert rho_eval(rho, []) == 0


def test_rho_drops_zero_forms(sl3):
    h, t = sl3_sl2_pair(sl3)
    rho = rho_from_weights(t, module_weights(t, "g/h"))
    assert all(any(x != 0 for x in lam) for lam, _ in rho.forms)
    # two standard modules: rho_{g/h}(t) = 4|t|
    assert rho_eval(rho, [F(1)]) == 4


def test_rho_positive_root_consistency_sl3(sl3):
    # independent oracle: positive restricted roots of sl3 w.r.t. (H1, H2)
    # are (2,-1), (-1,2), (1,1); rho_ad = 2 * sum over positive roots in the
    # dominant chamber (evenness pairs each +-lambda)
    t = validate_torus([exact(sl3, "H1"), exact(sl3, "H2")], whole(sl3))
    rho = rho_from_weights(t, weight_decomposition(t, "g").weights)
    positive = [(F(2), F(-1)), (F(-1), F(2)), (F(1), F(1))]
    for y in ([F(1), F(1)], [F(2), F(1)], [F(1), F(3)]):
        if all(a * y[0] + b * y[1] >= 0 for a, b in positive):
            expected = 2 * sum(a * y[0] + b * y[1] for a, b in positive)
            assert rho_eval(rho, y) == expected


RESCALED_TORUS = Path(__file__).parent / "data" / \
    "so23_so22_rescaled_torus.pair"


def assert_weights_rescaled(torus, base):
    """torus has the two rows of base divided by 2 and by 3: each weight
    (a, b) of base is (a/2, b/3) on torus, an int tuple over its den 6, in
    the same order, and rho at y is base's rho at (y1/2, y2/3)."""
    assert (torus.den, base.den) == (6, 1)
    rng = Random(29)
    for space in ("g", "h", "g/h"):
        got = module_weights(torus, space)
        want = module_weights(base, space)
        assert [(tuple(F(x, 6) for x in lam), m) for lam, m in got] \
            == [((F(a, 2), F(b, 3)), m) for (a, b), m in want]
        rho = rho_from_weights(torus, got)
        rho_base = rho_from_weights(base, want)
        for _ in range(20):
            y1, y2 = random_fraction(rng), random_fraction(rng)
            assert rho_eval(rho, [y1, y2]) == rho_eval(rho_base, [y1 / 2, y2 / 3])


def test_a_rescaled_torus_has_its_weights_over_one_denominator():
    # so23_so22 with the torus rows B13/2, B24/3, which are not diagonal in
    # the basis of so(2,3)
    pair = parse_pair_text(RESCALED_TORUS.read_text(encoding="utf-8"))
    assert_weights_rescaled(pair.torus_h,
                            build_fixture("so23_so22").torus_h)


def test_a_rescaled_diagonal_torus_has_its_weights_over_one_denominator(sl3):
    # H1/2 and H2/3 act diagonally on sl3's basis, with ad over 2 and 3
    (h1, _), (h2, _) = exact(sl3, "H1"), exact(sl3, "H2")
    assert_weights_rescaled(
        validate_torus([(h1, 2), (h2, 3)], whole(sl3)),
        validate_torus([(h1, 1), (h2, 1)], whole(sl3)))


def test_rho_numeric_eigensolver_cross_check():
    # 20 random rational points per pair against numpy's eigensolver
    rng = Random(17)
    for name in ("group_sl2", "sl3_sl2_topleft", "sl2c_cartan"):
        pair = build_fixture(name)
        r = pair.torus_h.rank
        for space in ("h", "g/h"):
            rho = rho_from_weights(pair.torus_h,
                                   module_weights(pair.torus_h, space))
            for _ in range(20):
                y = [random_fraction(rng) for _ in range(r)]
                assert_rho_matches_numeric(pair.torus_h, space, rho, y)


rho_strategy = st.builds(
    lambda rank, raw: rho_of(
        rank, [(lam[:rank], m) for lam, m in raw if any(lam[:rank])]),
    st.shared(st.integers(min_value=1, max_value=3), key="rank"),
    st.lists(st.tuples(
        st.tuples(*([st.fractions(min_value=-4, max_value=4,
                                  max_denominator=2)] * 3)),
        st.integers(min_value=1, max_value=3)), max_size=4))

point_strategy = st.tuples(*([st.fractions(min_value=-6, max_value=6,
                                           max_denominator=3)] * 3))


@settings(max_examples=80, deadline=None)
@given(rho_strategy, point_strategy, point_strategy)
def test_rho_subadditive(rho, y, z):
    y, z = list(y[:rho.rank]), list(z[:rho.rank])
    s = [a + b for a, b in zip(y, z)]
    assert rho_eval(rho, s) <= rho_eval(rho, y) + rho_eval(rho, z)


@settings(max_examples=80, deadline=None)
@given(rho_strategy, point_strategy,
       st.fractions(min_value=-5, max_value=5, max_denominator=3))
def test_rho_homogeneous_and_even(rho, y, q):
    y = list(y[:rho.rank])
    assert rho_eval(rho, [-a for a in y]) == rho_eval(rho, y)
    assert rho_eval(rho, [q * a for a in y]) == abs(q) * rho_eval(rho, y)
