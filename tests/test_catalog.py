from fractions import Fraction

import pytest

from liepair.algebra import SubalgebraEmbedding, validate
from liepair.catalog import (
    UnsupportedParams,
    base_algebra,
    build_fixture,
    construct,
    construct_from_spec,
    fixture_names,
    pair_diagonal,
    pair_symmetric,
    pair_whittaker,
    so_p_q,
    su_p_q,
)
from liepair.linalg import fraction_row
from liepair.pairfile import parse_pair_text, serialize_pair
from liepair.weights import validate_torus

from conftest import (
    bracket_oracle,
    extend_torus_greedily,
    killing_form_matrix,
    rref_oracle,
    solve_oracle,
    unit_fractions,
)

F = Fraction


def killing_det_nonzero(alg):
    K = killing_form_matrix(alg)
    return len(rref_oracle(K)[0]) == alg.dim


# --- exhaustive validation over the small range ----------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_sl_n_validates(n):
    data = base_algebra(f"sl{n}")
    assert data.algebra.dim == n * n - 1
    assert validate(data.algebra).ok
    assert killing_det_nonzero(data.algebra)
    validate_torus(data.split_rows,
                   SubalgebraEmbedding.whole(data.algebra))


@pytest.mark.parametrize("p,q", [(p, q) for p in range(0, 7)
                                 for q in range(0, 7) if 3 <= p + q <= 6])
def test_so_p_q_validates_and_rank(p, q):
    data = so_p_q(p, q)
    n = p + q
    assert data.algebra.dim == n * (n - 1) // 2
    assert validate(data.algebra).ok
    # real rank is min(p, q)
    t = validate_torus(data.split_rows,
                       SubalgebraEmbedding.whole(data.algebra))
    assert t.rank == min(p, q)
    if n >= 3:
        assert killing_det_nonzero(data.algebra)
    # split + compact rows together have the absolute rank
    assert len(data.split_rows) + len(data.compact_rows) == n // 2


@pytest.mark.parametrize("p,q", [(p, q) for p in range(0, 7)
                                 for q in range(0, 7) if 2 <= p + q <= 6])
def test_su_p_q_validates_and_rank(p, q):
    data = su_p_q(p, q)
    n = p + q
    assert data.algebra.dim == n * n - 1
    # validate runs the full Jacobi check up to dim 24 and falls back to
    # the exactly verified matrix realization above it
    assert validate(data.algebra).ok
    assert killing_det_nonzero(data.algebra)
    t = validate_torus(data.split_rows,
                       SubalgebraEmbedding.whole(data.algebra))
    assert t.rank == min(p, q)


@pytest.mark.parametrize("two_n", [2, 4, 6])
def test_sp_validates(two_n):
    data = base_algebra(f"sp_{two_n}")
    n = two_n // 2
    assert data.algebra.dim == 2 * n * n + n
    assert validate(data.algebra).ok
    assert killing_det_nonzero(data.algebra)
    t = validate_torus(data.split_rows,
                       SubalgebraEmbedding.whole(data.algebra))
    assert t.rank == n


def test_complexified_sl2_validates():
    data = base_algebra("sl2C")
    assert data.algebra.dim == 6
    assert validate(data.algebra).ok
    assert killing_det_nonzero(data.algebra)
    assert data.complex_structure is not None
    t = validate_torus(data.split_rows,
                       SubalgebraEmbedding.whole(data.algebra))
    assert t.rank == 1  # complex rank of sl2


def test_complexified_compact_so3_has_split_rank_one():
    data = base_algebra("so3C")
    t = validate_torus(data.split_rows,
                       SubalgebraEmbedding.whole(data.algebra))
    assert t.rank == 1


# --- family constructors ---------------------------------------------------

def test_triple_diagonal_dimensions():
    pair = pair_diagonal("sl2", 3)
    assert pair.g.dim == 9 and pair.h.dim == 3
    assert pair.torus_h.rank == 1 and pair.torus_g.rank == 3


def test_whittaker_sl3_dimensions_and_rank_zero():
    pair = pair_whittaker("sl3")
    assert pair.h.dim == 3
    assert pair.torus_h.rank == 0
    assert any("nilpotent" in n for n in pair.notes)


def test_symmetric_sl3_fixed_points_is_so3():
    pair = pair_symmetric("sl3")
    assert pair.h.dim == 3
    assert pair.torus_h.rank == 0
    # every fixed vector is antisymmetric in the realization
    mats, _ = pair.g.matrix_realization
    for row in pair.h.rows:
        row = fraction_row(row)
        M = [[sum(c * mats[k][i][j] for k, c in enumerate(row))
              for j in range(3)] for i in range(3)]
        assert all(M[i][j] == -M[j][i] for i in range(3) for j in range(3))


@pytest.mark.parametrize("spec", ["sl2", "sl3", "sl4", "so_2_3", "so_4_4",
                                  "su_1_2", "sp_4", "sl2C", "sl3C"])
def test_negative_transpose_is_an_automorphism(spec):
    # Θ[e_i, e_j] = [Θe_i, Θe_j] on every basis pair, so pair_symmetric
    # needs no check of its own: X -> -X^T is an automorphism of gl(m), and
    # the realization is a faithful homomorphism whose span holds -M_k^T
    alg = base_algebra(spec).algebra
    mats, _ = alg.matrix_realization
    theta = solve_oracle([[x for row in M for x in row] for M in mats],
                         [[-x for col in zip(*M) for x in col]
                          for M in mats])
    n = alg.dim

    def apply(v):
        return [sum(v[j] * theta[j][k] for j in range(n)) for k in range(n)]

    for i in range(n):
        for j in range(i + 1, n):
            assert apply(bracket_oracle(alg, unit_fractions(alg, i),
                                        unit_fractions(alg, j))) == \
                bracket_oracle(alg, theta[i], theta[j]), (spec, i, j)
    h = pair_symmetric(spec).h
    assert all(apply(fraction_row(row)) == fraction_row(row)
               for row in h.rows)
    assert h.dim == n - len(rref_oracle([[theta[i][k] - (i == k)
                                          for k in range(n)]
                                         for i in range(n)])[0])


def test_designated_tori_are_pool_maximal():
    for name in ("group_sl2", "sl2_split_torus", "sl2c_cartan",
                 "whittaker_sl3"):
        pair = build_fixture(name)
        extended = extend_torus_greedily(
            pair.torus_h, pair.h, [fraction_row(r) for r in pair.h.rows])
        assert extended.rank == pair.torus_h.rank, name


def test_construct_and_spec_parsing():
    pair = construct("triple_diagonal", ["sl2"])
    assert pair.g.dim == 9
    pair2 = construct_from_spec("triple_diagonal:sl2")
    assert pair2 == pair


def test_unsupported_params():
    with pytest.raises(UnsupportedParams):
        construct("sl_n_R", ["9"])
    with pytest.raises(UnsupportedParams):
        construct("nosuchfamily", [])
    with pytest.raises(UnsupportedParams):
        base_algebra("sl1")
    with pytest.raises(UnsupportedParams):
        base_algebra("so_5_5")


def test_complexification_attached_where_promised():
    pair = build_fixture("sl2_split_torus")
    comp = pair.complexification
    assert comp is not None
    assert comp.g.dim == 2 * pair.g.dim
    assert comp.h.dim == 2 * pair.h.dim
    # each complexification passes the parser's checks on the algebra and J
    # as well as the constructor's
    built = 0
    for name in fixture_names():
        comp = build_fixture(name).complexification
        if comp is not None:
            assert parse_pair_text(serialize_pair(comp)) == comp, name
            built += 1
    assert built == 13


def test_symmetric_pair_on_a_complex_base_is_not_complex():
    # su(2) in sl(2, C) is not J-stable, so the pair carries no J, yet its
    # complexification is built from sl(2, C)'s Cartan data
    pair = construct_from_spec("symmetric_pair_fixed_points:sl2C:neg_transpose")
    assert not pair.is_complex_pair
    comp = pair.complexification
    assert comp.is_complex_pair and comp.g.dim == 12 and comp.h.dim == 6


def test_su_p_q_has_no_compact_cartan_data():
    # without it su_1_2C, which is sl(3, C) realified, would get a split
    # torus of rank 1 instead of 2; tests/test_cli.py checks its refusal
    assert su_p_q(1, 2).compact_rows is None
    with pytest.raises(UnsupportedParams, match="compact Cartan data"):
        construct_from_spec("torus_pair:su_1_2")
    assert construct_from_spec("direct_sum:sl2:su_1_1").complexification \
        is None
