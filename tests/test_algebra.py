from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepair import algebra
from liepair.algebra import (
    LieAlgebra,
    SubalgebraEmbedding,
    Subspace,
    ValidationError,
    ad_matrix,
    bracket,
    subspace_intersect,
    validate,
)
from liepair.linalg import fraction_row, integer_row, rank

from liepair.catalog import construct_from_spec

from conftest import (
    ad_oracle,
    bracket_oracle,
    commutator,
    mat_sl,
    rref_oracle,
    solve_oracle,
)

F = Fraction


def vec_of(L, label, coeff=F(1)):
    i = L.basis_labels.index(label)
    v = [F(0)] * L.dim
    v[i] = coeff
    return v


def exact_of(L, label, coeff=F(1)):
    return integer_row(vec_of(L, label, coeff))


def dense(ad):
    """ad_matrix's (columns, d) as the dense Fraction matrix."""
    columns, d = ad
    M = [[F(0)] * len(columns) for _ in columns]
    for i, col in enumerate(columns):
        for k, c in col:
            M[k][i] = F(c, d)
    return M


def test_sl2_bracket_H_E(sl2):
    # [H, E] = 2E from the standard structure constants
    assert bracket(sl2, exact_of(sl2, "H1"), exact_of(sl2, "E12")) == \
        ((0, 2, 0), 1)


def test_sl2_bracket_E_F_matches_matrix_commutator(sl2):
    # oracle: the 2x2 matrix commutator [E, F] = H computed here directly
    labels, mats = mat_sl(2)
    C = commutator(mats[labels.index("E12")], mats[labels.index("E21")])
    assert C == mats[labels.index("H1")]
    assert bracket(sl2, exact_of(sl2, "E12"), exact_of(sl2, "E21")) == \
        exact_of(sl2, "H1")


def test_ad_matrix_sl2_H_diagonal(sl2):
    # column-by-column bracket oracle gives diag(0, 2, -2) in (H, E, F)
    assert ad_matrix(sl2, exact_of(sl2, "H1")) == (
        [(), ((1, 2),), ((2, -2),)], 1)


def test_ad_matrix_of_zero_is_zero(sl3):
    columns, _ = ad_matrix(sl3, ((0,) * sl3.dim, 1))
    assert columns == [()] * sl3.dim


def test_ad_trace_zero_on_sl3(sl3):
    rng = Random(5)
    for _ in range(5):
        y = [F(rng.randint(-4, 4)) for _ in range(sl3.dim)]
        M = dense(ad_matrix(sl3, integer_row(y)))
        assert M == ad_oracle(sl3, y)
        assert sum(M[i][i] for i in range(sl3.dim)) == 0


def test_ad_is_homomorphism(sl3):
    # ad([x, y]) = ad(x) ad(y) - ad(y) ad(x) on random rational vectors,
    # and bracket agrees with the Fraction oracle
    rng = Random(11)
    for _ in range(5):
        x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(sl3.dim)]
        y = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(sl3.dim)]
        xy = bracket(sl3, integer_row(x), integer_row(y))
        assert fraction_row(xy) == bracket_oracle(sl3, x, y)
        lhs = dense(ad_matrix(sl3, xy))
        ax = dense(ad_matrix(sl3, integer_row(x)))
        ay = dense(ad_matrix(sl3, integer_row(y)))
        rhs = commutator(ax, ay)
        assert lhs == rhs


def test_bracket_dimension_mismatch(sl2):
    with pytest.raises(ValidationError, match="vectors of length 1 and 3"):
        bracket(sl2, integer_row([F(1)]), exact_of(sl2, "H1"))
    with pytest.raises(ValidationError, match="got length 1"):
        ad_matrix(sl2, integer_row([F(1)]))


def test_validate_catalog_sl3_ok(sl3):
    rep = validate(sl3)
    assert rep.ok and not rep.problems


def test_validate_detects_antisymmetry_violation(sl2):
    sparse = [list(row) for row in sl2.sparse]
    assert sparse[0][1] == ((1, 2),)  # [H, E] = 2E
    sparse[0][1] = ((0, F(1)), (1, F(2)))  # now c[1][2] != -c[2][1]
    bad = LieAlgebra(dim=3, basis_labels=sl2.basis_labels,
                     sparse=tuple(tuple(row) for row in sparse))
    rep = validate(bad)
    assert not rep.ok
    assert "antisymmetry" in rep.first_problem and "(1, 2)" in rep.first_problem


def test_validate_checks_jacobi_when_only_antisymmetry_fails(sl2):
    # the realization check reads only i < j, so it still passes once the
    # lower-triangle [F, H] is dropped; that entry breaks antisymmetry and
    # the Jacobi triple (H, E, F) by -2H, and the triples must still run
    sparse = [list(row) for row in sl2.sparse]
    sparse[2][0] = ()
    bad = replace(sl2, sparse=tuple(tuple(row) for row in sparse))
    rep = validate(bad)
    assert sl2.matrix_realization is not None and not rep.ok
    assert not any("realization" in p for p in rep.problems)
    assert any("antisymmetry" in p and "(1, 3)" in p for p in rep.problems)
    assert any("Jacobi" in p and "(1, 2, 3)" in p for p in rep.problems)


def test_validate_detects_perturbed_realization(sl2):
    # a passing realization of antisymmetric constants skips the Jacobi
    # triples, so for sl6 (dim 35) as for sl2 the realization check is the
    # only check that ties the structure constants to a Lie algebra
    sl6 = LieAlgebra.from_matrices(*mat_sl(6))
    assert sl6.dim > 24 and validate(sl6).ok
    for alg in (sl2, sl6):
        mats = [[list(r) for r in M] for M in alg.matrix_realization]
        mats[1][0][0] += 1
        bad = replace(alg, matrix_realization=tuple(
            tuple(tuple(x for x in r) for r in M) for M in mats))
        rep = validate(bad)
        assert not rep.ok
        assert any("realization" in p for p in rep.problems)


def test_realization_check_forms_only_the_brackets_it_cannot_skip(
        monkeypatch):
    # machine-independent count: a basis pair with no stored bracket is
    # skipped when no nonzero column of either matrix meets a nonzero row
    # of the other; in (sl5 + sl5)/diag that is 870 of the 1128 pairs
    g = construct_from_spec("diagonal_pair:sl5").g
    mats = g.matrix_realization
    m = len(mats[0])

    def meets(A, B):
        return any(A[a][k] and B[k][b]
                   for a in range(m) for k in range(m) for b in range(m))

    needed = [(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)
              if g.sparse[i][j] or meets(mats[i], mats[j])
              or meets(mats[j], mats[i])]
    formed = []
    bracket_of = algebra._matrix_bracket
    monkeypatch.setattr(algebra, "_matrix_bracket",
                        lambda A, B, size: formed.append(1)
                        or bracket_of(A, B, size))
    assert validate(g).ok
    assert len(formed) == len(needed) == 258
    assert g.dim * (g.dim - 1) // 2 == 1128


def test_validate_rejects_an_unfaithful_realization():
    # zero matrices satisfy [M_i, M_j] = Σ c_k M_k for any constants, so
    # without the faithfulness check they would hide this Jacobi violation
    n = 25
    table = {(0, 1): {2: F(1)}, (0, 2): {0: F(1)}}
    bad = LieAlgebra.from_structure(
        [f"e{k}" for k in range(n)], table, realization=[[[F(0)]]] * n)
    rep = validate(bad)
    assert not rep.ok
    assert rep.first_problem == "matrix realization is not faithful"
    assert any("Jacobi" in p for p in rep.problems)


def test_bracket_table_index_out_of_range():
    with pytest.raises(ValidationError, match="outside 1..3"):
        LieAlgebra.from_structure(["a", "b", "c"], {(0, 1): {3: F(1)}})


def test_validate_detects_jacobi_violation():
    # [e1,e2] = e3, [e1,e3] = e1: the cyclic sum at (1,2,3) is e3, not 0
    table = {(0, 1): {2: F(1)}, (0, 2): {0: F(1)}}
    bad = LieAlgebra.from_structure(["a", "b", "c"], table)
    rep = validate(bad)
    assert not rep.ok
    assert "Jacobi" in rep.first_problem and "(1, 2, 3)" in rep.first_problem


def test_subspace_trivial_sum_and_intersection():
    # the sum of two spans is the span of their rows together
    A = Subspace.from_rows(2, [[1, 0]])
    B = Subspace.from_rows(2, [[0, 1]])
    assert rank(list(A.rows) + list(B.rows)) == 2
    assert subspace_intersect(A, B).dim == 0


def test_subspace_equal_operands():
    A = Subspace.from_rows(3, [[1, 2, 0], [0, 0, 1]])
    assert subspace_intersect(A, A) == A


def test_subspace_ambient_mismatch():
    A = Subspace.from_rows(2, [[1, 0]])
    B = Subspace.from_rows(3, [[1, 0, 0]])
    with pytest.raises(ValidationError):
        subspace_intersect(A, B)


@pytest.mark.parametrize("ambient", [3, 8, 16])
def test_subspace_dimension_formula_bulk(ambient):
    # 100 random instances per ambient dimension, exactly: the
    # intersection has dim A + dim B - rank(A + B), and its rows lie in
    # both spaces by the Fraction oracle
    rng = Random(100 + ambient)
    for _ in range(100):
        ra = rng.randint(0, ambient)
        rb = rng.randint(0, ambient)
        A = Subspace.from_rows(ambient, [
            [rng.randint(-3, 3) for _ in range(ambient)] for _ in range(ra)])
        B = Subspace.from_rows(ambient, [
            [rng.randint(-3, 3) for _ in range(ambient)] for _ in range(rb)])
        i = subspace_intersect(A, B)
        assert i.dim == A.dim + B.dim - rank(list(A.rows) + list(B.rows))
        assert subspace_intersect(A, B) == subspace_intersect(B, A)
        assert subspace_intersect(i, A) == i
        rows = [[F(x) for x in r] for r in i.rows]
        for side in (A, B):
            assert None not in solve_oracle(
                [[F(x) for x in r] for r in side.rows], rows)
        assert len(rref_oracle(rows)[0]) == i.dim


def test_subalgebra_closure_error_names_rows(sl2):
    # span(H, E + F) is not closed: [H, E+F] = 2E - 2F is outside
    with pytest.raises(ValidationError, match=r"row 1, row 2"):
        SubalgebraEmbedding.create(sl2, [[F(1), F(0), F(0)],
                                         [F(0), F(1), F(1)]])


def test_closure_error_names_rows_after_zero_brackets(sl3):
    # [H1, H2] = 0 is not solved for; [H1, E12 + E23] = 2E12 - E23 is the
    # first bracket outside the span
    def unit(label):
        return [F(int(b == label)) for b in sl3.basis_labels]

    rows = [unit("H1"), unit("H2"),
            [a + b for a, b in zip(unit("E12"), unit("E23"))]]
    with pytest.raises(ValidationError, match=r"\[row 1, row 3\]"):
        SubalgebraEmbedding.create(sl3, rows)


def test_subalgebra_dependent_rows(sl2):
    with pytest.raises(ValidationError, match="dependent"):
        SubalgebraEmbedding.create(sl2, [[F(1), F(0), F(0)],
                                         [F(2), F(0), F(0)]])


def test_whole_called_on_an_instance_embeds_its_argument(sl2, sl3):
    assert SubalgebraEmbedding.whole(sl2).whole(sl3).ambient is sl3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                min_size=3, max_size=3))
def test_bracket_antisymmetric_on_diagonal(x):
    from liepair.catalog import base_algebra
    L = base_algebra("sl2").algebra
    assert not any(bracket(L, integer_row(x), integer_row(x))[0])
