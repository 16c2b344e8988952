from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepair.linalg import (
    IrrationalSpectrumError,
    NotDiagonalizableError,
    charpoly,
    eigensplit,
    exp_nilpotent,
    express_in_rows,
    frac,
    kernel,
    mat_vec,
    rank,
    rref,
)

F = Fraction


def test_frac_accepts_unicode_minus():
    assert frac("−3/2") == F(-3, 2)
    assert frac("7") == 7


def test_rref_canonical_and_pivots():
    rows, piv = rref([[F(2), F(4)], [F(1), F(2)]])
    assert rows == [(F(1), F(2))]
    assert piv == [0]


def test_kernel_of_rank_one_matrix():
    A = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    K = kernel(A)
    assert len(K) == 2
    for v in K:
        assert all(sum(r[i] * v[i] for i in range(3)) == 0 for r in A)


def test_express_in_rows_and_failure():
    rows = [(F(1), F(0), F(0)), (F(0), F(1), F(0))]
    inside, outside = express_in_rows(rows, [[F(3), F(-2), F(0)],
                                             [F(0), F(0), F(1)]])
    assert inside == [F(3), F(-2)]
    assert outside is None


def test_charpoly_frozen_2x2():
    # det(tI - A) for [[1,2],[3,4]]: t^2 - 5t - 2, by hand
    assert charpoly([[F(1), F(2)], [F(3), F(4)]]) == [F(1), F(-5), F(-2)]


def test_charpoly_matches_numpy_on_random_matrices():
    rng = Random(3)
    for _ in range(10):
        n = rng.randint(1, 5)
        A = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        coeffs = charpoly(A)
        roots = np.roots([float(c) for c in coeffs])
        eigs = np.linalg.eigvals(np.array([[float(x) for x in r] for r in A]))
        assert np.allclose(sorted(roots.real), sorted(eigs.real), atol=1e-6)
        assert np.allclose(sorted(roots.imag), sorted(eigs.imag), atol=1e-6)


def test_eigensplit_diagonalizable():
    A = [[F(2), F(1)], [F(0), F(3)]]
    parts = eigensplit(A)
    assert [lam for lam, _ in parts] == [F(2), F(3)]
    for lam, basis in parts:
        for v in basis:
            assert mat_vec(A, list(v)) == [lam * x for x in v]


def test_eigensplit_rejects_rotation():
    with pytest.raises(IrrationalSpectrumError):
        eigensplit([[F(0), F(-1)], [F(1), F(0)]])


def test_eigensplit_rejects_nilpotent():
    with pytest.raises(NotDiagonalizableError):
        eigensplit([[F(0), F(1)], [F(0), F(0)]])


def test_eigensplit_irrational_real_roots():
    # t^2 - 2: real but irrational spectrum
    with pytest.raises(IrrationalSpectrumError):
        eigensplit([[F(0), F(2)], [F(1), F(0)]])


def test_exp_nilpotent_polynomial():
    N = [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(0), F(0), F(0)]]
    M = exp_nilpotent(N, F(2))
    assert M == [[F(1), F(2), F(2)], [F(0), F(1), F(2)], [F(0), F(0), F(1)]]
    with pytest.raises(ValueError):
        exp_nilpotent([[F(1)]], F(1))


@st.composite
def rational_matrix(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    ent = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    return [[draw(ent) for _ in range(m)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(rational_matrix())
def test_rank_plus_kernel_dim(A):
    assert rank(A) + len(kernel(A)) == len(A[0])


@settings(max_examples=60, deadline=None)
@given(rational_matrix())
def test_rref_idempotent(A):
    red, piv = rref(A)
    again, piv2 = rref([list(r) for r in red])
    assert again == red and piv2 == piv
