from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import moved_fractions, rref_oracle
from liepair import linalg
from liepair.checks import AdWord, NonTerminatingSeries
from liepair.linalg import (
    IrrationalSpectrumError,
    NotDiagonalizableError,
    _kernels_for,
    charpoly,
    eigensplit,
    express_in_rows,
    frac,
    integer_echelon,
    integer_rank,
    integer_row,
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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2),
                min_size=1, max_size=9))
def test_diagonal_eigensplit_matches_kernels_and_uses_no_float(diag):
    # nine possible entries, so most draws repeat an eigenvalue
    n = len(diag)
    D = [[diag[i] if j == i else F(0) for j in range(n)] for i in range(n)]
    want = sorted(_kernels_for(D, sorted(set(diag))))

    def no_float(A):
        raise AssertionError("a diagonal matrix needs no float candidates")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_float_eigen_candidates", no_float)
        assert eigensplit(D) == want


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


def test_exp_nilpotent_polynomial(sl2):
    # basis H1, E12, E21: ad E12 sends E21 to H1 and H1 to -2 E12, so
    # exp(t ad E12) E21 = E21 + t H1 - t² E12, a polynomial in t
    E = [F(0), F(1), F(0)]
    word = AdWord(steps=((tuple(E), F(2)),))
    moved = word.apply_to_rows(
        sl2, [integer_row([F(0), F(0), F(1)]), integer_row([F(1), F(0), F(0)])])
    assert moved_fractions(moved) == [[F(2), F(-4), F(1)], [F(1), F(-4), F(0)]]
    # ad H1 is not nilpotent: its series on E12 never stops, but on H1 it
    # stops at once, since the series only has to terminate on the rows moved
    H = AdWord(steps=((tuple([F(1), F(0), F(0)]), F(1)),))
    assert moved_fractions(
        H.apply_to_rows(sl2, [integer_row([F(1), F(0), F(0)])])) \
        == [[F(1), F(0), F(0)]]
    with pytest.raises(NonTerminatingSeries, match="step 1"):
        H.apply_to_rows(sl2, [integer_row(E)])


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


fractions_or_zero = st.one_of(
    st.just(F(0)), st.fractions(min_value=-6, max_value=6, max_denominator=6))


@st.composite
def rref_input(draw):
    """Matrices of 0-7 rows and 0-7 columns, wide or tall, with many zero
    entries, repeated rows and zero rows, and an optional `ncols`."""
    nrows = draw(st.integers(min_value=0, max_value=7))
    width = draw(st.integers(min_value=0, max_value=7))
    rows = [[draw(fractions_or_zero) for _ in range(width)]
            for _ in range(nrows)]
    if rows and draw(st.booleans()):
        rows.append([F(0)] * width)
    if rows and draw(st.booleans()):
        rows.append([2 * x for x in rows[0]])
    ncols = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=width)))
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(rref_input())
def test_rref_matches_fraction_gauss_jordan(case):
    rows, ncols = case
    red, piv = rref(rows, ncols)
    want, want_piv = rref_oracle(rows, ncols)
    assert piv == want_piv
    assert all(type(x) is F for row in red for x in row)
    if ncols is None:
        assert red == want
        return
    # pivot rows are exact; trailing rows keep only their zero pattern
    k = len(piv)
    assert red[:k] == want[:k]
    assert [[x == 0 for x in row] for row in red[k:]] \
        == [[x == 0 for x in row] for row in want[k:]]


@st.composite
def integer_rank_input(draw):
    """Integer rows, or rational rows scaled to integers, of 0-7 rows and
    0-7 columns (wide or tall), with zero rows, an exact repeat and a
    multiple of a row mixed in."""
    nrows = draw(st.integers(min_value=0, max_value=7))
    width = draw(st.integers(min_value=0, max_value=7))
    if draw(st.booleans()):
        ent = st.one_of(st.just(0), st.integers(min_value=-10 ** 6,
                                                max_value=10 ** 6))
        rows = [[draw(ent) for _ in range(width)] for _ in range(nrows)]
    else:
        rows = [integer_row([draw(fractions_or_zero) for _ in range(width)])[0]
                for _ in range(nrows)]
    if rows and draw(st.booleans()):
        rows.append([0] * width)
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if rows and draw(st.booleans()):
        k = draw(st.integers(min_value=-5, max_value=5))
        rows.insert(0, [k * x for x in rows[-1]])
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(integer_rank_input())
def test_integer_rank_equals_rref_rank(rows):
    before = [list(r) for r in rows]
    got = integer_rank(rows)
    assert got == len(rref(rows)[0]) == rank(rows)
    assert got == len(rref_oracle(rows)[1])
    assert rows == before  # the argument is not mutated


@settings(max_examples=300, deadline=None)
@given(integer_rank_input(), st.data())
def test_integer_echelon_spans_its_rows_in_echelon_form(rows, data):
    echelon = integer_echelon(rows)
    assert all(type(x) is int for row in echelon for x in row)
    leads = [next(c for c, x in enumerate(row) if x) for row in echelon]
    assert leads == sorted(set(leads))  # strictly increasing, no zero row
    assert rref(echelon)[0] == rref(rows)[0]  # the same span
    # so a fixed side reduced once ranks the same with any further rows
    width = len(rows[0]) if rows else 0
    more = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=width,
                                       max_size=width), max_size=4))
    assert integer_rank(echelon + more) == integer_rank(rows + more)


def test_integer_rank_edge_shapes():
    assert integer_rank([]) == 0
    assert integer_rank([[], []]) == 0
    assert integer_rank([[0, 0, 0]] * 3) == 0
    assert integer_rank([[2, 4, 6], [1, 2, 3], [3, 6, 9]]) == 1
    assert integer_rank([[1], [2], [0], [5]]) == 1  # tall
    assert integer_rank([[0, 0, 1, 0, 7], [3, 0, 0, 0, 1]]) == 2  # wide
    assert integer_rank([(1, 0), (0, 1)]) == 2  # tuple rows
