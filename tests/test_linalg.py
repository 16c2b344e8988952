import time
from fractions import Fraction
from math import gcd, lcm
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    canonical_fractions,
    kernel_oracle,
    moved_fractions,
    rref_oracle,
    solve_oracle,
)
from liepair import linalg
from liepair.algebra import Subspace, ad_matrix
from liepair.catalog import construct_from_spec
from liepair.checks import AdWord, NonTerminatingSeries
from liepair.linalg import (
    IrrationalSpectrumError,
    NotDiagonalizableError,
    canonical_rows,
    charpoly,
    coordinates,
    eigensplit,
    frac,
    fraction_row,
    integer_echelon,
    integer_rank,
    integer_row,
    kernel,
    mat_vec,
    rank,
    rref,
    solve,
)

F = Fraction


def integer_matrix(A):
    """(M, d) with the Fraction matrix A = M/d, d the lcm of A's
    denominators."""
    d = lcm(*[x.denominator for row in A for x in row])
    return [[int(x * d) for x in row] for row in A], d


def integer_rows(rows):
    """Each row of values scaled to its integer row, which keeps its span."""
    return [integer_row(r)[0] for r in rows]


def test_frac_accepts_unicode_minus():
    assert frac("−3/2") == F(-3, 2)
    assert frac("7") == 7


def test_rref_canonical_and_pivots():
    rows, piv = rref([[-2, -4], [1, 2]])
    assert rows == [(1, 2)]
    assert piv == [0]
    # primitive rows with positive pivot entries; over ℚ they are the
    # reduced rows divided by their pivot entries
    rows, piv = rref([[0, -4, 6], [2, 0, 3]])
    assert rows == [(2, 0, 3), (0, 2, -3)] and piv == [0, 1]
    assert canonical_rows(rows) == [((2, 0, 3), 2), ((0, 2, -3), 2)]
    assert [fraction_row(r) for r in canonical_rows(rows)] \
        == [[1, 0, F(3, 2)], [0, 1, F(-3, 2)]]


def test_kernel_of_rank_one_matrix():
    A = [[1, 2, 3], [2, 4, 6]]
    K = kernel(A)
    assert len(K) == 2
    for v in K:
        assert all(sum(r[i] * v[i] for i in range(3)) == 0 for r in A)


def test_coordinates_and_failure():
    rows = [(1, 0, 0), (0, 2, 0)]
    inside, outside = coordinates(rows, [[3, -2, 0], [0, 0, 1]])
    assert inside == ((3, -1), 1)
    assert outside is None


def test_charpoly_frozen_2x2():
    # det(tI - A) for [[1,2],[3,4]]: t^2 - 5t - 2, by hand
    assert charpoly([[1, 2], [3, 4]]) == [1, -5, -2]


def test_charpoly_matches_numpy_on_random_matrices():
    rng = Random(3)
    for _ in range(10):
        n = rng.randint(1, 5)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        coeffs = charpoly(A)
        roots = np.roots([float(c) for c in coeffs])
        eigs = np.linalg.eigvals(np.array([[float(x) for x in r] for r in A]))
        assert np.allclose(sorted(roots.real), sorted(eigs.real), atol=1e-6)
        assert np.allclose(sorted(roots.imag), sorted(eigs.imag), atol=1e-6)


def test_eigensplit_diagonalizable():
    A = [[2, 1], [0, 3]]
    parts = eigensplit(A)
    assert [lam for lam, _ in parts] == [F(2), F(3)]
    for lam, basis in parts:
        for v in basis:
            assert mat_vec(A, list(v)) == [lam * x for x in v]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2),
                min_size=1, max_size=9))
def test_diagonal_eigensplit_matches_kernels_and_uses_no_float(diag):
    # nine possible entries, so most draws repeat an eigenvalue; a diagonal
    # matrix is split by its coordinates, with no minimal polynomial
    n = len(diag)
    D = [[diag[i] if j == i else F(0) for j in range(n)] for i in range(n)]
    want = [(lam, kernel_oracle([[D[i][j] - (lam if i == j else 0)
                                  for j in range(n)] for i in range(n)], n))
            for lam in sorted(set(diag))]

    def no_krylov(M, j):
        raise AssertionError("a diagonal matrix needs no minimal polynomial")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_krylov_minpoly", no_krylov)
        M, d = integer_matrix(D)
        got = eigensplit(M, d)
        assert [(F(mu, d), canonical_fractions(rows)) for mu, rows in got] \
            == want


def matmul(A, B):
    return [[sum((a * B[k][j] for k, a in enumerate(row) if a), F(0))
             for j in range(len(B[0]))] for row in A]


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [[F(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = [F(x) for x in row]
        at += len(b)
    return out


def jordan_block(lam, size):
    return [[lam if j == i else F(1) if j == i + 1 else F(0)
             for j in range(size)] for i in range(size)]


big_eigenvalue = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                              max_denominator=12)


@st.composite
def conjugator(draw, n):
    """(S, S⁻¹) with S = L·U, L unit lower triangular over ℤ and U upper
    triangular with nonzero rational diagonal; S⁻¹ by the Fraction oracle."""
    small = st.integers(min_value=-3, max_value=3)
    L = [[F(1) if j == i else F(draw(small)) if j < i else F(0)
          for j in range(n)] for i in range(n)]
    U = [[F(draw(small)) if j > i else F(0) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        U[i][i] = draw(st.fractions(min_value=-3, max_value=3,
                                    max_denominator=3).filter(bool))
    S = matmul(L, U)
    aug, _ = rref_oracle([row + [F(int(j == i)) for j in range(n)]
                          for i, row in enumerate(S)], ncols=n)
    return S, [list(row[n:]) for row in aug]


@st.composite
def conjugated_spectrum(draw):
    """(kind, diag, S, A): A = S·B·S⁻¹ for a block-diagonal B of one of
    three kinds.
    "split": B diagonal with entries diag, rationals up to 10⁶ in size
    that repeat;
    "jordan": a Jordan block of size ≥ 2 besides diagonal entries;
    "irrational": a companion block of t² − 2 or t² + 1, with or without a
    Jordan block, besides diagonal entries."""
    kind = draw(st.sampled_from(("split", "jordan", "irrational")))
    pool = draw(st.lists(big_eigenvalue, min_size=1, max_size=3))
    diag = draw(st.lists(st.sampled_from(pool),
                         min_size=2 if kind == "split" else 0, max_size=5))
    blocks = [[[x]] for x in diag]
    if kind == "jordan" or (kind == "irrational" and draw(st.booleans())):
        blocks.append(jordan_block(draw(st.sampled_from(pool)),
                                   draw(st.integers(min_value=2, max_value=3))))
    if kind == "irrational":
        blocks.append(draw(st.sampled_from(([[0, 2], [1, 0]],
                                            [[0, -1], [1, 0]]))))
    blocks = draw(st.permutations(blocks))
    if kind == "split":
        diag = [b[0][0] for b in blocks]
    S, S_inv = draw(conjugator(sum(len(b) for b in blocks)))
    return kind, diag, S, matmul(matmul(S, block_diagonal(blocks)), S_inv)


@settings(max_examples=80, deadline=None)
@given(conjugated_spectrum())
def test_eigensplit_of_a_conjugated_matrix(case):
    kind, diag, S, A = case
    if kind == "jordan":
        with pytest.raises(NotDiagonalizableError):
            eigensplit(*integer_matrix(A))
        return
    if kind == "irrational":
        with pytest.raises(IrrationalSpectrumError):
            eigensplit(*integer_matrix(A))
        return
    # the eigenspace of S·D·S⁻¹ at λ is spanned by the columns S·e_i with
    # D_ii = λ
    n = len(A)
    want = [(lam, rref_oracle([[S[k][i] for k in range(n)]
                               for i in range(n) if diag[i] == lam])[0])
            for lam in sorted(set(diag))]
    M, d = integer_matrix(A)
    got = eigensplit(M, d)
    assert [(F(mu, d), canonical_fractions(rows)) for mu, rows in got] \
        == want


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                          st.sampled_from((-1, 1)),
                          st.integers(min_value=1, max_value=10 ** 4)),
                max_size=2))
def test_integer_roots_skip_the_irrational_ones(roots, quadratics):
    # Π (t − r) times factors (t − c)² − k·(s² + 1), irreducible over ℚ
    # since s² + 1 is never a square: their roots c ± √(k·(s² + 1)) are
    # complex (k = −1) or real and strictly between two integers; a
    # repeated factor makes p not square-free
    p = [1]
    for r in roots:
        p = poly_mul(p, [1, -r])
    for c, k, s in quadratics:
        p = poly_mul(p, [1, -2 * c, c * c - k * (s * s + 1)])
    assert linalg._integer_roots(p) == sorted(set(roots))


def test_integer_roots_next_to_an_irrational_pair():
    # (t − 2)(t² − 2): √2 and 2 share the interval (1, 2]
    p = poly_mul([1, -2], [1, 0, -2])
    assert linalg._integer_roots(p) == [2]


def test_scaled_so_4_4_torus_element_splits_quickly():
    # Y = 1000·(Y1 + 3·Y2 + 7·Y3 + 15·Y4) on so(4,4), Y1..Y4 the torus_g
    # rows: 21 distinct eigenvalues, up to 22000 in size
    pair = construct_from_spec("torus_pair:so_4_4")
    g = pair.torus_g.ambient
    assert all(den == 1 for _, den in pair.torus_g.rows)
    Y = [1000 * (a + 3 * b + 7 * c + 15 * d)
         for a, b, c, d in zip(*[nums for nums, _ in pair.torus_g.rows])]
    columns, d = ad_matrix(g, (tuple(Y), 1))
    A = [[0] * g.dim for _ in range(g.dim)]
    for i, col in enumerate(columns):
        for k, c in col:
            A[k][i] = c
    t0 = time.perf_counter()
    parts = eigensplit(A, d)
    assert time.perf_counter() - t0 < 2
    assert sum(len(rows) for _, rows in parts) == g.dim == 28
    assert len(parts) == 21 and max(mu for mu, _ in parts) == 22000
    for mu, rows in parts:
        for v in rows:
            assert mat_vec(A, list(v)) == [mu * x for x in v]


def test_eigensplit_rejects_rotation():
    with pytest.raises(IrrationalSpectrumError):
        eigensplit([[0, -1], [1, 0]])


def test_eigensplit_rejects_nilpotent():
    with pytest.raises(NotDiagonalizableError):
        eigensplit([[0, 1], [0, 0]])


def test_eigensplit_irrational_real_roots():
    # t^2 - 2: real but irrational spectrum
    with pytest.raises(IrrationalSpectrumError):
        eigensplit([[0, 2], [1, 0]])


def test_eigensplit_error_carries_the_charpoly_of_the_scaled_matrix():
    # A = M/2 with M = [[0, 2], [1, 0]]: det(t - A) = t^2 - 1/2
    with pytest.raises(IrrationalSpectrumError,
                       match=r"polynomial t\^2 \+ -1/2$") as err:
        eigensplit([[0, 2], [1, 0]], 2)
    assert err.value.charpoly_coeffs == [1, 0, F(-1, 2)]


def test_exp_nilpotent_polynomial(sl2):
    # basis H1, E12, E21: ad E12 sends E21 to H1 and H1 to -2 E12, so
    # exp(t ad E12) E21 = E21 + t H1 - t² E12, a polynomial in t
    E = [F(0), F(1), F(0)]
    word = AdWord(steps=((integer_row(E), (2, 1)),))
    moved = word.apply_to_rows(
        sl2, [integer_row([F(0), F(0), F(1)]), integer_row([F(1), F(0), F(0)])])
    assert moved_fractions(moved) == [[F(2), F(-4), F(1)], [F(1), F(-4), F(0)]]
    # ad H1 is not nilpotent: its series on E12 never stops, but on H1 it
    # stops at once, since the series only has to terminate on the rows moved
    H = AdWord(steps=((integer_row([F(1), F(0), F(0)]), (1, 1)),))
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
    A = integer_rows(A)
    assert rank(A) + len(kernel(A)) == len(A[0])


@settings(max_examples=60, deadline=None)
@given(rational_matrix())
def test_rref_idempotent(A):
    red, piv = rref(integer_rows(A))
    again, piv2 = rref([list(r) for r in red])
    assert again == red and piv2 == piv


fractions_or_zero = st.one_of(
    st.just(F(0)), st.fractions(min_value=-6, max_value=6, max_denominator=6))


@st.composite
def rref_input(draw):
    """Matrices of 0-7 rows and 0-7 columns, wide or tall, with many zero
    entries, repeated rows and zero rows, and a column count that the
    kernel test ignores."""
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
    # each row scaled to its integer row, which changes no span
    rows, _ = case
    red, piv = rref(integer_rows(rows))
    want, want_piv = rref_oracle(rows)
    assert piv == want_piv
    assert all(type(x) is int for row in red for x in row)
    assert all(gcd(*row) == 1 and row[p] > 0 for row, p in zip(red, piv))
    assert canonical_fractions(red) == want


@settings(max_examples=200, deadline=None)
@given(rref_input())
def test_kernel_matches_the_fraction_oracle(case):
    rows, _ = case
    if not rows or not rows[0]:
        return
    width = len(rows[0])
    red, piv = rref_oracle(rows)
    basis = []
    for free in (c for c in range(width) if c not in piv):
        v = [F(0)] * width
        v[free] = F(1)
        for k, p in enumerate(piv):
            v[p] = -red[k][free]
        basis.append(v)
    got = kernel(integer_rows(rows))
    assert canonical_fractions(got) == (rref_oracle(basis)[0] if basis else [])
    assert all(type(x) is int for row in got for x in row)


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
        rows = [list(integer_row([draw(fractions_or_zero)
                                  for _ in range(width)])[0])
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


@settings(max_examples=300, deadline=None)
@given(integer_rank_input(), st.data())
def test_solve_agrees_with_the_fraction_oracle(rows, data):
    # targets inside the span (integer combinations of the rows) mixed with
    # arbitrary ones; solve against the rref of the rows finds each one
    # outside that the oracle finds, and writes each one inside as the
    # target itself, and coordinates on the rref rows read the oracle's
    width = len(rows[0]) if rows else data.draw(st.integers(0, 5))
    combination = st.lists(st.integers(-3, 3), min_size=len(rows),
                           max_size=len(rows)).map(
        lambda c: [sum(a * r[i] for a, r in zip(c, rows))
                   for i in range(width)])
    anything = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    targets = data.draw(st.lists(st.one_of(combination, anything),
                                 max_size=6))
    before = [list(t) for t in targets]
    span = rref(rows)[0]
    oracle = solve_oracle([[F(x) for x in r] for r in span],
                          [[F(x) for x in t] for t in targets])
    got = list(solve(span, targets))
    assert [x is None for x in got] == [c is None for c in oracle]
    for x, t in zip(got, targets):
        if x is not None:
            assert fraction_row(x) == t
    got = coordinates(span, targets)
    assert [None if x is None else fraction_row(x) for x in got] == oracle
    assert targets == before  # the rows are not mutated


def test_first_outside_span_reads_no_row_after_the_first_outside():
    def rows():
        yield [4, 0, 2]
        yield [0, 1, 0]
        raise AssertionError("read a row after the first outside one")

    assert Subspace.from_rows(3, [[2, 0, 1]]).first_outside(rows()) == 1
    assert Subspace.from_rows(2, []).first_outside([[0, 0], [0, 0]]) is None
    assert Subspace.from_rows(2, []).first_outside([[0, 0], [0, 3]]) == 1


def test_integer_rank_edge_shapes():
    assert integer_rank([]) == 0
    assert integer_rank([[], []]) == 0
    assert integer_rank([[0, 0, 0]] * 3) == 0
    assert integer_rank([[2, 4, 6], [1, 2, 3], [3, 6, 9]]) == 1
    assert integer_rank([[1], [2], [0], [5]]) == 1  # tall
    assert integer_rank([[0, 0, 1, 0, 7], [3, 0, 0, 0, 1]]) == 2  # wide
    assert integer_rank([(1, 0), (0, 1)]) == 2  # tuple rows
