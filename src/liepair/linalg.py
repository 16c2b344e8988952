"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fraction; vectors are lists of Fraction.
Functions never mutate their arguments.  Reduced row echelon form (pivot
entries 1, pivot columns strictly increasing, zero rows dropped) is the
canonical representative used everywhere, so equality of spans is literal
equality of the reduced matrices.

Floating point appears in exactly one role: proposing eigenvalue candidates
that are then certified exactly (kernel dimensions must sum to the ambient
dimension).  No verdict ever depends on a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

ZERO = Fraction(0)
ONE = Fraction(1)


class IrrationalSpectrumError(ValueError):
    """The matrix has eigenvalues outside ℚ where rational ones are required."""

    def __init__(self, message, charpoly_coeffs=None):
        super().__init__(message)
        self.charpoly_coeffs = charpoly_coeffs


class NotDiagonalizableError(ValueError):
    """Rational spectrum, but the eigenspaces do not span (minimal polynomial
    is not square-free)."""

    def __init__(self, message, charpoly_coeffs=None):
        super().__init__(message)
        self.charpoly_coeffs = charpoly_coeffs


def frac(x) -> Fraction:
    """Coerce ints, Fractions and strings like '-3/2' (ASCII or U+2212 minus)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.replace("−", "-").strip())
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def vec(entries) -> list:
    return [frac(x) for x in entries]


def mat(rows) -> list:
    return [vec(r) for r in rows]


def zeros(nrows, ncols):
    return [[ZERO] * ncols for _ in range(nrows)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = ONE
    return out


def identity_rows(n):
    return [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def mat_vec(A, v):
    return [sum((a * x for a, x in zip(row, v) if x != 0), ZERO) for row in A]


def vec_dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a != 0 and b != 0), ZERO)


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_scale(c, u):
    return [c * a for a in u]


def is_zero_vec(u):
    return all(a == 0 for a in u)


def mat_mul(A, B):
    if not A or not B:
        return []
    Bt = transpose(B)
    return [[vec_dot(row, col) for col in Bt] for row in A]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def is_zero_mat(A):
    return all(is_zero_vec(row) for row in A)


def rref(rows, ncols=None):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns) with rows as tuples.  Zero rows are
    dropped.  With `ncols` set, pivots are sought only in the first `ncols`
    columns and *all* rows are returned (used for augmented solves, where the
    trailing rows carry consistency information).
    """
    m = [list(vec(r)) for r in rows]
    nrows = len(m)
    width = len(m[0]) if nrows else 0
    limit = width if ncols is None else ncols
    piv_cols = []
    r = 0
    for c in range(limit):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = ONE / m[r][c]
        if inv != 1:
            m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    if ncols is not None:
        return [tuple(row) for row in m], piv_cols
    return [tuple(row) for row in m[:r]], piv_cols


def rank(rows) -> int:
    return len(rref(rows)[0])


def kernel(A, n=None):
    """Canonical basis rows of {x : A x = 0}; `n` is the ambient dimension
    (needed when A has no rows)."""
    if not A:
        if n is None:
            raise ValueError("kernel of an empty matrix needs the ambient dimension")
        return identity_rows(n)
    width = len(A[0])
    red, piv = rref(A)
    pivset = set(piv)
    basis = []
    for free in range(width):
        if free in pivset:
            continue
        v = [ZERO] * width
        v[free] = ONE
        for k, p in enumerate(piv):
            v[p] = -red[k][free]
        basis.append(v)
    return rref(basis)[0] if basis else []


def express_in_rows(rows, targets):
    """Coordinates of each target vector in the span of `rows`.

    Returns a list with one entry per target: the coefficient vector x with
    x · rows = target, or None when the target lies outside the span.
    """
    k = len(rows)
    if k == 0:
        return [[] if is_zero_vec(t) else None for t in targets]
    n = len(rows[0])
    aug = [[rows[i][r] for i in range(k)] + [t[r] for t in targets]
           for r in range(n)]
    red, piv = rref(aug, ncols=k)
    npiv = len(piv)
    out = []
    for j in range(len(targets)):
        col = k + j
        coords = [ZERO] * k
        ok = True
        for ridx, row in enumerate(red):
            if ridx < npiv:
                coords[piv[ridx]] = row[col]
            elif row[col] != 0:
                ok = False
                break
        out.append(coords if ok else None)
    return out


def mat_pow_until_zero(A, max_power):
    """Powers A, A², … until the zero matrix; returns the list of nonzero
    powers, or None if A^max_power is still nonzero."""
    powers = []
    P = A
    for _ in range(max_power):
        if is_zero_mat(P):
            return powers
        powers.append(P)
        P = mat_mul(P, A)
    return None if not is_zero_mat(P) else powers


def exp_nilpotent(A, t=ONE):
    """exp(t·A) for nilpotent A, as an exact polynomial matrix."""
    n = len(A)
    powers = mat_pow_until_zero(A, n + 1)
    if powers is None:
        raise ValueError("matrix is not nilpotent; exact exponential unavailable")
    M = identity(n)
    tk = ONE
    for k, P in enumerate(powers, start=1):
        tk *= t
        c = tk / factorial(k)
        for i in range(n):
            Mi, Pi = M[i], P[i]
            for j in range(n):
                if Pi[j] != 0:
                    Mi[j] += c * Pi[j]
    return M


def charpoly(A):
    """Monic characteristic polynomial det(t·I − A), division-free (Berkowitz).

    Returns coefficients [1, c1, …, cn] with p(t) = t^n + c1 t^(n-1) + … + cn.
    """
    n = len(A)
    poly = [ONE]
    for m in range(1, n + 1):
        d = A[m - 1][m - 1]
        col = [ONE, -d]
        if m > 1:
            R = A[m - 1][:m - 1]
            acc = [A[k][m - 1] for k in range(m - 1)]
            sub = [row[:m - 1] for row in A[:m - 1]]
            for step in range(m - 1):
                col.append(-vec_dot(R, acc))
                if step != m - 2:
                    acc = mat_vec(sub, acc)
        new = [ZERO] * (m + 1)
        for i, t in enumerate(col):
            if t == 0:
                continue
            for j, p in enumerate(poly):
                if i + j <= m and p != 0:
                    new[i + j] += t * p
        poly = new
    return poly


def poly_str(coeffs, var="t"):
    n = len(coeffs) - 1
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        deg = n - i
        if deg == 0:
            terms.append(f"{c}")
        elif deg == 1:
            terms.append(f"{c}*{var}" if c != 1 else var)
        else:
            terms.append(f"{c}*{var}^{deg}" if c != 1 else f"{var}^{deg}")
    return " + ".join(terms) if terms else "0"


def _float_eigen_candidates(A):
    import numpy as np

    try:
        F = np.array([[float(x) for x in row] for row in A], dtype=float)
        eigs = np.linalg.eigvals(F)
    except Exception:
        return []
    scale = max(1.0, float(abs(eigs).max()) if len(eigs) else 1.0)
    cands = set()
    for z in eigs:
        if abs(z.imag) > 1e-8 * scale:
            continue
        x = float(z.real)
        if abs(x) < 1e-9 * scale:
            cands.add(ZERO)
            continue
        for den_bound in (1, 6, 60, 720, 10 ** 6):
            cands.add(Fraction(x).limit_denominator(den_bound))
    return sorted(cands)


def _rational_roots_exact(coeffs):
    """Rational roots with multiplicities of Σ coeffs[i] t^(n−i).

    Returns (roots: dict Fraction→int, complete: bool); complete is False when
    an irreducible factor of degree ≥ 2 remains (irrational or complex roots).
    """
    import sympy

    x = sympy.symbols("x")
    p = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs],
                   x, domain="QQ")
    roots = {}
    complete = True
    for f, mult in p.factor_list()[1]:
        if f.degree() == 1:
            a, b = f.all_coeffs()
            r = sympy.Rational(-b, a)
            roots[Fraction(int(r.p), int(r.q))] = mult
        elif f.degree() >= 2:
            complete = False
    return roots, complete


def _kernels_for(A, candidates):
    n = len(A)
    found = []
    for lam in candidates:
        shifted = [[A[i][j] - (lam if i == j else ZERO) for j in range(n)]
                   for i in range(n)]
        K = kernel(shifted, n)
        if K:
            found.append((lam, K))
    return found


def eigensplit(A):
    """Decompose ℚ^n into the eigenspaces of A.

    A must be diagonalizable with all eigenvalues rational.  Returns a list of
    (eigenvalue, basis_rows) sorted by eigenvalue; the basis rows are canonical.
    Raises IrrationalSpectrumError or NotDiagonalizableError otherwise, with
    the exact characteristic polynomial attached.
    """
    n = len(A)
    if n == 0:
        return []
    found = _kernels_for(A, _float_eigen_candidates(A))
    if sum(len(b) for _, b in found) == n:
        return sorted(found)
    coeffs = charpoly(A)
    roots, complete = _rational_roots_exact(coeffs)
    found = _kernels_for(A, sorted(roots))
    if sum(len(b) for _, b in found) == n:
        return sorted(found)
    if not complete:
        raise IrrationalSpectrumError(
            "matrix has non-rational eigenvalues; characteristic polynomial "
            f"{poly_str(coeffs)}", coeffs)
    raise NotDiagonalizableError(
        "matrix has rational spectrum but is not diagonalizable; "
        f"characteristic polynomial {poly_str(coeffs)}", coeffs)
