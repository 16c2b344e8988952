"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fraction; vectors are lists of Fraction.
Functions never mutate their arguments.  Reduced row echelon form (pivot
entries 1, pivot columns strictly increasing, zero rows dropped) is the
canonical representative used everywhere, so equality of spans is literal
equality of the reduced matrices.  `rref` computes it by fraction-free
elimination over the integers and builds a Fraction only for the nonzero
entries of its result; the output is the same canonical form that
Gauss-Jordan elimination over ℚ gives.

`integer_rank` counts the pivots of integer rows by the same elimination
loop run forward only: it clears no row above a pivot and builds no
Fraction.  The word searches, whose rows are already integers, use it.
`rank` stays `len(rref(rows)[0])`, a thin wrapper over the one traced
reduction, so a benchmark trace of it still shows its rref child span.

Floating point appears in exactly one role: proposing eigenvalue candidates
for a matrix that is not diagonal; the candidates are then certified exactly
(kernel dimensions must sum to the ambient dimension).  A diagonal matrix,
which is how a catalog torus acts in the root basis, splits into coordinate
eigenspaces with no float at all.  No verdict ever depends on a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def identity_rows(n):
    return [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]


def mat_vec(A, v):
    return [sum((a * x for a, x in zip(row, v) if x != 0), ZERO) for row in A]


def vec_dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a != 0 and b != 0), ZERO)


def is_zero_vec(u):
    return all(a == 0 for a in u)


def integer_row(row):
    """(ints, den) with row = ints / den, where den is the lcm of the
    denominators of the row's entries."""
    ratios = [(x if type(x) is Fraction else frac(x)).as_integer_ratio()
              for x in row]
    den = lcm(*[d for _, d in ratios])
    if den == 1:
        return [n for n, _ in ratios], 1
    return [n * (den // d) for n, d in ratios], den


def _eliminate(m, limit, clear_above):
    """Fraction-free elimination of the integer rows m, in place, over the
    first `limit` columns; returns the pivot columns, whose rows are the
    first len(pivots) rows of m.

    A row update p·row − f·pivot_row is divided by the gcd of its entries,
    and a row whose entry in the pivot column is already zero is left
    alone.  Rows below each pivot are cleared, and with `clear_above` the
    rows above it too (Gauss-Jordan); rows are replaced, never mutated."""
    nrows = len(m)
    piv_cols = []
    r = 0
    for c in range(limit):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(0 if clear_above else r + 1, nrows):
            f = m[i][c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            new = [a * x - b * y for x, y in zip(m[i], prow)]
            g = gcd(*new)
            m[i] = [x // g for x in new] if g > 1 else new
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return piv_cols


def rref(rows, ncols=None):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns) with rows as tuples.  Zero rows are
    dropped.  With `ncols` set, pivots are sought only in the first `ncols`
    columns and *all* rows are returned (used for augmented solves, where the
    trailing rows carry consistency information); of the trailing rows only
    the zero pattern is meaningful, since each is scaled by a nonzero
    factor.

    Elimination is fraction-free (`_eliminate`): each row is scaled to
    integers by the lcm of its denominators.  Every row stays proportional
    to its Gauss-Jordan counterpart over ℚ, so the pivots are the same, and
    dividing each pivot row by its pivot entry at the end gives the
    canonical rows.
    """
    m = [integer_row(r)[0] for r in rows]
    width = len(m[0]) if m else 0
    piv_cols = _eliminate(m, width if ncols is None else ncols, True)
    r = len(piv_cols)
    out = []
    for i, row in enumerate(m if ncols is not None else m[:r]):
        d = row[piv_cols[i]] if i < r else 1
        out.append(tuple(Fraction(x, d) if x else ZERO for x in row))
    return out, piv_cols


def rank(rows) -> int:
    return len(rref(rows)[0])


def integer_rank(int_rows) -> int:
    """Rank over ℚ of rows of ints, by forward elimination only; equal to
    rank(int_rows)."""
    m = list(int_rows)
    return len(_eliminate(m, len(m[0]) if m else 0, False))


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


def is_diagonal(A):
    return not any(x for i, row in enumerate(A)
                   for j, x in enumerate(row) if j != i)


def coordinate_split(keys):
    """Group the coordinates of ℚ^n by keys[i].

    Returns (key, unit rows) for each distinct key, sorted by key, with the
    unit rows in coordinate order.  When keys[i] is the i-th diagonal entry
    of a diagonal operator (or the tuple of them over a family of diagonal
    operators) these are its (joint) eigenspaces, in canonical rows.
    """
    unit = identity_rows(len(keys))
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(unit[i])
    return sorted(groups.items())


def _kernels_for(A, candidates):
    n = len(A)
    found = []
    for lam in candidates:
        shifted = [list(row) for row in A]
        for i in range(n):
            shifted[i][i] -= lam
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

    A diagonal A splits into the coordinate unit rows grouped by diagonal
    entry.  Otherwise float eigenvalues propose candidates whose kernels are
    computed exactly; when they miss part of the spectrum, the rational roots
    of the exact characteristic polynomial are used instead.
    """
    n = len(A)
    if n == 0:
        return []
    if is_diagonal(A):
        return coordinate_split([A[i][i] for i in range(n)])
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
