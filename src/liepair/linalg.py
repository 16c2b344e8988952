"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fraction; vectors are lists of Fraction.
Functions never mutate their arguments.  Reduced row echelon form (pivot
entries 1, pivot columns strictly increasing, zero rows dropped) is the
canonical representative used everywhere, so equality of spans is literal
equality of the reduced matrices.  `rref` computes it by fraction-free
elimination over the integers and builds a Fraction only for the nonzero
entries of its result; the output is the same canonical form that
Gauss-Jordan elimination over ℚ gives.

`integer_echelon` runs the same elimination loop forward only: it clears no
row above a pivot, builds no Fraction, and returns the pivot rows, an
echelon basis of the span; `integer_rank` counts them.  The word searches,
whose rows are already integers, use both: a question reduces its fixed
rows to an echelon basis once, and ranks each word's moved rows with it.
`first_outside_span` tests integer rows for membership in the span of such
an echelon basis; pair validation uses it in place of solving.
`rank` stays `len(rref(rows)[0])`, a thin wrapper over the one traced
reduction, so a benchmark trace of it still shows its rref child span.

`kernel` runs both of its eliminations on integers too.

Nothing here uses a float.  `eigensplit` finds eigenvalues exactly: a
diagonal matrix, which is how a catalog torus acts in the root basis,
splits into coordinate eigenspaces; any other matrix A = M/d, M over ℤ, is
split by the minimal polynomials of M at unit vectors (one growing integer
echelon of Krylov vectors), whose integer roots are isolated by Sturm
sequences and bisection on ℤ.  The split is certified when the kernels at
those roots fill ℚⁿ.
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
    return [x if type(x) is Fraction else frac(x) for x in entries]


def identity_rows(n):
    rows = []
    for i in range(n):
        row = [ZERO] * n
        row[i] = ONE
        rows.append(tuple(row))
    return rows


def mat_vec(A, v):
    """A·v, summed over the nonzero entries of v that meet a nonzero entry
    of the row, so a sparse A or v costs only its nonzero products."""
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in nonzero if row[j]), ZERO)
            for row in A]


def vec_dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a != 0 and b != 0), ZERO)


def is_zero_vec(u):
    return all(a == 0 for a in u)


def integer_row(row):
    """(ints, den) with row = ints / den, where den is the lcm of the
    denominators of the row's entries, which are ints, Fractions or what
    `frac` reads."""
    ratios = [x.as_integer_ratio() if type(x) is Fraction or type(x) is int
              else frac(x).as_integer_ratio() for x in row]
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


def _canonical_rows(m, piv):
    """Integer echelon rows, cleared above and below their pivots, divided
    by their pivot entries: canonical rows of Fraction."""
    return [tuple(Fraction(x, row[p]) if x else ZERO for x in row)
            for row, p in zip(m, piv)]


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
    out = _canonical_rows(m, piv_cols)
    if ncols is not None:
        out += [tuple(Fraction(x) if x else ZERO for x in row)
                for row in m[len(piv_cols):]]
    return out, piv_cols


def rank(rows) -> int:
    return len(rref(rows)[0])


def integer_echelon(int_rows) -> list:
    """An echelon basis of the span over ℚ of rows of ints, by forward
    elimination only: integer rows with strictly increasing leading
    columns.  Since rank(F + M) = rank(E + M) when E is an echelon basis of
    F's span, a search ranks each word's rows against the echelon basis of
    its fixed rows, reduced once."""
    m = list(int_rows)
    return m[:len(_eliminate(m, len(m[0]) if m else 0, False))]


def integer_rank(int_rows) -> int:
    """Rank over ℚ of rows of ints, the length of their integer_echelon;
    equal to rank(int_rows)."""
    return len(integer_echelon(int_rows))


def first_outside_span(echelon, int_rows):
    """The index of the first of `int_rows` outside the span over ℚ of the
    rows `echelon`, an integer_echelon, or None when every row lies in it;
    rows after the first outside one are not read.  A row is reduced by
    each echelon row in turn at that row's leading column, over the echelon
    row's nonzero entries; it lies in the span exactly when nothing is
    left."""
    reducers = []
    for erow in echelon:
        nonzero = [(c, x) for c, x in enumerate(erow) if x]
        reducers.append((nonzero[0][0], nonzero[0][1], nonzero))
    for index, row in enumerate(int_rows):
        if not any(row):
            continue
        row = list(row)
        for c, p, nonzero in reducers:
            f = row[c]
            if f:
                g = gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    row = [a * x for x in row]
                for col, y in nonzero:
                    row[col] -= b * y
        if any(row):
            return index
    return None


def _integer_kernel(m, width):
    """The kernel of the integer rows m (reduced in place) as integer rows
    proportional to its canonical rows, and their pivot columns.  Each free
    column f of m's reduced form gives the kernel vector with entry L at f
    and −L·red[k][f]/red[k][p_k] at pivot p_k, L the lcm of those pivots."""
    piv = _eliminate(m, width, True)
    pivset = set(piv)
    basis = []
    for free in range(width):
        if free in pivset:
            continue
        scale = lcm(*[row[p] for row, p in zip(m, piv) if row[free]])
        v = [0] * width
        v[free] = scale
        for row, p in zip(m, piv):
            if row[free]:
                v[p] = -row[free] * (scale // row[p])
        basis.append(v)
    return basis, _eliminate(basis, width, True)


def kernel(A, n=None):
    """Canonical basis rows of {x : A x = 0}; `n` is the ambient dimension
    (needed when A has no rows).  Both eliminations run on integers."""
    if not A:
        if n is None:
            raise ValueError("kernel of an empty matrix needs the ambient dimension")
        return identity_rows(n)
    return _canonical_rows(*_integer_kernel([integer_row(r)[0] for r in A],
                                            len(A[0])))


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


def _integer_matrix(A):
    """(M, d) with A = M / d: M as rows of ints and d the lcm of all
    denominators of A."""
    rows = [integer_row(row) for row in A]
    d = lcm(*[den for _, den in rows])
    return [nums if den == d else [x * (d // den) for x in nums]
            for nums, den in rows], d


def _krylov_minpoly(M, j):
    """The minimal polynomial of the integer matrix M at the unit vector e_j,
    as ints from the highest degree down, with a positive leading entry.

    One growing echelon: each row is a pair (M-vector, polynomial) with
    vector = polynomial(M)·e_j, reduced against the rows before it.  The next
    candidate is M times the last row, with its polynomial times t; the
    first candidate that reduces to the zero vector carries the relation of
    least degree.  By Gauss's lemma that polynomial, divided by its content,
    is monic, since it divides the characteristic polynomial of M."""
    n = len(M)
    vec = [0] * n
    vec[j] = 1
    poly = [1]  # coefficients from degree 0 up
    echelon = []  # (pivot column, vector, polynomial)
    while True:
        for c, rvec, rpoly in echelon:
            f = vec[c]
            if not f:
                continue
            p = rvec[c]
            g = gcd(p, f)
            a, b = p // g, f // g
            vec = [a * x - b * y for x, y in zip(vec, rvec)]
            poly = [a * x - b * y for x, y in
                    zip(poly, rpoly + [0] * (len(poly) - len(rpoly)))]
            g = gcd(*vec, *poly)
            if g > 1:
                vec = [x // g for x in vec]
                poly = [x // g for x in poly]
        pivot = next((c for c, x in enumerate(vec) if x), None)
        if pivot is None:
            g = gcd(*poly) if poly[-1] > 0 else -gcd(*poly)
            return [x // g for x in reversed(poly)]
        echelon.append((pivot, vec, poly))
        vec = [sum(x * vec[c] for c, x in row if vec[c]) for row in M]
        poly = [0] + poly


def _horner(p, x):
    v = 0
    for c in p:
        v = v * x + c
    return v


def _sturm_chain(p):
    """The Sturm chain p, p′, −rem(p, p′), … of an integer polynomial
    (ints from the highest degree down, degree ≥ 1), each element a
    positive multiple of the one over ℚ, so only its signs are meaningful.
    The last element is a multiple of gcd(p, p′): a constant exactly when p
    is square-free."""
    n = len(p) - 1
    derivative = [c * (n - i) for i, c in enumerate(p[:-1])]
    g = gcd(*derivative)
    chain = [p, [c // g for c in derivative]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        s, sign = abs(b[0]), (1 if b[0] > 0 else -1)
        r = list(a)
        while len(r) >= len(b):  # pseudo-division by b, scaling r by s > 0
            lead = r[0] * sign
            r = [s * x - lead * y for x, y in zip(r[1:], b[1:])] \
                + [s * x for x in r[len(b):]] if lead else r[1:]
        while r and not r[0]:
            r.pop(0)
        if not r:
            break
        g = gcd(*r)
        chain.append([-x // g for x in r])
    return chain


def _sign_changes(chain, x):
    """Sign changes of the chain at x, zeros skipped."""
    count, prev = 0, 0
    for p in chain:
        v = _horner(p, x)
        if v:
            if prev and (v > 0) != (prev > 0):
                count += 1
            prev = v
    return count


def _root_bound(p):
    """A power of two above the absolute value of every complex root of p
    (Fujiwara's bound, 2·max |p_i / p_0|^(1/i), rounded up by bit lengths)."""
    top = abs(p[0]).bit_length()
    e = 0
    for i, c in enumerate(p[1:], 1):
        if c:
            e = max(e, -(-(abs(c).bit_length() - top + 1) // i))
    return 2 << e


def _lone_integer_root(p, lo, hi):
    """The integer root of p in (lo, hi] when p has exactly one real root
    there, a simple one; None when that root is not an integer.  Bisects on
    the sign of p alone."""
    fhi = _horner(p, hi)
    if not fhi:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        fmid = _horner(p, mid)
        if not fmid:
            return mid
        if (fmid > 0) != (fhi > 0):
            lo = mid
        else:
            hi, fhi = mid, fmid
    return None


def _integer_roots(p):
    """The distinct integer roots of the integer polynomial p, ascending.

    p is first made square-free: when the last element of its Sturm chain,
    a primitive multiple of gcd(p, p′), is not a constant, p is divided by
    it, exactly over ℤ by Gauss's lemma.  By Sturm's theorem the sign
    changes at a minus those at b then count the distinct real roots in
    (a, b].  Bisection on ℤ splits (−B, B], B a root bound, until an
    interval holds no root, one root, found by the sign of p alone, or is
    (b − 1, b], whose only integer is b."""
    chain = _sturm_chain(p)
    g = chain[-1]
    if len(g) > 1:
        q, r = [], list(p)
        for i in range(len(p) - len(g) + 1):
            q.append(r[i] // g[0])
            for k, c in enumerate(g):
                r[i + k] -= q[-1] * c
        p = q
        chain = _sturm_chain(p)
    bound = _root_bound(p)
    stack = [(-bound, _sign_changes(chain, -bound),
              bound, _sign_changes(chain, bound))]
    roots = []
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        count = vlo - vhi
        if count == 1:
            root = _lone_integer_root(p, lo, hi)
            if root is not None:
                roots.append(root)
        elif count and hi - lo == 1:
            if not _horner(p, hi):
                roots.append(hi)
        elif count:
            mid = (lo + hi) // 2
            vmid = _sign_changes(chain, mid)
            stack.append((lo, vlo, mid, vmid))
            stack.append((mid, vmid, hi, vhi))
    return sorted(roots)


def _rational_root_count(coeffs, d):
    """The rational roots, counted with multiplicity, of the monic
    polynomial Σ coeffs[i]·t^(n−i) whose roots times d are the roots of a
    monic integer polynomial (the characteristic polynomial of d·A)."""
    p = [int(c * d ** i) for i, c in enumerate(coeffs)]
    count = 0
    for root in _integer_roots(p):
        while not _horner(p, root):
            count += 1
            for i in range(1, len(p)):  # divide by t − root
                p[i] += p[i - 1] * root
            p.pop()
    return count


def eigensplit(A):
    """Decompose ℚ^n into the eigenspaces of A.

    A must be diagonalizable with all eigenvalues rational.  Returns a list of
    (eigenvalue, basis_rows) sorted by eigenvalue; the basis rows are canonical.
    Raises IrrationalSpectrumError or NotDiagonalizableError otherwise, with
    the exact characteristic polynomial attached.

    A diagonal A splits into the coordinate unit rows grouped by diagonal
    entry.  Otherwise A = M/d with M an integer matrix, whose rational
    eigenvalues are integers.  From a unit vector e_j outside the eigenspaces
    found so far, the minimal polynomial of M at e_j (`_krylov_minpoly`) is
    monic over ℤ; its integer roots (`_integer_roots`) divided by d are
    eigenvalues of A, and their kernels are eigenspaces.  When A is
    diagonalizable with rational spectrum, e_j has a component in an
    eigenspace not yet found, so each round finds a new eigenvalue.  The
    split is certified when the dimensions sum to n; a round that finds no
    new eigenvalue ends the search, and then the rational roots of the
    characteristic polynomial, counted with multiplicity, tell an irrational
    spectrum (fewer than n) from a matrix that is not diagonalizable.
    """
    n = len(A)
    if n == 0:
        return []
    if is_diagonal(A):
        return coordinate_split([A[i][i] for i in range(n)])
    M, d = _integer_matrix(A)
    found = _integer_eigenspaces(M, d)
    if found is not None:
        return sorted((lam, _canonical_rows(rows, piv))
                      for lam, (rows, piv) in found.items())
    coeffs = charpoly(A)
    if _rational_root_count(coeffs, d) < n:
        raise IrrationalSpectrumError(
            "matrix has non-rational eigenvalues; characteristic polynomial "
            f"{poly_str(coeffs)}", coeffs)
    raise NotDiagonalizableError(
        "matrix has rational spectrum but is not diagonalizable; "
        f"characteristic polynomial {poly_str(coeffs)}", coeffs)


def _integer_eigenspaces(M, d):
    """The eigenspaces of A = M/d, M a non-empty integer matrix, as
    {eigenvalue: (rows, pivots)}, each space as reduced integer rows
    proportional to its canonical rows and their pivot columns (the form of
    _integer_kernel); None when they do not fill ℚⁿ.  This is eigensplit's
    search, which its docstring describes."""
    n = len(M)
    sparse = [[(c, x) for c, x in enumerate(row) if x] for row in M]
    found, new_rows, spanned = {}, [], []
    while sum(len(rows) for rows, _ in found.values()) < n:
        spanned = integer_echelon(spanned + new_rows)
        leads = {next(c for c, x in enumerate(row) if x) for row in spanned}
        j = next(c for c in range(n) if c not in leads)
        new_rows = []
        for mu in _integer_roots(_krylov_minpoly(sparse, j)):
            if Fraction(mu, d) in found:
                continue
            shifted = [list(row) for row in M]
            for i in range(n):
                shifted[i][i] -= mu
            rows, piv = _integer_kernel(shifted, n)
            found[Fraction(mu, d)] = rows, piv
            new_rows += rows
        if not new_rows:
            return None
    return found
