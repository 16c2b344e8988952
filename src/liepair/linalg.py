"""Exact linear algebra over the rationals, on integer rows.

One row type runs through the program.  An exact vector is a pair
(nums, den): a tuple of ints and a positive int, in lowest terms, equal to
nums / den.  `integer_row` makes one from values (ints, Fractions or what
`frac` reads) where a value is read: where a pair is built (the pair
parser, the catalog and `Pair.create`) and where a certificate's word is
read.  `fraction_row` turns an exact vector back into Fractions where one
is written.

A span is held by integer rows alone, since scaling a row changes no span.
`rref` gives its canonical form: Gauss-Jordan elimination over ℚ done
fraction-free (`_eliminate`), each row divided by the gcd of its entries
and signed so that its pivot entry, its first nonzero entry, is positive.
Those rows are unique to the span, so equality of spans is literal
equality of the rows; `canonical_rows` divides each by its pivot entry,
which gives the reduced row echelon form over ℚ (pivot entries 1) that a
certificate writes.  `integer_echelon` runs the same elimination forward
only and `integer_rank` counts its rows; a word search ranks each word's
moved rows against a span reduced once.  `solve` is the one solve: the
combination of an rref's rows that a row is, read at the pivots, or None
outside their span; `coordinates` reads the coefficients on any
independent rows from it.  `rank` stays `len(rref(rows)[0])`, a thin
wrapper over the one traced reduction, so a benchmark trace of it still
shows its rref child span.  Functions never mutate their arguments.

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
    """The unit rows of ℚ^n as tuples of ints."""
    return [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]


def mat_vec(A, v):
    """A·v, summed over the nonzero entries of v that meet a nonzero entry
    of the row, so a sparse A or v costs only its nonzero products; ints in
    give ints out."""
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in nonzero if row[j]) for row in A]


def vec_dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a != 0 and b != 0), ZERO)


def is_zero_vec(u):
    return all(a == 0 for a in u)


def integer_row(row):
    """The exact vector (nums, den) of a row of values, which are ints,
    Fractions or what `frac` reads: den is the lcm of the denominators of
    the entries, so the pair is in lowest terms."""
    ratios = [x.as_integer_ratio() if type(x) is Fraction or type(x) is int
              else frac(x).as_integer_ratio() for x in row]
    den = lcm(*[d for _, d in ratios])
    if den == 1:
        return tuple(n for n, _ in ratios), 1
    return tuple(n * (den // d) for n, d in ratios), den


def fraction_row(row):
    """The entries of the exact vector row = (nums, den) as Fractions."""
    nums, den = row
    return [Fraction(x, den) for x in nums]


def canonical_rows(rows):
    """The rows of an rref divided by their pivot entries: the reduced row
    echelon form over ℚ, as tuples of Fractions."""
    out = []
    for row in rows:
        p = next(x for x in row if x)
        out.append(tuple(Fraction(x, p) if x else ZERO for x in row))
    return out


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


def _primitive_rows(m, piv):
    """The first len(piv) rows of m, each divided by the gcd of its entries
    and signed so that its entry at its pivot is positive, as tuples."""
    out = []
    for row, p in zip(m, piv):
        g = gcd(*row)
        if row[p] < 0:
            g = -g
        out.append(tuple(row) if g == 1 else tuple(x // g for x in row))
    return out


def rref(rows):
    """Canonical form of the span of integer rows: (rows, pivot_columns),
    the Gauss-Jordan rows made primitive with positive pivot entries, as
    tuples of ints; zero rows are dropped.

    Elimination is fraction-free (`_eliminate`).  Every row stays
    proportional to its Gauss-Jordan counterpart over ℚ, so the pivots are
    the same, and the primitive multiple of a vector with a positive
    pivot entry is unique: equal spans give equal rows."""
    m = [list(r) for r in rows]
    piv = _eliminate(m, len(m[0]) if m else 0, True)
    return _primitive_rows(m, piv), piv


def rank(rows) -> int:
    return len(rref(rows)[0])


def integer_echelon(int_rows) -> list:
    """An echelon basis of the span over ℚ of rows of ints, by forward
    elimination only: integer rows with strictly increasing leading
    columns.  Since rank(F + M) = rank(E + M) when E is an echelon basis of
    F's span, a search ranks each word's rows against a basis of its fixed
    rows, reduced once."""
    m = list(int_rows)
    return m[:len(_eliminate(m, len(m[0]) if m else 0, False))]


def integer_rank(int_rows) -> int:
    """Rank over ℚ of rows of ints, the length of their integer_echelon;
    equal to rank(int_rows)."""
    return len(integer_echelon(int_rows))


def solve(span, rows):
    """For each of the integer `rows`, lazily, the combination of the rows
    of `span`, an rref, that it is, as a pair (nums, den) with the
    combination nums / den over the whole width of the span rows, not
    reduced; None for a row outside their span.  A caller that stops at
    the first None reads no row after it.

    Rows of an rref vanish at each other's pivots, so the coefficient of a
    row on the span row s with pivot p is row[p]/s[p], and the row lies in
    the span exactly when Σ (row[p]/s[p])·s agrees with it on its length.
    Over the lcm L of those s[p] that is a sum of ints.  Span rows longer
    than the rows carry more in their tail: see `coordinates`."""
    reducers = []
    for s in span:
        nonzero = [(c, x) for c, x in enumerate(s) if x]
        reducers.append((nonzero[0][0], nonzero[0][1], nonzero))
    for row in rows:
        used = [(f, s_p, nonzero) for p, s_p, nonzero in reducers
                if (f := row[p])]
        big = 1
        for _, s_p, _ in used:
            if big % s_p:
                big = lcm(big, s_p)
        total = [0] * len(span[0] if span else row)
        for f, s_p, nonzero in used:
            if s_p != big:
                f *= big // s_p
            for c, x in nonzero:
                total[c] += f * x
        n = len(row)
        if (total if len(total) == n else total[:n]) \
                != ([big * x for x in row] if big != 1 else list(row)):
            yield None
        else:
            yield total, big


def coordinates(basis, targets):
    """The coefficients (nums, den) of each target on the independent
    integer rows `basis`, or None for a target outside their span.  The
    rref of the rows b_i ⊕ e_i has its pivots on the b side, since the b_i
    are independent, so `solve` against it gives a combination whose tail
    holds the coefficients."""
    k = len(basis)
    if k == 0:
        return [None if any(t) else ((), 1) for t in targets]
    n = len(basis[0])
    span, _ = rref([list(b) + [int(i == j) for j in range(k)]
                    for i, b in enumerate(basis)])
    out = []
    for x in solve(span, targets):
        if x is not None:
            tail, den = x[0][n:], x[1]
            g = gcd(den, *tail)
            x = tuple(c // g for c in tail), den // g
        out.append(x)
    return out


def kernel(A, n=None):
    """The rref (see `rref`) of {x : A x = 0} for integer rows A; `n` is
    the ambient dimension (needed when A has no rows).  Each free column f
    of A's reduced form gives the kernel vector with entry L at f and
    −L·red[k][f]/red[k][p_k] at pivot p_k, L the lcm of those pivots."""
    if not A:
        if n is None:
            raise ValueError("kernel of an empty matrix needs the ambient dimension")
        return identity_rows(n)
    width = len(A[0])
    m = [list(r) for r in A]
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
    return rref(basis)[0]


def charpoly(M):
    """Characteristic polynomial det(t·I − M) of an integer matrix,
    division-free (Berkowitz): ints [1, c1, …, cn] with
    p(t) = t^n + c1 t^(n-1) + … + cn."""
    n = len(M)
    poly = [1]
    for m in range(1, n + 1):
        col = [1, -M[m - 1][m - 1]]
        if m > 1:
            R = M[m - 1][:m - 1]
            acc = [M[k][m - 1] for k in range(m - 1)]
            sub = [row[:m - 1] for row in M[:m - 1]]
            for step in range(m - 1):
                col.append(-sum(a * b for a, b in zip(R, acc)))
                if step != m - 2:
                    acc = mat_vec(sub, acc)
        new = [0] * (m + 1)
        for i, t in enumerate(col):
            if t:
                for j, p in enumerate(poly):
                    if i + j <= m:
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
    unit rows, as tuples of ints, in coordinate order.  When keys[i] is the
    i-th diagonal entry of a diagonal operator (or the tuple of them over a
    family of diagonal operators) these are its (joint) eigenspaces, in
    rref.
    """
    unit = identity_rows(len(keys))
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(unit[i])
    return sorted(groups.items())


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


def _rational_root_count(p):
    """The rational roots, counted with multiplicity, of the monic integer
    polynomial p (ints from the highest degree down), all of them integers."""
    p = list(p)
    count = 0
    for root in _integer_roots(p):
        while not _horner(p, root):
            count += 1
            for i in range(1, len(p)):  # divide by t − root
                p[i] += p[i - 1] * root
            p.pop()
    return count


def eigensplit(M, d=1):
    """Decompose ℚ^n into the eigenspaces of A = M/d, M a square matrix of
    ints and d a positive int.

    A must be diagonalizable with all eigenvalues rational.  Returns a list
    of (eigenvalue, rows) sorted by eigenvalue, the eigenvalue a Fraction
    and the rows the rref of its eigenspace.  Raises IrrationalSpectrumError
    or NotDiagonalizableError otherwise, with the exact characteristic
    polynomial of A attached.

    A diagonal A splits into the coordinate unit rows grouped by diagonal
    entry.  Otherwise the rational eigenvalues of M are integers.  From a
    unit vector e_j outside the eigenspaces found so far, the minimal
    polynomial of M at e_j (`_krylov_minpoly`) is monic over ℤ; its integer
    roots (`_integer_roots`) divided by d are eigenvalues of A, and their
    kernels are eigenspaces.  When A is diagonalizable with rational
    spectrum, e_j has a component in an eigenspace not yet found, so each
    round finds a new eigenvalue.  The split is certified when the
    dimensions sum to n; a round that finds no new eigenvalue ends the
    search, and then the rational roots of the characteristic polynomial of
    M, counted with multiplicity, tell an irrational spectrum (fewer than
    n) from a matrix that is not diagonalizable.
    """
    n = len(M)
    if n == 0:
        return []
    if is_diagonal(M):
        return coordinate_split([Fraction(M[i][i], d) for i in range(n)])
    sparse = [[(c, x) for c, x in enumerate(row) if x] for row in M]
    found, new_rows, spanned = {}, [], []
    while sum(len(rows) for rows in found.values()) < n:
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
            found[Fraction(mu, d)] = rows = kernel(shifted)
            new_rows += rows
        if not new_rows:
            break
    else:
        return sorted(found.items())
    p = charpoly(M)
    coeffs = [Fraction(c, d ** i) for i, c in enumerate(p)]
    if _rational_root_count(p) < n:
        raise IrrationalSpectrumError(
            "matrix has non-rational eigenvalues; characteristic polynomial "
            f"{poly_str(coeffs)}", coeffs)
    raise NotDiagonalizableError(
        "matrix has rational spectrum but is not diagonalizable; "
        f"characteristic polynomial {poly_str(coeffs)}", coeffs)
