"""Shared helpers: independent oracles and small algebra builders.

The oracles compute over Fraction with plain dense code and call no
routine of the library that does linear algebra, which runs on integer
rows; they read the library's values (structure constants over the
algebra's denominator, rows as `fraction_row` gives them) and nothing
else.  The builders here construct sl(2) and sl(3) directly from explicit
integer matrices inside the test process, independent of the catalog
module, so catalog output can be checked against them.
`killing_form_matrix` is the Killing form, an oracle for semisimplicity.
`bracket_oracle` and `ad_oracle` are the bracket and ad(y) summed over the
structure constants as Fractions, the library's `bracket` and `ad_matrix`
summed over the integer ones; `unit_fractions` is a unit vector as
Fractions and `canonical_fractions` the canonical rows of an rref.
`quotient_operators` is the induced action of a torus of h on g/h, which
the library replaced with subtracting the weights on h from the weights
on g.  `action_operators` and
`restricted_ad` give the action of a torus on g or on h as matrices, whose
joint split on h the library replaced with reading the weights on h from
the split on g; `as_ad` puts such a matrix in the form of `ad_matrix` for
the library's joint split.  `rref_oracle`, `solve_oracle`, `kernel_oracle`,
`exp_nilpotent_oracle` and `enumerate_lines_oracle` are the plain
Gauss-Jordan elimination over Fraction, the solve and the kernel read from
it, the dense matrix exponential and the flat grower by RREF of spans of
forms that the library replaced with integer elimination (`rref`, `solve`,
`coordinates`, `kernel`), sparse series on rows and integer flats grown by
closure; the tests compare the two.  `randomized_dominance_oracle` is a
Monte Carlo cross-check of `decide_dominance`, and `extend_torus_greedily`
grows a torus from a pool of vectors, the oracle for the maximality of the
designated tori.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from random import Random
from typing import Optional

import numpy as np
import pytest

from liepair.algebra import LieAlgebra, ValidationError
from liepair.linalg import (
    canonical_rows,
    frac,
    fraction_row,
    integer_row,
)
from liepair.polyhedral import ConeBudgetExceeded, RankMismatch
from liepair.weights import (
    RhoFunction,
    TorusValidationError,
    quotient_weights,
    rho_eval,
    validate_torus,
    weight_decomposition,
)

F = Fraction


def mat_sl(n):
    """Basis matrices and labels for sl(n): H_i then E_ij in (i, j) order,
    as integer matrices."""
    mats, labels = [], []
    for i in range(n - 1):
        M = [[0] * n for _ in range(n)]
        M[i][i] = 1
        M[i + 1][i + 1] = -1
        mats.append(M)
        labels.append(f"H{i + 1}")
    for i in range(n):
        for j in range(n):
            if i != j:
                M = [[0] * n for _ in range(n)]
                M[i][j] = 1
                mats.append(M)
                labels.append(f"E{i + 1}{j + 1}")
    return labels, mats


def commutator(A, B):
    n = len(A)
    out = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = sum((A[i][k] * B[k][j] for k in range(n)), F(0)) \
                - sum((B[i][k] * A[k][j] for k in range(n)), F(0))
    return out


def unit_fractions(L, i):
    """e_i of L as a row of Fractions."""
    return [F(int(k == i)) for k in range(L.dim)]


def bracket_oracle(L, x, y):
    """[x, y] for rows of Fractions, summed over L.sparse as Fractions."""
    out = [F(0)] * L.dim
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b:
                for k, c in L.sparse[i][j]:
                    out[k] += a * b * F(c, L.den)
    return out


def ad_oracle(L, y):
    """The dense Fraction matrix of x ↦ [y, x] on column vectors."""
    cols = [bracket_oracle(L, y, unit_fractions(L, i)) for i in range(L.dim)]
    return [list(row) for row in zip(*cols)]


def as_ad(M):
    """A square Fraction matrix in the form `ad_matrix` gives: (columns,
    D) with columns[i] the nonzero (k, c) of D times column i."""
    n = len(M)
    D = lcm(*[x.denominator for row in M for x in row if x])
    return [tuple((k, int(M[k][i] * D)) for k in range(n) if M[k][i])
            for i in range(n)], D


def killing_form_matrix(L):
    """B(e_i, e_j) = tr(ad e_i · ad e_j)."""
    ads = [ad_oracle(L, unit_fractions(L, i)) for i in range(L.dim)]
    n = L.dim
    K = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = sum((ads[i][a][b] * ads[j][b][a]
                     for a in range(n) for b in range(n)
                     if ads[i][a][b] != 0 and ads[j][b][a] != 0), F(0))
            K[i][j] = t
            K[j][i] = t
    return K


@pytest.fixture(scope="session")
def sl2():
    labels, mats = mat_sl(2)
    return LieAlgebra.from_matrices(labels, mats, name="sl2")


@pytest.fixture(scope="session")
def sl3():
    labels, mats = mat_sl(3)
    return LieAlgebra.from_matrices(labels, mats, name="sl3")


def restricted_ad(h, y):
    """Matrix of ad(y) restricted to the subalgebra h, in its row basis.
    y, a row of Fractions, must normalize h (true for y in any torus
    inside it)."""
    rows = [fraction_row(r) for r in h.rows]
    images = [bracket_oracle(h.ambient, y, r) for r in rows]
    coords = solve_oracle(rows, images)
    k = h.dim
    M = [[F(0)] * k for _ in range(k)]
    for j, cv in enumerate(coords):
        if cv is None:
            raise ValidationError("element does not normalize the subalgebra")
        for i in range(k):
            M[i][j] = cv[i]
    return M


def action_operators(torus, space):
    """Exact matrices of ad(Y_i) on the requested space: "g" (adjoint on the
    ambient algebra) or "h" (adjoint on the parent subalgebra, in coordinates
    on its basis rows).  The operators act on column coordinate vectors."""
    h = torus.parent
    if space == "g":
        return [ad_oracle(h.ambient, fraction_row(Y)) for Y in torus.rows]
    if space == "h":
        return [restricted_ad(h, fraction_row(Y)) for Y in torus.rows]
    raise ValueError(f"unknown space {space!r}; expected 'g' or 'h'")


def quotient_operators(torus):
    """Matrices of the induced action of the torus rows on g/h, in the
    complement of h spanned by the unit vectors at the non-pivot coordinates
    of its reduced rows."""
    h = torus.parent
    g = h.ambient
    pivots = {next(i for i, x in enumerate(r) if x) for r in h.subspace.rows}
    comp = [unit_fractions(g, i) for i in range(g.dim) if i not in pivots]
    full = [fraction_row(r) for r in h.rows] + comp
    ops = []
    for Y in torus.rows:
        Y = fraction_row(Y)
        coords = solve_oracle(full, [bracket_oracle(g, Y, c) for c in comp])
        ops.append([[cv[h.dim + i] for cv in coords]
                    for i in range(len(comp))])
    return ops


def module_weights(torus, space):
    """Weights of the torus on g, h or g/h, as `liepair rho` computes them."""
    if space == "g/h":
        return quotient_weights(weight_decomposition(torus, "g"),
                                weight_decomposition(torus, "h"))
    return weight_decomposition(torus, space).weights


def numeric_rho(torus, space, y_coords):
    """Independent numerical oracle: sum of |Re eigenvalue| of the exact
    action matrix (the induced quotient action for g/h), computed by numpy's
    eigensolver."""
    ops = quotient_operators(torus) if space == "g/h" \
        else action_operators(torus, space)
    if not ops or not ops[0]:
        return 0.0
    n = len(ops[0])
    M = [[sum((F(y) * op[i][j] for y, op in zip(y_coords, ops)), F(0))
          for j in range(n)] for i in range(n)]
    A = np.array([[float(x) for x in row] for row in M], dtype=float)
    return float(np.abs(np.linalg.eigvals(A).real).sum())


def assert_rho_matches_numeric(torus, space, rho, y_coords, rtol=1e-9):
    exact = rho_eval(rho, y_coords)
    numeric = numeric_rho(torus, space, y_coords)
    assert abs(float(exact) - numeric) <= rtol * max(1.0, abs(float(exact))), \
        f"exact {exact} vs numeric {numeric} at {y_coords}"


def rho_of(rank, forms):
    """The RhoFunction of forms (λ, m) with rational entries: each λ scaled
    to ints over den, the lcm of the denominators of all the entries."""
    forms = [(tuple(F(x) for x in lam), m) for lam, m in forms]
    den = lcm(*(x.denominator for lam, _ in forms for x in lam))
    return RhoFunction(rank=rank, den=den, forms=tuple(
        (tuple(int(x * den) for x in lam), m) for lam, m in forms))


def random_fraction(rng, num=9, den=9):
    return F(rng.randint(-num, num), rng.randint(1, den))


def rref_oracle(rows, ncols=None):
    """Gauss-Jordan elimination over Fraction, with the same contract as
    `liepair.linalg.rref` (in `ncols` mode the trailing rows are the actual
    residuals)."""
    m = [[F(x) for x in r] for r in rows]
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
        inv = 1 / m[r][c]
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


def solve_oracle(rows, targets):
    """The coordinates of each target on the rows of Fractions, or None
    for a target outside their span, by rref_oracle of the augmented
    matrix [rows^T | targets]."""
    k = len(rows)
    if k == 0:
        return [None if any(t) else [] for t in targets]
    aug = [[rows[i][r] for i in range(k)] + [t[r] for t in targets]
           for r in range(len(rows[0]))]
    red, piv = rref_oracle(aug, ncols=k)
    out = []
    for j in range(len(targets)):
        if any(row[k + j] for row in red[len(piv):]):
            out.append(None)
            continue
        coords = [F(0)] * k
        for row, p in zip(red, piv):
            coords[p] = row[k + j]
        out.append(coords)
    return out


def kernel_oracle(rows, n):
    """The RREF of {x : A x = 0} for the rows A of Fractions, n columns."""
    red, piv = rref_oracle(rows) if rows else ([], [])
    basis = []
    for free in (c for c in range(n) if c not in piv):
        v = [F(0)] * n
        v[free] = F(1)
        for row, p in zip(red, piv):
            v[p] = -row[free]
        basis.append(v)
    return rref_oracle(basis)[0] if basis else []


def normalize_form(v):
    """A nonzero vector of ints or Fractions divided by its first nonzero
    entry, as a tuple of Fractions: the representative of its line with
    first nonzero entry 1; None for the zero vector."""
    nz = next((x for x in v if x != 0), None)
    if nz is None:
        return None
    return tuple(Fraction(x, nz) for x in v)


def canonical_fractions(rows):
    """`linalg.canonical_rows` of an rref, as tuples of Fractions."""
    return [tuple(fraction_row(r)) for r in canonical_rows(rows)]


def moved_fractions(moved):
    """AdWord.apply_to_rows's (nums, den) pairs as Fraction rows, after
    checking the pair form: ints over a positive int, in lowest terms."""
    out = []
    for nums, den in moved:
        assert type(den) is int and den > 0
        assert all(type(x) is int for x in nums)
        assert gcd(den, *nums) == 1
        out.append([F(x, den) for x in nums])
    return out


def mat_mul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), F(0)) for col in zip(*B)]
            for row in A]


def exp_nilpotent_oracle(A, t):
    """exp(t·A) for a nilpotent matrix A, as the dense sum of its powers;
    raises ValueError when A is not nilpotent."""
    n = len(A)
    M = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    P = A
    for k in range(1, n + 1):
        if all(x == 0 for row in P for x in row):
            return M
        c = F(t) ** k / factorial(k)
        M = [[m + c * p for m, p in zip(mr, pr)] for mr, pr in zip(M, P)]
        P = mat_mul(P, A)
    if any(x != 0 for row in P for x in row):
        raise ValueError("matrix is not nilpotent")
    return M


def enumerate_lines_oracle(arr, budget=10 ** 6):
    """`liepair.polyhedral.enumerate_lines` by spans of forms: a flat is
    the RREF of the span of the forms vanishing on it, in the coordinates
    given by the RREF rows of the span of all forms, and each flat of rank
    k + 1 is the span of a rank-k flat and one more form.  Same output and
    same ConeBudgetExceeded as the library."""
    if not arr.forms:
        return []
    span_rows, _ = rref_oracle([list(x) for x in arr.forms])
    d = len(span_rows)
    reduced = [tuple(sum((a * b for a, b in zip(lam, row)), F(0))
                     for row in span_rows) for lam in arr.forms]
    flats = {()}
    count = 1
    for k in range(d - 1):
        grown = set()
        for span in flats:
            for mu in reduced:
                rows = tuple(rref_oracle(list(span) + [mu])[0])
                if len(rows) > k and rows not in grown:
                    grown.add(rows)
                    count += 1
                    if count > budget:
                        raise ConeBudgetExceeded(
                            f"flat count exceeded the budget of {budget}")
        flats = grown
    lines = []
    for span in flats:
        (z,) = kernel_oracle(list(span), d)
        y = [sum((za * row[i] for za, row in zip(z, span_rows)), F(0))
             for i in range(arr.rank)]
        nz = next(x for x in y if x != 0)
        lines.append(tuple(x / nz for x in y))
    return sorted(lines)


@dataclass(frozen=True)
class OracleOutcome:
    agrees: bool              # True when no violation of f ≤ g was sampled
    counterexample: Optional[tuple]
    f_value: Optional[Fraction]
    g_value: Optional[Fraction]
    samples: int


def randomized_dominance_oracle(f, g, samples, seed):
    """Independent Monte Carlo cross-check of decide_dominance.

    Samples integer points (exact rationals) and evaluates both functions
    exactly; a strict violation is a certified counterexample to dominance.
    The bulk evaluation runs in int64 when a conservative overflow bound
    allows it, otherwise in Fractions; both paths are exact.
    """
    if f.rank != g.rank:
        raise RankMismatch(f"rho ranks differ: {f.rank} vs {g.rank}")
    r = f.rank
    rng = Random(seed)
    pts = [tuple(rng.randint(-9, 9) for _ in range(r)) for _ in range(samples)]
    if r == 0 or (not f.forms and not g.forms):
        return OracleOutcome(True, None, None, None, samples)
    # both functions over one denominator, the lcm of theirs
    scale = lcm(f.den, g.den)
    def int_forms(fn):
        return [([x * (scale // fn.den) for x in lam], m)
                for lam, m in fn.forms]
    fi, gi = int_forms(f), int_forms(g)
    max_coef = max((abs(c) for lam, _ in fi + gi for c in lam), default=0)
    mult_sum = sum(m for _, m in fi + gi)
    bound = max_coef * 9 * r * max(mult_sum, 1)
    idx = None
    if bound < 2 ** 62:
        P = np.array(pts, dtype=np.int64).T  # r x samples
        def eval_all(forms):
            total = np.zeros(samples, dtype=np.int64)
            for lam, m in forms:
                total += m * np.abs(np.array(lam, dtype=np.int64) @ P)
            return total
        diff = eval_all(gi) - eval_all(fi)
        where = np.nonzero(diff < 0)[0]
        idx = int(where[0]) if len(where) else None
    else:
        for i, p in enumerate(pts):
            if rho_eval(f, list(p)) > rho_eval(g, list(p)):
                idx = i
                break
    if idx is None:
        return OracleOutcome(True, None, None, None, samples)
    p = [Fraction(x) for x in pts[idx]]
    return OracleOutcome(False, tuple(p), rho_eval(f, p), rho_eval(g, p),
                         samples)


def _zero_weight_component(torus, v):
    """Component of v (in g-coordinates, v ∈ h) in the zero-weight space of
    the torus acting on h."""
    if solve_oracle([fraction_row(r) for r in torus.parent.rows],
                    [[frac(x) for x in v]])[0] is None:
        return None
    ws = weight_decomposition(torus, "h")
    all_rows = []
    zero_range = None
    for (lam, _), rows in zip(ws.weights, ws.spaces):
        if all(x == 0 for x in lam):
            zero_range = (len(all_rows), len(all_rows) + len(rows))
        all_rows.extend([F(x) for x in r] for r in rows)
    if zero_range is None:
        return None
    in_blocks = solve_oracle(all_rows, [[frac(x) for x in v]])[0]
    lo, hi = zero_range
    out = [F(0)] * torus.ambient.dim
    for c, row in zip(in_blocks[lo:hi], all_rows[lo:hi]):
        if c != 0:
            for i, x in enumerate(row):
                out[i] += c * x
    return out


def extend_torus_greedily(seed, h, candidate_pool):
    """Grow the torus by adjoining pool vectors (or their centralizer
    components) while all invariants survive.  Maximality is relative to the
    pool, not proven in general."""
    current = seed
    pool = [[frac(x) for x in p] for p in candidate_pool]
    changed = True
    while changed:
        changed = False
        for v in pool:
            candidates = [v]
            if current.rank > 0:
                proj = _zero_weight_component(current, v)
                if proj is not None and any(proj):
                    candidates.append(proj)
            for cand in candidates:
                if not any(cand):
                    continue
                rows = [fraction_row(r) for r in current.rows]
                if len(rref_oracle(rows + [cand])[0]) == current.rank:
                    continue
                try:
                    extended = validate_torus(
                        list(current.rows) + [integer_row(cand)], h)
                except TorusValidationError:
                    continue
                current = extended
                changed = True
                break
            if changed:
                break
    return current
