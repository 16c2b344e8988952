"""Finite-dimensional Lie algebras over ℚ.

Structure constants are stored sparsely: sparse[i][j] lists the nonzero
coordinates of [e_i, e_j] as (k, c) pairs sorted by k.  All values are
immutable after construction and every operation is pure, so everything here
is safe to share between workers.

Index conventions: internal indices are 0-based; human-facing messages and
the pair-file format are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple, Optional

from .linalg import (
    ZERO,
    ONE,
    express_in_rows,
    first_outside_span,
    frac,
    identity_rows,
    integer_echelon,
    integer_rank,
    integer_row,
    is_zero_vec,
    rank,  # noqa: F401  (perfbench/test_perfbench.py checks this binding)
    rref,
    vec,
)

class ValidationError(ValueError):
    """An algebraic invariant failed; the message carries 1-based indices."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple = ()

    def __bool__(self):
        return self.ok

    @property
    def first_problem(self):
        return self.problems[0] if self.problems else None


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis_labels: tuple
    # sparse[i][j] = tuple of (k, c), sorted by k, c != 0: [e_i, e_j] = Σ c·e_k
    sparse: tuple
    matrix_realization: Optional[tuple] = None
    name: str = ""

    @staticmethod
    def from_structure(labels, table, realization=None, name=""):
        """Build from a sparse bracket table {(i, j): {k: c}} given for i < j;
        the antisymmetric part is filled in automatically."""
        n = len(labels)
        entries = [[()] * n for _ in range(n)]
        for (i, j), entry in table.items():
            if not (0 <= i < j < n):
                raise ValidationError(
                    f"bracket table entries must have i < j; got ({i + 1}, {j + 1})")
            for k in entry:
                if not 0 <= k < n:
                    raise ValidationError(
                        f"[e_{i + 1}, e_{j + 1}] names basis vector {k + 1} "
                        f"outside 1..{n}")
            values = {k: c if type(c) is Fraction else frac(c)
                      for k, c in entry.items()}
            nonzero = sorted((k, c) for k, c in values.items() if c)
            entries[i][j] = tuple(nonzero)
            entries[j][i] = tuple((k, -c) for k, c in nonzero)
        return LieAlgebra(
            dim=n,
            basis_labels=tuple(labels),
            sparse=tuple(tuple(row) for row in entries),
            matrix_realization=_freeze_mats(realization),
            name=name)

    @staticmethod
    def from_matrices(labels, mats, name=""):
        """Derive structure constants from a faithful matrix realization.
        Only the brackets that are not zero are solved for."""
        n = len(mats)
        if n != len(labels):
            raise ValidationError("one label per basis matrix required")
        dense, sparse, den = _integer_matrices(mats)
        if integer_rank(dense) < n:
            raise ValidationError("realization matrices are linearly dependent")
        size = len(mats[0]) if mats else 0
        targets = []
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                commutator = _matrix_bracket(sparse[i], sparse[j], size)
                if commutator:
                    target = [0] * (size * size)
                    for e, x in commutator.items():
                        target[e] = x
                    targets.append(target)
                    pairs.append((i, j))
        # the commutator of M_i = A_i/den and M_j is (A_i A_j - A_j A_i)/den²,
        # so its coordinates on the A_k are den times those on the M_k
        coords = express_in_rows(dense, targets) if targets else []
        table = {}
        for (i, j), cv in zip(pairs, coords):
            if cv is None:
                raise ValidationError(
                    f"matrices do not span a Lie algebra: [{labels[i]}, {labels[j]}] "
                    "is outside the span of the basis")
            table[(i, j)] = {k: c if den == 1 else c / den
                             for k, c in enumerate(cv) if c}
        return LieAlgebra.from_structure(labels, table, realization=mats, name=name)

    @cached_property
    def integer_sparse(self):
        """(table, den): the structure constants over their common
        denominator den, table[i][j] holding the (k, c·den) of sparse[i][j]
        as ints."""
        n = self.dim
        nonzero = [(i, j, entry) for i, row in enumerate(self.sparse)
                   for j, entry in enumerate(row) if entry]
        den = lcm(*{c.denominator for _, _, entry in nonzero for _, c in entry})
        table = [[()] * n for _ in range(n)]
        for i, j, entry in nonzero:
            table[i][j] = tuple((k, c.numerator * (den // c.denominator))
                                for k, c in entry)
        return tuple(tuple(row) for row in table), den

    def basis_vector(self, i):
        return [ONE if k == i else ZERO for k in range(self.dim)]


def _freeze_mats(mats):
    if mats is None:
        return None
    return tuple(tuple(tuple(x if type(x) is Fraction else frac(x) for x in row)
                       for row in M) for M in mats)


class _IntMatrix(NamedTuple):
    """A square integer matrix by its nonzero entries: {a·size + b: entry},
    row a as by_row[a] = [(b, entry)], and the rows and the columns that
    hold one as bitmasks."""

    entries: dict
    by_row: dict
    rows: int
    cols: int


def _integer_matrices(mats):
    """(dense, sparse, den): the square matrices, of ints or Fractions,
    over the common denominator den of their entries, M_k = A_k / den;
    dense[k] is A_k flattened row by row to ints and sparse[k] is A_k as
    an _IntMatrix."""
    size = len(mats[0]) if mats else 0
    nonzero = [[(a * size + b, x) for a, row in enumerate(M)
                for b, x in enumerate(row) if x] for M in mats]
    den = lcm(*{x.denominator for nz in nonzero for _, x in nz})
    dense, sparse = [], []
    for nz in nonzero:
        flat = [0] * (size * size)
        entries, by_row, rows, cols = {}, {}, 0, 0
        for e, x in nz:
            a, b = divmod(e, size)
            flat[e] = entries[e] = v = x.numerator * (den // x.denominator)
            by_row.setdefault(a, []).append((b, v))
            rows |= 1 << a
            cols |= 1 << b
        dense.append(flat)
        sparse.append(_IntMatrix(entries, by_row, rows, cols))
    return dense, sparse, den


def _matrix_bracket(A, B, size):
    """AB − BA for _IntMatrix A and B, as {a·size + b: entry} over its
    nonzero entries."""
    out = {}
    for P, Q, sign in ((A, B, 1), (B, A, -1)):
        q_rows = Q.by_row
        for e, x in P.entries.items():
            a, k = divmod(e, size)
            for b, y in q_rows.get(k, ()):
                f = a * size + b
                out[f] = out.get(f, 0) + sign * x * y
    return {f: v for f, v in out.items() if v}


def bracket(L: LieAlgebra, x, y):
    """[x, y] in coordinates; bilinear in both arguments."""
    if len(x) != L.dim or len(y) != L.dim:
        raise ValidationError(
            f"dimension mismatch: algebra has dim {L.dim}, "
            f"got vectors of length {len(x)} and {len(y)}")
    out = [ZERO] * L.dim
    y_nonzero = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        sp_i = L.sparse[i]
        for j, yj in y_nonzero:
            s = xi * yj
            for k, c in sp_i[j]:
                out[k] += s * c
    return out


def integer_bracket(L: LieAlgebra, x, y):
    """[x, y] for rows of ints, as ints over the denominator of
    L.integer_sparse: a positive multiple of the bracket, which is all a
    test of membership in a span needs."""
    return _bracket_of_nonzero(L, _nonzero(x), _nonzero(y))


def _nonzero(v):
    return [(i, x) for i, x in enumerate(v) if x]


def _bracket_of_nonzero(L, xs, ys):
    """integer_bracket of two rows given by their nonzero (index, entry)."""
    table, _ = L.integer_sparse
    out = [0] * L.dim
    for i, xi in xs:
        sp_i = table[i]
        for j, yj in ys:
            s = xi * yj
            for k, c in sp_i[j]:
                out[k] += s * c
    return out


def ad_matrix(L: LieAlgebra, y):
    """Matrix of x ↦ [y, x] acting on column coordinate vectors."""
    if len(y) != L.dim:
        raise ValidationError(
            f"dimension mismatch: algebra has dim {L.dim}, got length {len(y)}")
    n = L.dim
    M = [[ZERO] * n for _ in range(n)]
    for j, yj in enumerate(y):
        if yj == 0:
            continue
        sp_j = L.sparse[j]
        for i in range(n):
            for k, c in sp_j[i]:
                M[k][i] += yj * c
    return M


def _jacobi_defect(L, i, j, k):
    n = L.dim
    out = [ZERO] * n
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        inner = L.sparse[b][c]
        sp_a = L.sparse[a]
        for m, cm in inner:
            for p, cp in sp_a[m]:
                out[p] += cm * cp
    return out


def validate(L: LieAlgebra) -> ValidationReport:
    """Check all LieAlgebra invariants; returns a report, never raises.

    A matrix realization must be faithful (linearly independent matrices)
    and satisfy [M_i, M_j] = Σ c_k M_k.  The Jacobi identity is checked
    triple by triple unless the structure constants are antisymmetric and
    a realization passes both checks: the bracket is then the commutator
    of gl(n) pulled back along an injective linear map, where Jacobi holds
    identically.
    """
    problems = []
    n = L.dim
    table, _ = L.integer_sparse
    pair = next(((i, j) for i in range(n) for j in range(i, n)
                 if (table[i][j] or table[j][i]) and table[i][j]
                 != tuple((k, -c) for k, c in table[j][i])), None)
    if pair is not None:
        problems.append(f"antisymmetry violated at basis pair {_one_based(pair)}")
    realization_ok = False
    if L.matrix_realization is not None:
        problem = _realization_problem(L)
        if problem is not None:
            problems.append(problem)
        realization_ok = problem is None
    if pair is not None or not realization_ok:
        triple = next(((i, j, k) for i in range(n) for j in range(i + 1, n)
                       for k in range(j + 1, n)
                       if not is_zero_vec(_jacobi_defect(L, i, j, k))), None)
        if triple is not None:
            problems.append(
                f"Jacobi identity violated at basis triple {_one_based(triple)}")
    return ValidationReport(ok=not problems, problems=tuple(problems))


def _one_based(indices):
    return "(" + ", ".join(str(i + 1) for i in indices) + ")"


def _realization_problem(L: LieAlgebra):
    """The first way L's matrix realization fails to be a faithful
    representation with L's structure constants, or None.

    Everything is compared on ints: with the matrices A_k / d over one
    denominator and the structure constants s_ijk / c over another,
    [M_i, M_j] = Σ c_ijk M_k reads c·(A_i A_j − A_j A_i) = d·Σ s_ijk A_k.
    A basis pair with no stored bracket is skipped when no nonzero column
    of either matrix meets a nonzero row of the other, since both products
    are then zero."""
    mats = L.matrix_realization
    dense, sparse, d = _integer_matrices(mats)
    if integer_rank(dense) < L.dim:
        return "matrix realization is not faithful"
    size = len(mats[0]) if mats else 0
    table, c = L.integer_sparse
    for i in range(L.dim):
        A = sparse[i]
        for j in range(i + 1, L.dim):
            B = sparse[j]
            stored = table[i][j]
            if not stored and not A.cols & B.rows and not B.cols & A.rows:
                continue
            expected = {}
            for k, s in stored:
                for e, x in sparse[k].entries.items():
                    expected[e] = expected.get(e, 0) + s * x
            got = _matrix_bracket(A, B, size)
            if c != d:
                got = {e: c * x for e, x in got.items()}
                expected = {e: d * x for e, x in expected.items()}
            if got != {e: x for e, x in expected.items() if x}:
                return ("matrix realization disagrees with structure "
                        f"constants at basis pair {_one_based((i, j))}")
    return None


@dataclass(frozen=True)
class Subspace:
    """A subspace of ℚ^n in canonical reduced-row-echelon form, so that
    equality of subspaces is equality of row matrices."""

    ambient: int
    rows: tuple
    pivots: tuple

    @staticmethod
    def from_rows(ambient, rows):
        rows = [vec(r) for r in rows]
        for r in rows:
            if len(r) != ambient:
                raise ValidationError(
                    f"ambient mismatch: expected length {ambient}, got {len(r)}")
        red, piv = rref(rows)
        return Subspace(ambient=ambient, rows=tuple(red), pivots=tuple(piv))

    @staticmethod
    def zero(ambient):
        return Subspace(ambient=ambient, rows=(), pivots=())

    @property
    def dim(self):
        return len(self.rows)


def subspace_sum(A: Subspace, B: Subspace) -> Subspace:
    if A.ambient != B.ambient:
        raise ValidationError("ambient mismatch")
    return Subspace.from_rows(A.ambient, list(A.rows) + list(B.rows))


def subspace_intersect(A: Subspace, B: Subspace) -> Subspace:
    """Zassenhaus: row-reduce [[A A], [B 0]]; rows with zero left half carry an
    intersection basis in the right half."""
    if A.ambient != B.ambient:
        raise ValidationError("ambient mismatch")
    n = A.ambient
    block = [list(r) + list(r) for r in A.rows]
    block += [list(r) + [ZERO] * n for r in B.rows]
    red, _ = rref(block)
    inter = [row[n:] for row in red if is_zero_vec(row[:n])]
    return Subspace.from_rows(n, inter)


@dataclass(frozen=True)
class SubalgebraEmbedding:
    """A subalgebra h ⊂ g given by basis rows in g-coordinates.  Construction
    via create() validates linear independence and bracket closure."""

    ambient: LieAlgebra
    rows: tuple

    @staticmethod
    def create(ambient: LieAlgebra, rows):
        """The embedding of the span of `rows`, after checking that they are
        independent and that the bracket of every two lies in their span:
        the brackets are formed on integer rows and each is reduced against
        one integer echelon of the rows."""
        rows = [vec(r) for r in rows]
        for r in rows:
            if len(r) != ambient.dim:
                raise ValidationError(
                    f"subalgebra row has length {len(r)}, ambient dim {ambient.dim}")
        emb = SubalgebraEmbedding(ambient=ambient,
                                  rows=tuple(tuple(r) for r in rows))
        if len(emb.echelon) < len(rows):
            raise ValidationError("subalgebra basis rows are linearly dependent")
        nonzero = [_nonzero(r) for r in emb.integer_rows]
        pairs = [(i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))]
        outside = first_outside_span(
            emb.echelon, (_bracket_of_nonzero(ambient, nonzero[i], nonzero[j])
                          for i, j in pairs))
        if outside is not None:
            i, j = pairs[outside]
            raise ValidationError(
                f"not bracket-closed: [row {i + 1}, row {j + 1}] "
                "is outside the row span")
        return emb

    @property
    def dim(self):
        return len(self.rows)

    @cached_property
    def integer_rows(self):
        """The rows as lists of ints, each a positive multiple of its row."""
        return tuple(integer_row(r)[0] for r in self.rows)

    @cached_property
    def echelon(self):
        """An integer echelon basis of the span (linalg.integer_echelon),
        for membership tests with linalg.first_outside_span."""
        return integer_echelon(list(self.integer_rows))

    def subspace(self) -> Subspace:
        return Subspace.from_rows(self.ambient.dim, list(self.rows))

    @staticmethod
    def whole(ambient: LieAlgebra):
        """The improper embedding g ⊂ g."""
        return SubalgebraEmbedding(
            ambient=ambient, rows=tuple(identity_rows(ambient.dim)))
