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
from typing import Optional

from .linalg import (
    ZERO,
    ONE,
    express_in_rows,
    frac,
    identity_rows,
    is_zero_vec,
    rank,
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
        entries = [[{} for _ in range(n)] for _ in range(n)]
        for (i, j), entry in table.items():
            if not (0 <= i < j < n):
                raise ValidationError(
                    f"bracket table entries must have i < j; got ({i + 1}, {j + 1})")
            for k, c in entry.items():
                if not 0 <= k < n:
                    raise ValidationError(
                        f"[e_{i + 1}, e_{j + 1}] names basis vector {k + 1} "
                        f"outside 1..{n}")
                c = frac(c)
                if c != 0:
                    entries[i][j][k] = c
                    entries[j][i][k] = -c
        return LieAlgebra(
            dim=n,
            basis_labels=tuple(labels),
            sparse=tuple(tuple(tuple(sorted(e.items())) for e in row)
                         for row in entries),
            matrix_realization=_freeze_mats(realization),
            name=name)

    @staticmethod
    def from_matrices(labels, mats, name=""):
        """Derive structure constants from a faithful matrix realization."""
        n = len(mats)
        if n != len(labels):
            raise ValidationError("one label per basis matrix required")
        flat = [tuple(x for row in M for x in row) for M in mats]
        if rank(flat) < n:
            raise ValidationError("realization matrices are linearly dependent")
        size = len(mats[0]) if mats else 0
        nonzero = [_nonzero_by_row(M) for M in mats]
        targets = []
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                target = [ZERO] * (size * size)
                for (a, b), x in _matrix_bracket(nonzero[i], nonzero[j]).items():
                    target[a * size + b] = x
                targets.append(target)
                pairs.append((i, j))
        coords = express_in_rows(flat, targets)
        table = {}
        for (i, j), cv in zip(pairs, coords):
            if cv is None:
                raise ValidationError(
                    f"matrices do not span a Lie algebra: [{labels[i]}, {labels[j]}] "
                    "is outside the span of the basis")
            table[(i, j)] = {k: c for k, c in enumerate(cv) if c != 0}
        return LieAlgebra.from_structure(labels, table, realization=mats, name=name)

    def basis_vector(self, i):
        return [ONE if k == i else ZERO for k in range(self.dim)]


def _freeze_mats(mats):
    if mats is None:
        return None
    return tuple(tuple(tuple(frac(x) for x in row) for row in M) for M in mats)


def _nonzero_by_row(M):
    """The nonzero entries of a matrix, row by row: out[a] = [(b, M[a][b])]."""
    return [[(b, x) for b, x in enumerate(row) if x != 0] for row in M]


def _matrix_bracket(A, B):
    """AB − BA for matrices given by _nonzero_by_row, as {(a, b): entry}
    over its nonzero entries."""
    out = {}
    for P, Q, sign in ((A, B, 1), (B, A, -1)):
        for a, row in enumerate(P):
            for k, x in row:
                for b, y in Q[k]:
                    out[(a, b)] = out.get((a, b), ZERO) + sign * x * y
    return {e: x for e, x in out.items() if x != 0}


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
    pair = next(((i, j) for i in range(n) for j in range(i, n)
                 if L.sparse[i][j] != tuple((k, -c) for k, c in L.sparse[j][i])),
                None)
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
    representation with L's structure constants, or None."""
    mats = L.matrix_realization
    if rank([[x for row in M for x in row] for M in mats]) < L.dim:
        return "matrix realization is not faithful"
    nonzero = [_nonzero_by_row(M) for M in mats]
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            expected = {}
            for k, c in L.sparse[i][j]:
                for a, row in enumerate(nonzero[k]):
                    for b, x in row:
                        expected[(a, b)] = expected.get((a, b), ZERO) + c * x
            if _matrix_bracket(nonzero[i], nonzero[j]) != {
                    e: x for e, x in expected.items() if x != 0}:
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
        rows = [vec(r) for r in rows]
        for r in rows:
            if len(r) != ambient.dim:
                raise ValidationError(
                    f"subalgebra row has length {len(r)}, ambient dim {ambient.dim}")
        if rank(rows) < len(rows):
            raise ValidationError("subalgebra basis rows are linearly dependent")
        # a zero bracket lies in every span, so only the others are solved
        targets = []
        pairs = []
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                b = bracket(ambient, rows[i], rows[j])
                if not is_zero_vec(b):
                    targets.append(b)
                    pairs.append((i, j))
        if targets:
            coords = express_in_rows(rows, targets)
            for (i, j), cv in zip(pairs, coords):
                if cv is None:
                    raise ValidationError(
                        f"not bracket-closed: [row {i + 1}, row {j + 1}] "
                        "is outside the row span")
        return SubalgebraEmbedding(
            ambient=ambient, rows=tuple(tuple(r) for r in rows))

    @property
    def dim(self):
        return len(self.rows)

    def subspace(self) -> Subspace:
        return Subspace.from_rows(self.ambient.dim, list(self.rows))

    @staticmethod
    def whole(ambient: LieAlgebra):
        """The improper embedding g ⊂ g."""
        return SubalgebraEmbedding(
            ambient=ambient, rows=tuple(identity_rows(ambient.dim)))
