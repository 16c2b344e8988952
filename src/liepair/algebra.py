"""Finite-dimensional Lie algebras over ℚ.

Structure constants are stored densely: structure[i][j] is the coordinate
vector of [e_i, e_j].  All values are immutable after construction and every
operation is pure, so everything here is safe to share between workers.

Index conventions: internal indices are 0-based; human-facing messages and
the pair-file format are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .linalg import (
    ZERO,
    ONE,
    express_in_rows,
    frac,
    identity_rows,
    is_zero_vec,
    mat_mul,
    mat_sub,
    rank,
    rref,
    vec,
)

# validate() checks the Jacobi identity triple-by-triple up to this dimension;
# above it a verified matrix realization implies Jacobi and is used instead.
JACOBI_AUTO_DIM = 24


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


def _commutator(A, B):
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis_labels: tuple
    structure: tuple  # structure[i][j] = tuple of Fraction, length dim
    matrix_realization: Optional[tuple] = None
    name: str = ""
    # sparse[i][j] = tuple of (k, c) with c != 0; derived, not compared
    sparse: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.sparse is None:
            sp = tuple(
                tuple(
                    tuple((k, c) for k, c in enumerate(self.structure[i][j]) if c != 0)
                    for j in range(self.dim))
                for i in range(self.dim))
            object.__setattr__(self, "sparse", sp)

    @staticmethod
    def from_structure(labels, table, realization=None, name=""):
        """Build from a sparse bracket table {(i, j): {k: c}} given for i < j;
        the antisymmetric part is filled in automatically."""
        n = len(labels)
        structure = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (i, j), entry in table.items():
            if not (0 <= i < j < n):
                raise ValidationError(
                    f"bracket table entries must have i < j; got ({i + 1}, {j + 1})")
            for k, c in entry.items():
                c = frac(c)
                structure[i][j][k] = c
                structure[j][i][k] = -c
        return LieAlgebra(
            dim=n,
            basis_labels=tuple(labels),
            structure=tuple(tuple(tuple(v) for v in row) for row in structure),
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
        targets = []
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                C = _commutator(mats[i], mats[j])
                targets.append([x for row in C for x in row])
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

    def label_of(self, i):
        return self.basis_labels[i]


def _freeze_mats(mats):
    if mats is None:
        return None
    return tuple(tuple(tuple(frac(x) for x in row) for row in M) for M in mats)


def bracket(L: LieAlgebra, x, y):
    """[x, y] in coordinates; bilinear in both arguments."""
    if len(x) != L.dim or len(y) != L.dim:
        raise ValidationError(
            f"dimension mismatch: algebra has dim {L.dim}, "
            f"got vectors of length {len(x)} and {len(y)}")
    out = [ZERO] * L.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        sp_i = L.sparse[i]
        for j, yj in enumerate(y):
            if yj == 0:
                continue
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


def killing_form_matrix(L: LieAlgebra):
    ads = [ad_matrix(L, L.basis_vector(i)) for i in range(L.dim)]
    n = L.dim
    K = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = sum((ads[i][a][b] * ads[j][b][a]
                     for a in range(n) for b in range(n)
                     if ads[i][a][b] != 0 and ads[j][b][a] != 0), ZERO)
            K[i][j] = t
            K[j][i] = t
    return K


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


def validate(L: LieAlgebra, jacobi="auto") -> ValidationReport:
    """Check all LieAlgebra invariants; returns a report, never raises.

    jacobi: True forces the triple-by-triple Jacobi check; False skips it;
    "auto" runs it up to JACOBI_AUTO_DIM, relying on a verified matrix
    realization above that (matrix commutators satisfy Jacobi identically).
    """
    problems = []
    n = L.dim
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if L.structure[i][j][k] != -L.structure[j][i][k]:
                    problems.append(
                        f"antisymmetry violated at basis pair ({i + 1}, {j + 1})")
                    break
            else:
                continue
            break
        if problems:
            break
    realization_ok = None
    if L.matrix_realization is not None:
        realization_ok = True
        mats = [[list(row) for row in M] for M in L.matrix_realization]
        for i in range(n):
            for j in range(i + 1, n):
                C = _commutator(mats[i], mats[j])
                msize = len(mats[0])
                exp = [[ZERO] * msize for _ in range(msize)]
                for k, c in L.sparse[i][j]:
                    Mk = mats[k]
                    for a in range(msize):
                        for b in range(msize):
                            if Mk[a][b] != 0:
                                exp[a][b] += c * Mk[a][b]
                if C != exp:
                    realization_ok = False
                    problems.append(
                        "matrix realization disagrees with structure constants "
                        f"at basis pair ({i + 1}, {j + 1})")
                    break
            if realization_ok is False:
                break
    do_jacobi = jacobi is True or (
        jacobi == "auto" and (n <= JACOBI_AUTO_DIM or not realization_ok))
    if do_jacobi:
        done = False
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if not is_zero_vec(_jacobi_defect(L, i, j, k)):
                        problems.append(
                            f"Jacobi identity violated at basis triple "
                            f"({i + 1}, {j + 1}, {k + 1})")
                        done = True
                        break
                if done:
                    break
            if done:
                break
    return ValidationReport(ok=not problems, problems=tuple(problems))


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

    @staticmethod
    def full(ambient):
        return Subspace.from_rows(ambient, identity_rows(ambient))

    @property
    def dim(self):
        return len(self.rows)

    def contains_vector(self, v):
        if len(v) != self.ambient:
            raise ValidationError("ambient mismatch")
        return express_in_rows(list(self.rows), [list(v)])[0] is not None

    def complement_rows(self):
        """Standard unit vectors at the non-pivot coordinates: a canonical
        complement of this subspace."""
        pivset = set(self.pivots)
        return [tuple(ONE if j == i else ZERO for j in range(self.ambient))
                for i in range(self.ambient) if i not in pivset]


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


def subspace_rank(A: Subspace, B: Subspace) -> int:
    """dim(A + B)."""
    return subspace_sum(A, B).dim


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
        targets = []
        pairs = []
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                targets.append(bracket(ambient, rows[i], rows[j]))
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

    def restricted_ad(self, y):
        """Matrix of ad(y) restricted to this subalgebra, in its row basis.
        y must normalize the subalgebra (true for y in any torus inside it)."""
        images = [bracket(self.ambient, list(y), list(r)) for r in self.rows]
        coords = express_in_rows(list(self.rows), images)
        k = self.dim
        M = [[ZERO] * k for _ in range(k)]
        for j, cv in enumerate(coords):
            if cv is None:
                raise ValidationError(
                    "element does not normalize the subalgebra")
            for i in range(k):
                M[i][j] = cv[i]
        return M

    def whole(ambient: LieAlgebra):
        """The improper embedding g ⊂ g."""
        return SubalgebraEmbedding(
            ambient=ambient, rows=tuple(identity_rows(ambient.dim)))
