"""Finite-dimensional Lie algebras over ℚ.

An algebra holds its data once, as ints over one denominator.  Structure
constants are stored sparsely: sparse[i][j] lists the nonzero coordinates
of [e_i, e_j] as (k, c) pairs sorted by k, with c an int over the
algebra's denominator den.  A matrix realization is (mats, d): integer
matrices over one denominator d.  The pair parser and the catalog give
them in this form, and a value is formed from them only where one is
written.  Vectors are the exact vectors (nums, den) of `linalg` and spans
are `Subspace`s of integer rows; a subalgebra and its span hold them from
construction on.  All values are immutable after construction and every
operation is pure, so everything here is safe to share between workers.

Index conventions: internal indices are 0-based; human-facing messages and
the pair-file format are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple, Optional

from .linalg import (
    coordinates,
    identity_rows,
    integer_rank,
    rank,  # noqa: F401  (perfbench/test_perfbench.py checks this binding)
    rref,
    solve,
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
    # sparse[i][j] = tuple of (k, c), sorted by k, c a nonzero int:
    # [e_i, e_j] = Σ c·e_k / den
    sparse: tuple
    den: int = 1
    # (mats, d): the basis matrices mats[k] / d, as tuples of integer rows
    matrix_realization: Optional[tuple] = None
    name: str = ""

    @staticmethod
    def from_structure(labels, table, den=1, realization=None, name=""):
        """Build from a sparse bracket table {(i, j): {k: c}} of ints over
        den, given for i < j; the antisymmetric part is filled in
        automatically, and den is brought to lowest terms.  `realization`
        is (mats, d), integer matrices over d, or None."""
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
            entries[i][j] = tuple(sorted((k, c) for k, c in entry.items() if c))
        common = gcd(den, *[c for row in entries for e in row for _, c in e])
        for i in range(n):
            for j in range(i + 1, n):
                if common > 1:
                    entries[i][j] = tuple((k, c // common)
                                          for k, c in entries[i][j])
                entries[j][i] = tuple((k, -c) for k, c in entries[i][j])
        if realization is not None:
            mats, d = realization
            realization = tuple(tuple(map(tuple, M)) for M in mats), d
        return LieAlgebra(
            dim=n,
            basis_labels=tuple(labels),
            sparse=tuple(tuple(row) for row in entries),
            den=den // common,
            matrix_realization=realization,
            name=name)

    @staticmethod
    def from_matrices(labels, mats, name=""):
        """Derive structure constants from a faithful realization by
        integer matrices.  Only the brackets that are not zero are solved
        for."""
        n = len(mats)
        if n != len(labels):
            raise ValidationError("one label per basis matrix required")
        dense, sparse = _matrix_forms(mats)
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
        coords = coordinates(dense, targets) if targets else []
        for (i, j), cv in zip(pairs, coords):
            if cv is None:
                raise ValidationError(
                    f"matrices do not span a Lie algebra: [{labels[i]}, {labels[j]}] "
                    "is outside the span of the basis")
        den = lcm(*[cden for _, cden in coords])
        table = {(i, j): {k: c * (den // cden) for k, c in enumerate(nums) if c}
                 for (i, j), (nums, cden) in zip(pairs, coords)}
        return LieAlgebra.from_structure(labels, table, den,
                                         realization=(mats, 1), name=name)

    def basis_vector(self, i):
        """e_i as an exact vector."""
        return (0,) * i + (1,) + (0,) * (self.dim - 1 - i), 1


class _IntMatrix(NamedTuple):
    """A square integer matrix by its nonzero entries: {a·size + b: entry},
    row a as by_row[a] = [(b, entry)], and the rows and the columns that
    hold one as bitmasks."""

    entries: dict
    by_row: dict
    rows: int
    cols: int


def _matrix_forms(mats):
    """(dense, sparse) of square integer matrices: dense[k] is mats[k]
    flattened row by row and sparse[k] is mats[k] as an _IntMatrix."""
    size = len(mats[0]) if mats else 0
    dense, sparse = [], []
    for M in mats:
        flat = [0] * (size * size)
        entries, by_row, rows, cols = {}, {}, 0, 0
        for a, row in enumerate(M):
            for b, v in enumerate(row):
                if v:
                    flat[a * size + b] = entries[a * size + b] = v
                    by_row.setdefault(a, []).append((b, v))
                    rows |= 1 << a
                    cols |= 1 << b
        dense.append(flat)
        sparse.append(_IntMatrix(entries, by_row, rows, cols))
    return dense, sparse


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
    """[x, y] of two exact vectors (nums, den), as (nums, den) with
    [x, y] = nums / den, not reduced: summed on L.sparse over the nonzero
    entries of both."""
    if len(x[0]) != L.dim or len(y[0]) != L.dim:
        raise ValidationError(
            f"dimension mismatch: algebra has dim {L.dim}, "
            f"got vectors of length {len(x[0])} and {len(y[0])}")
    table, den = L.sparse, L.den
    out = [0] * L.dim
    y_nonzero = [(j, b) for j, b in enumerate(y[0]) if b]
    for i, a in [(i, a) for i, a in enumerate(x[0]) if a]:
        sp_i = table[i]
        for j, b in y_nonzero:
            s = a * b
            for k, c in sp_i[j]:
                out[k] += s * c
    return tuple(out), den * x[1] * y[1]


def ad_matrix(L: LieAlgebra, y):
    """ad y, x ↦ [y, x], for an exact vector y = (nums, den), as (columns,
    d): columns[i] holds the nonzero (k, c) of [y, e_i] = Σ c·e_k / d,
    summed on L.sparse."""
    if len(y[0]) != L.dim:
        raise ValidationError(f"dimension mismatch: algebra has dim {L.dim}, "
                              f"got length {len(y[0])}")
    table, den = L.sparse, L.den
    nonzero = [(j, a) for j, a in enumerate(y[0]) if a]
    columns = []
    for i in range(L.dim):
        col = {}
        for j, a in nonzero:
            for k, c in table[j][i]:
                col[k] = col.get(k, 0) + a * c
        columns.append(tuple((k, c) for k, c in col.items() if c))
    return columns, den * y[1]


def _jacobi_defect(L, i, j, k):
    """[e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]], as ints
    over the square of L.den."""
    table = L.sparse
    out = [0] * L.dim
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        sp_a = table[a]
        for m, cm in table[b][c]:
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
    table = L.sparse
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
                       if any(_jacobi_defect(L, i, j, k))), None)
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
    mats, d = L.matrix_realization
    dense, sparse = _matrix_forms(mats)
    if integer_rank(dense) < L.dim:
        return "matrix realization is not faithful"
    size = len(mats[0]) if mats else 0
    table, c = L.sparse, L.den
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
    """A subspace of ℚ^n held by its rref (`linalg.rref`): primitive
    integer rows with positive pivot entries, unique to the subspace, so
    that equality of subspaces is equality of row matrices.
    `linalg.canonical_rows(sub.rows)` writes it over ℚ."""

    ambient: int
    rows: tuple

    @staticmethod
    def from_rows(ambient, rows):
        """The span of integer rows of length `ambient`."""
        for r in rows:
            if len(r) != ambient:
                raise ValidationError(
                    f"ambient mismatch: expected length {ambient}, got {len(r)}")
        return Subspace(ambient=ambient, rows=tuple(rref(rows)[0]))

    @property
    def dim(self):
        return len(self.rows)

    def first_outside(self, rows):
        """The index of the first of the integer `rows` outside the
        subspace, or None; rows after that one are not read."""
        return next((i for i, x in enumerate(solve(self.rows, rows))
                     if x is None), None)


def subspace_intersect(A: Subspace, B: Subspace) -> Subspace:
    """Zassenhaus: row-reduce [[A A], [B 0]]; rows with zero left half carry an
    intersection basis in the right half."""
    if A.ambient != B.ambient:
        raise ValidationError("ambient mismatch")
    n = A.ambient
    block = [r + r for r in A.rows] + [r + (0,) * n for r in B.rows]
    red, _ = rref(block)
    return Subspace.from_rows(n, [row[n:] for row in red if not any(row[:n])])


@dataclass(frozen=True)
class SubalgebraEmbedding:
    """A subalgebra h ⊂ g given by basis rows in g-coordinates, as exact
    vectors (nums, den).  Construction via create() validates linear
    independence and bracket closure."""

    ambient: LieAlgebra
    rows: tuple

    @staticmethod
    def create(ambient: LieAlgebra, rows):
        """The embedding of the span of `rows`, exact vectors, after
        checking that they are independent and that the bracket of every
        two lies in their span: each bracket is tested against the span
        with `linalg.solve`."""
        for nums, _ in rows:
            if len(nums) != ambient.dim:
                raise ValidationError(f"subalgebra row has length {len(nums)}, "
                                      f"ambient dim {ambient.dim}")
        emb = SubalgebraEmbedding(ambient=ambient, rows=tuple(rows))
        if emb.subspace.dim < len(rows):
            raise ValidationError("subalgebra basis rows are linearly dependent")
        rows = emb.rows
        pairs = [(i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))]
        outside = emb.subspace.first_outside(
            bracket(ambient, rows[i], rows[j])[0] for i, j in pairs)
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
    def subspace(self) -> Subspace:
        """The span of the rows, built once per embedding."""
        return Subspace.from_rows(self.ambient.dim,
                                  [nums for nums, _ in self.rows])

    @staticmethod
    def whole(ambient: LieAlgebra):
        """The improper embedding g ⊂ g."""
        return SubalgebraEmbedding(
            ambient=ambient,
            rows=tuple((r, 1) for r in identity_rows(ambient.dim)))
