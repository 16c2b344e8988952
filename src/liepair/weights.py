"""Split tori inside a subalgebra and weight-space decompositions.

The central object is the convex piecewise-linear function built from the
eigenvalues of a torus action: for a module V and Y in the torus,
rho(Y) = Σ m_i |λ_i(Y)| summed over the weights λ_i of V with multiplicity.
All weights are required to be rational; irrational spectra are a hard error,
never a silent approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    LieAlgebra,
    SubalgebraEmbedding,
    ValidationError,
    ad_matrix,
    bracket,
)
from .linalg import (
    ZERO,
    IrrationalSpectrumError,
    NotDiagonalizableError,
    coordinate_split,
    eigensplit,
    express_in_rows,
    identity_rows,
    is_diagonal,
    is_zero_vec,
    mat_mul,
    mat_vec,
    poly_str,
    rank,
    rref,
    vec,
    vec_dot,
)


class TorusValidationError(ValidationError):
    """A split-torus invariant failed."""


class NotInSubalgebra(TorusValidationError):
    pass


class NotAbelian(TorusValidationError):
    pass


class IrrationalWeights(TorusValidationError):
    """Some ad(Y) has an eigenvalue outside ℚ (including purely imaginary
    ones, i.e. compact directions)."""

    def __init__(self, message, charpoly_coeffs=None):
        super().__init__(message)
        self.charpoly_coeffs = charpoly_coeffs


class NotSemisimpleElement(TorusValidationError):
    """ad(Y) has rational spectrum but is not diagonalizable (for example a
    nilpotent element)."""


@dataclass(frozen=True)
class SplitTorus:
    """A validated abelian, rationally ad-diagonalizable subalgebra a ⊂ h.

    rows are the chosen basis vectors of a in ambient g-coordinates; every
    linear functional on a is expressed in this basis.
    """

    parent: SubalgebraEmbedding
    rows: tuple

    @property
    def rank(self):
        return len(self.rows)

    @property
    def ambient(self) -> LieAlgebra:
        return self.parent.ambient


def validate_torus(rows, h: SubalgebraEmbedding) -> SplitTorus:
    """Validate a candidate torus basis inside h.

    Checks, in order: containment in h, linear independence, commutativity,
    and rational diagonalizability of each ad(Y_i) on the ambient algebra.
    """
    g = h.ambient
    rows = [vec(r) for r in rows]
    for i, r in enumerate(rows):
        if len(r) != g.dim:
            raise TorusValidationError(
                f"torus row {i + 1} has length {len(r)}, ambient dim {g.dim}")
    hspace = h.subspace()
    for i, r in enumerate(rows):
        if not hspace.contains_vector(r):
            raise NotInSubalgebra(f"torus row {i + 1} is not inside the subalgebra")
    if rows and rank(rows) < len(rows):
        raise TorusValidationError("torus rows are linearly dependent")
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if not is_zero_vec(bracket(g, rows[i], rows[j])):
                raise NotAbelian(
                    f"torus rows {i + 1} and {j + 1} do not commute")
    for i, r in enumerate(rows):
        try:
            eigensplit(ad_matrix(g, r))
        except IrrationalSpectrumError as e:
            raise IrrationalWeights(
                f"ad of torus row {i + 1} is not rationally diagonalizable: {e}",
                e.charpoly_coeffs) from e
        except NotDiagonalizableError as e:
            raise NotSemisimpleElement(
                f"ad of torus row {i + 1} is not semisimple: {e}") from e
    return SplitTorus(parent=h, rows=tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class WeightSystem:
    """Simultaneous eigenspace data of a torus acting on a space V.

    weights: sorted tuple of (λ, multiplicity) with λ a tuple of Fractions of
    length rank (values on the torus basis).  spaces[i] holds basis rows of
    the λ_i weight space in V-coordinates; frame_rows maps V-coordinates back
    to g-coordinates (identity for V = g).
    """

    torus: SplitTorus
    space_label: str
    weights: tuple
    spaces: tuple
    frame_rows: tuple

    @property
    def dim(self):
        return sum(m for _, m in self.weights)


def action_operators(torus: SplitTorus, space: str, complement_rows=None):
    """Exact matrices of ad(Y_i) on the requested space, plus the frame.

    space is one of "g" (adjoint on the ambient algebra), "h" (adjoint on the
    parent subalgebra) or "g/h" (induced action on a chosen complement).  The
    operators act on column coordinate vectors in the frame's row basis.
    """
    h = torus.parent
    g = h.ambient
    if space == "g":
        frame = identity_rows(g.dim)
        ops = [ad_matrix(g, list(Y)) for Y in torus.rows]
        return ops, frame
    if space == "h":
        frame = [list(r) for r in h.rows]
        ops = [h.restricted_ad(Y) for Y in torus.rows]
        return ops, frame
    if space == "g/h":
        if complement_rows is None:
            complement_rows = h.subspace().complement_rows()
        comp = [vec(r) for r in complement_rows]
        full = [list(r) for r in h.rows] + comp
        if rank(full) != g.dim:
            raise ValidationError("complement rows do not complete h to a basis of g")
        k = h.dim
        ops = []
        for Y in torus.rows:
            images = [bracket(g, list(Y), c) for c in comp]
            coords = express_in_rows(full, images)
            M = [[ZERO] * len(comp) for _ in range(len(comp))]
            for j, cv in enumerate(coords):
                for i in range(len(comp)):
                    M[i][j] = cv[k + i]
            ops.append(M)
        return ops, [tuple(c) for c in comp]
    raise ValueError(f"unknown space {space!r}; expected 'g', 'h' or 'g/h'")


def _restrict(M, basis_rows):
    images = [mat_vec(M, list(b)) for b in basis_rows]
    coords = express_in_rows([list(b) for b in basis_rows], images)
    k = len(basis_rows)
    R = [[ZERO] * k for _ in range(k)]
    for j, cv in enumerate(coords):
        if cv is None:
            raise ValidationError("subspace is not invariant under the operator")
        for i in range(k):
            R[i][j] = cv[i]
    return R


def _joint_eigensplit(ops, dim, origin=""):
    if all(is_diagonal(M) for M in ops):
        return coordinate_split([tuple(M[i][i] for M in ops)
                                 for i in range(dim)])
    blocks = [((), identity_rows(dim))]
    for idx, M in enumerate(ops):
        new = []
        for lam_prefix, basis in blocks:
            R = _restrict(M, basis)
            try:
                parts = eigensplit(R)
            except IrrationalSpectrumError as e:
                raise IrrationalWeights(
                    f"torus generator {idx + 1} acts with non-rational weights"
                    f"{' on ' + origin if origin else ''}; characteristic "
                    f"polynomial {poly_str(e.charpoly_coeffs)}",
                    e.charpoly_coeffs) from e
            except NotDiagonalizableError as e:
                raise NotSemisimpleElement(
                    f"torus generator {idx + 1} does not act semisimply"
                    f"{' on ' + origin if origin else ''}: {e}") from e
            for lam, krows in parts:
                rows = mat_mul([list(r) for r in krows],
                               [list(b) for b in basis])
                new.append((lam_prefix + (lam,), rows))
        blocks = new
    return blocks


def weight_decomposition(torus: SplitTorus, space: str,
                         complement_rows=None) -> WeightSystem:
    """Joint weight-space decomposition of the torus action on the space.

    When every operator is diagonal (a catalog torus in the root basis) the
    weight spaces are the coordinate lines grouped by their tuple of
    diagonal entries.  Otherwise the split refines by one generator at a
    time via exact kernel computations.  Either way the multiplicities sum
    to dim V and the spaces are canonical rows.  Raises IrrationalWeights if
    any (restricted) action fails rational diagonalizability.
    """
    ops, frame = action_operators(torus, space, complement_rows)
    dim_v = len(frame)
    if torus.rank == 0:
        weights = ((tuple(), dim_v),) if dim_v else ()
        spaces = (tuple(identity_rows(dim_v)),) if dim_v else ()
        return WeightSystem(torus=torus, space_label=space,
                            weights=weights, spaces=spaces,
                            frame_rows=tuple(tuple(r) for r in frame))
    blocks = _joint_eigensplit(ops, dim_v, origin=space)
    blocks.sort(key=lambda b: b[0])
    weights = tuple((lam, len(rows)) for lam, rows in blocks)
    spaces = tuple(tuple(tuple(r) for r in rref(rows)[0]) for _, rows in blocks)
    return WeightSystem(torus=torus, space_label=space, weights=weights,
                        spaces=spaces, frame_rows=tuple(tuple(r) for r in frame))


def weight_vectors_in_ambient(ws: WeightSystem):
    """Pairs (λ, vector in g-coordinates) for every weight-space basis row."""
    out = []
    frame = [list(r) for r in ws.frame_rows]
    for (lam, _), rows in zip(ws.weights, ws.spaces):
        for r in rows:
            v = [ZERO] * len(frame[0])
            for c, fr in zip(r, frame):
                if c != 0:
                    for i, x in enumerate(fr):
                        v[i] += c * x
            out.append((lam, v))
    return out


@dataclass(frozen=True)
class RhoFunction:
    """rho(Y) = Σ m_i |λ_i(Y)|: convex, even, positively homogeneous.

    forms hold the nonzero weights only; a rho with no forms is identically
    zero (e.g. any module over a rank-0 torus).
    """

    rank: int
    forms: tuple  # tuple of (λ tuple, multiplicity)


def rho_from_weights(ws: WeightSystem) -> RhoFunction:
    forms = tuple((lam, m) for lam, m in ws.weights
                  if any(x != 0 for x in lam))
    return RhoFunction(rank=ws.torus.rank, forms=forms)


def rho_eval(f: RhoFunction, y) -> Fraction:
    y = vec(y)
    if len(y) != f.rank:
        raise ValidationError(
            f"point has length {len(y)}, rho is defined on rank {f.rank}")
    total = ZERO
    for lam, m in f.forms:
        total += m * abs(vec_dot(lam, y))
    return total


def _zero_weight_component(torus: SplitTorus, v):
    """Component of v (in g-coordinates, v ∈ h) in the zero-weight space of
    the torus acting on h."""
    h = torus.parent
    ws = weight_decomposition(torus, "h")
    coords = express_in_rows([list(r) for r in h.rows], [vec(v)])[0]
    if coords is None:
        return None
    all_rows = []
    zero_range = None
    offset = 0
    for (lam, _), rows in zip(ws.weights, ws.spaces):
        size = len(rows)
        if all(x == 0 for x in lam):
            zero_range = (offset, offset + size)
        all_rows.extend(list(r) for r in rows)
        offset += size
    if zero_range is None:
        return None
    in_blocks = express_in_rows(all_rows, [coords])[0]
    lo, hi = zero_range
    comp_h = [ZERO] * h.dim
    for idx in range(lo, hi):
        c = in_blocks[idx]
        if c != 0:
            for i, x in enumerate(all_rows[idx]):
                comp_h[i] += c * x
    out = [ZERO] * h.ambient.dim
    for c, hr in zip(comp_h, h.rows):
        if c != 0:
            for i, x in enumerate(hr):
                out[i] += c * x
    return out


def extend_torus_greedily(seed: SplitTorus, h: SubalgebraEmbedding,
                          candidate_pool) -> SplitTorus:
    """Grow the torus by adjoining pool vectors (or their centralizer
    components) while all invariants survive.  Maximality is relative to the
    pool, not proven in general."""
    current = seed
    pool = [vec(p) for p in candidate_pool]
    changed = True
    while changed:
        changed = False
        for v in pool:
            candidates = [v]
            if current.rank > 0:
                proj = _zero_weight_component(current, v)
                if proj is not None and not is_zero_vec(proj):
                    candidates.append(proj)
            for cand in candidates:
                if is_zero_vec(cand):
                    continue
                if rank([list(r) for r in current.rows] + [cand]) == current.rank:
                    continue
                try:
                    extended = validate_torus(
                        [list(r) for r in current.rows] + [cand], h)
                except TorusValidationError:
                    continue
                current = extended
                changed = True
                break
            if changed:
                break
    return current
