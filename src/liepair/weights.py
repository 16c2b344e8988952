"""Split tori inside a subalgebra and weight-space decompositions.

The central object is the convex piecewise-linear function built from the
eigenvalues of a torus action: for a module V and Y in the torus,
rho(Y) = Σ m_i |λ_i(Y)| summed over the weights λ_i of V with multiplicity.
All weights are required to be rational; irrational spectra are a hard error,
never a silent approximation.

Weights are computed on g and on h only.  The weights on g/h are the
difference m_{g/h}(λ) = m_g(λ) − m_h(λ): the split torus acts semisimply on
g, so by complete reducibility h has a torus-stable complement and
g ≅ h ⊕ g/h as torus modules.  No complement or induced action is built.
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
    coords = express_in_rows([list(r) for r in h.rows], rows)
    if None in coords:
        raise NotInSubalgebra(f"torus row {coords.index(None) + 1} is not "
                              "inside the subalgebra")
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
    """Simultaneous eigenspace data of a torus acting on g or on h.

    weights: sorted tuple of (λ, multiplicity) with λ a tuple of Fractions of
    length rank (values on the torus basis).  spaces[i] holds basis rows of
    the λ_i weight space in g-coordinates (V = g) or in coordinates on the
    basis rows of h (V = h).
    """

    torus: SplitTorus
    weights: tuple
    spaces: tuple


def action_operators(torus: SplitTorus, space: str):
    """Exact matrices of ad(Y_i) on the requested space: "g" (adjoint on the
    ambient algebra) or "h" (adjoint on the parent subalgebra, in coordinates
    on its basis rows).  The operators act on column coordinate vectors."""
    h = torus.parent
    if space == "g":
        return [ad_matrix(h.ambient, list(Y)) for Y in torus.rows]
    if space == "h":
        return [h.restricted_ad(Y) for Y in torus.rows]
    raise ValueError(f"unknown space {space!r}; expected 'g' or 'h'")


def _combine(coeffs, rows):
    """Σ coeffs[k]·rows[k] over the nonzero coefficients."""
    out = [ZERO] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for i, x in enumerate(row):
                if x:
                    out[i] += c * x
    return out


def _joint_eigensplit(ops, dim, origin=""):
    if all(is_diagonal(M) for M in ops):
        return coordinate_split([tuple(M[i][i] for M in ops)
                                 for i in range(dim)])
    blocks = [((), identity_rows(dim))]
    for idx, M in enumerate(ops):
        columns = list(zip(*M))
        new = []
        for lam_prefix, basis in blocks:
            # M·b is the combination of the columns of M by the entries of b
            images = [_combine(b, columns) for b in basis]
            coords = express_in_rows(basis, images)
            if None in coords:
                raise ValidationError(
                    "subspace is not invariant under the operator")
            try:
                parts = eigensplit([list(r) for r in zip(*coords)])
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
                new.append((lam_prefix + (lam,),
                            [_combine(k, basis) for k in krows]))
        blocks = new
    return blocks


def weight_decomposition(torus: SplitTorus, space: str) -> WeightSystem:
    """Joint weight-space decomposition of the torus action on g or on h.

    When every operator is diagonal (a catalog torus in the root basis) the
    weight spaces are the coordinate lines grouped by their tuple of
    diagonal entries.  Otherwise the split refines by one generator at a
    time via exact kernel computations.  Either way the multiplicities sum
    to dim V and the spaces are canonical rows.  Raises IrrationalWeights if
    any (restricted) action fails rational diagonalizability.
    """
    ops = action_operators(torus, space)
    dim_v = torus.ambient.dim if space == "g" else torus.parent.dim
    if torus.rank == 0:
        weights = ((tuple(), dim_v),) if dim_v else ()
        spaces = (tuple(identity_rows(dim_v)),) if dim_v else ()
        return WeightSystem(torus=torus, weights=weights, spaces=spaces)
    blocks = _joint_eigensplit(ops, dim_v, origin=space)
    blocks.sort(key=lambda b: b[0])
    weights = tuple((lam, len(rows)) for lam, rows in blocks)
    spaces = tuple(tuple(tuple(r) for r in rref(rows)[0]) for _, rows in blocks)
    return WeightSystem(torus=torus, weights=weights, spaces=spaces)


def quotient_weights(ws_g: WeightSystem, ws_h: WeightSystem):
    """Weights of the torus on g/h, m_g(λ) − m_h(λ), from its weight systems
    on g and on h: the sorted (λ, multiplicity) pairs with positive
    multiplicity.  Raises ValidationError when a weight has a larger
    multiplicity on h than on g, which no subalgebra of g can have."""
    m_g = dict(ws_g.weights)
    for lam, m in ws_h.weights:
        if m > m_g.get(lam, 0):
            raise ValidationError(
                f"weight ({', '.join(str(x) for x in lam)}) has multiplicity "
                f"{m} on h but {m_g.get(lam, 0)} on g")
    m_h = dict(ws_h.weights)
    return tuple((lam, m - m_h.get(lam, 0)) for lam, m in ws_g.weights
                 if m > m_h.get(lam, 0))


@dataclass(frozen=True)
class RhoFunction:
    """rho(Y) = Σ m_i |λ_i(Y)|: convex, even, positively homogeneous.

    forms hold the nonzero weights only; a rho with no forms is identically
    zero (e.g. any module over a rank-0 torus).
    """

    rank: int
    forms: tuple  # tuple of (λ tuple, multiplicity)


def rho_from_weights(rank, weights) -> RhoFunction:
    """rho of the module with these (λ, multiplicity) weights over a torus
    of this rank."""
    forms = tuple((lam, m) for lam, m in weights if any(x != 0 for x in lam))
    return RhoFunction(rank=rank, forms=forms)


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
