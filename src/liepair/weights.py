"""Split tori inside a subalgebra and weight-space decompositions.

The central object is the convex piecewise-linear function built from the
eigenvalues of a torus action: for a module V and Y in the torus,
rho(Y) = Σ m_i |λ_i(Y)| summed over the weights λ_i of V with multiplicity.
All weights are required to be rational; irrational spectra are a hard error,
never a silent approximation.

One joint split per torus, the one on g that validates it, gives every
weight.  The torus lies in h, so h is torus-stable and h = ⊕_λ (h ∩ g_λ):
the weights on h are read from h's projections onto the g_λ.  Those on g/h
are the difference m_{g/h}(λ) = m_g(λ) − m_h(λ): the torus acts semisimply
on g, so by complete reducibility h has a torus-stable complement and
g ≅ h ⊕ g/h as torus modules.  No action on h or on g/h, and no complement,
is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    linear functional on a is expressed in this basis.  g_split is the
    (weights, spaces) pair of its weight system on g, kept from the joint
    split that validated it.
    """

    parent: SubalgebraEmbedding
    rows: tuple
    g_split: tuple = field(compare=False, repr=False)

    @property
    def rank(self):
        return len(self.rows)

    @property
    def ambient(self) -> LieAlgebra:
        return self.parent.ambient


def validate_torus(rows, h: SubalgebraEmbedding) -> SplitTorus:
    """Validate a candidate torus basis inside h.

    Checks, in order: containment in h, linear independence, commutativity,
    and rational diagonalizability of ad(Y_1), …, ad(Y_r) on the ambient
    algebra.  The last is one joint split: a commuting family is jointly
    diagonalizable exactly when each member is, and ad(Y_i) is
    diagonalizable exactly when it is so on each joint eigenspace of
    ad(Y_1), …, ad(Y_{i-1}), which it preserves.
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
    blocks = _joint_eigensplit([ad_matrix(g, r) for r in rows], g.dim)
    return SplitTorus(parent=h, rows=tuple(tuple(r) for r in rows),
                      g_split=_weights_and_spaces(blocks))


@dataclass(frozen=True)
class WeightSystem:
    """Simultaneous eigenspace data of a torus acting on g or on h.

    weights: sorted tuple of (λ, multiplicity) with λ a tuple of Fractions of
    length rank (values on the torus basis).  spaces[i] holds the canonical
    basis rows of the λ_i weight space in g-coordinates, on either space.
    """

    torus: SplitTorus
    weights: tuple
    spaces: tuple


def _combine(coeffs, rows):
    """Σ coeffs[k]·rows[k] over the nonzero coefficients."""
    out = [ZERO] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for i, x in enumerate(row):
                if x:
                    out[i] += c * x
    return out


def _joint_eigensplit(ops, dim):
    """Joint eigenspaces of commuting operators on ℚ^dim: a list of
    (λ, canonical rows) with λ the tuple of eigenvalues, one per operator.
    Raises IrrationalWeights or NotSemisimpleElement naming the first
    operator that is not rationally diagonalizable.

    The operators must commute (validate_torus checks this first), so every
    joint eigenspace of the first i operators is invariant under the next.
    Its rows are kept in reduced echelon form, so the coordinates of a
    vector of the block are its entries at the block's pivot columns, and
    the next operator's restriction is read off there."""
    if all(is_diagonal(M) for M in ops):
        return coordinate_split([tuple(M[i][i] for M in ops)
                                 for i in range(dim)])
    blocks = [((), identity_rows(dim), range(dim))]
    for idx, M in enumerate(ops):
        new = []
        for lam_prefix, basis, pivots in blocks:
            support = [[(c, x) for c, x in enumerate(b) if x] for b in basis]
            # entry (i, j): coordinate i of M·b_j, its entry at pivot i
            restricted = [[sum((row[c] * x for c, x in s if row[c]), ZERO)
                           for s in support]
                          for row in (M[p] for p in pivots)]
            try:
                parts = eigensplit(restricted)
            except IrrationalSpectrumError as e:
                raise IrrationalWeights(
                    f"ad of torus row {idx + 1} is not rationally "
                    "diagonalizable on g: on an invariant subspace "
                    "its characteristic polynomial is "
                    f"{poly_str(e.charpoly_coeffs)}",
                    e.charpoly_coeffs) from e
            except NotDiagonalizableError as e:
                raise NotSemisimpleElement(
                    f"ad of torus row {idx + 1} is not semisimple on g: "
                    f"{e}") from e
            for lam, krows in parts:
                rows, piv = rref([_combine(k, basis) for k in krows])
                new.append((lam_prefix + (lam,), rows, piv))
        blocks = new
    return [(lam, rows) for lam, rows, _ in blocks]


def _weights_and_spaces(blocks):
    """The sorted weights with multiplicity and the rows of their spaces,
    from the blocks of a joint split."""
    blocks = sorted(blocks, key=lambda b: b[0])
    return (tuple((lam, len(rows)) for lam, rows in blocks),
            tuple(tuple(rows) for _, rows in blocks))


def weight_decomposition(torus: SplitTorus, space: str) -> WeightSystem:
    """Joint weight-space decomposition of the torus action on g or on h.

    On g it is the split that validate_torus made: the multiplicities sum to
    dim g and the spaces are canonical rows.  On h it is read from that
    split: one solve writes the rows of h in the weight basis of g, and the
    coordinates in the block of g_λ give h's projection onto g_λ, which is
    h ∩ g_λ since h is torus-stable.  Each λ whose projection is nonzero
    keeps its rank and the canonical rows of h ∩ g_λ, and the
    multiplicities sum to dim h.
    """
    weights, spaces = torus.g_split
    if space == "h":
        basis = [row for rows in spaces for row in rows]
        coords = express_in_rows(basis, [list(r) for r in torus.parent.rows])
        h_weights, h_spaces = [], []
        start = 0
        for (lam, m), rows in zip(weights, spaces):
            block = [c[start:start + m] for c in coords
                     if any(c[start:start + m])]
            start += m
            if block:
                # rows is in reduced echelon form, so the images of reduced
                # coordinate rows are the canonical rows of the span
                part, _ = rref(block)
                h_weights.append((lam, len(part)))
                h_spaces.append(tuple(tuple(_combine(c, rows))
                                      for c in part))
        weights, spaces = tuple(h_weights), tuple(h_spaces)
    elif space != "g":
        raise ValueError(f"unknown space {space!r}; expected 'g' or 'h'")
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
