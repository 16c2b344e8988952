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
from math import lcm

from .algebra import (
    LieAlgebra,
    SubalgebraEmbedding,
    ValidationError,
    ad_matrix,
    integer_bracket,
)
from .linalg import (
    ZERO,
    IrrationalSpectrumError,
    NotDiagonalizableError,
    _canonical_rows,
    _eliminate,
    _integer_eigenspaces,
    _integer_matrix,
    coordinate_split,
    eigensplit,
    express_in_rows,
    first_outside_span,
    integer_rank,
    integer_row,
    is_diagonal,
    poly_str,
    rank,  # noqa: F401  (perfbench/test_perfbench.py checks this binding)
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
    algebra.  The first three run on integer rows.  The last is one joint
    split (_torus_split): a commuting family is jointly diagonalizable
    exactly when each member is, and ad(Y_i) is diagonalizable exactly when
    it is so on each joint eigenspace of ad(Y_1), …, ad(Y_{i-1}), which it
    preserves.
    """
    g = h.ambient
    rows = [vec(r) for r in rows]
    for i, r in enumerate(rows):
        if len(r) != g.dim:
            raise TorusValidationError(
                f"torus row {i + 1} has length {len(r)}, ambient dim {g.dim}")
    ints = [integer_row(r)[0] for r in rows]
    # independent rows of h (SubalgebraEmbedding's invariant) as many as
    # dim g span g, which holds every row
    outside = first_outside_span(h.echelon, ints) if h.dim < g.dim else None
    if outside is not None:
        raise NotInSubalgebra(f"torus row {outside + 1} is not "
                              "inside the subalgebra")
    if rows and integer_rank(ints) < len(rows):
        raise TorusValidationError("torus rows are linearly dependent")
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if any(integer_bracket(g, ints[i], ints[j])):
                raise NotAbelian(
                    f"torus rows {i + 1} and {j + 1} do not commute")
    return SplitTorus(parent=h, rows=tuple(tuple(r) for r in rows),
                      g_split=_weights_and_spaces(_torus_split(g, rows)))


def _ad_diagonal(g: LieAlgebra, y):
    """The diagonal of ad(y) when ad(y) is diagonal in g's basis, else None,
    read from the nonzero structure constants: column i of ad(y) is
    [y, e_i] = Σ_j y_j [e_j, e_i], summed here on ints."""
    table, den = g.integer_sparse
    nums, y_den = integer_row(y)
    nonzero = [(j, x) for j, x in enumerate(nums) if x]
    values = {0: ZERO}  # column entry -> its Fraction, built once
    diagonal = []
    for i in range(g.dim):
        column = {}
        for j, x in nonzero:
            for k, c in table[j][i]:
                column[k] = column.get(k, 0) + x * c
        v = column.pop(i, 0)
        if any(column.values()):
            return None
        if v not in values:
            values[v] = Fraction(v, y_den * den)
        diagonal.append(values[v])
    return diagonal


def _torus_split(g: LieAlgebra, rows):
    """The joint eigenspaces of ad(Y) on g for the torus rows Y, as
    _joint_eigensplit gives them.  When every ad(Y) is diagonal in g's
    basis the split is the coordinate one, read from the structure
    constants; otherwise the ad matrices are built and split."""
    diagonals = [_ad_diagonal(g, r) for r in rows]
    if None not in diagonals:
        return coordinate_split([tuple(d[i] for d in diagonals)
                                 for i in range(g.dim)])
    return _joint_eigensplit([ad_matrix(g, r) for r in rows], g.dim)


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
    the next operator's restriction is read off there.

    All of it runs on ints.  An operator is A/D with A an integer matrix,
    and a block is reduced integer rows B_j, whose canonical rows are
    B_j / B_j[p_j].  Over the lcm L of the B_j[p_j], the rows
    S_j = B_j·L/B_j[p_j] are L times the canonical rows, so the restriction
    is R/(D·L) with R[i][j] = (A S_j)[p_i], and an eigenvector k of R in
    block coordinates is Σ_j k_j S_j up to a factor."""
    if all(is_diagonal(M) for M in ops):
        return coordinate_split([tuple(M[i][i] for M in ops)
                                 for i in range(dim)])
    blocks = [((), [[int(i == j) for j in range(dim)] for i in range(dim)],
               list(range(dim)))]
    for idx, M in enumerate(ops):
        A, D = _integer_matrix(M)
        new = []
        for lam_prefix, rows, pivots in blocks:
            L = lcm(*[row[p] for row, p in zip(rows, pivots)])
            scaled = [[x * (L // row[p]) for x in row]
                      for row, p in zip(rows, pivots)]
            support = [[(c, x) for c, x in enumerate(s) if x] for s in scaled]
            restricted = [[sum(A[p][c] * x for c, x in s) for s in support]
                          for p in pivots]
            parts = _split_restriction(restricted, D * L, idx)
            if len(parts) == 1:  # the block is one eigenspace: it stays
                new.append((lam_prefix + (parts[0][0],), rows, pivots))
                continue
            for lam, krows in parts:
                vecs = []
                for kr in krows:
                    v = [0] * dim
                    for k, s in zip(kr, support):
                        if k:
                            for c, x in s:
                                v[c] += k * x
                    vecs.append(v)
                new.append((lam_prefix + (lam,), vecs,
                            _eliminate(vecs, dim, True)))
        blocks = new
    return [(lam, _canonical_rows(rows, piv)) for lam, rows, piv in blocks]


def _split_restriction(R, den, idx):
    """The eigenspaces of R/den, R an integer matrix, as sorted
    (eigenvalue, integer rows spanning the space).  A diagonal R, or one
    whose eigenspaces do not fill the space, goes to eigensplit over ℚ,
    which splits the first by coordinates and raises on the second; its
    error becomes IrrationalWeights or NotSemisimpleElement naming torus
    row idx + 1."""
    found = None if is_diagonal(R) else _integer_eigenspaces(R, den)
    if found is not None:
        return sorted((lam, rows) for lam, (rows, _) in found.items())
    try:
        parts = eigensplit([[Fraction(x, den) for x in row] for row in R])
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
    return [(lam, [integer_row(r)[0] for r in rows]) for lam, rows in parts]


def _weights_and_spaces(blocks):
    """The sorted weights with multiplicity and the rows of their spaces,
    from the blocks of a joint split."""
    blocks = sorted(blocks, key=lambda b: b[0])
    return (tuple((lam, len(rows)) for lam, rows in blocks),
            tuple(tuple(rows) for _, rows in blocks))


def _h_blocks(weights, spaces, h_rows):
    """(λ, canonical rows of h ∩ g_λ) for each weight λ of g where h has a
    component, from one solve of h's rows in the weight basis of g."""
    basis = [row for rows in spaces for row in rows]
    coords = express_in_rows(basis, h_rows)
    blocks = []
    start = 0
    for (lam, m), rows in zip(weights, spaces):
        block = [c[start:start + m] for c in coords if any(c[start:start + m])]
        start += m
        if block:
            # rows is in reduced echelon form, so the images of reduced
            # coordinate rows are the canonical rows of the span
            part, _ = rref(block)
            blocks.append((lam, tuple(tuple(_combine(c, rows)) for c in part)))
    return blocks


def weight_decomposition(torus: SplitTorus, space: str) -> WeightSystem:
    """Joint weight-space decomposition of the torus action on g or on h.

    On g it is the split that validate_torus made: the multiplicities sum to
    dim g and the spaces are canonical rows.  On h it is read from that
    split: one solve writes the rows of h in the weight basis of g, and the
    coordinates in the block of g_λ give h's projection onto g_λ, which is
    h ∩ g_λ since h is torus-stable.  Each λ whose projection is nonzero
    keeps its rank and the canonical rows of h ∩ g_λ, and the
    multiplicities sum to dim h.  A split of one block, as of a rank-0
    torus, is g itself, and then h's canonical rows are the answer with no
    solve.
    """
    weights, spaces = torus.g_split
    if space == "h":
        h_rows = [list(r) for r in torus.parent.rows]
        if len(spaces) == 1:
            # the one weight space is g itself, so h ∩ g_λ = h
            part, _ = rref(h_rows)
            blocks = [(weights[0][0], tuple(part))] if part else []
        else:
            blocks = _h_blocks(weights, spaces, h_rows)
        weights = tuple((lam, len(rows)) for lam, rows in blocks)
        spaces = tuple(rows for _, rows in blocks)
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
