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

Torus rows are exact vectors (nums, den) and weight spaces are rrefs of
integer rows (`linalg.rref`).  A torus has one weight denominator, the lcm
of the denominators of its ad(Y_i), and every weight λ is a tuple of ints
over it, so weights sort and compare as ints.  A Fraction is formed only
where a value is written: the result of `rho_eval` and the message of
`quotient_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .algebra import (
    LieAlgebra,
    SubalgebraEmbedding,
    ValidationError,
    ad_matrix,
    bracket,
)
from .linalg import (
    IrrationalSpectrumError,
    NotDiagonalizableError,
    coordinate_split,
    coordinates,
    eigensplit,
    identity_rows,
    integer_rank,
    integer_row,
    poly_str,
    rank,  # noqa: F401  (perfbench/test_perfbench.py checks this binding)
    rref,
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

    rows are the chosen basis vectors of a in ambient g-coordinates, as
    exact vectors (nums, den); every linear functional on a is expressed in
    this basis.  den is the weight denominator, the lcm of the denominators
    of the ad(Y_i): a weight λ is a tuple of ints, its values on the rows
    times den.  g_split is the (weights, spaces) pair of its weight system
    on g, kept from the joint split that validated it.
    """

    parent: SubalgebraEmbedding
    rows: tuple
    den: int
    g_split: tuple = field(compare=False, repr=False)

    @property
    def rank(self):
        return len(self.rows)

    @property
    def ambient(self) -> LieAlgebra:
        return self.parent.ambient


def validate_torus(rows, h: SubalgebraEmbedding) -> SplitTorus:
    """Validate a candidate torus basis inside h, given as exact vectors.

    Checks, in order: containment in h, linear independence, commutativity,
    and rational diagonalizability of ad(Y_1), …, ad(Y_r) on the ambient
    algebra.  The first three run on integer rows.  The last is one joint
    split (_torus_split): a commuting family is jointly diagonalizable
    exactly when each member is, and ad(Y_i) is diagonalizable exactly when
    it is so on each joint eigenspace of ad(Y_1), …, ad(Y_{i-1}), which it
    preserves.
    """
    g = h.ambient
    ints = [nums for nums, _ in rows]
    for i, nums in enumerate(ints):
        if len(nums) != g.dim:
            raise TorusValidationError(
                f"torus row {i + 1} has length {len(nums)}, ambient dim {g.dim}")
    # independent rows of h (SubalgebraEmbedding's invariant) as many as
    # dim g span g, which holds every row
    outside = h.subspace.first_outside(ints) if h.dim < g.dim else None
    if outside is not None:
        raise NotInSubalgebra(f"torus row {outside + 1} is not "
                              "inside the subalgebra")
    if rows and integer_rank(ints) < len(rows):
        raise TorusValidationError("torus rows are linearly dependent")
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if any(bracket(g, rows[i], rows[j])[0]):
                raise NotAbelian(
                    f"torus rows {i + 1} and {j + 1} do not commute")
    blocks, den = _torus_split(g, rows)
    return SplitTorus(parent=h, rows=tuple(rows), den=den,
                      g_split=_weights_and_spaces(blocks))


def _torus_split(g: LieAlgebra, rows):
    """(blocks, den): the joint eigenspaces of ad(Y) on g for the torus
    rows Y, as _joint_eigensplit gives them, and their weight denominator.
    When every ad(Y) is diagonal in g's basis the split is the coordinate
    one, read from the diagonals, each scaled to the denominator."""
    ops = [ad_matrix(g, r) for r in rows]
    den = lcm(*[D for _, D in ops])
    if all(c[0] == i for columns, _ in ops
           for i, col in enumerate(columns) for c in col):
        return coordinate_split([tuple(
            columns[i][0][1] * (den // D) if columns[i] else 0
            for columns, D in ops) for i in range(g.dim)]), den
    return _joint_eigensplit(ops, g.dim), den


@dataclass(frozen=True)
class WeightSystem:
    """Simultaneous eigenspace data of a torus acting on g or on h.

    weights: sorted tuple of (λ, multiplicity) with λ a tuple of ints of
    length rank, the values on the torus basis times torus.den.  spaces[i]
    holds the rref (`linalg.rref`) of the λ_i weight space in
    g-coordinates, on either space.
    """

    torus: SplitTorus
    weights: tuple
    spaces: tuple


def _joint_eigensplit(ops, dim):
    """Joint eigenspaces of commuting operators on ℚ^dim, each given as
    `algebra.ad_matrix` gives ad(Y): (columns, D), the operator A/D with
    A[k][i] = c for (k, c) in columns[i].  Returns a list of (λ, rref rows)
    with λ the tuple of eigenvalues, one per operator, each times the lcm
    of the D, so a tuple of ints.  Raises
    IrrationalWeights or NotSemisimpleElement naming the first operator
    that is not rationally diagonalizable.

    The operators must commute (validate_torus checks this first), so every
    joint eigenspace of the first i operators is invariant under the next.
    Its rows are kept in rref, so the coordinates of a vector of the block
    are its entries at the block's pivot columns, and the next operator's
    restriction is read off there.

    All of it runs on ints.  A block is rref rows B_j, whose canonical rows
    are B_j / B_j[p_j].  Over the lcm L of the B_j[p_j], the rows
    S_j = B_j·L/B_j[p_j] are L times the canonical rows, so the restriction
    is R/(D·L) with R[i][j] = (A S_j)[p_i], and an eigenvector k of R in
    block coordinates is Σ_j k_j S_j up to a factor.  R/L, A restricted to
    the block, has integer eigenvalues, so each μ of R is a multiple of L
    and the eigenvalue μ/(D·L) of A/D is (μ/L)·(den/D) over den."""
    den = lcm(*[D for _, D in ops])
    blocks = [((), identity_rows(dim), list(range(dim)))] if dim else []
    for idx, (columns, D) in enumerate(ops):
        new = []
        for lam_prefix, rows, pivots in blocks:
            L = lcm(*[row[p] for row, p in zip(rows, pivots)])
            scaled = [[x * (L // row[p]) for x in row]
                      for row, p in zip(rows, pivots)]
            support = [[(c, x) for c, x in enumerate(s) if x] for s in scaled]
            at = {p: i for i, p in enumerate(pivots)}
            restricted = [[0] * len(pivots) for _ in pivots]
            for j, s in enumerate(support):
                for c, x in s:
                    for k, a in columns[c]:
                        if k in at:
                            restricted[at[k]][j] += a * x
            parts = _split_restriction(restricted, D * L, idx)
            scale = den // D
            if len(parts) == 1:  # the block is one eigenspace: it stays
                new.append((lam_prefix + (parts[0][0] // L * scale,), rows,
                            pivots))
                continue
            for mu, krows in parts:
                vecs = []
                for kr in krows:
                    v = [0] * dim
                    for k, s in zip(kr, support):
                        if k:
                            for c, x in s:
                                v[c] += k * x
                    vecs.append(v)
                new.append((lam_prefix + (mu // L * scale,), *rref(vecs)))
        blocks = new
    return [(lam, rows) for lam, rows, _ in blocks]


def _split_restriction(R, den, idx):
    """The eigenspaces of R/den, R an integer matrix, as `linalg.eigensplit`
    gives them; its error becomes IrrationalWeights or
    NotSemisimpleElement naming torus row idx + 1."""
    try:
        return eigensplit(R, den)
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


def _weights_and_spaces(blocks):
    """The sorted weights with multiplicity and the rows of their spaces,
    from the blocks of a joint split."""
    blocks = sorted(blocks, key=lambda b: b[0])
    return (tuple((lam, len(rows)) for lam, rows in blocks),
            tuple(tuple(rows) for _, rows in blocks))


def _h_blocks(weights, spaces, h_rows):
    """(λ, rref of h ∩ g_λ) for each weight λ of g where h has a
    component: the span of h's projections onto g_λ.  When every space of the split
    is unit rows, a row's projection onto g_λ is its entries at g_λ's
    coordinates; otherwise one solve writes h's rows in the weight basis
    of g, and the projection is the part of the combination on g_λ's
    rows."""
    # an rref row with one nonzero entry is a unit row
    block_of = {row.index(1): b for b, rows in enumerate(spaces)
                for row in rows if row.count(0) == len(row) - 1}
    parts = [[] for _ in spaces]
    if len(block_of) == sum(len(rows) for rows in spaces):
        for r in h_rows:
            split = {}
            for i, x in enumerate(r):
                if x:
                    split.setdefault(block_of[i], [0] * len(r))[i] = x
            for b, v in split.items():
                parts[b].append(v)
    else:
        basis = [row for rows in spaces for row in rows]
        coords = [nums for nums, _ in coordinates(basis, h_rows)]
        start = 0
        for b, rows in enumerate(spaces):
            m = len(rows)
            parts[b] = [[sum(c * row[i] for c, row in
                             zip(cs[start:start + m], rows) if c)
                         for i in range(len(basis[0]))]
                        for cs in coords if any(cs[start:start + m])]
            start += m
    return [(lam, tuple(rref(part)[0]))
            for (lam, _), part in zip(weights, parts) if part]


def weight_decomposition(torus: SplitTorus, space: str) -> WeightSystem:
    """Joint weight-space decomposition of the torus action on g or on h.

    On g it is the split that validate_torus made: the multiplicities sum to
    dim g and the spaces are rrefs.  On h it is read from that split: the
    projection of h onto g_λ along the other weight spaces is h ∩ g_λ,
    since h is torus-stable (_h_blocks).  Each λ whose projection is
    nonzero keeps its rank and the rref of h ∩ g_λ, and the multiplicities
    sum to dim h.  A split into unit rows, as every diagonal torus and the
    rank-0 torus give, needs no solve.
    """
    weights, spaces = torus.g_split
    if space == "h":
        blocks = _h_blocks(weights, spaces,
                           [nums for nums, _ in torus.parent.rows])
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
            values = (str(Fraction(x, ws_g.torus.den)) for x in lam)
            raise ValidationError(
                f"weight ({', '.join(values)}) has multiplicity "
                f"{m} on h but {m_g.get(lam, 0)} on g")
    m_h = dict(ws_h.weights)
    return tuple((lam, m - m_h.get(lam, 0)) for lam, m in ws_g.weights
                 if m > m_h.get(lam, 0))


@dataclass(frozen=True)
class RhoFunction:
    """rho(Y) = Σ m_i |λ_i(Y)| / den: convex, even, positively homogeneous.

    forms hold the nonzero weights only, each λ a tuple of ints over the
    torus's weight denominator den; a rho with no forms is identically
    zero (e.g. any module over a rank-0 torus).
    """

    rank: int
    forms: tuple  # tuple of (λ int tuple, multiplicity)
    den: int

    def scaled(self, y):
        """den·rho(y) = Σ m |λ·y|: an int at an integer point y."""
        return sum(m * abs(sum(map(mul, lam, y))) for lam, m in self.forms)


def rho_from_weights(torus: SplitTorus, weights) -> RhoFunction:
    """rho of the module with these (λ, multiplicity) weights of torus."""
    forms = tuple((lam, m) for lam, m in weights if any(lam))
    return RhoFunction(rank=torus.rank, forms=forms, den=torus.den)


def rho_eval(f: RhoFunction, y) -> Fraction:
    """rho at the row of values y, read as the exact vector (nums, d): rho
    is positively homogeneous, so this is f.scaled(nums) over d·f.den."""
    nums, d = integer_row(y)
    if len(nums) != f.rank:
        raise ValidationError(
            f"point has length {len(nums)}, rho is defined on rank {f.rank}")
    return Fraction(f.scaled(nums), d * f.den)
