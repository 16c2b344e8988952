"""Constructors for classical algebras and the bundled example pairs.

Bases are Chevalley-style with integer structure constants so that every
torus weight in the pipeline is rational.  Each base algebra comes with a
designated maximal split torus and, where known, the compact completion of a
maximally split Cartan subalgebra; the latter is what licenses mechanical
complexification (the split torus of the realified complexification is
a ⊕ i·t for a maximally split Cartan a ⊕ t).

Everything here is built on ints: the base algebras from integer matrices,
the complexification and the direct sum from the integer tables of their
parts, and every row as an exact vector (nums, den) of `linalg`, so a pair
reaches `Pair.create` with no value to convert.

Supported parameter ranges are small by design: these are desk-scale exact
computations, not a classification engine.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Optional

from .algebra import (
    LieAlgebra,
    SubalgebraEmbedding,
    ValidationError,
)
from .checks import Expectation, Pair
from .linalg import (
    canonical_rows,
    coordinates,
    kernel,
)
from .weights import (
    validate_torus,
    weight_decomposition,
)

MAX_ALGEBRA_DIM = 64
# pairs carry complexification data only up to this realified dim; the
# complexification is built on first use
COMPLEXIFY_DIM_CAP = 40


class UnsupportedParams(ValidationError):
    """Family parameters outside the documented range."""


@dataclass(frozen=True)
class AlgebraData:
    """A base algebra plus its designated torus data.

    split_rows span a maximal split torus; compact_rows complete it to a
    maximally split Cartan, and are None when that data is not known
    (mechanical complexification needs it).  Both are exact vectors.
    complex_structure is the J tensor for realified complex algebras, as
    (rows, d): integer rows over d.
    """

    algebra: LieAlgebra
    split_rows: tuple
    compact_rows: Optional[tuple]
    complex_structure: Optional[tuple] = None
    spec: str = ""


def _zmat(n):
    return [[0] * n for _ in range(n)]


# ---------------------------------------------------------------------------
# base algebras
# ---------------------------------------------------------------------------

def sl_n_R(n: int) -> AlgebraData:
    """sl(n, ℝ): H_i = E_ii − E_{i+1,i+1}, then E_ij for i ≠ j in (i, j)
    order.  Split, so the diagonal torus is a full Cartan."""
    if not 2 <= n <= 6:
        raise UnsupportedParams(f"sl_n_R supports 2 <= n <= 6, got {n}")
    mats, labels = [], []
    for i in range(n - 1):
        M = _zmat(n)
        M[i][i] = 1
        M[i + 1][i + 1] = -1
        mats.append(M)
        labels.append(f"H{i + 1}")
    for i in range(n):
        for j in range(n):
            if i != j:
                M = _zmat(n)
                M[i][j] = 1
                mats.append(M)
                labels.append(f"E{i + 1}{j + 1}")
    alg = LieAlgebra.from_matrices(labels, mats, name=f"sl{n}")
    split = tuple(alg.basis_vector(i) for i in range(n - 1))
    return AlgebraData(algebra=alg, split_rows=split, compact_rows=(),
                       spec=f"sl{n}")


def so_p_q(p: int, q: int) -> AlgebraData:
    """so(p, q) preserving diag(I_p, −I_q): rotations within each block,
    boosts across.  Split torus: the min(p, q) diagonal boosts; compact
    Cartan completion: disjoint rotations in the leftover block."""
    n = p + q
    if p < 0 or q < 0 or not 2 <= n <= 8:
        raise UnsupportedParams(f"so_p_q supports 2 <= p+q <= 8, got ({p},{q})")
    mats, labels = [], []
    index = {}

    def rot(i, j):
        M = _zmat(n)
        M[i][j] = 1
        M[j][i] = -1
        return M

    def boost(i, j):
        M = _zmat(n)
        M[i][j] = 1
        M[j][i] = 1
        return M

    for i in range(p):
        for j in range(i + 1, p):
            index[("R", i, j)] = len(mats)
            mats.append(rot(i, j))
            labels.append(f"R{i + 1}{j + 1}")
    for i in range(p, n):
        for j in range(i + 1, n):
            index[("R", i, j)] = len(mats)
            mats.append(rot(i, j))
            labels.append(f"R{i + 1}{j + 1}")
    for i in range(p):
        for j in range(p, n):
            index[("B", i, j)] = len(mats)
            mats.append(boost(i, j))
            labels.append(f"B{i + 1}{j + 1}")
    alg = LieAlgebra.from_matrices(labels, mats, name=f"so({p},{q})")
    m = min(p, q)
    split = tuple(alg.basis_vector(index[("B", k, p + k)]) for k in range(m))
    leftover = list(range(2 * p, n)) if p <= q else list(range(q, p))
    compact = tuple(
        alg.basis_vector(index[("R", leftover[2 * t], leftover[2 * t + 1])])
        for t in range(len(leftover) // 2))
    return AlgebraData(algebra=alg, split_rows=split, compact_rows=compact,
                       spec=f"so_{p}_{q}")


def _realify(re, im):
    """Real 2n x 2n matrix of A + iB acting on ℝ^{2n} ≅ ℂ^n."""
    n = len(re)
    M = _zmat(2 * n)
    for i in range(n):
        for j in range(n):
            M[i][j] = re[i][j]
            M[i][n + j] = -im[i][j]
            M[n + i][j] = im[i][j]
            M[n + i][n + j] = re[i][j]
    return M


def su_p_q(p: int, q: int) -> AlgebraData:
    """su(p, q), realified to rational 2n x 2n matrices.  The split torus has
    rank min(p, q); no compact Cartan completion is provided, so these pairs
    carry no mechanical complexification."""
    n = p + q
    if p < 0 or q < 0 or not 2 <= n <= 8:
        raise UnsupportedParams(f"su_p_q supports 2 <= p+q <= 8, got ({p},{q})")
    mats, labels = [], []
    index = {}

    def add(key, label, re, im):
        index[key] = len(mats)
        mats.append(_realify(re, im))
        labels.append(label)

    blocks = [list(range(p)), list(range(p, n))]
    for blk in blocks:
        for a in range(len(blk)):
            for b in range(a + 1, len(blk)):
                i, j = blk[a], blk[b]
                re = _zmat(n)
                re[i][j] = 1
                re[j][i] = -1
                add(("A", i, j), f"A{i + 1}{j + 1}", re, _zmat(n))
                im = _zmat(n)
                im[i][j] = 1
                im[j][i] = 1
                add(("B", i, j), f"B{i + 1}{j + 1}", _zmat(n), im)
    for i in range(p):
        for j in range(p, n):
            re = _zmat(n)
            re[i][j] = 1
            re[j][i] = 1
            add(("S", i, j), f"S{i + 1}{j + 1}", re, _zmat(n))
            im = _zmat(n)
            im[i][j] = 1
            im[j][i] = -1
            add(("T", i, j), f"T{i + 1}{j + 1}", _zmat(n), im)
    for k in range(n - 1):
        im = _zmat(n)
        im[k][k] = 1
        im[k + 1][k + 1] = -1
        add(("D", k), f"D{k + 1}", _zmat(n), im)
    alg = LieAlgebra.from_matrices(labels, mats, name=f"su({p},{q})")
    m = min(p, q)
    split = tuple(alg.basis_vector(index[("S", k, p + k)]) for k in range(m))
    return AlgebraData(algebra=alg, split_rows=split, compact_rows=None,
                       spec=f"su_{p}_{q}")


def sp_2n_R(two_n: int) -> AlgebraData:
    """sp(2n, ℝ) for the standard symplectic form; split, diagonal torus of
    rank n."""
    if two_n % 2 or not 2 <= two_n <= 8:
        raise UnsupportedParams(
            f"sp_n_R supports even 2 <= 2n <= 8, got {two_n}")
    n = two_n // 2
    N = two_n
    mats, labels = [], []
    index = {}

    def add(key, label, M):
        index[key] = len(mats)
        mats.append(M)
        labels.append(label)

    for i in range(n):
        for j in range(n):
            M = _zmat(N)
            M[i][j] = 1
            M[n + j][n + i] = -1
            add(("A", i, j), f"A{i + 1}{j + 1}", M)
    for i in range(n):
        for j in range(i, n):
            M = _zmat(N)
            M[i][n + j] = 1
            M[j][n + i] = 1
            add(("B", i, j), f"B{i + 1}{j + 1}", M)
            M = _zmat(N)
            M[n + i][j] = 1
            M[n + j][i] = 1
            add(("C", i, j), f"C{i + 1}{j + 1}", M)
    alg = LieAlgebra.from_matrices(labels, mats, name=f"sp({N})")
    split = tuple(alg.basis_vector(index[("A", k, k)]) for k in range(n))
    return AlgebraData(algebra=alg, split_rows=split, compact_rows=(),
                       spec=f"sp_{N}")


def complexify(data: AlgebraData) -> AlgebraData:
    """Realified g ⊗ ℂ with basis (e_k, i·e_k) and the complex structure J.

    The maximally split Cartan a ⊕ t of g yields the one of the realification:
    split part a ⊕ i·t, compact part i·a ⊕ t.  Without t there is no split
    torus to build, so data whose compact_rows are None is refused.
    """
    g = data.algebra
    d = g.dim
    if data.compact_rows is None:
        raise UnsupportedParams(
            f"{g.name} has no compact Cartan data, so it has no "
            "mechanical complexification")
    if 2 * d > MAX_ALGEBRA_DIM:
        raise UnsupportedParams(
            f"complexification would have dim {2 * d} > {MAX_ALGEBRA_DIM}")
    labels = list(g.basis_labels) + [f"i{l}" for l in g.basis_labels]
    table = {}
    for i in range(d):
        for j in range(d):
            entries = dict(g.sparse[i][j])
            if not entries:
                continue
            if i < j:
                table[(i, j)] = entries
                table[(d + i, d + j)] = {k: -c for k, c in entries.items()}
            # [e_i, i e_j] = i [e_i, e_j], needed for both index orders
            table[(i, d + j)] = {d + k: c for k, c in entries.items()}
    realization = None
    if g.matrix_realization is not None:
        mats, mden = g.matrix_realization
        zero = _zmat(len(mats[0]))
        realization = ([_realify(M, zero) for M in mats]
                       + [_realify(zero, M) for M in mats], mden)
    alg = LieAlgebra.from_structure(labels, table, g.den,
                                    realization=realization,
                                    name=f"{g.name} (x)C")
    J = _zmat(2 * d)
    for k in range(d):
        J[d + k][k] = 1
        J[k][d + k] = -1
    # a vector x of g is x + i·0, and i·x is 0 + i·x
    pad = (0,) * d
    a, t = data.split_rows, data.compact_rows
    split = tuple([(x + pad, e) for x, e in a] + [(pad + x, e) for x, e in t])
    compact = tuple([(pad + x, e) for x, e in a] + [(x + pad, e) for x, e in t])
    return AlgebraData(algebra=alg, split_rows=split, compact_rows=compact,
                       complex_structure=(tuple(map(tuple, J)), 1),
                       spec=f"{data.spec}C")


def _put_block(out, M, offset, scale):
    """Write scale·M into the square matrix `out` with its top left entry
    at (offset, offset); returns `out`."""
    for a, row in enumerate(M):
        out[offset + a][offset:offset + len(row)] = [x * scale for x in row]
    return out


def direct_sum(datas) -> AlgebraData:
    """Block direct sum; tori concatenate, and the compact Cartan data and
    the complex structure survive only if every summand carries them.
    Tables and matrices are brought to the lcm of their denominators."""
    dims = [d.algebra.dim for d in datas]
    total = sum(dims)
    if total > MAX_ALGEBRA_DIM:
        raise UnsupportedParams(f"direct sum has dim {total} > {MAX_ALGEBRA_DIM}")
    offsets = [sum(dims[:k]) for k in range(len(dims))]
    labels = []
    for k, data in enumerate(datas):
        labels.extend(f"{l}.{k + 1}" for l in data.algebra.basis_labels)
    den = lcm(*[d.algebra.den for d in datas])
    table = {}
    for k, data in enumerate(datas):
        g = data.algebra
        o = offsets[k]
        scale = den // g.den
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                entries = {o + kk: c * scale for kk, c in g.sparse[i][j]}
                if entries:
                    table[(o + i, o + j)] = entries
    realization = None
    reps = [d.algebra.matrix_realization for d in datas]
    if None not in reps:
        msz = sum(len(mats[0]) for mats, _ in reps)
        mden = lcm(*[md for _, md in reps])
        mats_out = []
        mo = 0
        for mats, md in reps:
            mats_out.extend(_put_block(_zmat(msz), M, mo, mden // md)
                            for M in mats)
            mo += len(mats[0])
        realization = (mats_out, mden)
    name = " + ".join(d.algebra.name for d in datas)
    alg = LieAlgebra.from_structure(labels, table, den,
                                    realization=realization, name=name)

    def embed(k, row):
        nums, rden = row
        return ((0,) * offsets[k] + nums
                + (0,) * (total - offsets[k] - len(nums)), rden)

    split = tuple(embed(k, r) for k, d in enumerate(datas) for r in d.split_rows)
    compact = None
    if all(d.compact_rows is not None for d in datas):
        compact = tuple(embed(k, r) for k, d in enumerate(datas)
                        for r in d.compact_rows)
    J = None
    if all(d.complex_structure is not None for d in datas):
        jden = lcm(*[d.complex_structure[1] for d in datas])
        J = _zmat(total)
        for o, data in zip(offsets, datas):
            rows, d = data.complex_structure
            _put_block(J, rows, o, jden // d)
        J = (tuple(map(tuple, J)), jden)
    return AlgebraData(algebra=alg, split_rows=split, compact_rows=compact,
                       complex_structure=J,
                       spec="+".join(d.spec for d in datas))


def base_algebra(spec: str) -> AlgebraData:
    """Parse a base algebra spec like sl2, sl3C, so_2_3, so3, su_1_1, sp_4."""
    spec = spec.strip()
    want_complex = spec.endswith("C")
    core = spec[:-1] if want_complex else spec
    data = None
    if core.startswith("sl") and core[2:].isdigit():
        data = sl_n_R(int(core[2:]))
    elif core.startswith("so_"):
        parts = core.split("_")
        if len(parts) == 3 and parts[1].isdigit() and parts[2].isdigit():
            data = so_p_q(int(parts[1]), int(parts[2]))
    elif core.startswith("so") and core[2:].isdigit():
        data = so_p_q(0, int(core[2:]))
    elif core.startswith("su_"):
        parts = core.split("_")
        if len(parts) == 3 and parts[1].isdigit() and parts[2].isdigit():
            data = su_p_q(int(parts[1]), int(parts[2]))
    elif core.startswith("sp_"):
        tail = core[3:]
        if tail.isdigit():
            data = sp_2n_R(int(tail))
    if data is None:
        raise UnsupportedParams(f"unknown base algebra spec {spec!r}")
    return complexify(data) if want_complex else data


# ---------------------------------------------------------------------------
# pair construction
# ---------------------------------------------------------------------------

def _generic_chamber(weights, r):
    """Deterministic generic functional: (1, q, q², …) for the first prime
    power q that kills no nonzero weight."""
    nonzero = [lam for lam, _ in weights if any(lam)]
    if r == 0:
        return tuple()
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        cand = tuple(q ** k for k in range(r))
        if all(sum(map(mul, lam, cand)) for lam in nonzero):
            return cand
    raise ValidationError("no generic chamber functional found")


def _make_pair(gdata: AlgebraData, h_rows, torus_h_rows, name, provenance,
               notes=(), torus_g=None):
    """The pair through Pair.create, with torus_g the split rows of gdata,
    or `torus_g` when the caller has already validated them on g."""
    compact = None
    if (gdata.compact_rows is not None
            and 2 * gdata.algebra.dim <= COMPLEXIFY_DIM_CAP):
        compact = gdata.compact_rows
    return Pair.create(gdata.algebra, h_rows, torus_h_rows,
                       gdata.split_rows if torus_g is None else torus_g,
                       complex_structure=gdata.complex_structure,
                       compact_cartan_rows=compact, name=name,
                       provenance=provenance, notes=tuple(notes))


def complexify_pair(pair: Pair) -> Pair:
    """The realified complexification of a pair with compact_cartan_rows:
    g ⊗ ℂ with h ⊗ ℂ, torus_h as its real split part and the split torus
    torus_g ⊕ i·(compact Cartan rows).  The pair's exact rows are padded
    with zeros."""
    # nothing reads the realization of a complexified pair, so none is built
    g = replace(pair.g, matrix_realization=None)
    cdata = complexify(AlgebraData(algebra=g, split_rows=pair.torus_g.rows,
                                   compact_rows=pair.compact_cartan_rows))
    zero = (0,) * pair.g.dim
    hc = [(r + zero, den) for r, den in pair.h.rows] + \
        [(zero + r, den) for r, den in pair.h.rows]
    return Pair.create(
        cdata.algebra, hc, [(r + zero, den) for r, den in pair.torus_h.rows],
        cdata.split_rows, complex_structure=cdata.complex_structure,
        name=f"{pair.name} (x)C", provenance="mechanical complexification",
        torus_h_asserted_maximal=False,
        notes=("torus_h is the real split part only and may be "
               "non-maximal in h_C",))


def pair_trivial_h(spec: str) -> Pair:
    """(g, h = 0): the group manifold with the left action.  L²(G) is
    tempered by definition; sphericity questions on it carry a warning."""
    gdata = base_algebra(spec)
    return _make_pair(gdata, [], [], name=f"{gdata.algebra.name} / {{e}}",
                      provenance=f"catalog:{gdata.spec}:trivial-h")


def pair_diagonal(spec: str, copies=2) -> Pair:
    base = base_algebra(spec)
    gdata = direct_sum([base] * copies)
    d = base.algebra.dim

    def diag(row):
        return row[0] * copies, row[1]

    h_rows = [diag(base.algebra.basis_vector(i)) for i in range(d)]
    torus_h = [diag(r) for r in base.split_rows]
    kind = "triple_diagonal" if copies == 3 else "diagonal_pair"
    name = f"({' x '.join([base.algebra.name] * copies)}) / diag"
    return _make_pair(gdata, h_rows, torus_h, name=name,
                      provenance=f"catalog:{kind}:{spec}")


def pair_direct_sum(specs) -> Pair:
    """(g_1 ⊕ … ⊕ g_k, h = g_1): the first summand as the subgroup."""
    datas = [base_algebra(s) for s in specs]
    gdata = direct_sum(datas)
    d0 = datas[0].algebra.dim
    h_rows = [gdata.algebra.basis_vector(i) for i in range(d0)]
    # the first summand's split rows lead those of the sum
    torus_h = gdata.split_rows[:len(datas[0].split_rows)]
    name = f"({gdata.algebra.name}) / {datas[0].algebra.name}"
    return _make_pair(gdata, h_rows, torus_h, name=name,
                      provenance=f"catalog:direct_sum:{':'.join(specs)}")


def pair_symmetric(spec: str, involution="neg_transpose") -> Pair:
    """Fixed points of an involutive automorphism supplied through the matrix
    realization; neg_transpose yields the maximal compact of sl(n)/so(p,q)."""
    gdata = base_algebra(spec)
    alg = gdata.algebra
    if involution != "neg_transpose":
        raise UnsupportedParams(f"unknown involution {involution!r}")
    if alg.matrix_realization is None:
        raise UnsupportedParams("involutions need a matrix realization")
    # the matrices and their images share the realization's denominator,
    # so coordinates on their integer parts are coordinates on them
    mats, _ = alg.matrix_realization
    m = len(mats[0])
    n = alg.dim
    coords = coordinates(
        [[x for row in M for x in row] for M in mats],
        [[-M[j][i] for i in range(m) for j in range(m)] for M in mats])
    if None in coords:
        raise UnsupportedParams(
            "negative transpose does not preserve this algebra")
    # column j of Theta is coords[j] = (nums, den); over the lcm L of the
    # dens, row i of Theta - I is an integer row
    L = lcm(*[den for _, den in coords])
    shifted = [[nums[i] * (L // den) - (L if i == j else 0)
                for j, (nums, den) in enumerate(coords)] for i in range(n)]
    # Theta is an automorphism: X -> -X^T is one of gl(m), the realization
    # is a faithful homomorphism, and its span holds each -M_k^T (see above)
    h_rows = canonical_rows(kernel(shifted, n))
    name = f"{alg.name} / fix({involution})"
    # fixed points of neg_transpose are compact: split torus rank 0, and
    # never a complex subalgebra, so the pair drops J
    return _make_pair(replace(gdata, complex_structure=None), h_rows, [],
                      name=name,
                      provenance=f"catalog:symmetric_pair_fixed_points:{spec}:{involution}")


def pair_whittaker(spec: str) -> Pair:
    """h = nilradical of a minimal parabolic (the strictly positive restricted
    weight spaces); its maximal split torus is zero since every element is
    ad-nilpotent."""
    gdata = base_algebra(spec)
    alg = gdata.algebra
    torus_g = validate_torus(gdata.split_rows, SubalgebraEmbedding.whole(alg))
    if torus_g.rank == 0:
        raise UnsupportedParams(
            "whittaker_nilradical needs a noncompact base (positive rank)")
    ws = weight_decomposition(torus_g, "g")
    xi = _generic_chamber(ws.weights, torus_g.rank)
    h_rows = []
    for (lam, _), vecs_ in zip(ws.weights, ws.spaces):
        if sum(map(mul, lam, xi)) > 0:
            h_rows.extend(canonical_rows(vecs_))
    name = f"{alg.name} / N"
    return _make_pair(
        gdata, h_rows, [], name=name,
        provenance=f"catalog:whittaker_nilradical:{spec}",
        notes=("h is ad-nilpotent, so its maximal split torus is zero and "
               "the tempered criterion holds trivially",),
        torus_g=torus_g)


def pair_torus(spec: str) -> Pair:
    """h = a maximally split Cartan subalgebra (for a split base this is the
    split torus itself; for a realified complex base, the complex Cartan)."""
    gdata = base_algebra(spec)
    if gdata.compact_rows is None:
        raise UnsupportedParams(
            f"torus_pair needs the compact Cartan data of {spec}, "
            "which is not known")
    h_rows = list(gdata.split_rows) + list(gdata.compact_rows)
    if not h_rows:
        raise UnsupportedParams("torus_pair needs a nonzero Cartan")
    return _make_pair(gdata, h_rows, list(gdata.split_rows),
                      name=f"{gdata.algebra.name} / Cartan",
                      provenance=f"catalog:torus_pair:{spec}")


def pair_full(spec: str) -> Pair:
    """(g, h = g): X is a point; tempered iff rho_g vanishes."""
    gdata = base_algebra(spec)
    alg = gdata.algebra
    h_rows = [alg.basis_vector(i) for i in range(alg.dim)]
    return _make_pair(gdata, h_rows, list(gdata.split_rows),
                      name=f"{alg.name} / itself",
                      provenance=f"catalog:full:{spec}")


def pair_so23_so22() -> Pair:
    """(so(2,3), so(2,2) on the first four coordinates): a rank-2 symmetric
    pair.  The quotient is the standard module with weights ±e1, ±e2 while
    the adjoint of h has roots ±e1±e2, so dominance fails at (±1, 0)."""
    gdata = so_p_q(2, 3)
    alg = gdata.algebra
    idx = {l: i for i, l in enumerate(alg.basis_labels)}
    keep = [l for l in alg.basis_labels if all(int(c) <= 4 for c in l[1:])]
    rows = [alg.basis_vector(idx[l]) for l in keep]
    torus_h = [alg.basis_vector(idx["B13"]), alg.basis_vector(idx["B24"])]
    return _make_pair(gdata, rows, torus_h, name="so(2,3) / so(2,2)",
                      provenance="catalog:custom:so23_so22")


def pair_sl3_sl2_topleft() -> Pair:
    """(sl3, top-left sl2): the quotient decomposes as two standard modules
    plus a trivial line, giving rho_h = rho_{g/h} = 4|t|."""
    gdata = sl_n_R(3)
    alg = gdata.algebra
    idx = {l: i for i, l in enumerate(alg.basis_labels)}
    rows = [alg.basis_vector(idx["H1"]), alg.basis_vector(idx["E12"]),
            alg.basis_vector(idx["E21"])]
    torus_h = [alg.basis_vector(idx["H1"])]
    return _make_pair(gdata, rows, torus_h, name="sl3 / sl2 (top-left)",
                      provenance="catalog:custom:sl3_sl2_topleft")


FAMILIES = {
    "sl_n_R": ("n (2..6)", lambda n: pair_trivial_h(f"sl{n}")),
    "so_p_q": ("p q (p+q <= 8)", lambda p, q: pair_trivial_h(f"so_{p}_{q}")),
    "su_p_q": ("p q (p+q <= 8)", lambda p, q: pair_trivial_h(f"su_{p}_{q}")),
    "sp_n_R": ("2n (2..8, even)", lambda n: pair_trivial_h(f"sp_{n}")),
    "complex_simple_realified": ("base spec, e.g. sl2",
                                 lambda spec: pair_trivial_h(f"{spec}C")),
    "direct_sum": ("base specs; h = first summand",
                   lambda first, *rest: pair_direct_sum([first, *rest])),
    "diagonal_pair": ("base spec; (g+g, diag g)",
                      lambda spec: pair_diagonal(spec, 2)),
    "triple_diagonal": ("base spec; (g+g+g, diag g)",
                        lambda spec: pair_diagonal(spec, 3)),
    "symmetric_pair_fixed_points": ("base spec, involution (neg_transpose)",
                                    pair_symmetric),
    "whittaker_nilradical": ("base spec", pair_whittaker),
    "torus_pair": ("base spec", pair_torus),
}


def construct(family: str, params) -> Pair:
    """Build a catalog pair; family ids and parameter schemas are listed by
    the catalog CLI subcommand."""
    if family not in FAMILIES:
        raise UnsupportedParams(f"unknown family {family!r}")
    _, builder = FAMILIES[family]
    try:
        inspect.signature(builder).bind(*params)
    except TypeError as e:
        raise UnsupportedParams(
            f"bad parameters {params!r} for family {family}: {e}") from None
    return builder(*params)


def construct_from_spec(spec: str) -> Pair:
    """Parse 'family:param1:param2' as used by the command line."""
    parts = [p for p in spec.split(":") if p]
    if not parts:
        raise UnsupportedParams("empty family spec")
    return construct(parts[0], parts[1:])


# ---------------------------------------------------------------------------
# bundled fixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixtureDef:
    name: str
    description: str
    build: Callable[[], Pair]


def _exp(question, outcome, margin=None, dimension=None, source=""):
    m = Fraction(margin) if margin is not None else None
    return Expectation(question=question, outcome=outcome, margin=m,
                       dimension=dimension, source=source)


def _with_expect(pair: Pair, expectations) -> Pair:
    return replace(pair, expectations=tuple(expectations))


FIXTURES = (
    FixtureDef(
        "symmetric_sl2_so2",
        "symmetric pair (sl2, so(2)); compact h",
        lambda: _with_expect(pair_symmetric("sl2"), (
            _exp("real_spherical", "yes_certified",
                 source="symmetric spaces are real spherical"),
            _exp("tempered", "yes_certified",
                 source="compact h acts properly"),
            _exp("complex_spherical", "yes_certified",
                 source="complexified symmetric spaces are spherical"),
        ))),
    FixtureDef(
        "symmetric_sl3_so3",
        "symmetric pair (sl3, so(3))",
        lambda: _with_expect(pair_symmetric("sl3"), (
            _exp("real_spherical", "yes_certified",
                 source="symmetric spaces are real spherical"),
            _exp("tempered", "yes_certified",
                 source="compact h acts properly"),
            _exp("complex_spherical", "yes_certified",
                 source="complexified symmetric spaces are spherical"),
        ))),
    FixtureDef(
        "group_sl2",
        "group case (sl2+sl2, diag): L2(G) itself",
        lambda: _with_expect(pair_diagonal("sl2", 2), (
            _exp("tempered", "yes_certified", margin=0,
                 source="L2(G) is tempered by definition; adjoint "
                        "isomorphism gives rho_h = rho_{g/h}"),
            _exp("real_spherical", "yes_certified",
                 source="(G x G)/diag G is a symmetric space"),
            _exp("complex_spherical", "yes_certified",
                 source="open Bruhat cell"),
            _exp("generic_stabilizer_abelian", "yes_certified", dimension=1,
                 source="centralizer of a regular element is a Cartan"),
        ))),
    FixtureDef(
        "triple_sl2",
        "triple space over sl2: real spherical (SO(2,1) factors)",
        lambda: _with_expect(pair_diagonal("sl2", 3), (
            _exp("real_spherical", "yes_certified",
                 source="triple spaces are real spherical exactly for local "
                        "products of compact factors and SO(n,1)"),
        ))),
    FixtureDef(
        "triple_sl3",
        "triple space over sl3: not real spherical",
        lambda: _with_expect(pair_diagonal("sl3", 3), (
            _exp("real_spherical", "probable_no",
                 source="sl3 is not locally compact x SO(n,1); a dimension "
                        "count already blocks an open orbit"),
        ))),
    FixtureDef(
        "whittaker_sl3",
        "Whittaker pair (sl3, maximal unipotent)",
        lambda: _with_expect(pair_whittaker("sl3"), (
            _exp("real_spherical", "yes_certified",
                 source="Bruhat decomposition: G/N is real spherical"),
            _exp("complex_spherical", "yes_certified",
                 source="sl(3,R) is quasi-split, so G_C/N_C is spherical"),
            _exp("tempered", "yes_certified",
                 source="nilpotent h has zero split torus"),
        ))),
    FixtureDef(
        "sl2_split_torus",
        "(sl2, Cartan): hyperboloid-like quotient",
        lambda: _with_expect(pair_torus("sl2"), (
            _exp("tempered", "yes_certified",
                 source="abelian h has rho_h = 0"),
            _exp("real_spherical", "yes_certified",
                 source="finitely many Borel orbits on the flag variety"),
            _exp("complex_spherical", "yes_certified",
                 source="open Bruhat cell in SL(2,C)/T_C"),
        ))),
    FixtureDef(
        "sl2c_cartan",
        "complex pair SL(2,C)/T_C, realified",
        lambda: _with_expect(pair_torus("sl2C"), (
            _exp("tempered", "yes_certified",
                 source="abelian h has rho_h = 0"),
            _exp("generic_stabilizer_abelian", "yes_certified", dimension=0,
                 source="two generic Cartans of sl(2,C) meet at 0"),
        ))),
    FixtureDef(
        "group_sl2c",
        "complex group case (sl2C + sl2C, diag), realified",
        lambda: _with_expect(pair_diagonal("sl2C", 2), (
            _exp("tempered", "yes_certified", margin=0,
                 source="L2(G_C) is tempered; margin 0 via the adjoint "
                        "isomorphism"),
            _exp("generic_stabilizer_abelian", "yes_certified", dimension=2,
                 source="centralizer of a regular element is the complex "
                        "Cartan (real dim 2)"),
        ))),
    FixtureDef(
        "sl2c_full",
        "complex pair (sl2C, sl2C): X is a point, not tempered",
        lambda: _with_expect(pair_full("sl2C"), (
            _exp("tempered", "no_certified",
                 source="rho_h = 8|t| > 0 = rho_{g/h}; the trivial "
                        "representation of a nonamenable group is not "
                        "tempered"),
            _exp("generic_stabilizer_abelian", "probable_no", dimension=6,
                 source="the stabilizer is all of h, which is not abelian"),
        ))),
    FixtureDef(
        "sl3_sl2_topleft",
        "(sl3, top-left sl2): rho_h = rho_{g/h} = 4|t|",
        lambda: _with_expect(pair_sl3_sl2_topleft(), (
            _exp("tempered", "yes_certified", margin=0,
                 source="quotient = two standard modules + trivial line"),
        ))),
    FixtureDef(
        "product_sl2_sl2_first",
        "((sl2+sl2), first factor): h acts trivially on g/h",
        lambda: _with_expect(pair_direct_sum(["sl2", "sl2"]), (
            _exp("tempered", "no_certified",
                 source="rho_h = 4|t|, rho_{g/h} = 0"),
            _exp("real_spherical", "probable_no",
                 source="the minimal parabolic of the second factor has no "
                        "open orbit on it"),
        ))),
    FixtureDef(
        "sl2_point",
        "(sl2, trivial h): the group manifold",
        lambda: _with_expect(pair_trivial_h("sl2"), (
            _exp("tempered", "yes_certified",
                 source="L2(G) is tempered by definition"),
            _exp("generic_stabilizer_abelian", "yes_certified", dimension=0,
                 source="trivial stabilizer"),
        ))),
    FixtureDef(
        "so23_so22",
        "symmetric pair (so(2,3), so(2,2)): rank 2, not tempered",
        lambda: _with_expect(pair_so23_so22(), (
            _exp("tempered", "no_certified",
                 source="rho_h = 2|t1-t2| + 2|t1+t2| majorizes "
                        "rho_{g/h} = 2|t1| + 2|t2| strictly at (1, 0)"),
            _exp("real_spherical", "yes_certified",
                 source="symmetric spaces are real spherical"),
            _exp("complex_spherical", "yes_certified",
                 source="complexified symmetric spaces are spherical"),
        ))),
)


def fixture_names():
    return [f.name for f in FIXTURES]


def build_fixture(name: str) -> Pair:
    for f in FIXTURES:
        if f.name == name:
            return f.build()
    raise UnsupportedParams(f"unknown fixture {name!r}")


def fixtures_dir():
    import pathlib

    return pathlib.Path(__file__).resolve().parent / "fixtures"


def load_fixture_file(name: str) -> Pair:
    """Parse a bundled fixture from its shipped pair file (the external,
    file-format-level interface; build_fixture constructs the same pair
    in memory)."""
    from .pairfile import parse_pair_file

    path = fixtures_dir() / f"{name}.pair"
    if not path.exists():
        raise UnsupportedParams(f"no bundled fixture file {name!r}")
    return parse_pair_file(path)
