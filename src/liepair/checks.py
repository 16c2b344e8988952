"""Decision procedures for a reductive pair (g, h).

Four questions are answered, each wrapped in a Verdict whose positive and
negative certificates are exact and independently re-checkable:

* tempered            - rho_h ≤ rho_{g/h} on the split torus of h
* real_spherical      - a minimal parabolic subalgebra has an open orbit,
                        witnessed at an exact group-element word
* complex_spherical   - the same open-orbit test on the complexified pair,
                        where the minimal parabolic is a Borel
* generic_stabilizer_abelian - the minimal sampled intersection h ∩ Ad(w)h

Both sphericity questions run one routine, _check_open_orbit, on the space
that OPEN_ORBIT_SPACES maps to the question.  Group elements appear only
through Ad-words from one stream, _sampled_words: products of exp(ad Z)
with Z ad-nilpotent, so every matrix involved is an exact polynomial in
rational parameters.  Openness of the orbit condition is Zariski-open, hence
a single full-rank witness is a proof; failure at finitely many samples is
evidence only, and is reported as probable_no, never as a certified no.

Word times are pairs of ints, chambers and tempered lines integer vectors.
A certificate writes each row with fraction_row; the verifier reads a row
back with integer_row (the ray of a violation as the values rho_eval takes)
and compares a span's rows and the tempered lines with their canonical_rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from random import Random
from typing import Optional

from .algebra import (
    LieAlgebra,
    SubalgebraEmbedding,
    Subspace,
    ValidationError,
    ad_matrix,
    bracket,
    subspace_intersect,
)
from .linalg import (
    canonical_rows,
    frac,
    fraction_row,
    integer_rank,
    integer_row,
    mat_vec,
    rank,  # noqa: F401  (perfbench/test_perfbench.py checks this binding)
)
from .polyhedral import (
    DEFAULT_CONE_BUDGET,
    ConeBudgetExceeded,
    decide_dominance,
)
from .weights import (
    SplitTorus,
    WeightSystem,
    quotient_weights,
    rho_eval,
    rho_from_weights,
    validate_torus,
    weight_decomposition,
)

QUESTIONS = ("tempered", "real_spherical", "complex_spherical",
             "generic_stabilizer_abelian")

OUTCOMES = ("yes_certified", "no_certified", "probable_no", "unknown")

DEFAULT_SAMPLES = 64
MAX_WORD_LENGTH = 8
PARAM_BOUND = 9


class DegenerateFunctional(ValidationError):
    """A user-supplied chamber functional annihilates a nonzero weight."""


class MissingComplexData(ValidationError):
    """The pair carries no complexification, so complex-geometry questions
    cannot be answered."""


class InconsistentVerdicts(RuntimeError):
    """For a complex pair, the temperedness verdict and the abelian-ness of
    the sampled generic stabilizer must agree; disagreement means a bug."""


class UnsupportedQuery(ValidationError):
    """The pair's recorded assertions do not license this question."""


class NonTerminatingSeries(ValidationError):
    """A word step's series Σ tᵏ/k!·(ad Z)ᵏ v has a nonzero term after
    dim g terms, so ad Z is not nilpotent on v and the sum is not exact."""


def derive_seed(seed: int, label: str) -> int:
    """Deterministic, splittable child seed for the given role."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Expectation:
    """A recorded expected verdict, used by the fixture regression suite."""

    question: str
    outcome: str
    margin: Optional[Fraction] = None
    dimension: Optional[int] = None
    source: str = ""


@dataclass(frozen=True)
class Pair:
    """A reductive pair h ⊂ g with designated split tori.

    torus_h must be a maximal split torus of h and torus_g one of g; both
    maximality assertions come from the catalog or the pair file and are
    recorded, not proven (torus_h_asserted_maximal gates the tempered check).
    compact_cartan_rows, exact vectors, complete torus_g to a maximally
    split Cartan of g; they are None when the pair carries no
    complexification data.  complex_structure is J as (rows, d): the
    matrix of integer rows over d.
    """

    g: LieAlgebra
    h: SubalgebraEmbedding
    torus_h: SplitTorus
    torus_g: SplitTorus
    name: str = ""
    provenance: str = ""
    complex_structure: Optional[tuple] = None
    compact_cartan_rows: Optional[tuple] = None
    torus_h_asserted_maximal: bool = True
    notes: tuple = ()
    expectations: tuple = ()

    @property
    def is_complex_pair(self) -> bool:
        return self.complex_structure is not None

    @classmethod
    def create(cls, g: LieAlgebra, h_rows, torus_h_rows, torus_g_rows, *,
               complex_structure=None, **fields) -> "Pair":
        """The validating constructor: h must be a subalgebra of g, torus_h
        and torus_g rationally split tori in h and in g, and h stable under
        the complex structure J when one is given.  The rows are exact
        vectors (nums, den), which h and the tori hold as they are, and J
        is (rows, d) as the pair holds it.  The other fields are stored as
        given.

        A torus_g with the rows of torus_h is not split again: containment
        in g, independence, commutativity and the joint split on g are what
        validating torus_h already proved.  Nor is a torus_g_rows that is a
        SplitTorus already validated on the whole of g; only its ambient
        algebra is checked to be g."""
        h = SubalgebraEmbedding.create(g, h_rows)
        torus_h = validate_torus(torus_h_rows, h)
        whole = SubalgebraEmbedding.whole(g)
        if isinstance(torus_g_rows, SplitTorus):
            parent = torus_g_rows.parent
            if parent.ambient is not g or parent.dim != g.dim:
                raise ValidationError("torus_g was not validated on the "
                                      "whole of this algebra")
            torus_g = torus_g_rows
        elif tuple(torus_g_rows) == torus_h.rows:
            torus_g = SplitTorus(parent=whole, rows=torus_h.rows,
                                 den=torus_h.den, g_split=torus_h.g_split)
        else:
            torus_g = validate_torus(torus_g_rows, whole)
        if complex_structure is not None:
            J, _ = complex_structure
            images = [mat_vec(J, nums) for nums, _ in h.rows]
            if h.subspace.first_outside(images) is not None:
                raise ValidationError("subalgebra is not stable under the "
                                      "complex structure")
        return cls(g=g, h=h, torus_h=torus_h, torus_g=torus_g,
                   complex_structure=complex_structure, **fields)

    @cached_property
    def complexification(self) -> Optional["Pair"]:
        """The realified complexification, built and validated on first
        read from torus_g and compact_cartan_rows; None when the pair
        carries no complexification data."""
        if self.compact_cartan_rows is None:
            return None
        from .catalog import complexify_pair

        try:
            return complexify_pair(self)
        except ValidationError as e:
            raise ValidationError(
                f"cannot build the complexification: {e}") from e


@dataclass(frozen=True)
class ParabolicSubalgebra:
    """Nonnegative-weight subalgebra for a chamber functional on torus_g:
    p = m ⊕ a ⊕ n with n the strictly positive weight spaces; a certificate
    writes its canonical_rows.  The chamber functional is a tuple of ints."""

    chamber: tuple
    subspace: Subspace


@dataclass(frozen=True)
class AdWord:
    """A product of exp(t_i · ad Z_i) with each ad Z_i nilpotent.  The empty
    word is the identity.

    A step acts on a row v as the series Σ tᵏ/k!·(ad Z)ᵏ v, which stops at
    its first zero term; a series that has not stopped after dim g terms
    raises NonTerminatingSeries.  So every applied step is a finite exact
    sum, equal to exp(t·ad Z)v.

    A step is (z, (a, b)): z an exact vector (nums, den) and t = a/b, ints
    in lowest terms with b > 0; to_json writes both as Fractions.
    apply_to_rows(g, rows) takes exact vectors (nums, den) and returns
    them in lowest terms with nums a list, so words compose.  The searches
    use the moved nums as they are, since scaling a row changes no span,
    and rank them against the rref of the rows they do not move, which the
    question already holds.

    inverse() is the word of Ad(w)⁻¹ = Ad(w⁻¹): the steps in reverse order,
    each a negated, since exp(t·ad Z)⁻¹ = exp(−t·ad Z).  It keeps the same
    z objects, and an error names a step of it by the step's index in the
    word it inverts (the `inverted` flag)."""

    steps: tuple  # tuple of (z exact vector, (a, b) ints)
    inverted: bool = False

    def to_json(self):
        return [{"z": fraction_row(z), "t": Fraction(*t)}
                for z, t in self.steps]

    @classmethod
    def from_json(cls, data):
        return cls(steps=tuple((integer_row(s["z"]),
                                frac(s["t"]).as_integer_ratio())
                               for s in data))

    def apply_to_rows(self, g: LieAlgebra, rows, ad=None):
        """Ad(w)·row for each row, rows and result as (nums, den) pairs.
        `ad` is the question's _AdColumns on g, shared by all the words it
        applies; without one the word expands each of its distinct Z once."""
        ad = _AdColumns(g) if ad is None else ad
        out = list(rows)
        n = len(self.steps)
        for index, (z, (a, b)) in reversed(list(enumerate(self.steps, start=1))):
            cols, den = ad(z)
            if a == 0:
                continue
            try:
                out = [_exp_ad_row(cols, den, a, b, row) for row in out]
            except NonTerminatingSeries as e:
                named = n + 1 - index if self.inverted else index
                raise NonTerminatingSeries(f"word step {named}: {e}") from None
        return out

    def inverse(self) -> "AdWord":
        steps = tuple((z, (-a, b)) for z, (a, b) in reversed(self.steps))
        return AdWord(steps=steps, inverted=not self.inverted)

    @property
    def length(self):
        return len(self.steps)


class _AdColumns:
    """ad Z on g, as algebra.ad_matrix gives it, for the Z of one question's
    words: each distinct Z is expanded once, and nothing outlives the
    question that made the object.  Lookup is by identity first, since a
    search's words share its pool's vectors, and then by value, so equal
    steps of a replayed word share one expansion too."""

    def __init__(self, g: LieAlgebra):
        self.g = g
        self._by_id = {}
        self._by_value = {}

    def __call__(self, z):
        hit = self._by_id.get(id(z))
        if hit is None:
            cols = self._by_value.get(z)
            if cols is None:
                if len(z[0]) != self.g.dim:
                    raise ValidationError(
                        f"dimension mismatch: algebra has dim {self.g.dim}, "
                        f"got a word step of length {len(z[0])}")
                cols = self._by_value[z] = ad_matrix(self.g, z)
            # z stays referenced, so its id is not reused while cached
            hit = self._by_id[id(z)] = (z, cols)
        return hit[1]


def _exp_ad_row(cols, den, a, b, row):
    """exp(t·ad Z)v = Σ tᵏ/k!·(ad Z)ᵏ v for t = a/b, ad Z = cols/den and
    v = nums/d given as row = (nums, d); returns the sum in the same form.
    The k-th term is T_k/Q_k with T_k = a·cols·T_(k-1) and
    Q_k = Q_(k-1)·b·k·den, so the sum stays over the denominator Q_k."""
    nums, d = row
    n = len(cols)
    total, term = list(nums), nums
    for k in range(1, n + 1):
        image = [0] * n
        for i, x in enumerate(term):
            if x:
                for j, c in cols[i]:
                    image[j] += x * c
        if not any(image):
            common = gcd(d, *total)
            return [x // common for x in total], d // common
        scale = b * k * den
        term = [a * x for x in image]
        total = [scale * s + x for s, x in zip(total, term)]
        d *= scale
    raise NonTerminatingSeries(
        f"exp(t·ad Z) has a nonzero term after {n} terms; ad Z is not "
        "nilpotent on the row")


@dataclass(frozen=True)
class Verdict:
    question: str
    outcome: str
    certificate: Optional[dict] = None
    samples_used: int = 0
    seed: Optional[int] = None
    conclusions: tuple = ()
    notes: tuple = ()


def minimal_parabolic(ws: WeightSystem, xi="generic", seed=0) -> ParabolicSubalgebra:
    """Minimal parabolic subalgebra of g for a chamber functional on torus_g,
    from the restricted weights ws = weight_decomposition(torus_g, "g"),
    which a question computes once and shares with nilpotent_pool.

    A generic functional of ints is drawn by exact rejection sampling so
    that no nonzero restricted weight vanishes on it; a supplied one, read
    as the nums of its integer_row (the same signs on every weight), that
    does raises DegenerateFunctional (a non-minimal parabolic would result).
    """
    r = ws.torus.rank
    nonzero = [lam for lam, _ in ws.weights if any(lam)]
    if xi == "generic":
        rng = Random(derive_seed(seed, "chamber"))
        for _ in range(10000):
            cand = tuple(rng.randint(-PARAM_BOUND, PARAM_BOUND)
                         for _ in range(r))
            if all(sum(map(mul, lam, cand)) for lam in nonzero):
                xi = cand
                break
        else:
            raise ValidationError("failed to sample a generic chamber functional")
    else:
        xi, _ = integer_row(xi)
        if len(xi) != r:
            raise ValidationError(
                f"chamber functional has length {len(xi)}, torus rank {r}")
        for lam in nonzero:
            if not sum(map(mul, lam, xi)):
                weight = tuple(fraction_row((lam, ws.torus.den)))
                raise DegenerateFunctional(
                    f"functional annihilates the nonzero weight {weight}")
    rows = []
    for (lam, _), vecs_ in zip(ws.weights, ws.spaces):
        if sum(map(mul, lam, xi)) >= 0:
            rows.extend(vecs_)
    sub = Subspace.from_rows(ws.torus.ambient.dim, rows)
    return ParabolicSubalgebra(chamber=xi, subspace=sub)


def nilpotent_pool(ws: WeightSystem):
    """Root vectors of g: the canonical basis vectors (pivot entries 1) of
    the nonzero restricted weight spaces in ws = weight_decomposition(
    torus_g, "g"), as exact vectors.  Each is ad-nilpotent (verified
    exactly on use)."""
    return [z for (lam, _), rows in zip(ws.weights, ws.spaces)
            if any(lam) for z in canonical_rows(rows)]


def _sampled_words(pool, seed, label, samples):
    """The words a search applies: the identity, then (for a nonempty pool)
    up to samples - 1 words of 1 to MAX_WORD_LENGTH steps (Z from the pool,
    t = a/b with |a|, b ≤ PARAM_BOUND drawn as ints and divided by their
    gcd), drawn lazily from Random(derive_seed(seed, label))."""
    yield AdWord(steps=())
    if not pool:
        return
    rng = Random(derive_seed(seed, label))
    for _ in range(samples - 1):
        steps = []
        for _ in range(rng.randint(1, MAX_WORD_LENGTH)):
            z = pool[rng.randrange(len(pool))]
            a = rng.randint(-PARAM_BOUND, PARAM_BOUND)
            b = rng.randint(1, PARAM_BOUND)
            common = gcd(a, b)
            steps.append((z, (a // common, b // common)))
        yield AdWord(steps=tuple(steps))


# The open-orbit test Ad(w)·p + h = g answers two questions, one per space it
# runs on; an open-orbit certificate's "space" is a key of this table.
OPEN_ORBIT_SPACES = {
    "g": {
        "question": "real_spherical",
        "note": "",
        "trivial_h": (
            "h is trivial: the open-orbit test is applied to X = G literally; "
            "for the group case encode (g ⊕ g, diagonal) instead"),
        "yes": (
            "X = G/H is real spherical: a minimal parabolic subgroup has "
            "an open orbit (exact witness word; the condition is "
            "Zariski-open).",
            "Every irreducible admissible representation has finite "
            "multiplicity in C^inf(X) (Kobayashi-Oshima finiteness "
            "criterion).",
        ),
        "dimension_count": (
            "dimension count dim p + dim h < dim g precludes an open orbit "
            "at every point, so no word is applied; the outcome class "
            "remains probable_no because the certified-no channel is "
            "reserved"),
        "counted": (
            "No minimal-parabolic orbit is open: dim p + dim h = {p} + {h} "
            "< {g} = dim g; then some irreducible representation has "
            "infinite multiplicity (Kobayashi-Oshima criterion, "
            "contrapositive)."),
        "no": (
            "No open minimal-parabolic orbit was found after {tried} sampled "
            "words; if none exists, some irreducible representation has "
            "infinite multiplicity (Kobayashi-Oshima criterion, "
            "contrapositive)."),
    },
    "complexification": {
        "question": "complex_spherical",
        "note": "computed on the realified complexification (dim {dim})",
        "trivial_h": (
            "h is trivial: the Borel orbit test on X_C = G_C is answered "
            "literally; encode group cases diagonally to ask the usual "
            "question"),
        "yes": (
            "X_C is a spherical variety: a Borel subgroup of G_C has an "
            "open orbit (exact witness word on the realified "
            "complexification).",
            "Multiplicities in C^inf(X) are uniformly bounded over all "
            "irreducible representations (Kobayashi-Oshima boundedness "
            "criterion).",
        ),
        "dimension_count": (
            "dimension count dim b + dim h_C < dim g_C precludes an open "
            "orbit, so no word is applied; outcome class remains "
            "probable_no"),
        "counted": (
            "No Borel orbit on X_C is open: dim b + dim h_C = {p} + {h} < "
            "{g} = dim g_C; then multiplicities are not uniformly bounded "
            "(Kobayashi-Oshima boundedness criterion, contrapositive)."),
        "no": (
            "No open Borel orbit was found on X_C after {tried} sampled "
            "words; if none exists, multiplicities are not uniformly bounded "
            "(Kobayashi-Oshima boundedness criterion, contrapositive)."),
    },
}


def _orbit_target(pair: Pair, space: str) -> Optional[Pair]:
    """The pair whose g the open-orbit test of `space` runs on: the pair
    itself, or its realified complexification (None when it has none)."""
    return pair if space == "g" else pair.complexification


def _orbit_sides(parabolic: Subspace, h: SubalgebraEmbedding):
    """The open-orbit rank test's sides for a question: (moving, fixed,
    inverted), with `moving` the rows of the side that words move as exact
    vectors, `fixed` the rref of the other side, and `inverted` set when h
    is the moving side.  h moves when it has fewer rows than p; on a tie p
    moves."""
    if h.dim < parabolic.dim:
        return list(h.rows), list(parabolic.rows), True
    return [(r, 1) for r in parabolic.rows], list(h.subspace.rows), False


def _orbit_rank(word: AdWord, sides, ad: _AdColumns) -> int:
    """dim(Ad(w)·p + h) in ad.g for the _orbit_sides of a question; the
    orbit through w is open exactly when this is dim g.  Ad(w) is a linear
    automorphism of g, so the sum has the dimension of p + Ad(w)⁻¹·h, which
    is computed instead when h moves."""
    moving, fixed, inverted = sides
    applied = word.inverse() if inverted else word
    moved = applied.apply_to_rows(ad.g, moving, ad=ad)
    return integer_rank(fixed + [nums for nums, _ in moved])


def _check_open_orbit(pair: Pair, space: str, samples: int, seed: int) -> Verdict:
    """The open-orbit question of `space` (a key of OPEN_ORBIT_SPACES):
    yes_certified at the first sampled word w with Ad(w)·p + h = g, p the
    minimal parabolic of a generic chamber (a Borel on the complexification),
    else probable_no.  When torus_g has no nonzero weight, p = g and the
    identity word, which comes first, decides.

    No word can give more than dim p + dim h, since dim(Ad(w)·p + h) ≤
    dim Ad(w)·p + dim h.  So when dim p + dim h < dim g the question applies
    no word: it answers probable_no with samples_used 0, and its conclusion
    states the count."""
    target = _orbit_target(pair, space)
    if target is None:
        raise MissingComplexData(
            f"pair {pair.name or '?'} carries no complexification data")
    texts = OPEN_ORBIT_SPACES[space]
    ws = weight_decomposition(target.torus_g, "g")
    par = minimal_parabolic(ws, seed=seed)
    notes = [texts["note"].format(dim=target.g.dim)] if texts["note"] else []
    if pair.h.dim == 0:
        notes.append(texts["trivial_h"])
    counts = {"p": par.subspace.dim, "h": target.h.dim, "g": target.g.dim}
    if counts["p"] + counts["h"] < counts["g"]:
        notes.append(texts["dimension_count"])
        return Verdict(
            question=texts["question"], outcome="probable_no",
            certificate=None, samples_used=0, seed=seed,
            conclusions=(texts["counted"].format(**counts),),
            notes=tuple(notes))
    words = _sampled_words(nilpotent_pool(ws), seed, "orbit-words", samples)
    sides = _orbit_sides(par.subspace, target.h)
    ad = _AdColumns(target.g)
    for tried, word in enumerate(words, start=1):
        if _orbit_rank(word, sides, ad) == target.g.dim:
            cert = {
                "kind": "open-orbit",
                "space": space,
                "chamber": fraction_row((par.chamber, 1)),
                "parabolic_rows": [fraction_row(r) for r in
                                   canonical_rows(par.subspace.rows)],
                "word": word.to_json(),
                "rank_achieved": target.g.dim,
            }
            return Verdict(
                question=texts["question"], outcome="yes_certified",
                certificate=cert, samples_used=tried, seed=seed,
                conclusions=texts["yes"], notes=tuple(notes))
    return Verdict(
        question=texts["question"], outcome="probable_no",
        certificate=None, samples_used=tried, seed=seed,
        conclusions=(texts["no"].format(tried=tried),), notes=tuple(notes))


def check_real_spherical(pair: Pair, samples=DEFAULT_SAMPLES, seed=0) -> Verdict:
    """Certify real sphericity: an exact word witnessing an open orbit of the
    minimal parabolic, or probable_no after the sample budget or at once
    when a dimension count rules out every word."""
    return _check_open_orbit(pair, "g", samples, seed)


def check_complex_spherical(pair: Pair, samples=DEFAULT_SAMPLES, seed=0) -> Verdict:
    """Certify sphericity of the complexification: the minimal parabolic of
    the realified complex algebra is a Borel, so the same open-orbit
    certification applies."""
    return _check_open_orbit(pair, "complexification", samples, seed)


def rho_pair(pair: Pair):
    """(rho_h, rho_{g/h}) over torus_h."""
    torus = pair.torus_h
    ws_h = weight_decomposition(torus, "h")
    q = quotient_weights(weight_decomposition(torus, "g"), ws_h)
    return (rho_from_weights(torus, ws_h.weights),
            rho_from_weights(torus, q))


def check_tempered(pair: Pair, cone_budget=DEFAULT_CONE_BUDGET) -> Verdict:
    """Decide temperedness of L²(G/H) via the piecewise-linear criterion
    rho_h ≤ rho_{g/h} on the split torus of h (Benoist-Kobayashi criterion).

    Shortcut: a rank-0 torus_h makes both sides functions on the zero space,
    so the inequality holds trivially; for compact H this is the proper-action
    case.  The verdict relies on torus_h being maximal split in h, which is a
    recorded assertion of the input.
    """
    if not pair.torus_h_asserted_maximal:
        raise UnsupportedQuery(
            "torus_h is not asserted maximal split in h for this pair; the "
            "tempered criterion needs a maximal split torus")
    notes = ("temperedness criterion evaluated on the designated torus_h; "
             "its maximality inside h is an input assertion",)
    if pair.torus_h.rank == 0:
        cert = {"kind": "rank-zero-torus"}
        return Verdict(
            question="tempered", outcome="yes_certified", certificate=cert,
            conclusions=(
                "rho_h vanishes identically (h has no split torus), so "
                "rho_h ≤ rho_{g/h} holds trivially: L²(G/H) is tempered "
                "(Benoist-Kobayashi criterion; for compact H this is the "
                "proper-action case).",),
            notes=notes)
    rho_h, rho_q = rho_pair(pair)
    dom = decide_dominance(rho_h, rho_q, budget=cone_budget)
    if dom.holds:
        cert = {
            "kind": "dominance",
            "lines": [fraction_row(r) for r in canonical_rows(dom.lines)],
            "margin": dom.margin,
            "line_count": len(dom.lines),
        }
        margin_txt = ("with equality somewhere (margin 0)"
                      if dom.margin == 0 else f"with margin {dom.margin}")
        return Verdict(
            question="tempered", outcome="yes_certified", certificate=cert,
            conclusions=(
                f"rho_h ≤ rho_{{g/h}} on the split torus of h {margin_txt}: "
                "L²(G/H) is tempered (Benoist-Kobayashi criterion).",),
            notes=notes)
    ray = fraction_row(dom.witness)
    cert = {
        "kind": "dominance-violation",
        "ray": ray,
        "rho_h": rho_eval(rho_h, ray),
        "rho_quotient": rho_eval(rho_q, ray),
    }
    ray_txt = "(" + ", ".join(str(x) for x in ray) + ")"
    return Verdict(
        question="tempered", outcome="no_certified", certificate=cert,
        conclusions=(
            f"rho_h ≤ rho_{{g/h}} fails at the ray {ray_txt} "
            f"({cert['rho_h']} > {cert['rho_quotient']}): L²(G/H) is not "
            "tempered (Benoist-Kobayashi criterion).",),
        notes=notes)


@dataclass(frozen=True)
class StabilizerReport:
    """The scan's least stabilizer h ∩ Ad(w)h, at its word; samples_used is
    the number of words applied before the scan stopped, and floor is
    max(0, 2 dim h − dim g), below which no word goes."""

    dimension: int
    representative: Subspace
    abelian: bool
    word: AdWord
    samples_used: int
    seed: int
    floor: int


def generic_stabilizer(pair: Pair, samples=DEFAULT_SAMPLES, seed=0) -> StabilizerReport:
    """Minimal dimension of h ∩ Ad(w)h over sampled words, one exact
    representative, and whether it is abelian.

    By upper semicontinuity the sampled minimum is an exact upper bound for
    the generic stabilizer dimension, certified at its witness word; that it
    is the generic value is Monte Carlo evidence, unless it is the floor
    below, which makes it the generic value exactly.

    Ad(w) is invertible, so dim(h ∩ Ad(w)h) = 2 dim h − dim(h + Ad(w)h),
    which is at least the floor max(0, 2 dim h − dim g) for every w.  The
    best word is replaced only on a strictly smaller dimension, so the scan
    stops at the first word that reaches the floor with the report a full
    scan would give, save samples_used.
    """
    pool = nilpotent_pool(weight_decomposition(pair.torus_g, "g"))
    h_space = pair.h.subspace
    fixed = list(h_space.rows)
    floor = max(0, 2 * pair.h.dim - pair.g.dim)
    ad = _AdColumns(pair.g)
    best = None
    words = _sampled_words(pool, seed, "stabilizer-words", samples)
    for used, word in enumerate(words, start=1):
        moved = word.apply_to_rows(pair.g, pair.h.rows, ad=ad)
        dim = 2 * pair.h.dim - integer_rank(fixed + [n for n, _ in moved])
        if best is None or dim < best[1].dim:
            best = (word, _intersect(h_space, moved))
            if dim == floor:
                break
    word, inter = best
    abelian = _is_abelian(pair.g, inter)
    return StabilizerReport(dimension=inter.dim, representative=inter,
                            abelian=abelian, word=word,
                            samples_used=used, seed=seed, floor=floor)


def _intersect(h_space: Subspace, moved):
    """h ∩ Ad(w)h from apply_to_rows's (nums, den) pairs, whose span is
    that of the nums."""
    other = Subspace.from_rows(h_space.ambient, [nums for nums, _ in moved])
    return subspace_intersect(h_space, other)


def _is_abelian(g: LieAlgebra, sub: Subspace) -> bool:
    rows = [(r, 1) for r in sub.rows]
    return not any(any(bracket(g, rows[i], rows[j])[0])
                   for i in range(len(rows)) for j in range(i + 1, len(rows)))


def stabilizer_verdict(report: StabilizerReport) -> Verdict:
    cert = {
        "kind": "stabilizer",
        "word": report.word.to_json(),
        "dimension": report.dimension,
        "rows": [fraction_row(r) for r in
                 canonical_rows(report.representative.rows)],
        "abelian": report.abelian,
    }
    counted = ()
    if report.dimension == report.floor:
        counted = (
            f"No word gives a smaller stabilizer: the dimension count "
            f"max(0, 2 dim h − dim g) = {report.floor} is reached, so "
            f"{report.dimension} is the generic dimension.",)
    if report.abelian:
        return Verdict(
            question="generic_stabilizer_abelian", outcome="yes_certified",
            certificate=cert, samples_used=report.samples_used,
            seed=report.seed,
            conclusions=(
                f"The minimal sampled stabilizer h ∩ Ad(w)h has dimension "
                f"{report.dimension} and is abelian (exact at the witness "
                "word; genericity is Monte Carlo evidence).",) + counted,
            notes=("abelian-ness certified at the stored word; density of "
                   "the abelian locus is inferred, not proven",))
    smaller = ("" if counted else "; a smaller abelian generic stabilizer "
               "was not excluded by sampling")
    return Verdict(
        question="generic_stabilizer_abelian", outcome="probable_no",
        certificate=cert, samples_used=report.samples_used, seed=report.seed,
        conclusions=(
            f"The minimal sampled stabilizer has dimension {report.dimension} "
            f"and is not abelian{smaller}.",) + counted,
        notes=())


def check_generic_stabilizer(pair: Pair, samples=DEFAULT_SAMPLES, seed=0) -> Verdict:
    return stabilizer_verdict(generic_stabilizer(pair, samples, seed))


@dataclass(frozen=True)
class Interpretation:
    conclusions: tuple
    cross_checks: tuple


def interpret(pair: Pair, verdicts) -> Interpretation:
    """Aggregate cited conclusions and run the complex-pair cross-check:
    for complex reductive pairs, tempered ⇔ abelian generic stabilizer
    (Benoist-Kobayashi corollary); disagreement is an internal error."""
    conclusions = []
    by_q = {}
    for v in verdicts:
        by_q[v.question] = v
        conclusions.extend(v.conclusions)
    cross = []
    if pair.is_complex_pair:
        t = by_q.get("tempered")
        s = by_q.get("generic_stabilizer_abelian")
        if t is not None and s is not None and \
                t.outcome in ("yes_certified", "no_certified"):
            tempered_yes = t.outcome == "yes_certified"
            abelian = bool(s.certificate and s.certificate.get("abelian"))
            if tempered_yes != abelian:
                raise InconsistentVerdicts(
                    "complex pair: temperedness and abelian generic "
                    f"stabilizer disagree (tempered={t.outcome}, "
                    f"abelian={abelian}); this violates the "
                    "Benoist-Kobayashi corollary and indicates a bug")
            cross.append(
                "complex pair cross-check passed: tempered "
                f"({t.outcome}) agrees with abelian generic stabilizer "
                f"({abelian}) as the Benoist-Kobayashi corollary requires")
    return Interpretation(conclusions=tuple(conclusions),
                          cross_checks=tuple(cross))


def verify_certificate(pair: Pair, verdict: Verdict):
    """Re-check a verdict's certificate from its serialized data alone.

    Returns (ok, detail).  The certificate's kind must support the verdict's
    question and outcome (see _supported_claim).  Ranks are recomputed from
    scratch, the stored lines of a dominance certificate must be all the
    lines of the arrangement, and rho values are re-evaluated at every
    stored line or ray; nothing from the original run is trusted beyond the
    certificate payload.  A malformed certificate fails with a detail
    instead of raising.
    """
    cert = verdict.certificate
    if cert is None:
        return False, "no certificate attached"
    if not isinstance(cert, dict):
        return False, "certificate is not an object"
    kind = cert.get("kind")
    try:
        claim = _supported_claim(cert)
        if claim is None:
            return False, f"unknown certificate kind {kind!r}"
        if claim != (verdict.question, verdict.outcome):
            return False, (f"a {kind} certificate supports {claim[1]} for "
                           f"{claim[0]}, not {verdict.outcome} for "
                           f"{verdict.question}")
        return _recheck(pair, cert)
    except KeyError as e:
        return False, f"malformed {kind} certificate: missing key {e}"
    except (TypeError, ValueError, ZeroDivisionError) as e:
        return False, f"malformed {kind} certificate: {e}"


def _supported_claim(cert):
    """The (question, outcome) a certificate can support, or None for an
    unknown kind.  A stabilizer certificate supports the outcome that its
    abelian flag implies."""
    kind = cert.get("kind")
    if kind in ("rank-zero-torus", "dominance"):
        return "tempered", "yes_certified"
    if kind == "dominance-violation":
        return "tempered", "no_certified"
    if kind == "open-orbit":
        if cert.get("space") not in OPEN_ORBIT_SPACES:
            raise ValueError(f"unknown space {cert.get('space')!r}")
        return OPEN_ORBIT_SPACES[cert["space"]]["question"], "yes_certified"
    if kind == "stabilizer":
        if not isinstance(cert.get("abelian"), bool):
            raise ValueError("abelian is not a boolean")
        return ("generic_stabilizer_abelian",
                "yes_certified" if cert["abelian"] else "probable_no")
    return None


def _recheck(pair: Pair, cert):
    """verify_certificate's recomputation for a certificate of known kind;
    raises KeyError, TypeError, ValueError or ZeroDivisionError on
    malformed data."""
    kind = cert["kind"]
    if kind == "rank-zero-torus":
        ok = pair.torus_h.rank == 0
        return ok, "torus_h rank is 0" if ok else "torus_h rank is nonzero"
    if kind == "dominance":
        lines = _stored_lines(cert, pair.torus_h.rank)
        stored = frac(cert["margin"])
        if _count(cert, "line_count") != len(lines):
            return False, (f"stored line_count {cert.get('line_count')!r} "
                           f"!= {len(lines)} stored lines")
        try:
            dom = decide_dominance(*rho_pair(pair))
        except ConeBudgetExceeded as e:
            return False, f"cannot re-enumerate the lines: {e}"
        if lines != canonical_rows(dom.lines):
            return False, ("stored lines are not the lines of the "
                           "arrangement")
        if not dom.holds:
            line = [-x for x in fraction_row(dom.witness)]
            return False, f"stored line {line} violates dominance"
        if stored != dom.margin:
            return False, (f"stored margin {stored} != recomputed "
                           f"{dom.margin}")
        return True, (f"all {len(lines)} lines re-evaluated, margin "
                      f"{dom.margin}")
    if kind == "dominance-violation":
        rho_h, rho_q = rho_pair(pair)
        vh, vq = rho_eval(rho_h, cert["ray"]), rho_eval(rho_q, cert["ray"])
        if not (vh > vq):
            return False, "stored ray is not a strict violation"
        if vh != frac(cert["rho_h"]) or vq != frac(cert["rho_quotient"]):
            return False, "stored rho values do not match recomputation"
        return True, f"violation re-verified: {vh} > {vq}"
    if kind == "open-orbit":
        try:
            target = _orbit_target(pair, cert["space"])
        except ValidationError as e:
            return False, str(e)
        if target is None:
            return False, "certificate refers to a missing complexification"
        word = AdWord.from_json(cert["word"])
        par = minimal_parabolic(
            weight_decomposition(target.torus_g, "g"), xi=cert["chamber"])
        if not _is_canonical_basis(cert["parabolic_rows"], par.subspace.rows):
            return False, "stored parabolic rows do not match the chamber"
        sides = _orbit_sides(par.subspace, target.h)
        got = _orbit_rank(word, sides, _AdColumns(target.g))
        if got != _count(cert, "rank_achieved") or got != target.g.dim:
            return False, f"rank recomputation gives {got}, not {target.g.dim}"
        return True, f"open orbit re-verified at word of length {word.length}"
    # the one kind left is "stabilizer"
    word = AdWord.from_json(cert["word"])
    moved = word.apply_to_rows(pair.g, pair.h.rows)
    inter = _intersect(pair.h.subspace, moved)
    if inter.dim != _count(cert, "dimension"):
        return False, (f"intersection dimension {inter.dim} != stored "
                       f"{cert['dimension']}")
    if not _is_canonical_basis(cert["rows"], inter.rows):
        return False, "stored representative does not match recomputation"
    if _is_abelian(pair.g, inter) != cert["abelian"]:
        return False, "stored abelian flag does not match recomputation"
    return True, f"stabilizer re-verified at dimension {inter.dim}"


def _is_canonical_basis(stored_rows, rows) -> bool:
    """Whether stored rows are exactly the canonical_rows of the rref
    `rows`, its reduced row echelon basis over ℚ, as the decider writes
    them; no other basis of the span is accepted."""
    return [integer_row(r) for r in stored_rows] == canonical_rows(rows)


def _count(cert, key):
    """The int stored at key: ValueError for a float or a boolean."""
    if type(cert[key]) is not int:
        raise ValueError(f"{key} {cert[key]!r} is not an integer")
    return cert[key]


def _stored_lines(cert, rank):
    """A dominance certificate's lines as exact nonzero vectors (nums, den)
    of length `rank`; raises KeyError, TypeError, ValueError or
    ZeroDivisionError when they are missing or malformed."""
    lines = cert["lines"]
    if not isinstance(lines, list):
        raise ValueError("lines is not a list")
    out = []
    for i, line in enumerate(lines):
        if not isinstance(line, list) or len(line) != rank:
            raise ValueError(f"line {i} is not a list of {rank} rationals")
        v = integer_row(line)
        if not any(v[0]):
            raise ValueError(f"line {i} is zero")
        out.append(v)
    return out


def run_question(pair: Pair, question: str, samples=DEFAULT_SAMPLES, seed=0,
                 cone_budget=DEFAULT_CONE_BUDGET) -> Verdict:
    if question == "tempered":
        return check_tempered(pair, cone_budget=cone_budget)
    if question == "real_spherical":
        return check_real_spherical(pair, samples=samples, seed=seed)
    if question == "complex_spherical":
        return check_complex_spherical(pair, samples=samples, seed=seed)
    if question == "generic_stabilizer_abelian":
        return check_generic_stabilizer(pair, samples=samples, seed=seed)
    raise ValidationError(f"unknown question {question!r}")
