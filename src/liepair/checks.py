"""Decision procedures for a reductive pair (g, h).

Four questions are answered, each wrapped in a Verdict whose positive and
negative certificates are exact and independently re-checkable:

* tempered            - rho_h ≤ rho_{g/h} on the split torus of h
* real_spherical      - a minimal parabolic subalgebra has an open orbit,
                        witnessed at an exact group-element word
* complex_spherical   - the same open-orbit test on the complexified pair,
                        where the minimal parabolic is a Borel
* generic_stabilizer_abelian - the minimal sampled intersection h ∩ Ad(w)h

Group elements appear only through Ad-words: products of exp(ad Z) with Z
ad-nilpotent, so every matrix involved is an exact polynomial in rational
parameters.  Openness of the orbit condition is Zariski-open, hence a single
full-rank witness is a proof; failure at finitely many samples is evidence
only, and is reported as probable_no, never as a certified no.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional

from .algebra import (
    LieAlgebra,
    SubalgebraEmbedding,
    Subspace,
    ValidationError,
    ad_matrix,
    bracket,
    validate,
)
from .linalg import (
    ZERO,
    ONE,
    exp_nilpotent,
    is_zero_vec,
    mat_vec,
    rank,
    vec,
    vec_dot,
)
from .polyhedral import (
    DEFAULT_CONE_BUDGET,
    decide_dominance,
)
from .weights import (
    SplitTorus,
    rho_eval,
    rho_from_weights,
    validate_torus,
    weight_decomposition,
    weight_vectors_in_ambient,
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
    """

    g: LieAlgebra
    h: SubalgebraEmbedding
    torus_h: SplitTorus
    torus_g: SplitTorus
    name: str = ""
    provenance: str = ""
    complex_structure: Optional[tuple] = None
    complexification: Optional["Pair"] = None
    torus_h_asserted_maximal: bool = True
    notes: tuple = ()
    expectations: tuple = ()

    @property
    def is_complex_pair(self) -> bool:
        return self.complex_structure is not None

    def validate_pair(self, jacobi="auto"):
        rep = validate(self.g, jacobi=jacobi)
        if not rep.ok:
            raise ValidationError(
                f"ambient algebra invalid: {rep.first_problem}")
        SubalgebraEmbedding.create(self.g, [list(r) for r in self.h.rows])
        validate_torus([list(r) for r in self.torus_h.rows], self.h)
        validate_torus([list(r) for r in self.torus_g.rows],
                       SubalgebraEmbedding.whole(self.g))
        if self.complex_structure is not None:
            _check_complex_structure(self.g, self.complex_structure, self.h)
        if self.complexification is not None:
            self.complexification.validate_pair(jacobi=jacobi)
        return True


def _check_complex_structure(g: LieAlgebra, J, h: SubalgebraEmbedding):
    n = g.dim
    JJ = [[sum((J[i][k] * J[k][j] for k in range(n) if J[i][k] != 0), ZERO)
           for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if JJ[i][j] != (-ONE if i == j else ZERO):
                raise ValidationError("complex structure does not square to -1")
    for i in range(n):
        Jei = [J[k][i] for k in range(n)]
        for j in range(n):
            lhs = bracket(g, Jei, g.basis_vector(j))
            rhs = mat_vec(J, list(g.structure[i][j]))
            if lhs != rhs:
                raise ValidationError(
                    "bracket is not complex-linear for the stored complex "
                    f"structure at basis pair ({i + 1}, {j + 1})")
    hspace = h.subspace()
    for r in h.rows:
        if not hspace.contains_vector(mat_vec(J, list(r))):
            raise ValidationError("subalgebra is not stable under the "
                                  "complex structure")


@dataclass(frozen=True)
class ParabolicSubalgebra:
    """Nonnegative-weight subalgebra for a chamber functional on torus_g:
    p = m ⊕ a ⊕ n with n the strictly positive weight spaces."""

    torus: SplitTorus
    chamber: tuple
    subspace: Subspace
    nilradical_rows: tuple
    zero_weight_dim: int


@dataclass(frozen=True)
class AdWord:
    """A product of exp(t_i · ad Z_i) with each ad Z_i nilpotent.  The empty
    word is the identity."""

    steps: tuple  # tuple of (z_vector tuple, t Fraction)

    def to_json(self):
        return [{"z": list(z), "t": t} for z, t in self.steps]

    @classmethod
    def from_json(cls, data):
        return cls(steps=tuple((tuple(vec(s["z"])), Fraction(s["t"]))
                               for s in data))

    def apply_to_rows(self, g: LieAlgebra, rows):
        out = [list(r) for r in rows]
        for z, t in reversed(self.steps):
            M = exp_nilpotent(ad_matrix(g, list(z)), t)
            out = [mat_vec(M, r) for r in out]
        return out

    @property
    def length(self):
        return len(self.steps)


@dataclass(frozen=True)
class Verdict:
    question: str
    outcome: str
    certificate: Optional[dict] = None
    samples_used: int = 0
    seed: Optional[int] = None
    conclusions: tuple = ()
    notes: tuple = ()


def minimal_parabolic(pair: Pair, xi="generic", seed=0) -> ParabolicSubalgebra:
    """Minimal parabolic subalgebra of g for a chamber functional on torus_g.

    A generic functional is drawn by exact rejection sampling so that no
    nonzero restricted weight vanishes on it; a supplied functional that does
    raises DegenerateFunctional (a larger, non-minimal parabolic would result).
    """
    ws = weight_decomposition(pair.torus_g, "g")
    r = pair.torus_g.rank
    nonzero = [lam for lam, _ in ws.weights if any(x != 0 for x in lam)]
    if xi == "generic":
        rng = Random(derive_seed(seed, "chamber"))
        for _ in range(10000):
            cand = tuple(Fraction(rng.randint(-PARAM_BOUND, PARAM_BOUND))
                         for _ in range(r))
            if all(vec_dot(lam, cand) != 0 for lam in nonzero):
                xi = cand
                break
        else:
            raise ValidationError("failed to sample a generic chamber functional")
    else:
        xi = tuple(vec(xi))
        if len(xi) != r:
            raise ValidationError(
                f"chamber functional has length {len(xi)}, torus rank {r}")
        for lam in nonzero:
            if vec_dot(lam, xi) == 0:
                raise DegenerateFunctional(
                    f"functional annihilates the nonzero weight {tuple(lam)}")
    rows = []
    nil_rows = []
    zero_dim = 0
    for (lam, _), vecs_ in zip(ws.weights, ws.spaces):
        pairing = vec_dot(lam, xi) if r else ZERO
        if pairing >= 0:
            rows.extend(list(v) for v in vecs_)
        if pairing > 0:
            nil_rows.extend(list(v) for v in vecs_)
        if all(x == 0 for x in lam):
            zero_dim = len(vecs_)
    sub = Subspace.from_rows(pair.g.dim, rows)
    _assert_bracket_closed(pair.g, sub)
    return ParabolicSubalgebra(torus=pair.torus_g, chamber=tuple(xi),
                               subspace=sub,
                               nilradical_rows=tuple(tuple(v) for v in nil_rows),
                               zero_weight_dim=zero_dim)


def _assert_bracket_closed(g, sub: Subspace):
    rows = [list(r) for r in sub.rows]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if not sub.contains_vector(bracket(g, rows[i], rows[j])):
                raise ValidationError(
                    "parabolic construction produced a non-closed subspace; "
                    "this indicates an invalid torus designation")


def nilpotent_pool(pair: Pair):
    """Root vectors of g: basis vectors of the nonzero restricted weight
    spaces of torus_g.  Each is ad-nilpotent (verified exactly on use)."""
    ws = weight_decomposition(pair.torus_g, "g")
    pool = []
    for lam, v in weight_vectors_in_ambient(ws):
        if any(x != 0 for x in lam):
            pool.append(tuple(v))
    return pool


def _random_word(pool, rng) -> AdWord:
    length = rng.randint(1, MAX_WORD_LENGTH)
    steps = []
    for _ in range(length):
        z = pool[rng.randrange(len(pool))]
        t = Fraction(rng.randint(-PARAM_BOUND, PARAM_BOUND),
                     rng.randint(1, PARAM_BOUND))
        steps.append((z, t))
    return AdWord(steps=tuple(steps))


def _open_orbit_search(pair: Pair, samples: int, seed: int):
    """Search for a word w with Ad(w)·p + h = g.  Returns (word, parabolic)
    on success, (None, parabolic) after exhausting the sample budget."""
    par = minimal_parabolic(pair, seed=seed)
    pool = nilpotent_pool(pair)
    h_rows = [list(r) for r in pair.h.rows]
    need = pair.g.dim
    rng = Random(derive_seed(seed, "orbit-words"))
    words = [AdWord(steps=())]
    if pool:
        words += [_random_word(pool, rng) for _ in range(max(0, samples - 1))]
    tried = 0
    for word in words:
        tried += 1
        moved = word.apply_to_rows(pair.g, par.subspace.rows)
        if rank(moved + h_rows) == need:
            return word, par, tried
    return None, par, tried


def check_real_spherical(pair: Pair, samples=DEFAULT_SAMPLES, seed=0) -> Verdict:
    """Certify real sphericity: an exact word witnessing an open orbit of the
    minimal parabolic, or probable_no after the sample budget."""
    word, par, tried = _open_orbit_search(pair, samples, seed)
    notes = []
    if pair.h.dim == 0:
        notes.append(
            "h is trivial: the open-orbit test is applied to X = G literally; "
            "for the group case encode (g ⊕ g, diagonal) instead")
    if word is not None:
        cert = {
            "kind": "open-orbit",
            "space": "g",
            "chamber": list(par.chamber),
            "parabolic_rows": [list(r) for r in par.subspace.rows],
            "word": word.to_json(),
            "rank_achieved": pair.g.dim,
        }
        return Verdict(
            question="real_spherical", outcome="yes_certified",
            certificate=cert, samples_used=tried, seed=seed,
            conclusions=(
                "X = G/H is real spherical: a minimal parabolic subgroup has "
                "an open orbit (exact witness word; the condition is "
                "Zariski-open).",
                "Every irreducible admissible representation has finite "
                "multiplicity in C^inf(X) (Kobayashi-Oshima finiteness "
                "criterion).",
            ),
            notes=tuple(notes))
    if par.subspace.dim + pair.h.dim < pair.g.dim:
        notes.append(
            "dimension count dim p + dim h < dim g already precludes an open "
            "orbit at every point; the outcome class remains probable_no "
            "because the certified-no channel is reserved")
    if not nilpotent_pool(pair):
        # no root vectors means no words beyond the base point, so a failure
        # there leaves the search with nothing to certify either way
        return Verdict(
            question="real_spherical", outcome="unknown",
            certificate=None, samples_used=tried, seed=seed,
            conclusions=(),
            notes=tuple(notes) + (
                "no nilpotent root vectors exist and the base point is "
                "rank-deficient; no group elements were available to move "
                "the parabolic",))
    return Verdict(
        question="real_spherical", outcome="probable_no",
        certificate=None, samples_used=tried, seed=seed,
        conclusions=(
            f"No open minimal-parabolic orbit was found after {tried} sampled "
            "words; if none exists, some irreducible representation has "
            "infinite multiplicity (Kobayashi-Oshima criterion, "
            "contrapositive).",),
        notes=tuple(notes))


def check_complex_spherical(pair: Pair, samples=DEFAULT_SAMPLES, seed=0) -> Verdict:
    """Certify sphericity of the complexification: the minimal parabolic of
    the realified complex algebra is a Borel, so the same open-orbit
    certification applies."""
    if pair.complexification is None:
        raise MissingComplexData(
            f"pair {pair.name or '?'} carries no complexification data")
    comp = pair.complexification
    word, par, tried = _open_orbit_search(comp, samples, seed)
    notes = ["computed on the realified complexification "
             f"(dim {comp.g.dim})"]
    if pair.h.dim == 0:
        notes.append(
            "h is trivial: the Borel orbit test on X_C = G_C is answered "
            "literally; encode group cases diagonally to ask the usual "
            "question")
    if word is not None:
        cert = {
            "kind": "open-orbit",
            "space": "complexification",
            "chamber": list(par.chamber),
            "parabolic_rows": [list(r) for r in par.subspace.rows],
            "word": word.to_json(),
            "rank_achieved": comp.g.dim,
        }
        return Verdict(
            question="complex_spherical", outcome="yes_certified",
            certificate=cert, samples_used=tried, seed=seed,
            conclusions=(
                "X_C is a spherical variety: a Borel subgroup of G_C has an "
                "open orbit (exact witness word on the realified "
                "complexification).",
                "Multiplicities in C^inf(X) are uniformly bounded over all "
                "irreducible representations (Kobayashi-Oshima boundedness "
                "criterion).",
            ),
            notes=tuple(notes))
    if par.subspace.dim + comp.h.dim < comp.g.dim:
        notes.append(
            "dimension count dim b + dim h_C < dim g_C already precludes an "
            "open orbit; outcome class remains probable_no")
    return Verdict(
        question="complex_spherical", outcome="probable_no",
        certificate=None, samples_used=tried, seed=seed,
        conclusions=(
            f"No open Borel orbit was found on X_C after {tried} sampled "
            "words; if none exists, multiplicities are not uniformly bounded "
            "(Kobayashi-Oshima boundedness criterion, contrapositive).",),
        notes=tuple(notes))


def rho_pair(pair: Pair):
    """(rho_h, rho_{g/h}) over torus_h."""
    ws_h = weight_decomposition(pair.torus_h, "h")
    ws_q = weight_decomposition(pair.torus_h, "g/h")
    return rho_from_weights(ws_h), rho_from_weights(ws_q)


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
            "lines": [list(line) for line in dom.lines],
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
    wit = dom.witness
    cert = {
        "kind": "dominance-violation",
        "ray": list(wit),
        "rho_h": rho_eval(rho_h, list(wit)),
        "rho_quotient": rho_eval(rho_q, list(wit)),
    }
    ray_txt = "(" + ", ".join(str(x) for x in wit) + ")"
    return Verdict(
        question="tempered", outcome="no_certified", certificate=cert,
        conclusions=(
            f"rho_h ≤ rho_{{g/h}} fails at the ray {ray_txt} "
            f"({cert['rho_h']} > {cert['rho_quotient']}): L²(G/H) is not "
            "tempered (Benoist-Kobayashi criterion).",),
        notes=notes)


@dataclass(frozen=True)
class StabilizerReport:
    dimension: int
    representative: Subspace
    abelian: bool
    word: AdWord
    samples_used: int
    seed: int


def generic_stabilizer(pair: Pair, samples=DEFAULT_SAMPLES, seed=0) -> StabilizerReport:
    """Minimal dimension of h ∩ Ad(w)h over sampled words, one exact
    representative, and whether it is abelian.

    By upper semicontinuity the sampled minimum is an exact upper bound for
    the generic stabilizer dimension, certified at its witness word; that it
    is the generic value is Monte Carlo evidence.
    """
    pool = nilpotent_pool(pair)
    rng = Random(derive_seed(seed, "stabilizer-words"))
    h_rows = [list(r) for r in pair.h.rows]
    h_space = pair.h.subspace()
    words = [AdWord(steps=())]
    if pool:
        words += [_random_word(pool, rng) for _ in range(max(0, samples - 1))]
    best = None
    for word in words:
        moved = word.apply_to_rows(pair.g, h_rows)
        inter = _intersect(h_space, moved)
        if best is None or inter.dim < best[1].dim:
            best = (word, inter)
            if inter.dim == 0:
                break
    word, inter = best
    abelian = _is_abelian(pair.g, inter)
    return StabilizerReport(dimension=inter.dim, representative=inter,
                            abelian=abelian, word=word,
                            samples_used=len(words), seed=seed)


def _intersect(h_space: Subspace, moved_rows):
    other = Subspace.from_rows(h_space.ambient, moved_rows)
    from .algebra import subspace_intersect

    return subspace_intersect(h_space, other)


def _is_abelian(g: LieAlgebra, sub: Subspace) -> bool:
    rows = [list(r) for r in sub.rows]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if not is_zero_vec(bracket(g, rows[i], rows[j])):
                return False
    return True


def stabilizer_verdict(pair: Pair, report: StabilizerReport) -> Verdict:
    cert = {
        "kind": "stabilizer",
        "word": report.word.to_json(),
        "dimension": report.dimension,
        "rows": [list(r) for r in report.representative.rows],
        "abelian": report.abelian,
    }
    if report.abelian:
        return Verdict(
            question="generic_stabilizer_abelian", outcome="yes_certified",
            certificate=cert, samples_used=report.samples_used,
            seed=report.seed,
            conclusions=(
                f"The minimal sampled stabilizer h ∩ Ad(w)h has dimension "
                f"{report.dimension} and is abelian (exact at the witness "
                "word; genericity is Monte Carlo evidence).",),
            notes=("abelian-ness certified at the stored word; density of "
                   "the abelian locus is inferred, not proven",))
    return Verdict(
        question="generic_stabilizer_abelian", outcome="probable_no",
        certificate=cert, samples_used=report.samples_used, seed=report.seed,
        conclusions=(
            f"The minimal sampled stabilizer has dimension {report.dimension} "
            "and is not abelian; a smaller abelian generic stabilizer was not "
            "excluded by sampling.",),
        notes=())


def check_generic_stabilizer(pair: Pair, samples=DEFAULT_SAMPLES, seed=0) -> Verdict:
    return stabilizer_verdict(pair, generic_stabilizer(pair, samples, seed))


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

    Returns (ok, detail).  Ranks are recomputed from scratch and rho values
    re-evaluated at every stored line or ray; nothing from the original run
    is trusted beyond the certificate payload.  A malformed dominance
    certificate fails with a detail instead of raising.
    """
    cert = verdict.certificate
    if cert is None:
        return False, "no certificate attached"
    kind = cert.get("kind")
    if kind == "rank-zero-torus":
        ok = pair.torus_h.rank == 0
        return ok, "torus_h rank is 0" if ok else "torus_h rank is nonzero"
    if kind == "dominance":
        try:
            lines = _stored_lines(cert, pair.torus_h.rank)
            stored = Fraction(cert["margin"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            return False, f"malformed dominance certificate: {e}"
        if cert.get("line_count") != len(lines):
            return False, (f"stored line_count {cert.get('line_count')!r} "
                           f"!= {len(lines)} stored lines")
        rho_h, rho_q = rho_pair(pair)
        margin = None
        for line in lines:
            d = rho_eval(rho_q, line) - rho_eval(rho_h, line)
            if d < 0:
                return False, f"stored line {line} violates dominance"
            margin = d if margin is None else min(margin, d)
        if margin is None:
            margin = ZERO
        if stored != margin:
            return False, f"stored margin {stored} != recomputed {margin}"
        return True, f"all {len(lines)} lines re-evaluated, margin {margin}"
    if kind == "dominance-violation":
        rho_h, rho_q = rho_pair(pair)
        ray = vec(cert["ray"])
        vh, vq = rho_eval(rho_h, ray), rho_eval(rho_q, ray)
        if not (vh > vq):
            return False, "stored ray is not a strict violation"
        if vh != Fraction(cert["rho_h"]) or vq != Fraction(cert["rho_quotient"]):
            return False, "stored rho values do not match recomputation"
        return True, f"violation re-verified: {vh} > {vq}"
    if kind == "open-orbit":
        target = pair if cert.get("space") == "g" else pair.complexification
        if target is None:
            return False, "certificate refers to a missing complexification"
        word = AdWord.from_json(cert["word"])
        par_rows = [vec(r) for r in cert["parabolic_rows"]]
        sub = Subspace.from_rows(target.g.dim, par_rows)
        # the stored rows must really be a parabolic for the stored chamber
        recomputed = minimal_parabolic(target, xi=cert["chamber"])
        if recomputed.subspace != sub:
            return False, "stored parabolic rows do not match the chamber"
        moved = word.apply_to_rows(target.g, sub.rows)
        got = rank(moved + [list(r) for r in target.h.rows])
        if got != cert["rank_achieved"] or got != target.g.dim:
            return False, f"rank recomputation gives {got}, not {target.g.dim}"
        return True, f"open orbit re-verified at word of length {word.length}"
    if kind == "stabilizer":
        word = AdWord.from_json(cert["word"])
        moved = word.apply_to_rows(pair.g, [list(r) for r in pair.h.rows])
        inter = _intersect(pair.h.subspace(), moved)
        if inter.dim != cert["dimension"]:
            return False, (f"intersection dimension {inter.dim} != stored "
                           f"{cert['dimension']}")
        stored_rows = Subspace.from_rows(pair.g.dim,
                                         [vec(r) for r in cert["rows"]])
        if stored_rows != inter:
            return False, "stored representative does not match recomputation"
        if _is_abelian(pair.g, inter) != cert["abelian"]:
            return False, "stored abelian flag does not match recomputation"
        return True, f"stabilizer re-verified at dimension {inter.dim}"
    return False, f"unknown certificate kind {kind!r}"


def _stored_lines(cert, rank):
    """A dominance certificate's lines as exact nonzero vectors of length
    `rank`; raises KeyError, TypeError, ValueError or ZeroDivisionError
    when they are missing or malformed."""
    lines = cert["lines"]
    if not isinstance(lines, list):
        raise ValueError("lines is not a list")
    out = []
    for i, line in enumerate(lines):
        if not isinstance(line, list) or len(line) != rank:
            raise ValueError(f"line {i} is not a list of {rank} rationals")
        v = vec(line)
        if is_zero_vec(v):
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
