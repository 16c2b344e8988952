"""Exact dominance of convex piecewise-linear functions on a split torus.

Both functions have the shape Y ↦ Σ m_i |λ_i(Y)|, so they are linear on each
closed cone of the hyperplane arrangement {λ_j = 0} drawn from the union of
their forms.  The global inequality f ≤ g therefore reduces to finitely many
exact evaluations: once the common kernel (lineality) is quotiented away, the
cones are pointed, and a linear function is nonnegative on a pointed cone iff
it is nonnegative on every extreme ray.

The extreme rays of all the cones together are exactly the two half-lines of
each 1-dimensional flat of the arrangement (Zaslavsky 1975, "Facing up to
arrangements"), and both functions are even, so one exact evaluation per
line decides the inequality.  The lines are found by growing the flats one
rank at a time; no cone is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional

from .algebra import Subspace
from .linalg import (
    ZERO,
    kernel,
    rank,  # noqa: F401  (perfbench/test_perfbench.py checks this binding)
    rref,
    vec_dot,
)
from .weights import RhoFunction, rho_eval

DEFAULT_CONE_BUDGET = 10 ** 6


class ConeBudgetExceeded(RuntimeError):
    """The arrangement has more flats than the budget.  The number of flats
    never exceeds the number of its full-dimensional cones."""


class RankMismatch(ValueError):
    pass


def normalize_form(v):
    """Canonical representative modulo positive scaling and global sign:
    first nonzero coordinate becomes +1.  Returns None for the zero form."""
    nz = next((x for x in v if x != 0), None)
    if nz is None:
        return None
    s = abs(nz)
    w = [x / s for x in v]
    if nz < 0:
        w = [-x for x in w]
    return tuple(w)


@dataclass(frozen=True)
class Arrangement:
    """Deduplicated union of the nonzero forms of two rho functions, with the
    common kernel of all forms (on which both functions vanish)."""

    rank: int
    forms: tuple  # tuple of canonical form tuples
    lineality: Subspace


@dataclass(frozen=True)
class DominanceVerdict:
    holds: bool
    witness: Optional[tuple]
    margin: Optional[Fraction]
    lines: tuple  # the lines evaluated, as returned by enumerate_lines


def build_arrangement(f: RhoFunction, g: RhoFunction) -> Arrangement:
    if f.rank != g.rank:
        raise RankMismatch(f"rho ranks differ: {f.rank} vs {g.rank}")
    r = f.rank
    seen = []
    for lam, _ in tuple(f.forms) + tuple(g.forms):
        nf = normalize_form(lam)
        if nf is not None and nf not in seen:
            seen.append(nf)
    forms = tuple(sorted(seen))
    if forms:
        lin = Subspace.from_rows(r, kernel([list(x) for x in forms], r))
    else:
        lin = Subspace.full(r)
    return Arrangement(rank=r, forms=forms, lineality=lin)


def enumerate_lines(arr: Arrangement, budget=DEFAULT_CONE_BUDGET):
    """The 1-dimensional flats of the arrangement in the quotient by the
    lineality space, sorted, each as a direction in the span of the forms
    (a canonical complement of the lineality) scaled by normalize_form.

    A flat is the common zero set of a span of forms, and the RREF of that
    span identifies it.  Adding one form outside the span of a rank-k flat
    gives every flat of rank k + 1, so the flats are grown one rank at a
    time up to rank d − 1, where d is the rank of the forms.  The budget
    bounds the number of flats, the whole quotient included.
    """
    if not arr.forms:
        return []
    span_rows, _ = rref([list(x) for x in arr.forms])
    d = len(span_rows)
    # coordinates on the quotient: pairings with a basis of the span of forms
    reduced = [tuple(vec_dot(lam, row) for row in span_rows)
               for lam in arr.forms]
    flats = {()}
    count = 1
    for k in range(d - 1):
        grown = set()
        for span in flats:
            for mu in reduced:
                rows = tuple(rref(list(span) + [mu])[0])
                if len(rows) > k and rows not in grown:
                    grown.add(rows)
                    count += 1
                    if count > budget:
                        raise ConeBudgetExceeded(
                            f"flat count exceeded the budget of {budget}")
        flats = grown
    lines = []
    for span in flats:
        (z,) = kernel(list(span), d)
        y = [ZERO] * arr.rank
        for za, row in zip(z, span_rows):
            if za != 0:
                for i, x in enumerate(row):
                    y[i] += za * x
        lines.append(normalize_form(y))
    return sorted(lines)


def decide_dominance(f: RhoFunction, g: RhoFunction,
                     budget=DEFAULT_CONE_BUDGET) -> DominanceVerdict:
    """Decide f(Y) ≤ g(Y) for all Y, exactly.

    Both functions are even and linear on each cone, so the difference is
    checked once per line of the arrangement; any strict violation there is
    an exact counterexample.  The witness is the least violating half-line
    in lexicographic order, the negative of the greatest violating line.
    With no forms at all both functions vanish identically and the verdict
    holds with margin 0 by convention.
    """
    lines = tuple(enumerate_lines(build_arrangement(f, g), budget))
    margin = None
    for line in reversed(lines):
        diff = rho_eval(g, list(line)) - rho_eval(f, list(line))
        if diff < 0:
            return DominanceVerdict(holds=False,
                                    witness=tuple(-x for x in line),
                                    margin=None, lines=lines)
        if margin is None or diff < margin:
            margin = diff
    if margin is None:
        margin = ZERO
    return DominanceVerdict(holds=True, witness=None, margin=margin,
                            lines=lines)


@dataclass(frozen=True)
class OracleOutcome:
    agrees: bool              # True when no violation of f ≤ g was sampled
    counterexample: Optional[tuple]
    f_value: Optional[Fraction]
    g_value: Optional[Fraction]
    samples: int


def randomized_dominance_oracle(f: RhoFunction, g: RhoFunction,
                                samples: int, seed: int) -> OracleOutcome:
    """Independent Monte Carlo cross-check of decide_dominance.

    Samples integer points (exact rationals) and evaluates both functions
    exactly; a strict violation is a certified counterexample to dominance.
    The bulk evaluation runs in int64 when a conservative overflow bound
    allows it, otherwise in Fractions; both paths are exact.
    """
    if f.rank != g.rank:
        raise RankMismatch(f"rho ranks differ: {f.rank} vs {g.rank}")
    r = f.rank
    rng = Random(seed)
    pts = [tuple(rng.randint(-9, 9) for _ in range(r)) for _ in range(samples)]
    if r == 0 or (not f.forms and not g.forms):
        return OracleOutcome(True, None, None, None, samples)
    scale = 1
    for lam, _ in tuple(f.forms) + tuple(g.forms):
        from math import lcm
        for x in lam:
            scale = lcm(scale, x.denominator)
    def int_forms(fn):
        return [([int(x * scale) for x in lam], m) for lam, m in fn.forms]
    fi, gi = int_forms(f), int_forms(g)
    max_coef = max((abs(c) for lam, _ in fi + gi for c in lam), default=0)
    mult_sum = sum(m for _, m in fi + gi)
    bound = max_coef * 9 * r * max(mult_sum, 1)
    idx = None
    if bound < 2 ** 62:
        import numpy as np
        P = np.array(pts, dtype=np.int64).T  # r x samples
        def eval_all(forms):
            total = np.zeros(samples, dtype=np.int64)
            for lam, m in forms:
                total += m * np.abs(np.array(lam, dtype=np.int64) @ P)
            return total
        diff = eval_all(gi) - eval_all(fi)
        where = np.nonzero(diff < 0)[0]
        idx = int(where[0]) if len(where) else None
    else:
        for i, p in enumerate(pts):
            if rho_eval(f, list(p)) > rho_eval(g, list(p)):
                idx = i
                break
    if idx is None:
        return OracleOutcome(True, None, None, None, samples)
    p = [Fraction(x) for x in pts[idx]]
    return OracleOutcome(False, tuple(p), rho_eval(f, p), rho_eval(g, p),
                         samples)
