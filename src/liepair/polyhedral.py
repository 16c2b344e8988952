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
line decides the inequality.  The lines are found by growing the flats
themselves, as subspaces with integer bases, one rank at a time; no cone is
ever built.  The covers of a flat come from one pass over the forms, grouped
by their restriction to it, and each line is found as a primitive integer
vector, at which the functions are evaluated in integers, so a line costs
one Fraction for its margin and its normalized form for the certificate.
Nothing here uses a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional

from .linalg import (
    ZERO,
    integer_row,
    rank,  # noqa: F401  (perfbench/test_perfbench.py checks this binding)
    rref,
)
from .weights import RhoFunction

DEFAULT_CONE_BUDGET = 10 ** 6


class ConeBudgetExceeded(RuntimeError):
    """The arrangement has more flats than the budget.  The number of flats
    never exceeds the number of its full-dimensional cones."""


class RankMismatch(ValueError):
    pass


def normalize_form(v):
    """Canonical representative modulo positive scaling and global sign:
    v divided by its first nonzero coordinate, which becomes +1, as a tuple
    of Fractions (v may hold ints or Fractions).  Returns None for the zero
    form."""
    nz = next((x for x in v if x != 0), None)
    if nz is None:
        return None
    return tuple(Fraction(x, nz) for x in v)


@dataclass(frozen=True)
class Arrangement:
    """Deduplicated union of the nonzero forms of two rho functions."""

    rank: int
    forms: tuple  # tuple of canonical form tuples


@dataclass(frozen=True)
class DominanceVerdict:
    holds: bool
    witness: Optional[tuple]
    margin: Optional[Fraction]
    lines: tuple  # the lines evaluated, enumerate_lines's by normalize_form


def build_arrangement(f: RhoFunction, g: RhoFunction) -> Arrangement:
    if f.rank != g.rank:
        raise RankMismatch(f"rho ranks differ: {f.rank} vs {g.rank}")
    seen = {normalize_form(lam) for lam, _ in tuple(f.forms) + tuple(g.forms)}
    seen.discard(None)
    return Arrangement(rank=f.rank, forms=tuple(sorted(seen)))


def _primitive(v):
    """A nonzero integer vector divided by the gcd of its entries and signed
    so that its first nonzero entry is positive."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return v if g == 1 else [x // g for x in v]


def _cut(basis, r):
    """An integer basis of the hyperplane {Σ c_j basis[j] : r·c = 0} of the
    span of `basis`, by one fraction-free elimination step against the
    first basis vector that r does not annihilate."""
    p = next(j for j, x in enumerate(r) if x)
    rp, pivot = r[p], basis[p]
    return [_primitive([rp * a - rj * b for a, b in zip(v, pivot)])
            for j, (v, rj) in enumerate(zip(basis, r)) if j != p]


def enumerate_lines(arr: Arrangement, budget=DEFAULT_CONE_BUDGET):
    """The 1-dimensional flats of the arrangement in the quotient by the
    common kernel of the forms, each as a direction in the span of the
    forms (a canonical complement of that kernel): the primitive integer
    vector whose first nonzero entry is positive, sorted by its
    normalize_form, the line a certificate writes.

    The quotient has coordinates z ∈ ℚ^d, the pairings with the rref rows
    of the span of forms, where each form is a primitive integer vector.  A
    flat is kept as its closure, the set of forms that vanish on it, with an
    integer basis of its subspace; the whole quotient has the empty closure
    and the identity basis.  The flats one dimension down from a flat F come
    from one pass over the forms outside its closure: a form restricted to
    F (its values on F's basis), reduced by gcd and sign, names a hyperplane
    of F, and the forms with the same restriction vanish on the same cover
    G, whose closure is closure(F) with them added.  A cover not seen before
    gets its basis from _cut.  The flats are grown down to dimension 1, all
    over ℤ; the budget bounds the number of flats, the whole quotient
    included.
    """
    if not arr.forms:
        return []
    forms = [integer_row(lam)[0] for lam in arr.forms]
    span_rows, _ = rref(forms)
    d = len(span_rows)
    forms = [_primitive([sum(map(mul, lam, r)) for r in span_rows])
             for lam in forms]
    flats = {frozenset(): [[int(i == j) for j in range(d)] for i in range(d)]}
    count = 1
    for _ in range(d - 1):
        grown = {}
        for closure, basis in flats.items():
            covers = {}
            for i, mu in enumerate(forms):
                if i not in closure:
                    r = _primitive([sum(map(mul, mu, v)) for v in basis])
                    covers.setdefault(tuple(r), []).append(i)
            for r, group in covers.items():
                key = closure.union(group)
                if key not in grown:
                    count += 1
                    if count > budget:
                        raise ConeBudgetExceeded(
                            f"flat count exceeded the budget of {budget}")
                    grown[key] = _cut(basis, r)
        flats = grown
    # back to the ambient coordinates
    columns = list(zip(*span_rows))
    return sorted((_primitive([sum(map(mul, z, col)) for col in columns])
                   for (z,) in flats.values()), key=normalize_form)


def _integer_forms(f: RhoFunction):
    """(forms, den) with f(Y) = Σ m |λ·Y| / den over the returned integer
    forms λ, den being the lcm of the denominators of all of f's entries."""
    den = lcm(*(x.denominator for lam, _ in f.forms for x in lam))
    return [([x.numerator * (den // x.denominator) for x in lam], m)
            for lam, m in f.forms], den


def decide_dominance(f: RhoFunction, g: RhoFunction,
                     budget=DEFAULT_CONE_BUDGET) -> DominanceVerdict:
    """Decide f(Y) ≤ g(Y) for all Y, exactly.

    Both functions are even and linear on each cone, so the difference is
    checked once per line of the arrangement; any strict violation there is
    an exact counterexample.  Each function's forms are scaled to integers
    once and enumerate_lines gives each line as a primitive integer vector
    y with first nonzero entry y0 > 0, so a line costs integer arithmetic,
    one Fraction for the difference g − f at y/y0, and its normalized form
    y/y0 for the certificate.
    The witness is the least violating half-line in lexicographic order,
    the negative of the greatest violating line.  With no forms at all both
    functions vanish identically and the verdict holds with margin 0 by
    convention.
    """
    ints = enumerate_lines(build_arrangement(f, g), budget)
    lines = tuple(map(normalize_form, ints))
    (fi, fden), (gi, gden) = _integer_forms(f), _integer_forms(g)
    margin = None
    for line, y in zip(reversed(lines), reversed(ints)):
        sf = sum(m * abs(sum(map(mul, lam, y))) for lam, m in fi)
        sg = sum(m * abs(sum(map(mul, lam, y))) for lam, m in gi)
        y0 = next(x for x in y if x)
        diff = Fraction(sg * fden - sf * gden, fden * gden * y0)
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
