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
vector.  The forms are the integer weights of `weights`, over their torus's
denominator, so the functions are evaluated at a line in integers; a line
stays an integer vector y, written as the exact vector (y, y0) with y0 its
first nonzero entry, and the margin is the one Fraction.  No float is used.

Often no line is needed: termwise_dominance proves f ≤ g summand by
summand when, along every primitive direction of the forms, f's coefficient
is at most g's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional

from .linalg import (
    primitive,
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


@dataclass(frozen=True)
class Arrangement:
    """Deduplicated union of the nonzero forms of two rho functions, each
    the primitive integer vector of its line (see linalg.primitive)."""

    rank: int
    forms: tuple  # sorted tuple of primitive int tuples


@dataclass(frozen=True)
class DominanceVerdict:
    """lines holds enumerate_lines's integer lines y, which a certificate
    writes as their canonical_rows (y, y0); the witness of a violation is
    the exact vector (−y, y0) of its half-line."""

    holds: bool
    witness: Optional[tuple]
    margin: Optional[Fraction]
    lines: tuple


def build_arrangement(f: RhoFunction, g: RhoFunction) -> Arrangement:
    if f.rank != g.rank:
        raise RankMismatch(f"rho ranks differ: {f.rank} vs {g.rank}")
    seen = {primitive(lam) for lam, _ in f.forms + g.forms if any(lam)}
    return Arrangement(rank=f.rank, forms=tuple(sorted(seen)))


def _cut(basis, r):
    """An integer basis of the hyperplane {Σ c_j basis[j] : r·c = 0} of the
    span of `basis`, by one fraction-free elimination step against the
    first basis vector that r does not annihilate."""
    p = next(j for j, x in enumerate(r) if x)
    rp, pivot = r[p], basis[p]
    return [primitive([rp * a - rj * b for a, b in zip(v, pivot)])
            for j, (v, rj) in enumerate(zip(basis, r)) if j != p]


def enumerate_lines(arr: Arrangement, budget=DEFAULT_CONE_BUDGET):
    """The 1-dimensional flats of the arrangement in the quotient by the
    common kernel of the forms, each as a direction in the span of the
    forms (a canonical complement of that kernel): the primitive integer
    vector whose first nonzero entry is positive, in _sorted_lines's order.

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
    span_rows, _ = rref(arr.forms)
    d = len(span_rows)
    forms = [primitive([sum(map(mul, lam, r)) for r in span_rows])
             for lam in arr.forms]
    flats = {frozenset(): [[int(i == j) for j in range(d)] for i in range(d)]}
    count = 1
    for _ in range(d - 1):
        grown = {}
        for closure, basis in flats.items():
            covers = {}
            for i, mu in enumerate(forms):
                if i not in closure:
                    r = primitive([sum(map(mul, mu, v)) for v in basis])
                    covers.setdefault(r, []).append(i)
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
    return _sorted_lines([primitive([sum(map(mul, z, col)) for col in columns])
                          for (z,) in flats.values()])


def _sorted_lines(lines):
    """Primitive integer lines y in the order of y/y0, y0 the first nonzero
    entry, by the integer key D·(y/y0), D the lcm of the y0."""
    D = lcm(*[next(x for x in y if x) for y in lines])
    return sorted(lines, key=lambda y: [x * (D // next(v for v in y if v))
                                        for x in y])


def direction_table(f: RhoFunction) -> dict:
    """den·rho(y) = Σ_d c(d)|d·y| over primitive directions d: a form
    λ = k·d with multiplicity m adds m·|k| to c(d)."""
    table = {}
    for lam, m in f.forms:
        d = primitive(lam)
        table[d] = table.get(d, 0) + m * gcd(*lam)
    return table


def termwise_dominance(f: RhoFunction, g: RhoFunction) -> Optional[bool]:
    """f ≤ g proven summand by summand, with no line enumerated.

    With c_f and c_g the direction_tables, g − f =
    Σ_d (c_g(d)·f.den − c_f(d)·g.den)|d·y| / (f.den·g.den), which is ≥ 0
    everywhere when c_f(d)·g.den ≤ c_g(d)·f.den for every d.  Returns None
    when some d breaks that, where the rule says nothing; otherwise f ≤ g
    holds, and the value says whether the two scaled tables are equal,
    that is whether f = g (then decide_dominance's margin is 0).  Two rank-0
    functions have empty tables, so they are equal.
    """
    if f.rank != g.rank:
        raise RankMismatch(f"rho ranks differ: {f.rank} vs {g.rank}")
    cf, cg = direction_table(f), direction_table(g)
    if any(c * g.den > cg.get(d, 0) * f.den for d, c in cf.items()):
        return None
    # every direction of f is one of g, so g's directions cover both
    return all(c * f.den == cf.get(d, 0) * g.den for d, c in cg.items())


def decide_dominance(f: RhoFunction, g: RhoFunction,
                     budget=DEFAULT_CONE_BUDGET) -> DominanceVerdict:
    """Decide f(Y) ≤ g(Y) for all Y, exactly.

    Both functions are even and linear on each cone, so the difference is
    checked once per line of the arrangement; any strict violation there is
    an exact counterexample.  Each function's forms are integers over its
    den and enumerate_lines gives each line as a primitive integer vector
    y with first nonzero entry y0 > 0, so a line costs integer arithmetic
    (RhoFunction.scaled): g − f at y/y0 is num/(f.den·g.den·y0), and the
    least num/y0 is kept as a pair of ints until the margin is formed.
    The witness is the least violating half-line in lexicographic order,
    the negative of the greatest violating line.  With no forms at all both
    functions vanish identically and the verdict holds with margin 0 by
    convention.
    """
    lines = tuple(enumerate_lines(build_arrangement(f, g), budget))
    least = (0, 1)
    for k, y in enumerate(reversed(lines)):
        y0 = next(x for x in y if x)
        num = g.scaled(y) * f.den - f.scaled(y) * g.den
        if num < 0:
            return DominanceVerdict(holds=False,
                                    witness=(tuple(-x for x in y), y0),
                                    margin=None, lines=lines)
        if k == 0 or num * least[1] < least[0] * y0:
            least = (num, y0)
    margin = Fraction(least[0], f.den * g.den * least[1])
    return DominanceVerdict(holds=True, witness=None, margin=margin,
                            lines=lines)
