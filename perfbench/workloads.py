"""Workloads of the liepair benchmark and the known answer of every job.

A job is one `liepair check` call: one pair and the questions asked of it.
Every answer below comes from the mathematics of the pair, not from a run of
the tool; `source` says which fact gives it.  An answer set holds more than
one outcome only where a documented gate of the tool applies (see the
COMPLEXIFY_DIM_CAP jobs of `search-ladder`).

A question answered by sampling Ad-words has a true "yes" that the sample
can miss: no sampled word is a witness, and the tool then answers
probable_no, which by its contract is evidence, never a certified no.  Such
a miss is listed in `misses`: it does not fail the job, but it is not
decided either, so it lowers the `decided` metric.  The fixtures allow no
miss, as `liepair fixtures` does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class Answer:
    """Known answer to one question: the right outcomes, the outcomes
    accepted as a sampling miss and, where the mathematics fixes them, the
    tempered margin and stabilizer dimension of a right outcome."""

    question: str
    outcomes: frozenset
    source: str
    margin: Optional[Fraction] = None
    dimension: Optional[int] = None
    misses: frozenset = frozenset()


@dataclass(frozen=True)
class Job:
    """`spec` is a catalog spec (`family:params`) or `fixture:<name>`."""

    spec: str
    answers: tuple

    @property
    def questions(self):
        return [a.question for a in self.answers]


def _a(question, outcomes, source, margin=None, dimension=None, misses=()):
    if isinstance(outcomes, str):
        outcomes = (outcomes,)
    return Answer(question, frozenset(outcomes), source,
                  None if margin is None else Fraction(margin), dimension,
                  frozenset(misses))


SAMPLED = ("probable_no",)  # a sampled search that found no witness


ABELIAN_H = "abelian h gives rho_h = 0 <= rho_{g/h}"
GROUP_TEMPERED = ("group case: L2(G) is tempered, and the adjoint isomorphism "
                  "h = g/h gives rho_h = rho_{g/h} (margin 0)")
GROUP_COMPLEX = ("group case: B x B^- has an open orbit on G_C x G_C / diag "
                 "(open Bruhat cell)")
CAP = ("COMPLEXIFY_DIM_CAP gate: the realified complexification is above the "
       "cap, so the tool answers unknown; without the gate: ")

TEMPERED_LADDER = (
    Job("torus_pair:sl6", (_a("tempered", "yes_certified", ABELIAN_H),)),
    Job("torus_pair:sp_8", (_a("tempered", "yes_certified", ABELIAN_H),)),
    Job("torus_pair:so_4_4", (_a("tempered", "yes_certified", ABELIAN_H),)),
    Job("torus_pair:sl5", (_a("tempered", "yes_certified", ABELIAN_H),)),
    Job("diagonal_pair:sl5",
        (_a("tempered", "yes_certified", GROUP_TEMPERED, margin=0),)),
    Job("direct_sum:sl4:sl2",
        (_a("tempered", "no_certified",
            "h = sl4 acts trivially on g/h = sl2, so rho_{g/h} = 0 < rho_h"),)),
)

SEARCH_LADDER = (
    Job("torus_pair:sl4",
        (_a("real_spherical", "probable_no",
            "dim p + dim h = 9 + 3 < 15 = dim g rules out an open orbit; "
            "the tool reserves certified no, so probable_no"),)),
    Job("torus_pair:sl3",
        (_a("complex_spherical", "probable_no",
            "dim b + dim h_C = 10 + 4 < 16 = dim g_C (realified) rules out "
            "an open orbit; probable_no"),)),
    Job("whittaker_nilradical:sl4",
        (_a("real_spherical", "yes_certified",
            "Bruhat decomposition: P w0 N is open in G, so G/N is real "
            "spherical", misses=SAMPLED),)),
    Job("diagonal_pair:sp_4",
        (_a("complex_spherical", "yes_certified", GROUP_COMPLEX,
            misses=SAMPLED),)),
    Job("diagonal_pair:sp_4",
        (_a("generic_stabilizer_abelian", "yes_certified",
            "group case: the generic stabilizer is the centralizer of a "
            "regular element, a Cartan subalgebra of sp_4 (abelian, dim 2)",
            dimension=2, misses=SAMPLED),)),
    Job("diagonal_pair:sl4",
        (_a("complex_spherical", ("unknown", "yes_certified"),
            CAP + GROUP_COMPLEX, misses=SAMPLED),)),
    Job("triple_diagonal:sl3",
        (_a("complex_spherical", ("unknown", "probable_no"),
            CAP + "dim b + dim h_C = 30 + 16 < 48 = dim g_C (realified) "
            "rules out an open orbit"),)),
)


def _fixture_setup():
    """The bundled fixtures, each with exactly the questions its recorded
    expectations announce, as `liepair fixtures` runs them.  The
    expectations carry their own sources."""
    from liepair.catalog import FIXTURES

    out = []
    for fx in FIXTURES:
        pair = fx.build()
        answers = tuple(
            Answer(e.question, frozenset((e.outcome,)), e.source, e.margin,
                   e.dimension)
            for e in pair.expectations)
        out.append((Job(f"fixture:{fx.name}", answers), pair))
    return out


def _ladder_setup(jobs):
    from liepair.catalog import construct_from_spec

    pairs = {}
    for job in jobs:
        if job.spec not in pairs:
            pairs[job.spec] = construct_from_spec(job.spec)
    return [(job, pairs[job.spec]) for job in jobs]


WORKLOADS = {
    "fixtures": _fixture_setup,
    "tempered-ladder": lambda: _ladder_setup(TEMPERED_LADDER),
    "search-ladder": lambda: _ladder_setup(SEARCH_LADDER),
}


def setup(workload):
    """Build every pair of `workload` once: catalog construction, torus
    validation and eager complexification.  Returns [(Job, Pair)] in run
    order; this is the set-up the benchmark times."""
    return WORKLOADS[workload]()
