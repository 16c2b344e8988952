import itertools
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    enumerate_lines_oracle,
    kernel_oracle,
    normalize_form,
    randomized_dominance_oracle,
    rho_of,
    rref_oracle,
)
from liepair.polyhedral import (
    ConeBudgetExceeded,
    build_arrangement,
    decide_dominance,
    enumerate_lines,
)
from liepair import polyhedral
from liepair.linalg import fraction_row, primitive
from liepair.weights import rho_eval

F = Fraction


def random_rho(rng, rank, max_forms=4, entry=3, max_mult=3):
    forms = []
    for _ in range(rng.randint(0, max_forms)):
        lam = tuple(F(rng.randint(-entry, entry)) for _ in range(rank))
        if any(x != 0 for x in lam):
            forms.append((lam, rng.randint(1, max_mult)))
    return rho_of(rank, forms)


def lines_of(arr, budget=10 ** 6):
    """enumerate_lines's lines by normalize_form, after checking that each
    is a primitive integer vector with a positive first nonzero entry."""
    ints = enumerate_lines(arr, budget)
    for y in ints:
        assert all(type(x) is int for x in y)
        assert gcd(*y) == 1 and next(x for x in y if x) > 0
    return [normalize_form(y) for y in ints]


def common_kernel(arr):
    """Canonical rows of the common kernel of the arrangement's forms."""
    return kernel_oracle([list(x) for x in arr.forms], arr.rank)


# --- arrangement -----------------------------------------------------------

def test_arrangement_dedup_modulo_scaling_and_sign():
    f = rho_of(1, [((2,), 1)])
    g = rho_of(1, [((2,), 1), ((-2,), 1)])
    arr = build_arrangement(f, g)
    assert arr.forms == ((F(1),),)
    assert len(common_kernel(arr)) == 0


def test_arrangement_empty():
    arr = build_arrangement(rho_of(2, []), rho_of(2, []))
    assert arr.forms == ()
    assert len(common_kernel(arr)) == 2
    assert lines_of(arr) == []


def test_arrangement_three_forms_rank2():
    arr = build_arrangement(rho_of(2, [((1, 0), 1), ((0, 1), 1)]),
                            rho_of(2, [((1, 1), 2)]))
    assert len(arr.forms) == 3
    assert len(common_kernel(arr)) == 0


# --- line enumeration ------------------------------------------------------

def test_rank1_two_cones():
    # the two cones of a rank-1 arrangement are the half-lines of its line
    arr = build_arrangement(rho_of(1, [((2,), 1)]), rho_of(1, []))
    assert lines_of(arr) == [(F(1),)]


def test_quadrants():
    arr = build_arrangement(rho_of(2, [((1, 0), 1), ((0, 1), 1)]), rho_of(2, []))
    assert lines_of(arr) == [(F(0), F(1)), (F(1), F(0))]


def test_quotient_of_rank_one_is_its_span_of_forms():
    # d = 1 inside rank 3: the one line is the span of the forms, not the
    # lineality plane
    f = rho_of(3, [((2, 4, 0), 1), ((-1, -2, 0), 2)])
    arr = build_arrangement(f, rho_of(3, []))
    assert len(common_kernel(arr)) == 2
    assert lines_of(arr) == [(F(1), F(2), F(0))]


def brute_force_region_count(forms, rank, grid=12):
    """Oracle: distinct strict sign vectors over a dense grid of directions."""
    seen = set()
    rng = range(-grid, grid + 1)
    for pt in itertools.product(rng, repeat=rank):
        if all(x == 0 for x in pt):
            continue
        signs = []
        for lam in forms:
            v = sum(a * b for a, b in zip(lam, pt))
            if v == 0:
                break
            signs.append(1 if v > 0 else -1)
        else:
            seen.add(tuple(signs))
    return len(seen)


def test_six_cones_for_x_y_xplusy():
    f = rho_of(2, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)])
    arr = build_arrangement(f, rho_of(2, []))
    lines = lines_of(arr)
    assert len(lines) == 3
    # in rank 2 every line bounds two of the cones and each cone has two
    assert brute_force_region_count(arr.forms, 2) == 2 * len(lines) == 6


def test_cone_count_matches_brute_force_random_rank2():
    rng = Random(23)
    for _ in range(15):
        f = random_rho(rng, 2)
        g = random_rho(rng, 2)
        arr = build_arrangement(f, g)
        if not arr.forms:
            continue
        cones = brute_force_region_count(arr.forms, 2)
        # a budget the cones fit in is never exceeded by the flats
        assert cones == 2 * len(lines_of(arr, budget=cones))


def brute_force_lines(arr):
    """Oracle: the kernel, inside the orthogonal complement of the
    common kernel of the forms, of every (d-1)-subset of forms that has
    rank d-1."""
    d = len(rref_oracle([list(x) for x in arr.forms])[0])
    lin = [list(r) for r in common_kernel(arr)]
    out = set()
    for subset in itertools.combinations(arr.forms, d - 1):
        if len(rref_oracle([list(x) for x in subset])[0]) != d - 1:
            continue
        (line,) = kernel_oracle([list(x) for x in subset] + lin, arr.rank)
        out.add(normalize_form(line))
    return sorted(out)


def test_lines_match_brute_force_oracle_rank_le4():
    rng = Random(47)
    checked = 0
    for _ in range(60):
        r = rng.randint(1, 4)
        arr = build_arrangement(random_rho(rng, r, max_forms=5),
                                random_rho(rng, r, max_forms=5))
        if not arr.forms:
            continue
        assert lines_of(arr) == brute_force_lines(arr)
        checked += 1
    assert checked > 40


@st.composite
def arrangements(draw):
    """Arrangements of rank 1 to 5 from integer and rational forms, with
    repeated and parallel copies, split between two rho functions; some
    draws keep a single base form, so that the forms span d = 1."""
    r = draw(st.sampled_from(range(1, 6)))
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    n = draw(st.sampled_from((1,) + tuple(range(2, r + 3)) * 4))
    base = [draw(st.lists(entry, min_size=r, max_size=r)) for _ in range(n)]
    scale = st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(
        lambda q: q != 0)
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), scale),
                           max_size=3))
    forms = base + [[q * x for x in base[i]] for i, q in copies]
    sides = draw(st.lists(st.booleans(), min_size=len(forms),
                          max_size=len(forms)))
    f = rho_of(r, [(lam, 1) for lam, s in zip(forms, sides) if s])
    g = rho_of(r, [(lam, 2) for lam, s in zip(forms, sides) if not s])
    return build_arrangement(f, g)


def lines_or_budget(enumerate_, arr, budget):
    try:
        return enumerate_(arr, budget=budget)
    except ConeBudgetExceeded as e:
        return str(e)


@settings(max_examples=100, deadline=None)
@given(arrangements())
@example(build_arrangement(rho_of(3, [((1, 2, 0), 1), ((-2, -4, 0), 1)]),
                           rho_of(3, [((F(1, 2), 1, 0), 3)])))
def test_lines_match_the_span_oracle_at_every_budget(arr):
    # the library at every budget from 1 up to the flat count, the first
    # budget it fits in; the oracle's count only grows, so it raises at
    # every budget below the count iff it raises one below it
    flats = 1
    while isinstance(lines_or_budget(lines_of, arr, flats), str):
        flats += 1
    for budget in {max(flats - 1, 1), flats}:
        assert lines_or_budget(lines_of, arr, budget) == \
            lines_or_budget(enumerate_lines_oracle, arr, budget)
    assert lines_of(arr, budget=flats) == enumerate_lines_oracle(arr)


def test_cone_budget_exceeded():
    f = rho_of(2, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)])
    arr = build_arrangement(f, rho_of(2, []))
    with pytest.raises(ConeBudgetExceeded):
        lines_of(arr, budget=2)
    # the whole plane and three lines: four flats, fewer than the six cones
    assert len(lines_of(arr, budget=4)) == 3


# --- dominance -------------------------------------------------------------

def test_dominance_zero_vs_anything():
    g = rho_of(1, [((2,), 1)])
    v = decide_dominance(rho_of(1, []), g)
    assert v.holds and v.margin == 2


def test_dominance_equal_functions_margin_zero():
    f = rho_of(1, [((2,), 1), ((-2,), 1)])
    v = decide_dominance(f, f)
    assert v.holds and v.margin == 0 and v.lines == ((F(1),),)


def test_dominance_fails_with_exact_witness():
    f = rho_of(1, [((2,), 1), ((-2,), 1)])   # 4|t|
    g = rho_of(1, [((2,), 1)])               # 2|t|
    v = decide_dominance(f, g)
    assert not v.holds
    ray = fraction_row(v.witness)
    assert rho_eval(f, ray) > rho_eval(g, ray)
    assert rho_eval(f, ray) == 4


def test_dominance_empty_case():
    v = decide_dominance(rho_of(3, []), rho_of(3, []))
    assert v.holds and v.margin == 0 and v.lines == ()


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=4))
def test_margin_and_witness_match_rho_eval(seed, rank):
    rng = Random(seed)
    def rational_rho():
        return rho_of(rank, [
            (tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(rank)), rng.randint(1, 3))
            for _ in range(rng.randint(0, 4))])
    f, g = rational_rho(), rational_rho()
    v = decide_dominance(f, g)
    lines = lines_of(build_arrangement(f, g))
    assert list(map(normalize_form, v.lines)) == lines
    diffs = [rho_eval(g, list(line)) - rho_eval(f, list(line))
             for line in lines]
    violating = [line for line, d in zip(lines, diffs) if d < 0]
    if violating:
        assert not v.holds and v.margin is None
        assert fraction_row(v.witness) == [-x for x in max(violating)]
    else:
        assert v.holds and v.witness is None
        assert v.margin == min(diffs, default=F(0))
        assert type(v.margin) is Fraction


def brute_force_dominates(f, g, N=25):
    rank = f.rank
    for pt in itertools.product(range(-N, N + 1), repeat=rank):
        if all(x == 0 for x in pt):
            continue
        y = [F(x) for x in pt]
        if rho_eval(f, y) > rho_eval(g, y):
            return False, pt
    return True, None


def test_dominance_vs_integer_sweep_rank_le2():
    rng = Random(31)
    for _ in range(60):
        rank = rng.randint(1, 2)
        f, g = random_rho(rng, rank), random_rho(rng, rank)
        verdict = decide_dominance(f, g)
        sweep_ok, _ = brute_force_dominates(f, g)
        assert verdict.holds == sweep_ok


def test_dominance_vs_randomized_oracle_rank_le3():
    rng = Random(37)
    for _ in range(40):
        rank = rng.randint(1, 3)
        f, g = random_rho(rng, rank), random_rho(rng, rank)
        verdict = decide_dominance(f, g)
        oracle = randomized_dominance_oracle(f, g, samples=2000,
                                             seed=rng.randint(0, 10 ** 6))
        if not oracle.agrees:
            assert not verdict.holds
            assert oracle.f_value > oracle.g_value


def test_oracle_violation_is_exact():
    f = rho_of(1, [((2,), 1), ((-2,), 1)])
    g = rho_of(1, [((2,), 1)])
    out = randomized_dominance_oracle(f, g, samples=500, seed=0)
    assert not out.agrees
    y = list(out.counterexample)
    assert rho_eval(f, y) == out.f_value > out.g_value == rho_eval(g, y)


def test_oracle_never_flags_equal_functions():
    rng = Random(41)
    for _ in range(10):
        f = random_rho(rng, 2)
        out = randomized_dominance_oracle(f, f, samples=500,
                                          seed=rng.randint(0, 100))
        assert out.agrees


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4))
def test_dominance_scaling_invariance(seed, q):
    rng = Random(seed)
    rank = rng.randint(1, 2)
    f, g = random_rho(rng, rank), random_rho(rng, rank)
    base = decide_dominance(f, g)
    fq = rho_of(rank, [(tuple(q * x for x in lam), m) for lam, m in f.forms])
    gq = rho_of(rank, [(tuple(q * x for x in lam), m) for lam, m in g.forms])
    scaled = decide_dominance(fq, gq)
    assert scaled.holds == base.holds
    assert scaled.witness == base.witness
    assert scaled.lines == base.lines


def test_normalize_form_canonical():
    assert normalize_form([F(-2), F(4)]) == (F(1), F(-2))
    assert normalize_form([F(0), F(0)]) is None
    assert primitive([-2, 4]) == (1, -2) == primitive((3, -6))
    assert primitive((0, 3, -6)) == (0, 1, -2)


primitive_lines = st.integers(1, 4).flatmap(lambda rank: st.lists(
    st.lists(st.integers(-12, 12), min_size=rank, max_size=rank)
    .filter(any).map(primitive), min_size=1, max_size=10, unique=True))


@settings(max_examples=200, deadline=None)
@given(primitive_lines)
def test_the_integer_line_key_orders_as_the_normalized_forms(lines):
    # the certificate writes y/y0; the lines are sorted without forming it
    assert polyhedral._sorted_lines(lines) == sorted(lines, key=normalize_form)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_adding_forms_preserves_dominance_direction(seed):
    # f <= f + g pointwise, and f + g <= f fails once g has any form
    rng = Random(seed)
    rank = rng.randint(1, 3)
    f, g = random_rho(rng, rank), random_rho(rng, rank)
    combined = rho_of(rank, f.forms + g.forms)
    assert decide_dominance(f, combined).holds
    if g.forms:
        assert not decide_dominance(combined, f).holds
