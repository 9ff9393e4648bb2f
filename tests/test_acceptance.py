"""Acceptance suite: one test per release criterion, each printing a
PASS line (visible with `pytest -s` or on failure).  The criteria are listed
in the README; random batches are seeded, so runs are reproducible."""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from markedpcp import group, monoid
from markedpcp.density import (
    DensityParams,
    MARKED_MONOID,
    marked_density_limit,
    measure_density,
    reduced_word_count,
    _signed_letters,
)
from markedpcp.morphisms import apply, is_immersion
from markedpcp.oracle import BallSpec, enumerate_equaliser, image_ball
from markedpcp.stallings import core_of_pair
from markedpcp.words import GROUP, MONOID, Alphabet, Word, parse_word

from density_reference import words_up_to
from support import random_group_instance, random_group_morphism, random_monoid_instance

MONOID_COUNT, MONOID_RADIUS = 200, 8
GROUP_COUNT, GROUP_RADIUS = 100, 6


def note(msg: str) -> None:
    print(f"[acceptance] {msg}")


@pytest.fixture(scope="module")
def monoid_batch():
    rng = random.Random(101)
    batch = []
    for _ in range(MONOID_COUNT):
        inst = random_monoid_instance(rng, max_rank=3, max_len=4)
        result = monoid.solve_pair(inst)
        truth = enumerate_equaliser([inst.g, inst.h], BallSpec(MONOID_RADIUS, MONOID))
        batch.append((inst, result, truth))
    return batch


@pytest.fixture(scope="module")
def group_batch():
    rng = random.Random(103)
    batch = []
    for _ in range(GROUP_COUNT):
        inst = random_group_instance(rng, max_rank=3, max_len=4)
        result = group.solve_pair(inst)
        truth = enumerate_equaliser([inst.g, inst.h], BallSpec(GROUP_RADIUS, GROUP))
        batch.append((inst, result, truth))
    return batch


@pytest.fixture(scope="module")
def reduction_batch():
    rng = random.Random(107)
    return [random_group_instance(rng, max_rank=3, max_len=4) for _ in range(500)]


def test_c1_worked_group_pipeline(immersed_pair):
    started = time.perf_counter()
    assert group.prefix_complexity(immersed_pair) == 16

    core, _, _ = core_of_pair(immersed_pair.g, immersed_pair.h)
    assert len(core.petals) == 2

    def canonical(w: Word) -> tuple:
        from markedpcp.words import invert

        return min(w.sort_key(), invert(w).sort_key())

    delta = immersed_pair.delta
    labels = {
        canonical(Word(delta, tuple((core.edges[e][2], d) for e, d in path)))
        for _, path in core.petals
    }
    expected = {
        canonical(parse_word(delta, "x y x x y")),
        canonical(parse_word(delta, "z x z")),
    }
    assert labels == expected

    step = group.reduce_group_instance(immersed_pair)
    sigma = immersed_pair.sigma
    assert step.after.g.images == (parse_word(sigma, "a b^-1"), parse_word(sigma, "c"))
    assert step.after.h.images == (parse_word(sigma, "a b"), parse_word(sigma, "c a c"))

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    note(f"C1 PASS: complexity 16, two petals, expected reduction ({elapsed:.3f}s)")


def test_c2_immersion_characterisations_agree(unfoldable_map):
    started = time.perf_counter()
    for method in ("marked", "folded", "lengths"):
        assert not is_immersion(unfoldable_map, method)

    rng = random.Random(109)
    disagreements = 0
    for _ in range(1000):
        k, m = rng.randint(1, 3), rng.randint(1, 3)
        sigma = Alphabet(tuple(f"a{i}" for i in range(k)), GROUP)
        delta = Alphabet(tuple(f"x{i}" for i in range(m)), GROUP)
        f = random_group_morphism(rng, sigma, delta, 5)
        answers = {is_immersion(f, meth) for meth in ("marked", "folded", "lengths")}
        if len(answers) != 1:
            disagreements += 1
    assert disagreements == 0

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    note(f"C2 PASS: bad map rejected thrice, 1000 morphisms agree ({elapsed:.2f}s)")


def test_c3_reduction_monotonicity(reduction_batch):
    violations = 0
    for inst in reduction_batch:
        step = group.reduce_group_instance(inst)
        if group.prefix_complexity(step.after) > group.prefix_complexity(inst):
            violations += 1
        if len(step.after.sigma) > len(inst.sigma):
            violations += 1
    assert violations == 0
    note(f"C3 PASS: {len(reduction_batch)} reductions, complexity never grew")


def test_c4_oracle_equivalence(monoid_batch, group_batch):
    for inst, result, truth in monoid_batch:
        found = image_ball(result.embedding, BallSpec(MONOID_RADIUS, MONOID))
        assert found == truth
    for inst, result, truth in group_batch:
        found = image_ball(result.embedding, BallSpec(GROUP_RADIUS, GROUP))
        assert found == truth
    note(
        f"C4 PASS: {len(monoid_batch)} monoid solves (radius {MONOID_RADIUS}) and"
        f" {len(group_batch)} group solves (radius {GROUP_RADIUS}) match enumeration"
    )


def test_c5_rank_bound(monoid_batch, group_batch, reduction_batch):
    checked = 0
    for inst, result, _ in list(monoid_batch) + list(group_batch):
        assert len(result.basis) <= len(inst.sigma)
        checked += 1
    for inst in reduction_batch:
        result = group.solve_pair(inst)
        assert len(result.basis) <= len(inst.sigma)
        checked += 1
    note(f"C5 PASS: basis rank bounded by the domain rank on {checked} solves")


def test_c6_worked_monoid_instance(marked_pair):
    result = monoid.solve_pair(marked_pair)
    sigma = marked_pair.sigma
    assert result.basis == (parse_word(sigma, "a b"),)
    truth = enumerate_equaliser([marked_pair.g, marked_pair.h], BallSpec(8, MONOID))
    expected = [
        parse_word(sigma, t) for t in ("eps", "a b", "a b a b", "a b a b a b", "a b a b a b a b")
    ]
    assert truth == expected
    assert image_ball(result.embedding, BallSpec(8, MONOID)) == expected
    note("C6 PASS: basis {ab}, radius-8 ball holds exactly the five powers")


def test_c7_termination_within_bounds(monoid_batch, group_batch):
    longest = 0
    total = 0
    for inst, result, _ in list(monoid_batch) + list(group_batch):
        bound = group.iteration_bound(inst)
        assert len(result.trail) <= bound
        longest = max(longest, len(result.trail))
        total += len(result.trail)
    note(
        f"C7 PASS: every trail within its bound;"
        f" max trail length {longest}, {total} reductions in total"
    )


def test_c8_density_counts():
    started = time.perf_counter()

    empirical, predicted = measure_density(DensityParams(2, 2, 10), MARKED_MONOID)
    assert predicted == marked_density_limit(2, 2) == Fraction(1, 2)
    assert abs(empirical - predicted) <= Fraction(1, 20)

    checked = 0
    for m in (1, 2, 3):
        letters = _signed_letters(m)
        subsets = [()] + [(l,) for l in letters] + list(combinations(letters, 2))
        by_ends = {n: {} for n in range(1, 9)}
        for w in words_up_to(m, 8, group=True):
            if w:
                key = (w[0], w[-1])
                bucket = by_ends[len(w)]
                bucket[key] = bucket.get(key, 0) + 1
        for n in range(1, 9):
            for A in subsets:
                for B in subsets:
                    brute = sum(
                        count
                        for (first, last), count in by_ends[n].items()
                        if first not in A and last not in B
                    )
                    assert reduced_word_count(m, n, A, B) == brute
                    checked += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    note(
        f"C8 PASS: exact density {float(empirical):.4f} within 0.05 of 1/2;"
        f" {checked} closed-form counts match enumeration ({elapsed:.2f}s)"
    )


def test_c9_strong_equivalence(monoid_batch, group_batch):
    def check(inst, radius, mode, reducer):
        step = reducer(inst)
        inner = enumerate_equaliser([step.after.g, step.after.h], BallSpec(radius, mode))
        mapped = [apply(step.g_prime, w) for w in inner]
        assert len(set(mapped)) == len(mapped)
        for image in mapped:
            assert apply(inst.g, image) == apply(inst.h, image)
        outer = enumerate_equaliser([inst.g, inst.h], BallSpec(radius, mode))
        assert set(outer) <= set(mapped)

    for inst, _, _ in monoid_batch:
        check(inst, MONOID_RADIUS, MONOID, monoid.reduce_instance)
    for inst, _, _ in group_batch:
        check(inst, GROUP_RADIUS, GROUP, group.reduce_group_instance)
    note(
        f"C9 PASS: first reductions of {len(monoid_batch)} monoid and"
        f" {len(group_batch)} group instances embed and cover their equalisers"
    )


def test_c10_out_of_scope_notes():
    # asymptotic space/time behaviour and infinite-length density limits are
    # not reproducible at desk scale; the suite logs trail-length counters
    # (C7) and finite-n trends (C8) instead of asserting any asymptotics
    note("C10 PASS: asymptotic claims excluded by design; counters logged in C7/C8")
