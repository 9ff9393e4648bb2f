import random

import pytest

from markedpcp import monoid
from markedpcp.instances import EqualiserResult, Instance
from markedpcp.morphisms import Morphism, apply, identity
from markedpcp.oracle import BallSpec, check_result, enumerate_equaliser, image_ball
from markedpcp.words import (
    GROUP,
    MONOID,
    Alphabet,
    concat,
    longest_common_prefix,
    parse_word,
)

from support import empty_word, morphism, random_monoid_instance

SM = Alphabet(("a", "b"), MONOID)
DM = Alphabet(("x", "y"), MONOID)


class TestEnumerateEqualiser:
    def test_worked_pair_small_ball(self, marked_pair):
        words = enumerate_equaliser([marked_pair.g, marked_pair.h], BallSpec(4, MONOID))
        assert words == [empty_word(SM), parse_word(SM, "a b"), parse_word(SM, "a b a b")]

    def test_equal_morphisms_fill_the_ball(self):
        g = morphism(SM, DM, "x", "y")
        words = enumerate_equaliser([g, g], BallSpec(2, MONOID))
        assert len(words) == 7

    def test_disjoint_immersions_leave_only_the_identity(self):
        sigma = Alphabet(("a",), GROUP)
        delta = Alphabet(("x", "y"), GROUP)
        g = morphism(sigma, delta, "x")
        h = morphism(sigma, delta, "y")
        assert enumerate_equaliser([g, h], BallSpec(5, GROUP)) == [empty_word(sigma)]

    def test_group_maps_that_cancel_walk_the_whole_ball(self):
        # neither map is an immersion: g(a) and h(a) differ, yet a b maps to
        # the identity under both, so a pruned walk would miss it
        sigma = Alphabet(("a", "b"), GROUP)
        delta = Alphabet(("x", "y"), GROUP)
        g = morphism(sigma, delta, "x", "x^-1")
        h = morphism(sigma, delta, "y", "y^-1")
        words = enumerate_equaliser([g, h], BallSpec(4, GROUP))
        assert parse_word(sigma, "a b") in words

    def test_monotone_in_radius(self, marked_pair):
        small = enumerate_equaliser([marked_pair.g, marked_pair.h], BallSpec(4, MONOID))
        large = enumerate_equaliser([marked_pair.g, marked_pair.h], BallSpec(7, MONOID))
        assert set(small) <= set(large)

    def test_closed_under_concatenation(self, marked_pair):
        words = enumerate_equaliser([marked_pair.g, marked_pair.h], BallSpec(8, MONOID))
        in_ball = set(words)
        for u in words:
            for v in words:
                if len(u) + len(v) <= 8:
                    assert concat(u, v) in in_ball

    def test_common_prefix_closure(self):
        # two equaliser elements sharing a first letter share their longest
        # common prefix as an equaliser element
        rng = random.Random(71)
        for _ in range(20):
            inst = random_monoid_instance(rng)
            words = enumerate_equaliser([inst.g, inst.h], BallSpec(7, MONOID))
            by_first = {}
            for w in words:
                if w:
                    by_first.setdefault(w.first, []).append(w)
            for bucket in by_first.values():
                for u in bucket:
                    for v in bucket:
                        p = longest_common_prefix(u, v)
                        assert apply(inst.g, p) == apply(inst.h, p)

    def test_group_closure_under_product_and_inverse(self):
        from markedpcp.words import invert
        from support import random_group_instance

        rng = random.Random(89)
        for _ in range(10):
            inst = random_group_instance(rng, max_rank=2, max_len=3)
            radius = 5
            words = enumerate_equaliser([inst.g, inst.h], BallSpec(radius, GROUP))
            in_ball = set(words)
            for u in words:
                assert invert(u) in in_ball
                for v in words:
                    w = concat(u, v)
                    if len(w) <= radius:
                        assert w in in_ball

    def test_common_prefix_closure_group(self):
        from support import random_group_instance

        rng = random.Random(73)
        for _ in range(10):
            inst = random_group_instance(rng, max_rank=2, max_len=3)
            words = enumerate_equaliser([inst.g, inst.h], BallSpec(5, GROUP))
            by_first = {}
            for w in words:
                if w:
                    by_first.setdefault(w.first, []).append(w)
            for bucket in by_first.values():
                for u in bucket:
                    for v in bucket:
                        p = longest_common_prefix(u, v)
                        assert apply(inst.g, p) == apply(inst.h, p)


class TestImageBall:
    def test_powers_of_a_single_image(self):
        dom = Alphabet(("A",), MONOID)
        psi = morphism(dom, SM, "a b")
        words = image_ball(psi, BallSpec(5, MONOID))
        assert words == [empty_word(SM), parse_word(SM, "a b"), parse_word(SM, "a b a b")]

    def test_empty_domain_gives_only_identity(self):
        dom = Alphabet((), MONOID)
        psi = Morphism(dom, SM, ())
        assert image_ball(psi, BallSpec(3, MONOID)) == [empty_word(SM)]

    def test_identity_fills_the_ball(self):
        psi = identity(SM)
        assert len(image_ball(psi, BallSpec(3, MONOID))) == 1 + 2 + 4 + 8

    def test_group_mode(self):
        sigma = Alphabet(("A",), GROUP)
        delta = Alphabet(("x", "y"), GROUP)
        psi = morphism(sigma, delta, "x y")
        words = image_ball(psi, BallSpec(4, GROUP))
        assert parse_word(delta, "x y x y") in words
        assert parse_word(delta, "y^-1 x^-1") in words
        assert len(words) == 5

    def test_unmarked_rejected(self):
        psi = morphism(SM, DM, "x", "x x")
        with pytest.raises(ValueError):
            image_ball(psi, BallSpec(3, MONOID))


class TestCheckResult:
    def test_solver_output_passes(self, marked_pair):
        res = monoid.solve_pair(marked_pair)
        report = check_result(marked_pair, res, BallSpec(8, MONOID))
        assert report.passed
        assert report.lines()[0].startswith("PASS")

    def test_corrupted_basis_fails_with_witness(self, marked_pair):
        res = monoid.solve_pair(marked_pair)
        crippled = EqualiserResult(
            Morphism(Alphabet((), MONOID), SM, ()), (), res.trail, res.case
        )
        report = check_result(marked_pair, crippled, BallSpec(8, MONOID))
        assert not report.passed
        assert any("misses" in f for f in report.failures)

    def test_wrong_basis_word_reported(self, marked_pair):
        dom = Alphabet(("p0",), MONOID)
        wrong = Morphism(dom, SM, (parse_word(SM, "a"),))
        bogus = EqualiserResult(wrong, wrong.images, (), "cycle")
        report = check_result(marked_pair, bogus, BallSpec(6, MONOID))
        assert not report.passed
        assert any("not an equaliser element" in f for f in report.failures)

    def test_trivial_instance_passes(self):
        one = Alphabet(("a",), MONOID)
        inst = Instance(morphism(one, DM, "x"), morphism(one, DM, "y"))
        res = monoid.solve_pair(inst)
        report = check_result(inst, res, BallSpec(5, MONOID))
        assert report.passed


class TestBallSpec:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            BallSpec(-1, MONOID)

    def test_mode_mismatch_rejected(self, marked_pair):
        with pytest.raises(ValueError):
            enumerate_equaliser([marked_pair.g, marked_pair.h], BallSpec(3, GROUP))
