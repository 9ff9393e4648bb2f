import random

import pytest

from markedpcp import monoid
from markedpcp.instances import CASE_CYCLE, CASE_SINGLE, Instance, ReductionStep, canonical_form
from markedpcp.morphisms import Morphism, NotMarkedError, apply, greedy_decode, identity
from markedpcp.oracle import BallSpec, enumerate_equaliser, image_ball
from markedpcp.words import MONOID, Alphabet, Letter, parse_word

from support import morphism, random_marked_morphism, random_monoid_instance

SM = Alphabet(("a", "b"), MONOID)
DM = Alphabet(("x", "y"), MONOID)


class TestComputeBlocks:
    def test_worked_pair(self, marked_pair):
        blocks = monoid.compute_blocks(marked_pair.g, marked_pair.h)
        assert [(b.letter, b.u, b.v) for b in blocks] == [
            (Letter(0, 1), parse_word(SM, "a b"), parse_word(SM, "a b")),
            (Letter(1, 1), parse_word(SM, "b b"), parse_word(SM, "b")),
        ]

    def test_identity_pair(self):
        f = identity(SM)
        blocks = monoid.compute_blocks(f, f)
        assert [(b.u, b.v) for b in blocks] == [
            (parse_word(SM, "a"), parse_word(SM, "a")),
            (parse_word(SM, "b"), parse_word(SM, "b")),
        ]

    def test_disjoint_first_letters_have_no_blocks(self):
        one = Alphabet(("a",), MONOID)
        g = morphism(one, DM, "x")
        h = morphism(one, DM, "y")
        assert monoid.compute_blocks(g, h) == ()

    def test_non_marked_rejected(self):
        g = morphism(SM, DM, "x", "x x")
        with pytest.raises(NotMarkedError):
            monoid.compute_blocks(g, g)

    def test_no_block_when_overhang_cycles(self):
        # g only produces even lengths and h odd lengths along the x track,
        # so the images approximate (xy)^inf forever and the search state
        # repeats without the overhang ever emptying
        one = Alphabet(("c",), MONOID)
        g = morphism(one, DM, "x y")
        h = morphism(SM, DM, "x", "y x")
        assert monoid.compute_blocks(g, h) == ()


class TestReduceInstance:
    def test_worked_pair(self, marked_pair):
        step = monoid.reduce_instance(marked_pair)
        after = step.after
        assert after.sigma.symbols == ("p0", "p1")
        assert after.g.images == (parse_word(SM, "a b"), parse_word(SM, "b b"))
        assert after.h.images == (parse_word(SM, "a b"), parse_word(SM, "b"))

    def test_equal_pair_reduces_to_identity_shape(self):
        g = morphism(SM, DM, "x y", "y x")
        step = monoid.reduce_instance(Instance(g, g))
        assert step.after.g == step.after.h
        assert all(len(w) == 1 for w in step.after.g.images)

    def test_no_blocks_gives_empty_alphabet(self):
        one = Alphabet(("a",), MONOID)
        step = monoid.reduce_instance(Instance(morphism(one, DM, "x"), morphism(one, DM, "y")))
        assert len(step.after.sigma) == 0

    def test_step_consistency_is_checked(self, marked_pair):
        step = monoid.reduce_instance(marked_pair)
        with pytest.raises(AssertionError):
            ReductionStep(step.before, step.after, step.g_prime, step.g_prime, step.blocks)

    def test_step_codomains_are_checked_without_generators(self):
        # a step with no new generators applies nothing, so only the
        # codomain check can catch a g' or h' over the wrong alphabet
        one = Alphabet(("a",), MONOID)
        step = monoid.reduce_instance(Instance(morphism(one, DM, "x"), morphism(one, DM, "y")))
        wrong = Morphism(step.g_prime.domain, SM, ())
        for g_prime, h_prime in ((wrong, step.h_prime), (step.g_prime, wrong)):
            with pytest.raises(ValueError, match="codomain of the inner morphism"):
                ReductionStep(step.before, step.after, g_prime, h_prime, step.blocks)


class TestSolvePair:
    def test_worked_pair_basis(self, marked_pair):
        res = monoid.solve_pair(marked_pair)
        assert res.case == CASE_CYCLE
        assert res.basis == (parse_word(SM, "a b"),)
        assert res.embedding.domain.symbols == ("p0",)

    def test_equal_morphisms_give_identity(self):
        g = morphism(SM, DM, "x y", "y")
        res = monoid.solve_pair(Instance(g, g))
        assert [w.letters for w in res.basis] == [((0, 1),), ((1, 1),)]

    def test_disjoint_images_give_trivial_equaliser(self):
        one = Alphabet(("a",), MONOID)
        res = monoid.solve_pair(Instance(morphism(one, DM, "x"), morphism(one, DM, "y")))
        assert res.case == CASE_SINGLE
        assert res.basis == ()

    def test_single_generator_agreement(self):
        one = Alphabet(("a",), MONOID)
        g = morphism(one, DM, "x y")
        res = monoid.solve_pair(Instance(g, g))
        assert res.case == CASE_SINGLE
        assert res.basis == (parse_word(one, "a"),)

    def test_non_marked_input_rejected(self):
        g = morphism(SM, DM, "x", "x x")
        h = morphism(SM, DM, "x", "y")
        with pytest.raises(NotMarkedError):
            monoid.solve_pair(Instance(g, h))

    def test_oracle_matches_on_random_instances(self):
        rng = random.Random(23)
        for _ in range(25):
            inst = random_monoid_instance(rng)
            res = monoid.solve_pair(inst)
            ball = BallSpec(6, MONOID)
            assert image_ball(res.embedding, ball) == enumerate_equaliser([inst.g, inst.h], ball)


class TestStrongEquivalence:
    def test_reduction_preserves_the_equaliser(self):
        rng = random.Random(29)
        for _ in range(40):
            inst = random_monoid_instance(rng)
            step = monoid.reduce_instance(inst)
            radius = 6
            inner = enumerate_equaliser([step.after.g, step.after.h], BallSpec(radius, MONOID))
            mapped = [apply(step.g_prime, w) for w in inner]
            assert len(set(mapped)) == len(mapped)
            for image in mapped:
                assert apply(inst.g, image) == apply(inst.h, image)
            outer = enumerate_equaliser([inst.g, inst.h], BallSpec(radius, MONOID))
            assert set(outer) <= set(mapped)


class TestSolveSet:
    def test_two_morphisms_match_pair_solver(self, marked_pair):
        res_set = monoid.solve_set(
            [marked_pair.g, marked_pair.h], marked_pair.sigma, marked_pair.delta
        )
        res_pair = monoid.solve_pair(marked_pair)
        assert res_set == res_pair

    def test_repeated_morphism_is_identity(self):
        f = morphism(SM, DM, "x y", "y")
        res = monoid.solve_set([f, f, f], SM, DM)
        assert res.embedding == monoid.solve_pair(Instance(f, f)).embedding

    def test_duplicate_member_changes_nothing(self, marked_pair):
        g, h = marked_pair.g, marked_pair.h
        res = monoid.solve_set([g, h, g], marked_pair.sigma, marked_pair.delta)
        ball = BallSpec(8, MONOID)
        assert image_ball(res.embedding, ball) == image_ball(
            monoid.solve_pair(marked_pair).embedding, ball
        )

    def test_three_way_intersection_against_oracle(self):
        rng = random.Random(31)
        for _ in range(15):
            sigma = Alphabet(("a", "b"), MONOID)
            delta = Alphabet(("x", "y", "z"), MONOID)
            family = [random_marked_morphism(rng, sigma, delta, 3) for _ in range(3)]
            res = monoid.solve_set(family, sigma, delta)
            ball = BallSpec(6, MONOID)
            assert image_ball(res.embedding, ball) == enumerate_equaliser(family, ball)

    def test_needs_two(self):
        f = morphism(SM, DM, "x y", "y")
        with pytest.raises(ValueError):
            monoid.solve_set([f], SM, DM)


class TestCanonicalForm:
    def test_erases_names(self, marked_pair):
        sigma = Alphabet(("u", "v"), MONOID)
        delta = Alphabet(("s", "t"), MONOID)
        renamed = Instance(
            morphism(sigma, delta, "s t", "t"), morphism(sigma, delta, "s", "t t")
        )
        assert canonical_form(renamed) == canonical_form(marked_pair)

    def test_distinguishes_different_images(self, marked_pair):
        other = Instance(marked_pair.h, marked_pair.g)
        assert canonical_form(other) != canonical_form(marked_pair)


class TestDecodedMembership:
    def test_image_membership_by_greedy_decoding(self, marked_pair):
        res = monoid.solve_pair(marked_pair)
        yes = parse_word(SM, "a b a b")
        no = parse_word(SM, "a b a")
        assert greedy_decode(res.embedding, yes) is not None
        assert greedy_decode(res.embedding, no) is None
