import itertools
import json
import pathlib
import random

import pytest

from markedpcp import group, instances, monoid, morphisms, stallings
from markedpcp.fileformat import parse
from markedpcp.instances import CASE_CYCLE, CASE_SINGLE, Block, Instance
from markedpcp.morphisms import Morphism, NotMarkedError, apply, is_immersion
from markedpcp.oracle import BallSpec, enumerate_equaliser, image_ball
from markedpcp.words import GROUP, Alphabet, parse_word, proper_prefixes

from conftest import FIXTURES
from support import morphism, random_group_instance, random_immersion

DG = Alphabet(("x", "y", "z"), GROUP)


def _side_prefix_count(f):
    prefixes = set()
    for l in f.domain.signed_letters():
        prefixes |= proper_prefixes(f.image(l))
    return len(prefixes)


class TestPrefixComplexity:
    def test_worked_pair_is_sixteen(self, immersed_pair):
        assert group.prefix_complexity(immersed_pair) == 16
        assert _side_prefix_count(immersed_pair.g) == 10
        assert _side_prefix_count(immersed_pair.h) == 6

    def test_length_one_images_have_zero(self):
        sigma = Alphabet(("a", "b"), GROUP)
        f = morphism(sigma, DG, "x", "y")
        assert group.prefix_complexity(Instance(f, f)) == 0

    def test_reduced_pair_sides(self, immersed_pair):
        step = group.reduce_group_instance(immersed_pair)
        # the first summand is 2; the second follows the definition and
        # counts the six distinct proper prefixes on the other side
        assert _side_prefix_count(step.after.g) == 2
        assert _side_prefix_count(step.after.h) == 6
        assert group.prefix_complexity(step.after) == 8


class TestIterationBound:
    def test_group_values(self):
        sigma2 = Alphabet(("a", "b"), GROUP)
        delta3 = Alphabet(("x", "y", "z"), GROUP)
        f = morphism(sigma2, delta3, "x", "y")
        assert group.iteration_bound(Instance(f, f)) == 6**4

        one = Alphabet(("a",), GROUP)
        dl = Alphabet(("x",), GROUP)
        f1 = morphism(one, dl, "x")
        assert group.iteration_bound(Instance(f1, f1)) == 4

    def test_monoid_variant(self):
        from markedpcp.words import MONOID

        one = Alphabet(("a",), MONOID)
        d2 = Alphabet(("x", "y"), MONOID)
        f = morphism(one, d2, "x")
        assert group.iteration_bound(Instance(f, f)) == 9


def _cycling_group_pair():
    # reduces six times, then repeats an earlier instance up to renaming
    sigma = Alphabet(("a", "b"), GROUP)
    delta = Alphabet(("x", "y"), GROUP)
    return Instance(morphism(sigma, delta, "y y x", "x y"), morphism(sigma, delta, "x", "y"))


class TestIterationBackstop:
    @pytest.mark.parametrize("mode", ["group", "monoid"])
    def test_fires_when_the_cycle_detector_cannot(self, mode, monkeypatch, marked_pair):
        solver, reduce_name, inst = {
            "group": (group, "reduce_group_instance", _cycling_group_pair()),
            "monoid": (monoid, "reduce_instance", marked_pair),
        }[mode]
        # every instance looks new, so only the backstop can end the trail
        fresh = itertools.count()
        monkeypatch.setattr(instances, "canonical_form", lambda _: next(fresh))
        # the cheap floor of the bound: (2|Delta|)^(2|Sigma|), (|Delta|+1)^(2|Sigma|)
        floor = {"group": 4**4, "monoid": 3**4}[mode]
        bound_calls = []

        def small_bound(instance):
            bound_calls.append(instance)
            return floor + 2

        monkeypatch.setattr(instances, "iteration_bound", small_bound)
        steps = itertools.count(1)
        reduce = getattr(solver, reduce_name)

        def counted_reduce(instance):
            next(steps)
            return reduce(instance)

        monkeypatch.setattr(solver, reduce_name, counted_reduce)
        with pytest.raises(AssertionError, match="iteration bound exceeded"):
            solver.solve_pair(inst)
        # the trail is one step longer than the bound, exactly as before the
        # bound became lazy, and the bound is only consulted above the floor
        assert next(steps) == floor + 4
        assert len(bound_calls) == 3
        assert all(i is inst for i in bound_calls)

    def test_not_computed_on_ordinary_solves(self, monkeypatch, marked_pair, immersed_pair):
        def refuse(instance):
            raise AssertionError("iteration bound computed")

        monkeypatch.setattr(instances, "iteration_bound", refuse)
        monkeypatch.setattr(instances, "prefix_complexity", refuse)
        assert group.solve_pair(_cycling_group_pair()).case == CASE_CYCLE
        group.solve_pair(immersed_pair)
        assert monoid.solve_pair(marked_pair).case == CASE_CYCLE
        rng = random.Random(71)
        for _ in range(20):
            group.solve_pair(random_group_instance(rng, max_rank=4, max_len=6))


class TestReduceGroupInstance:
    def test_worked_reduction(self, immersed_pair):
        step = group.reduce_group_instance(immersed_pair)
        sigma = immersed_pair.sigma
        assert step.after.sigma.symbols == ("p0", "p1")
        assert step.after.g.images == (parse_word(sigma, "a b^-1"), parse_word(sigma, "c"))
        assert step.after.h.images == (parse_word(sigma, "a b"), parse_word(sigma, "c a c"))
        assert step.after.delta == sigma

    def test_disjoint_first_letters_empty_the_alphabet(self):
        one = Alphabet(("a",), GROUP)
        step = group.reduce_group_instance(
            Instance(morphism(one, DG, "x"), morphism(one, DG, "y"))
        )
        assert len(step.after.sigma) == 0

    def test_non_immersion_rejected(self, unfoldable_map):
        with pytest.raises(NotMarkedError):
            group.reduce_group_instance(Instance(unfoldable_map, unfoldable_map))

    def test_monotonicity_on_random_instances(self):
        rng = random.Random(47)
        for _ in range(60):
            inst = random_group_instance(rng)
            step = group.reduce_group_instance(inst)
            assert group.prefix_complexity(step.after) <= group.prefix_complexity(inst)
            assert len(step.after.sigma) <= len(inst.sigma)


class TestSolvePair:
    def test_equal_morphisms_have_full_image(self):
        sigma = Alphabet(("a", "b"), GROUP)
        g = morphism(sigma, DG, "x y", "z")
        res = group.solve_pair(Instance(g, g))
        ball = BallSpec(4, GROUP)
        assert image_ball(res.embedding, ball) == enumerate_equaliser([g, g], ball)
        assert len(res.basis) == 2

    def test_disjoint_images_give_trivial_equaliser(self):
        one = Alphabet(("a",), GROUP)
        res = group.solve_pair(Instance(morphism(one, DG, "x"), morphism(one, DG, "y")))
        assert res.case == CASE_SINGLE
        assert res.basis == ()

    def test_worked_pair_against_the_oracle(self, immersed_pair):
        res = group.solve_pair(immersed_pair)
        ball = BallSpec(6, GROUP)
        assert image_ball(res.embedding, ball) == enumerate_equaliser(
            [immersed_pair.g, immersed_pair.h], ball
        )

    def test_embedding_is_an_immersion(self):
        rng = random.Random(53)
        for _ in range(30):
            inst = random_group_instance(rng)
            res = group.solve_pair(inst)
            assert is_immersion(res.embedding)
            assert len(res.basis) <= len(inst.sigma)
            for w in res.basis:
                assert apply(inst.g, w) == apply(inst.h, w)

    def test_oracle_matches_on_random_instances(self):
        rng = random.Random(59)
        for _ in range(15):
            inst = random_group_instance(rng, max_rank=2, max_len=3)
            res = group.solve_pair(inst)
            ball = BallSpec(5, GROUP)
            assert image_ball(res.embedding, ball) == enumerate_equaliser(
                [inst.g, inst.h], ball
            )

    def test_non_immersion_rejected(self, unfoldable_map):
        with pytest.raises(NotMarkedError):
            group.solve_pair(Instance(unfoldable_map, unfoldable_map))


class TestStrongEquivalence:
    def test_reduction_preserves_the_equaliser(self):
        rng = random.Random(61)
        for _ in range(25):
            inst = random_group_instance(rng, max_rank=2, max_len=3)
            step = group.reduce_group_instance(inst)
            radius = 5
            inner = enumerate_equaliser(
                [step.after.g, step.after.h], BallSpec(radius, GROUP)
            )
            mapped = [apply(step.g_prime, w) for w in inner]
            assert len(set(mapped)) == len(mapped)
            for image in mapped:
                assert apply(inst.g, image) == apply(inst.h, image)
            outer = enumerate_equaliser([inst.g, inst.h], BallSpec(radius, GROUP))
            assert set(outer) <= set(mapped)


class TestSolveSet:
    def test_two_morphisms_match_pair_solver(self, immersed_pair):
        res_set = group.solve_set(
            [immersed_pair.g, immersed_pair.h], immersed_pair.sigma, immersed_pair.delta
        )
        assert res_set == group.solve_pair(immersed_pair)

    def test_repeated_morphism(self, immersed_pair):
        g = immersed_pair.g
        res = group.solve_set([g, g], immersed_pair.sigma, immersed_pair.delta)
        ball = BallSpec(4, GROUP)
        assert image_ball(res.embedding, ball) == enumerate_equaliser([g], ball)

    def test_duplicate_member_changes_nothing(self, immersed_pair):
        g, h = immersed_pair.g, immersed_pair.h
        res = group.solve_set([g, h, h], immersed_pair.sigma, immersed_pair.delta)
        ball = BallSpec(6, GROUP)
        assert image_ball(res.embedding, ball) == image_ball(
            group.solve_pair(immersed_pair).embedding, ball
        )

    def test_three_way_intersection_against_oracle(self):
        rng = random.Random(67)
        for _ in range(10):
            sigma = Alphabet(("a", "b"), GROUP)
            delta = Alphabet(("x", "y", "z"), GROUP)
            family = [random_immersion(rng, sigma, delta, 3) for _ in range(3)]
            res = group.solve_set(family, sigma, delta)
            ball = BallSpec(5, GROUP)
            assert image_ball(res.embedding, ball) == enumerate_equaliser(family, ball)

    def test_needs_two(self, immersed_pair):
        with pytest.raises(ValueError):
            group.solve_set([immersed_pair.g], immersed_pair.sigma, immersed_pair.delta)


def _planted_group_family(rng, size=3):
    """`size` immersions of rank 4 into rank 8 that share the image of a0."""
    sigma = Alphabet(tuple(f"a{i}" for i in range(4)), GROUP)
    delta = Alphabet(tuple(f"x{i}" for i in range(8)), GROUP)
    base = random_immersion(rng, sigma, delta, 20)
    maps = [base]
    while len(maps) < size:
        f = random_immersion(rng, sigma, delta, 20)
        f = Morphism(sigma, delta, (base.images[0],) + f.images[1:])
        if is_immersion(f, "marked"):
            maps.append(f)
    return maps, sigma, delta


class TestNoBouquetOfTheInputs:
    """Solving reads the petals off the images: no bouquet of an input
    map is built.  The `folded` self-check builds bouquets of the chain
    maps of a step and of the embedding, except of a map with no
    generators, whose bouquet is the base vertex alone."""

    @staticmethod
    def _record_bouquets(monkeypatch):
        seen = []
        real = stallings.bouquet

        def recording(f):
            seen.append(f)
            return real(f)

        monkeypatch.setattr(stallings, "bouquet", recording)
        return seen

    def test_solve_pair(self, monkeypatch):
        rng = random.Random(107)
        sigma = Alphabet(tuple(f"a{i}" for i in range(10)), GROUP)
        delta = Alphabet(tuple(f"x{i}" for i in range(10)), GROUP)
        instance = Instance(
            random_immersion(rng, sigma, delta, 60), random_immersion(rng, sigma, delta, 60)
        )
        assert max(len(w) for w in instance.g.images + instance.h.images) > 30
        seen = self._record_bouquets(monkeypatch)
        folded = []
        real_folded = morphisms._immersion_by_folding

        def recording_folded(f):
            folded.append(f)
            return real_folded(f)

        monkeypatch.setattr(morphisms, "_immersion_by_folding", recording_folded)
        result = group.solve_pair(instance)
        assert result.trail
        # the `folded` leg ran on g' and h' of every step and on the
        # embedding, here all maps of no generators, so no bouquet at all
        checked = [f for step in result.trail for f in (step.g_prime, step.h_prime)]
        assert [id(f) for f in folded] == [id(f) for f in [*checked, result.embedding]]
        assert len(folded) == 3 and not any(f.images for f in folded)
        assert all(f != instance.g and f != instance.h for f in seen)

    def test_solve_set(self, monkeypatch):
        maps, sigma, delta = _planted_group_family(random.Random(109))
        seen = self._record_bouquets(monkeypatch)
        result = group.solve_set(maps, sigma, delta)
        assert len(result.basis) >= 1
        assert seen
        assert all(f != m for f in seen for m in maps)


class TestNoGraphOnTheSolvePath:
    """The pair core, the walk of its chains along the bouquets' petals and
    petal decoding are off the solve path: with all three raising, pairs and
    families still solve, to the same results."""

    @staticmethod
    def _forbid_graphs(monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solving built a pair graph")

        for name in ("_edge_run", "core_of_pair", "petals_to_morphisms"):
            monkeypatch.setattr(stallings, name, forbidden)

    def test_solve_pair(self, monkeypatch):
        instance = parse((FIXTURES / "immersed_pair.pcp").read_text())
        expected = group.solve_pair(instance)
        self._forbid_graphs(monkeypatch)
        result = group.solve_pair(instance)
        assert result.trail
        assert result == expected

    def test_solve_set(self, monkeypatch):
        maps, sigma, delta = _planted_group_family(random.Random(127))
        expected = group.solve_set(maps, sigma, delta)
        self._forbid_graphs(monkeypatch)
        result = group.solve_set(maps, sigma, delta)
        assert len(result.basis) >= 1
        assert result == expected


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


class TestPetalBlocks:
    """A group step's block letters are read off the first step of each
    core petal; they equal the first letter of g applied to the petal's
    g-side word, which is how they were read before."""

    @staticmethod
    def _check_trail(result):
        for step in result.trail:
            expected = tuple(
                Block(apply(step.before.g, u).first, u, v)
                for u, v in zip(step.g_prime.images, step.h_prime.images)
            )
            assert step.blocks == expected

    def test_immersed_pair_fixture(self):
        result = group.solve_pair(parse((FIXTURES / "immersed_pair.pcp").read_text()))
        assert result.trail
        self._check_trail(result)

    def test_long_trail_pairs(self):
        texts = json.loads((PERFBENCH / "long_trails.json").read_text())["group"]
        assert len(texts) == 60
        for text in texts:
            self._check_trail(group.solve_pair(parse(text)))

    def test_planted_families(self):
        rng = random.Random(113)
        for _ in range(5):
            maps, sigma, delta = _planted_group_family(rng)
            result = group.solve_set(maps, sigma, delta)
            assert len(result.basis) >= 1
            self._check_trail(result)
