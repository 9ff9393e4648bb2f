import random

import pytest

from markedpcp.morphisms import (
    NotMarkedError,
    apply,
    compose,
    greedy_decode,
    identity,
    is_immersion,
    is_injective_witness,
    is_marked,
    require_immersion,
    require_marked,
)
from markedpcp.words import GROUP, MONOID, Alphabet, empty_word, parse_word

from support import morphism, random_group_morphism, random_immersion, random_marked_morphism

SM = Alphabet(("a", "b"), MONOID)
DM = Alphabet(("x", "y"), MONOID)


class TestApply:
    def test_monoid(self):
        g = morphism(SM, DM, "x y", "y")
        assert apply(g, parse_word(SM, "a b")) == parse_word(DM, "x y y")

    def test_empty_word(self):
        g = morphism(SM, DM, "x y", "y")
        assert apply(g, empty_word(SM)) == empty_word(DM)

    def test_group_inverse_letters(self, immersed_pair):
        w = parse_word(immersed_pair.sigma, "a b^-1")
        assert apply(immersed_pair.g, w) == parse_word(immersed_pair.delta, "x y x x y")
        assert apply(immersed_pair.h, parse_word(immersed_pair.sigma, "a b")) \
            == parse_word(immersed_pair.delta, "x y x x y")

    def test_alphabet_mismatch(self):
        g = morphism(SM, DM, "x y", "y")
        with pytest.raises(ValueError):
            apply(g, parse_word(DM, "x"))


class TestCompose:
    def test_identity_is_neutral(self):
        f = morphism(SM, DM, "x y", "y")
        assert compose(f, identity(SM)) == f

    def test_against_apply(self):
        outer = morphism(SM, DM, "x y", "y")
        big = Alphabet(("A",), MONOID)
        inner = morphism(big, SM, "a b")
        assert compose(outer, inner).images[0] == parse_word(DM, "x y y")

    def test_marked_composes_to_marked(self):
        rng = random.Random(7)
        for _ in range(50):
            mid = Alphabet(("s", "t"), MONOID)
            inner = random_marked_morphism(rng, SM, mid, 3)
            outer = random_marked_morphism(rng, mid, DM, 3)
            assert is_marked(compose(outer, inner))

    def test_immersions_compose_to_immersion(self):
        rng = random.Random(11)
        sg = Alphabet(("a", "b"), GROUP)
        mid = Alphabet(("s", "t"), GROUP)
        dg = Alphabet(("x", "y", "z"), GROUP)
        for _ in range(50):
            inner = random_immersion(rng, sg, mid, 3)
            outer = random_immersion(rng, mid, dg, 3)
            assert is_immersion(compose(outer, inner))


class TestIsMarked:
    def test_distinct_first_letters(self):
        assert is_marked(morphism(SM, DM, "x y", "y"))

    def test_shared_first_letter(self):
        assert not is_marked(morphism(SM, DM, "x y", "x x"))

    def test_empty_image_is_not_marked(self):
        assert not is_marked(morphism(SM, DM, "x", "eps"))

    def test_too_many_generators_cannot_be_marked(self):
        wide = Alphabet(("a", "b", "c"), MONOID)
        narrow = Alphabet(("x", "y"), MONOID)
        assert not is_marked(morphism(wide, narrow, "x", "y", "x y"))

    def test_group_counts_inverses(self, immersed_pair):
        assert is_marked(immersed_pair.h)
        # the inverse sides of b and c both start with y^-1 here
        sigma, delta = immersed_pair.sigma, immersed_pair.delta
        assert not is_marked(morphism(sigma, delta, "x", "y x x y", "z y"))

    def test_require_marked_names_generator(self):
        with pytest.raises(NotMarkedError) as info:
            require_marked(morphism(SM, DM, "x y", "x x"), "g")
        assert info.value.generator == "b"
        require_marked(morphism(SM, DM, "x y", "y"), "g")


class TestIsImmersion:
    def test_unfoldable_map_fails_all_three(self, unfoldable_map):
        for method in ("marked", "folded", "lengths", "all"):
            assert not is_immersion(unfoldable_map, method)

    def test_immersed_pair_passes_all_three(self, immersed_pair):
        for f in (immersed_pair.g, immersed_pair.h):
            for method in ("marked", "folded", "lengths", "all"):
                assert is_immersion(f, method)

    def test_identity_is_an_immersion(self):
        assert is_immersion(identity(Alphabet(("x", "y"), GROUP)))

    def test_monoid_mode_rejected(self):
        with pytest.raises(ValueError):
            is_immersion(morphism(SM, DM, "x", "y"))

    def test_characterisations_agree_on_random_morphisms(self):
        rng = random.Random(13)
        for _ in range(200):
            k = rng.randint(1, 3)
            m = rng.randint(1, 3)
            sigma = Alphabet(tuple(f"a{i}" for i in range(k)), GROUP)
            delta = Alphabet(tuple(f"x{i}" for i in range(m)), GROUP)
            f = random_group_morphism(rng, sigma, delta, 5)
            answers = [is_immersion(f, meth) for meth in ("marked", "folded", "lengths")]
            assert len(set(answers)) == 1

    def test_characterisations_agree_on_larger_random_morphisms(self):
        rng = random.Random(31)
        seen = set()
        for i in range(200):
            k = rng.randint(1, 4)
            m = rng.randint(k if i % 2 else 1, 4)
            sigma = Alphabet(tuple(f"a{j}" for j in range(k)), GROUP)
            delta = Alphabet(tuple(f"x{j}" for j in range(m)), GROUP)
            if i % 2:
                f = random_immersion(rng, sigma, delta, 8)
            else:
                f = random_group_morphism(rng, sigma, delta, 8)
            answers = [is_immersion(f, meth) for meth in ("marked", "folded", "lengths", "all")]
            assert len(set(answers)) == 1
            seen.add(answers[0])
        assert seen == {True, False}

    @pytest.mark.parametrize("images", [("x y", "x"), ("x y", "z y")])
    def test_lengths_sees_cancellation_against_an_inverse_image(self, images):
        # a^-1 b cancels for (xy, x), a b^-1 for (xy, zy); no product of
        # positive letters cancels, so only the inverse images show it
        sigma = Alphabet(("a", "b"), GROUP)
        delta = Alphabet(("x", "y", "z"), GROUP)
        f = morphism(sigma, delta, *images)
        for u in ("a a", "a b", "b a", "b b"):
            w = parse_word(sigma, u)
            assert len(apply(f, w)) == sum(len(f.images[l.index]) for l in w.letters)
        assert not is_immersion(f, "lengths")
        assert not is_immersion(f, "all")

    def test_require_immersion_reports_the_clash(self, unfoldable_map):
        with pytest.raises(NotMarkedError) as info:
            require_immersion(unfoldable_map, "g")
        assert "first letter" in str(info.value)


class TestInjectivity:
    def test_marked_morphism_has_no_witness(self):
        g = morphism(SM, DM, "x y", "y")
        assert is_injective_witness(g, 6) is None

    def test_collision_found(self):
        f = morphism(SM, DM, "x", "x x")
        witness = is_injective_witness(f, 3)
        assert witness is not None
        u, v = witness
        assert u != v and apply(f, u) == apply(f, v)

    def test_radius_zero(self):
        f = morphism(SM, DM, "x", "x x")
        assert is_injective_witness(f, 0) is None

    def test_immersions_injective_on_radius_five(self):
        rng = random.Random(17)
        sigma = Alphabet(("a", "b"), GROUP)
        delta = Alphabet(("x", "y"), GROUP)
        for _ in range(10):
            f = random_immersion(rng, sigma, delta, 3)
            assert is_injective_witness(f, 5) is None

    def test_immersion_never_shrinks_words(self):
        rng = random.Random(19)
        sigma = Alphabet(("a", "b"), GROUP)
        delta = Alphabet(("x", "y", "z"), GROUP)
        from markedpcp.words import ball

        for _ in range(20):
            f = random_immersion(rng, sigma, delta, 3)
            for w in ball(sigma, 4):
                assert len(apply(f, w)) >= len(w)


class TestGreedyDecode:
    def test_round_trip_monoid(self):
        g = morphism(SM, DM, "x y", "y")
        w = parse_word(SM, "a b b a")
        assert greedy_decode(g, apply(g, w)) == w

    def test_round_trip_group(self, immersed_pair):
        g = immersed_pair.g
        w = parse_word(immersed_pair.sigma, "a b^-1 c")
        assert greedy_decode(g, apply(g, w)) == w

    def test_rejects_non_image(self):
        g = morphism(SM, DM, "x y", "y")
        assert greedy_decode(g, parse_word(DM, "x x")) is None

    def test_requires_marked(self):
        with pytest.raises(NotMarkedError):
            greedy_decode(morphism(SM, DM, "x", "x x"), parse_word(DM, "x"))
