import random

import pytest

from markedpcp import stallings
from markedpcp.morphisms import (
    Morphism,
    NotMarkedError,
    _first_letter_clash,
    _immersion_by_lengths,
    _junction,
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
from markedpcp.words import (
    GROUP,
    MONOID,
    Alphabet,
    Letter,
    Word,
    format_letter,
    free_reduce,
    invert,
    parse_word,
)

from support import (
    empty_word,
    morphism,
    random_group_morphism,
    random_immersion,
    random_marked_morphism,
    random_reduced_word,
)

SM = Alphabet(("a", "b"), MONOID)
DM = Alphabet(("x", "y"), MONOID)


class TestMorphismConstructor:
    def test_mode_mismatch(self):
        with pytest.raises(ValueError, match="share a mode"):
            Morphism(SM, Alphabet(("x", "y"), GROUP), ())

    def test_wrong_number_of_images(self):
        with pytest.raises(ValueError, match="expected 2 images, got 1"):
            Morphism(SM, DM, (parse_word(DM, "x"),))

    def test_image_over_the_wrong_codomain(self):
        other = Alphabet(("x", "z"), MONOID)
        with pytest.raises(ValueError, match="image of b does not lie over the codomain"):
            Morphism(SM, DM, (parse_word(DM, "x"), parse_word(other, "z")))


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
        # the map is marked, so only the mode check rejects it with this
        # message, for every method and for the precondition
        for method in ("marked", "folded", "lengths", "all"):
            with pytest.raises(ValueError, match="free-group notion"):
                is_immersion(morphism(SM, DM, "x", "y"), method)
        with pytest.raises(ValueError, match="free-group notion"):
            require_immersion(morphism(SM, DM, "x", "y"))

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

    def test_precondition_is_named_per_mode(self, unfoldable_map):
        with pytest.raises(
            NotMarkedError,
            match=r"^morphism is not marked: images of a and b share a first letter$",
        ):
            greedy_decode(morphism(SM, DM, "x", "x x"), parse_word(DM, "x"))
        with pytest.raises(
            NotMarkedError,
            match=r"^morphism is not an immersion: images of a and b\^-1 share a first letter$",
        ):
            greedy_decode(unfoldable_map, parse_word(unfoldable_map.codomain, "y"))


def _reference_clash(f):
    """The marking check's naming walk, kept here as the reference: the
    first empty image, or the first two signed generators whose images
    start with the same letter, in signed-letter order."""
    seen = {}
    for l in f.domain.signed_letters():
        img = f.images[l.index]
        if not img:
            return (format_letter(f.domain, l), "")
        first = img.first if l.sign > 0 else img.last.inverse()
        if first in seen:
            return (format_letter(f.domain, seen[first]), format_letter(f.domain, l))
        seen[first] = l
    return None


def _with_image(f, i, letters):
    images = list(f.images)
    if f.mode == GROUP:
        images[i] = free_reduce(f.codomain, letters)
    else:
        images[i] = Word(f.codomain, tuple(letters))
    return Morphism(f.domain, f.codomain, tuple(images))


def _clash_cases(rng, mode):
    """Seeded maps of four kinds: marked, two images with one first letter,
    (group) an inverse image starting like another image, an empty image."""
    for n in range(240):
        k = rng.randint(1, 4)
        m = rng.randint(k, 5)
        sigma = Alphabet(tuple(f"a{j}" for j in range(k)), mode)
        delta = Alphabet(tuple(f"x{j}" for j in range(m)), mode)
        if mode == MONOID:
            f = random_marked_morphism(rng, sigma, delta, 4)
        else:
            f = random_immersion(rng, sigma, delta, 5)
        kind = n % 4
        i, j = rng.randrange(k), rng.randrange(k)
        if kind == 1 and k > 1 and i != j:
            # image i takes image j's first letter
            f = _with_image(f, i, (f.images[j].first,) + f.images[i].letters[1:])
        elif kind == 2 and mode == GROUP:
            # image i ends with the inverse of image j's first letter, so the
            # inverse of image i starts like image j (j == i included)
            last = f.images[j].first.inverse()
            f = _with_image(f, i, f.images[i].letters + (last,))
        elif kind == 3:
            f = _with_image(f, i, ())
        yield f


class TestMarkingCheckAgreement:
    """The set-based marking check returns what the naming walk returns,
    so every rejection message and `.generator` stays the same."""

    @pytest.mark.parametrize("mode", [MONOID, GROUP])
    def test_same_clash_as_the_walk(self, mode):
        rng = random.Random(41 if mode == MONOID else 43)
        outcomes = []
        for f in _clash_cases(rng, mode):
            expected = _reference_clash(f)
            assert _first_letter_clash(f) == expected
            assert is_marked(f) == (expected is None)
            if mode == GROUP:
                # `image` reads `inverse_image`, not `invert`: the two must agree
                for i, img in enumerate(f.images):
                    assert f.image(Letter(i, -1)) == invert(img)
            if expected is None:
                outcomes.append("marked")
            elif not expected[1]:
                outcomes.append("empty")
            else:
                # a clash with an inverse image names the inverse letter second
                outcomes.append("inverse" if expected[1].endswith("^-1") else "clash")
        kinds = {"marked", "empty", "clash"} | ({"inverse"} if mode == GROUP else set())
        assert set(outcomes) == kinds
        assert all(outcomes.count(kind) >= 20 for kind in kinds)

    @pytest.mark.parametrize("mode", [MONOID, GROUP])
    def test_same_errors_as_the_walk(self, mode):
        rng = random.Random(53 if mode == MONOID else 59)
        require = require_marked if mode == MONOID else require_immersion
        what = "marked" if mode == MONOID else "an immersion"
        for f in _clash_cases(rng, mode):
            expected = _reference_clash(f)
            if expected is None:
                require(f, "g")
                continue
            a, b = expected
            with pytest.raises(NotMarkedError) as info:
                require(f, "g")
            if b:
                message = f"g is not {what}: images of {a} and {b} share a first letter"
            else:
                message = f"g is not {what}: image of {a} is empty"
            assert str(info.value) == message
            assert info.value.generator == (b or a)
            assert info.value.morphism_name == "g"


def _reference_lengths(f):
    """The `lengths` check as it was first written, kept here as the
    reference: apply f to every two-letter reduced word xy and compare
    |f(xy)| with |f(x)| + |f(y)|."""
    if any(not img for img in f.images):
        return False
    letters = f.domain.signed_letters()
    lengths = {l: len(f.images[l.index]) for l in letters}
    for x in letters:
        for y in letters:
            if y == x.inverse():
                continue
            xy = Word._trusted(f.domain, (x, y))
            if len(apply(f, xy)) != lengths[x] + lengths[y]:
                return False
    return True


def _length_cases(rng):
    """Seeded group maps of rank 1-4 with images of length 0-5, of four
    kinds: immersions, arbitrary maps, a map with one empty image, and a
    map with a planted junction cascade of two letters, such as the images
    `p q` and `q^-1 p^-1 t`, or `p q t q^-1 p^-1` cancelling against itself."""
    for n in range(400):
        k = rng.randint(1, 4)
        m = rng.randint(max(k, 2), 4)
        sigma = Alphabet(tuple(f"a{j}" for j in range(k)), GROUP)
        delta = Alphabet(tuple(f"x{j}" for j in range(m)), GROUP)
        kind = n % 4
        if kind == 0:
            f = random_immersion(rng, sigma, delta, 5)
        else:
            f = random_group_morphism(rng, sigma, delta, 5)
        i, j = rng.randrange(k), rng.randrange(k)
        if kind == 2:
            f = _with_image(f, i, ())
        elif kind == 3:
            p, q = random_reduced_word(rng, delta, 2).letters
            if i == j:
                t = rng.choice([l for l in delta.signed_letters() if l.index != q.index])
                planted = {i: (p, q, t, q.inverse(), p.inverse())}
            else:
                planted = {
                    i: random_reduced_word(rng, delta, rng.randint(0, 3)).letters + (p, q),
                    j: (q.inverse(), p.inverse())
                    + random_reduced_word(rng, delta, rng.randint(0, 3)).letters,
                }
            for g, letters in planted.items():
                f = _with_image(f, g, letters)
        yield f


def _pair_lengths(f):
    """|f(xy)| for every reduced two-letter word xy, computed by `apply`."""
    for x in f.domain.signed_letters():
        for y in f.domain.signed_letters():
            if y != x.inverse():
                yield x, y, len(apply(f, Word._trusted(f.domain, (x, y))))


def _large_length_cases(rng):
    """Seeded group maps of rank 5-10, where most of the 4k^2 - 2k pairs are
    clean and the first-letter index has to find the one that is not: an
    immersion, an immersion with a planted junction cascade between two
    signed generators x and y != x^-1 (its image ending in `p q`, y's
    starting with `q^-1 p^-1`, or x = y with `p q t q^-1 p^-1`), an
    immersion with one empty image, and an arbitrary map."""
    for n in range(160):
        k = rng.randint(5, 10)
        m = rng.randint(k, 10)
        sigma = Alphabet(tuple(f"a{j}" for j in range(k)), GROUP)
        delta = Alphabet(tuple(f"x{j}" for j in range(m)), GROUP)
        kind = n % 4
        if kind == 3:
            yield random_group_morphism(rng, sigma, delta, 6)
            continue
        f = random_immersion(rng, sigma, delta, 6)
        if kind == 2:
            yield _with_image(f, rng.randrange(k), ())
            continue
        if kind == 1:
            x = rng.choice(sigma.signed_letters())
            y = rng.choice([l for l in sigma.signed_letters() if l != x.inverse()])
            p, q = random_reduced_word(rng, delta, 2).letters
            if x == y:
                t = rng.choice([l for l in delta.signed_letters() if l.index != q.index])
                runs = {x: (p, q, t, q.inverse(), p.inverse())}
            else:
                runs = {
                    x: random_reduced_word(rng, delta, rng.randint(0, 3)).letters + (p, q),
                    y: (q.inverse(), p.inverse())
                    + random_reduced_word(rng, delta, rng.randint(0, 3)).letters,
                }
            for l, run in runs.items():
                run = free_reduce(delta, run).letters
                f = _with_image(f, l.index, run if l.sign > 0 else invert(Word(delta, run)).letters)
        yield f


class TestLengthsCheckAgreement:
    """The `lengths` check reads |f(xy)| off the two reduced images; it
    gives the verdict of applying f to every two-letter word, and `apply`
    gives the free reduction of the concatenated images."""

    def test_same_verdict_as_applying(self):
        rng = random.Random(61)
        outcomes = []
        for f in _length_cases(rng):
            expected = _reference_lengths(f)
            assert _immersion_by_lengths(f) == expected
            assert is_immersion(f, "lengths") == expected
            kinds = {"immersion" if expected else "not"}
            if any(not img for img in f.images):
                kinds.add("empty")
            elif any(
                n <= len(f.image(x)) + len(f.image(y)) - 4 for x, y, n in _pair_lengths(f)
            ):
                kinds.add("cascade")
            outcomes += kinds
        for kind in ("immersion", "not", "empty", "cascade"):
            assert outcomes.count(kind) >= 20, kind

    def test_junction_count_gives_the_length(self):
        rng = random.Random(67)
        cascades = 0
        for f in _length_cases(rng):
            if any(not img for img in f.images):
                continue
            for x, y, n in _pair_lengths(f):
                u, v = f.image(x).letters, f.image(y).letters
                c = _junction(u, v)
                assert len(u) + len(v) - 2 * c == n
                cascades += c >= 2
        assert cascades >= 20

    @pytest.mark.parametrize("mode", [MONOID, GROUP])
    def test_apply_reduces_the_concatenated_images(self, mode):
        rng = random.Random(71 if mode == MONOID else 73)
        cancelled = 0
        for _ in range(300):
            k = rng.randint(1, 3)
            m = rng.randint(k if mode == MONOID else 1, 3)
            sigma = Alphabet(tuple(f"a{j}" for j in range(k)), mode)
            delta = Alphabet(tuple(f"x{j}" for j in range(m)), mode)
            if mode == MONOID:
                f = random_marked_morphism(rng, sigma, delta, 4)
                w = Word(sigma, tuple(rng.choices(sigma.positive_letters(), k=rng.randint(0, 6))))
                # and two maps that are not marked: a0 mapped to eps, and
                # a1's image led by the first letter of a0's
                unmarked = [_with_image(f, 0, ())]
                if k > 1:
                    unmarked.append(_with_image(f, 1, f.images[0].letters[:1] + f.images[1].letters))
                for u in unmarked:
                    assert not is_marked(u)
                    assert apply(u, w) == Word(u.codomain, tuple(l for x in w for l in u.image(x)))
                expected = Word(f.codomain, tuple(l for x in w for l in f.image(x)))
            else:
                f = random_group_morphism(rng, sigma, delta, 3)
                w = random_reduced_word(rng, sigma, rng.randint(0, 6))
                if k > 1 and rng.random() < 0.3:
                    # a1 takes the image of a0, so a conjugate of a0 a1^-1
                    # maps to eps
                    f = _with_image(f, 1, f.images[0].letters)
                    kernel = (Letter(0, 1), Letter(1, -1))
                    r = w.letters[:3]
                    w = free_reduce(sigma, r + kernel + invert(Word(sigma, r)).letters)
                # f.image inverts an inverse image through `invert`
                expected = free_reduce(f.codomain, [l for x in w for l in f.image(x)])
            got = apply(f, w)
            assert got == expected
            cancelled += bool(w) and not got
        if mode == GROUP:
            assert cancelled >= 20

    def test_same_verdict_at_large_rank(self):
        rng = random.Random(79)
        outcomes = []
        for f in _large_length_cases(rng):
            expected = _reference_lengths(f)
            assert _immersion_by_lengths(f) == expected
            assert is_immersion(f, "lengths") == expected
            outcomes.append("immersion" if expected else "not")
            if any(not img for img in f.images):
                outcomes.append("empty")
            elif any(
                n <= len(f.image(x)) + len(f.image(y)) - 4 for x, y, n in _pair_lengths(f)
            ):
                outcomes.append("cascade")
        for kind in ("immersion", "not", "empty", "cascade"):
            assert outcomes.count(kind) >= 20, kind

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rank_zero_is_an_immersion_by_every_method(self, m):
        sigma = Alphabet((), GROUP)
        delta = Alphabet(tuple(f"x{j}" for j in range(m)), GROUP)
        f = Morphism(sigma, delta, ())
        assert _immersion_by_lengths(f) is _reference_lengths(f) is True
        for method in ("marked", "folded", "lengths", "all"):
            assert is_immersion(f, method) is True

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rank_zero_is_folded_without_a_bouquet(self, m, monkeypatch):
        # the shortcut answers what the bouquet it skips answers: the base
        # vertex alone, which is folded both ways
        sigma = Alphabet((), GROUP)
        delta = Alphabet(tuple(f"x{j}" for j in range(m)), GROUP)
        f = Morphism(sigma, delta, ())
        built = []
        real = stallings.bouquet

        def recording(f):
            built.append(f)
            return real(f)

        monkeypatch.setattr(stallings, "bouquet", recording)
        for method in ("folded", "all"):
            assert is_immersion(f, method) is True
        assert built == []
        assert stallings.is_folded_both_ways(stallings.bouquet(f)) is True
        assert built == [f]
