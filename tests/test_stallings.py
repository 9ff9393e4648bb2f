import random
from dataclasses import replace

import pytest

from markedpcp.morphisms import apply, compose, identity, is_immersion
from markedpcp.stallings import (
    StallingsGraph,
    _product_with_pairs,
    bouquet,
    core_of_pair,
    export_dot,
    is_folded_both_ways,
    petals_to_morphisms,
    product,
)
from markedpcp.words import GROUP, MONOID, Alphabet, Word, ball, parse_word

from reduction_reference import (
    _core_with_maps,
    _extract_petals,
    _image_pullback,
    _pullback,
    core_at,
    membership,
    reference_core_of_pair,
)
from support import (
    empty_word,
    large_immersed_pairs,
    morphism,
    random_group_morphism,
    random_immersion,
    random_marked_morphism,
    random_reduced_word,
)

DG = Alphabet(("x", "y", "z"), GROUP)


def petal_words(graph):
    out = []
    for _, path in graph.petals:
        letters = tuple(
            (graph.edges[e][2], d) for e, d in path
        )
        out.append(Word(graph.alphabet, letters))
    return out


class TestGraphConstructor:
    def test_no_vertices(self):
        with pytest.raises(ValueError, match="at least its base vertex"):
            StallingsGraph(DG, 0, ())

    def test_base_out_of_range(self):
        with pytest.raises(ValueError, match="base vertex out of range"):
            StallingsGraph(DG, 2, ((0, 1, 0),), base=2)

    def test_edge_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="edge endpoint out of range"):
            StallingsGraph(DG, 2, ((0, 1, 0), (1, 2, 1)))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="edge label out of range"):
            StallingsGraph(DG, 2, ((0, 1, 0), (1, 0, 3)))


class TestBouquet:
    def test_unfoldable_map_counts(self, unfoldable_map):
        graph = bouquet(unfoldable_map)
        assert graph.num_vertices == 5
        assert len(graph.edges) == 6
        assert len(graph.petals) == 2

    def test_single_letter_is_a_loop(self):
        one = Alphabet(("a",), GROUP)
        dl = Alphabet(("x",), GROUP)
        graph = bouquet(morphism(one, dl, "x"))
        assert graph.num_vertices == 1
        assert graph.edges == ((0, 0, 0),)

    def test_three_petal_counts(self, immersed_pair):
        graph = bouquet(immersed_pair.h)
        assert graph.num_vertices == 4
        assert len(graph.edges) == 6

    def test_empty_image_rejected(self):
        sigma = Alphabet(("a",), GROUP)
        with pytest.raises(ValueError):
            bouquet(morphism(sigma, DG, "eps"))

    def test_petals_spell_the_images(self, immersed_pair):
        graph = bouquet(immersed_pair.g)
        assert petal_words(graph) == list(immersed_pair.g.images)


class TestFolding:
    def test_unfoldable_map(self, unfoldable_map):
        assert not is_folded_both_ways(bouquet(unfoldable_map))

    def test_immersed_pair(self, immersed_pair):
        assert is_folded_both_ways(bouquet(immersed_pair.h))

    def test_single_loop(self):
        dl = Alphabet(("x",), GROUP)
        assert is_folded_both_ways(StallingsGraph(dl, 1, ((0, 0, 0),), 0))

    def test_matches_immersion_predicate_on_random_morphisms(self):
        rng = random.Random(37)
        for _ in range(100):
            k, m = rng.randint(1, 3), rng.randint(1, 3)
            sigma = Alphabet(tuple(f"a{i}" for i in range(k)), GROUP)
            delta = Alphabet(tuple(f"x{i}" for i in range(m)), GROUP)
            f = random_group_morphism(rng, sigma, delta, 4)
            assert is_folded_both_ways(bouquet(f)) == is_immersion(f, "marked")


class TestProduct:
    def test_loop_with_same_label(self):
        dl = Alphabet(("x", "y"), GROUP)
        loop_x = StallingsGraph(dl, 1, ((0, 0, 0),), 0)
        prod = product(loop_x, loop_x)
        assert prod.num_vertices == 1
        assert prod.edges == ((0, 0, 0),)

    def test_loops_with_different_labels(self):
        dl = Alphabet(("x", "y"), GROUP)
        loop_x = StallingsGraph(dl, 1, ((0, 0, 0),), 0)
        loop_y = StallingsGraph(dl, 1, ((0, 0, 1),), 0)
        prod = product(loop_x, loop_y)
        assert prod.num_vertices == 1
        assert prod.edges == ()

    def test_alphabet_mismatch(self):
        a = StallingsGraph(Alphabet(("x",), GROUP), 1, (), 0)
        b = StallingsGraph(Alphabet(("y",), GROUP), 1, (), 0)
        with pytest.raises(ValueError):
            product(a, b)

    def test_pair_product_cores_to_two_petals(self, immersed_pair):
        prod = product(bouquet(immersed_pair.g), bouquet(immersed_pair.h))
        core = core_at(prod, prod.base)
        assert core.num_vertices == 7
        assert len(core.edges) == 8


class TestCoreAt:
    def test_bare_path_cores_to_a_point(self):
        dl = Alphabet(("x",), GROUP)
        path = StallingsGraph(dl, 3, ((0, 1, 0), (1, 2, 0)), 0)
        core = core_at(path, 0)
        assert core.num_vertices == 1
        assert core.edges == ()

    def test_bouquet_is_its_own_core(self, immersed_pair):
        graph = bouquet(immersed_pair.g)
        core = core_at(graph, graph.base)
        assert core.num_vertices == graph.num_vertices
        assert len(core.edges) == len(graph.edges)

    def test_discards_components_away_from_the_base(self):
        # two vertices each carrying a loop: no degree-1 pruning applies,
        # connectivity alone must drop the far loop
        dl = Alphabet(("x",), GROUP)
        graph = StallingsGraph(dl, 2, ((0, 0, 0), (1, 1, 0)), 0)
        core = core_at(graph, 0)
        assert core.num_vertices == 1
        assert len(core.edges) == 1

    def test_language_preserved(self):
        rng = random.Random(41)
        sigma = Alphabet(("a", "b"), GROUP)
        delta = Alphabet(("x", "y"), GROUP)
        f1 = random_immersion(rng, sigma, delta, 3)
        f2 = random_immersion(rng, sigma, delta, 3)
        prod = product(bouquet(f1), bouquet(f2))
        core = core_at(prod, prod.base)
        for w in ball(delta, 5):
            assert membership_or_false(prod, w) == membership_or_false(core, w)


def membership_or_false(graph, w):
    # the raw product can be unfolded only if the inputs were; the graphs in
    # these tests are folded, so membership is always defined
    return membership(graph, w)


class TestCoreOfPair:
    def test_two_petals_with_expected_labels(self, immersed_pair):
        core, _, _ = core_of_pair(immersed_pair.g, immersed_pair.h)
        assert [name for name, _ in core.petals] == ["p0", "p1"]
        assert petal_words(core) == [parse_word(DG, "x y x x y"), parse_word(DG, "z x z")]

    def test_equal_pair_gives_the_bouquet_back(self, immersed_pair):
        g = immersed_pair.g
        core, g_edges, h_edges = core_of_pair(g, g)
        assert g_edges == h_edges
        assert core.num_vertices == bouquet(g).num_vertices
        assert len(core.edges) == len(bouquet(g).edges)

    def test_disjoint_first_letters_give_a_point(self):
        one = Alphabet(("a",), GROUP)
        g = morphism(one, DG, "x")
        h = morphism(one, DG, "y")
        core, _, _ = core_of_pair(g, h)
        assert core.num_vertices == 1
        assert core.edges == ()
        assert core.petals == ()

    def test_non_immersion_rejected(self, unfoldable_map):
        with pytest.raises(ValueError):
            core_of_pair(unfoldable_map, unfoldable_map)


def _reference_core_of_pair(g, h):
    """Core of the full product of the bouquets, with its projections."""
    prod, pairs = _product_with_pairs(bouquet(g), bouquet(h))
    core, _, kept_edges = _core_with_maps(prod, prod.base)
    g_edges = tuple(pairs[i][0] for i in kept_edges)
    h_edges = tuple(pairs[i][1] for i in kept_edges)
    return core, _extract_petals(core), g_edges, h_edges


def _random_immersed_pairs(rng, count):
    """Pairs of immersions into one codomain, ranks up to 6; a third share
    a map and an immersion into its domain, so the core is not trivial."""
    for n in range(count):
        m = rng.randint(1, 6)
        delta = Alphabet(tuple(f"x{i}" for i in range(m)), GROUP)
        sigma1 = Alphabet(tuple(f"a{i}" for i in range(rng.randint(1, m))), GROUP)
        g = random_immersion(rng, sigma1, delta, rng.randint(2, 8))
        if n % 3 == 0:
            sigma2 = Alphabet(tuple(f"b{i}" for i in range(rng.randint(1, len(sigma1)))), GROUP)
            h = compose(g, random_immersion(rng, sigma2, sigma1, rng.randint(2, 4)))
        else:
            sigma2 = Alphabet(tuple(f"b{i}" for i in range(rng.randint(1, m))), GROUP)
            h = random_immersion(rng, sigma2, delta, rng.randint(2, 8))
        yield g, h


class TestPullback:
    def test_matches_the_core_of_the_full_product(self):
        rng = random.Random(89)
        nontrivial = 0
        for g, h in _random_immersed_pairs(rng, 150):
            core, g_edges, h_edges = core_of_pair(g, h)
            ref, ref_petals, ref_g_edges, ref_h_edges = _reference_core_of_pair(g, h)
            assert export_dot(core) == export_dot(ref)
            assert core.petals == ref_petals
            assert (g_edges, h_edges) == (ref_g_edges, ref_h_edges)
            ref_core = replace(ref, petals=ref_petals)
            assert petals_to_morphisms(core, g_edges, h_edges, g, h) == petals_to_morphisms(
                ref_core, ref_g_edges, ref_h_edges, g, h
            )
            nontrivial += bool(core.petals)
        assert nontrivial >= 50

    def test_builds_only_the_base_component(self, immersed_pair):
        gb, hb = bouquet(immersed_pair.g), bouquet(immersed_pair.h)
        component, pairs = _pullback(gb, hb)
        prod = product(gb, hb)
        assert component.num_vertices < prod.num_vertices
        assert len(pairs) == len(component.edges)
        assert core_at(component, component.base) == core_at(prod, prod.base)


def _refilled(rng, f, keep, max_len):
    """f with the image of each generator outside `keep` refilled between
    its first and last letters, up to max_len letters.  Folding at the base
    reads only those two letters, so the result is still an immersion."""
    images = list(f.images)
    for i, img in enumerate(f.images):
        if i in keep or len(img) == 1:
            continue
        first, last = img.first, img.last
        while True:
            inner = random_reduced_word(rng, f.codomain, rng.randint(0, max_len - 2)).letters
            word = (first,) + inner + (last,)
            if all(a != b.inverse() for a, b in zip(word, word[1:])):
                break
        images[i] = Word(f.codomain, word)
    out = replace(f, images=tuple(images))
    assert is_immersion(out)
    return out


def _rank_ten_pairs_sharing_images(rng, count):
    """Rank-10 immersed pairs with images up to 60 letters, where h keeps
    the images of g on a random half of the generators and refills the
    rest, so that no core is trivial."""
    sigma = Alphabet(tuple(f"a{i}" for i in range(10)), GROUP)
    delta = Alphabet(tuple(f"x{i}" for i in range(10)), GROUP)
    for _ in range(count):
        g = random_immersion(rng, sigma, delta, 60)
        yield g, _refilled(rng, g, set(rng.sample(range(10), 5)), 60)


class TestCoreOfPairAtSize:
    """The core read off the chains against the graph path of
    `reduction_reference`, on pairs well beyond `TestPullback`'s ranks and
    image lengths."""

    @staticmethod
    def _check(g, h):
        core, g_edges, h_edges = core_of_pair(g, h)
        ref, ref_g_edges, ref_h_edges = reference_core_of_pair(g, h)
        assert export_dot(core) == export_dot(ref)
        assert core.petals == ref.petals
        assert (g_edges, h_edges) == (ref_g_edges, ref_h_edges)
        assert core == ref
        assert petals_to_morphisms(core, g_edges, h_edges, g, h) == petals_to_morphisms(
            ref, ref_g_edges, ref_h_edges, g, h
        )
        return bool(core.petals)

    def test_large_immersed_pairs(self):
        rng = random.Random(157)
        assert sum(self._check(g, h) for g, h in large_immersed_pairs(rng, 180)) >= 50

    def test_rank_ten_pairs_sharing_images(self):
        rng = random.Random(163)
        pairs = list(_rank_ten_pairs_sharing_images(rng, 60))
        assert max(len(w) for g, h in pairs for w in g.images + h.images) > 50
        assert sum(self._check(g, h) for g, h in pairs) >= 50


class TestImagePullback:
    def test_matches_the_pullback_of_the_bouquets(self):
        rng = random.Random(97)
        nontrivial = 0
        for g, h in large_immersed_pairs(rng, 180):
            component, pairs = _image_pullback(g, h)
            ref, ref_pairs = _pullback(bouquet(g), bouquet(h))
            assert component == ref
            assert pairs == ref_pairs
            nontrivial += bool(core_of_pair(g, h)[0].edges)
        assert nontrivial >= 50

    def test_single_letter_images_are_loops_at_the_base(self):
        one = Alphabet(("a",), GROUP)
        f = morphism(one, DG, "y^-1")
        component, pairs = _image_pullback(f, f)
        assert component == _pullback(bouquet(f), bouquet(f))[0]
        assert component.edges == ((0, 0, 1),)
        assert pairs == [(0, 0)]


def _rejected_by_the_bouquet(f):
    try:
        return not is_folded_both_ways(bouquet(f))
    except ValueError:
        return True


class TestCoreOfPairPrecondition:
    def test_rejects_what_folding_the_bouquets_rejects(self):
        rng = random.Random(101)
        rejected = accepted = 0
        for n in range(240):
            k, m = rng.randint(1, 4), rng.randint(1, 4)
            sigma = Alphabet(tuple(f"a{i}" for i in range(k)), GROUP)
            delta = Alphabet(tuple(f"x{i}" for i in range(m)), GROUP)
            if n % 3 == 0 and k <= m:
                f = random_immersion(rng, sigma, delta, 5)
            else:
                f = random_group_morphism(rng, sigma, delta, 4)
            if n % 5 == 0:
                images = list(f.images)
                images[rng.randrange(k)] = empty_word(delta)
                f = replace(f, images=tuple(images))
            expected = _rejected_by_the_bouquet(f)
            if expected:
                with pytest.raises(ValueError):
                    core_of_pair(f, f)
                rejected += 1
            else:
                core_of_pair(f, f)
                accepted += 1
        assert rejected >= 50 and accepted >= 50

    def test_monoid_pair_rejected(self):
        rng = random.Random(103)
        sigma = Alphabet(("a", "b"), MONOID)
        delta = Alphabet(("x", "y", "z"), MONOID)
        g = random_marked_morphism(rng, sigma, delta, 3)
        h = random_marked_morphism(rng, sigma, delta, 3)
        with pytest.raises(ValueError):
            core_of_pair(g, h)

    def test_codomain_mismatch_rejected(self):
        one = Alphabet(("a",), GROUP)
        g = morphism(one, DG, "x")
        h = morphism(one, Alphabet(("x", "y"), GROUP), "x")
        with pytest.raises(ValueError):
            core_of_pair(g, h)


class TestCoreOfPairMessages:
    """The exact messages, one per failing check, in the order the checks
    run: codomains, then the bouquets, then the immersion test."""

    ONE = Alphabet(("a",), GROUP)

    @staticmethod
    def _message(g, h):
        with pytest.raises(ValueError) as err:
            core_of_pair(g, h)
        return str(err.value)

    def test_codomain_mismatch(self):
        g = morphism(self.ONE, DG, "x")
        h = morphism(self.ONE, Alphabet(("x", "y"), GROUP), "x")
        assert self._message(g, h) == "core of a pair needs a common codomain"

    def test_monoid_pair(self):
        sigma = Alphabet(("a",), MONOID)
        delta = Alphabet(("x", "y"), MONOID)
        g, h = morphism(sigma, delta, "x"), morphism(sigma, delta, "y")
        assert self._message(g, h) == "bouquets are built from group-mode morphisms"

    def test_empty_image(self):
        g, h = morphism(self.ONE, DG, "x"), morphism(self.ONE, DG, "")
        assert self._message(g, h) == "image of a is empty: petal would be degenerate"

    def test_non_immersion(self, unfoldable_map):
        expected = "core of a pair is only defined for immersions"
        assert self._message(unfoldable_map, unfoldable_map) == expected

    def test_first_failing_check_names_the_error(self, unfoldable_map):
        monoid_map = morphism(Alphabet(("a",), MONOID), Alphabet(("x",), MONOID), "x")
        assert self._message(monoid_map, unfoldable_map) == (
            "core of a pair needs a common codomain"
        )
        empty = morphism(unfoldable_map.domain, unfoldable_map.codomain, "", "x")
        assert self._message(unfoldable_map, empty) == (
            "image of a is empty: petal would be degenerate"
        )


class TestPetalsToMorphisms:
    def test_worked_reduction(self, immersed_pair):
        core, ge, he = core_of_pair(immersed_pair.g, immersed_pair.h)
        g_prime, h_prime = petals_to_morphisms(core, ge, he, immersed_pair.g, immersed_pair.h)
        sigma = immersed_pair.sigma
        assert g_prime.images == (parse_word(sigma, "a b^-1"), parse_word(sigma, "c"))
        assert h_prime.images == (parse_word(sigma, "a b"), parse_word(sigma, "c a c"))
        assert compose(immersed_pair.g, g_prime) == compose(immersed_pair.h, h_prime)

    def test_equal_pair_gives_identity_renaming(self, immersed_pair):
        # identity up to generator inversion: a petal is oriented by its
        # label, so a generator whose image starts negatively comes back
        # inverted, which generates the same subgroup
        g = immersed_pair.g
        core, ge, he = core_of_pair(g, g)
        g_prime, h_prime = petals_to_morphisms(core, ge, he, g, g)
        assert g_prime == h_prime
        assert sorted(len(w) for w in g_prime.images) == [1, 1, 1]
        assert sorted(w.letters[0].index for w in g_prime.images) == [0, 1, 2]

    def test_empty_core_gives_empty_domain(self):
        one = Alphabet(("a",), GROUP)
        g = morphism(one, DG, "x")
        h = morphism(one, DG, "y")
        core, ge, he = core_of_pair(g, h)
        g_prime, h_prime = petals_to_morphisms(core, ge, he, g, h)
        assert len(g_prime.domain) == 0
        assert len(h_prime.domain) == 0


class TestMembership:
    def test_core_accepts_its_petal_label(self, immersed_pair):
        core, _, _ = core_of_pair(immersed_pair.g, immersed_pair.h)
        assert membership(core, parse_word(DG, "x y x x y"))

    def test_empty_word(self, immersed_pair):
        core, _, _ = core_of_pair(immersed_pair.g, immersed_pair.h)
        assert membership(core, empty_word(DG))

    def test_single_letter_rejected(self, immersed_pair):
        core, _, _ = core_of_pair(immersed_pair.g, immersed_pair.h)
        assert not membership(core, parse_word(DG, "x"))

    def test_unfolded_graph_rejected(self, unfoldable_map):
        graph = bouquet(unfoldable_map)
        with pytest.raises(ValueError):
            membership(graph, empty_word(graph.alphabet))

    def test_bouquet_language_is_the_image(self):
        rng = random.Random(43)
        sigma = Alphabet(("a", "b"), GROUP)
        delta = Alphabet(("x", "y"), GROUP)
        for _ in range(10):
            f = random_immersion(rng, sigma, delta, 3)
            graph = bouquet(f)
            for w in ball(sigma, 3):
                assert membership(graph, apply(f, w))

    def test_identity_bouquet_accepts_everything(self):
        f = identity(Alphabet(("x", "y"), GROUP))
        graph = bouquet(f)
        for w in ball(f.domain, 4):
            assert membership(graph, w)

    def test_core_language_is_the_intersection_of_images(self):
        from markedpcp.morphisms import greedy_decode

        rng = random.Random(83)
        delta = Alphabet(("x", "y"), GROUP)
        for _ in range(10):
            sigma1 = Alphabet(("a", "b")[: rng.randint(1, 2)], GROUP)
            sigma2 = Alphabet(("s", "t")[: rng.randint(1, 2)], GROUP)
            g = random_immersion(rng, sigma1, delta, 3)
            h = random_immersion(rng, sigma2, delta, 3)
            core, _, _ = core_of_pair(g, h)
            for w in ball(delta, 5):
                both = (
                    greedy_decode(g, w) is not None and greedy_decode(h, w) is not None
                )
                assert membership(core, w) == both


class TestExportDot:
    def test_single_loop(self):
        dl = Alphabet(("x",), GROUP)
        graph = StallingsGraph(dl, 1, ((0, 0, 0),), 0)
        assert export_dot(graph) == (
            'digraph stallings {\n  v0 [shape=doublecircle];\n'
            '  v0 -> v0 [label="x"];\n}\n'
        )

    def test_unfoldable_map_counts(self, unfoldable_map):
        text = export_dot(bouquet(unfoldable_map))
        assert text.count("->") == 6
        assert text.count("\n  v") == 5 + 6

    def test_base_only(self):
        dl = Alphabet(("x",), GROUP)
        graph = StallingsGraph(dl, 1, (), 0)
        assert export_dot(graph) == "digraph stallings {\n  v0 [shape=doublecircle];\n}\n"
