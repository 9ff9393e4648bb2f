"""`instances.agreeing_chains` against the walks it replaced.

Monoid blocks must equal the overhang search's (`reduction_reference`), and
group steps must equal the petal maps of the pair core, decoded from the
graph that the pullback search of `reduction_reference` builds, with block
letters read off the first edges of the core's petals.
The pairs are seeded random pairs, the large immersed pairs of the
Stallings tests, every instance on the trails of the long-trail pool and
the fixtures, and seeded pairs planted so that a start's two runs share a
given number of letters.  For those, group chains must also equal the
overhang search on the doubled pair, where x and x^-1 are two monoid
letters.
"""

import json
import pathlib
import random

import pytest

from markedpcp import group, instances, monoid
from markedpcp.fileformat import parse
from markedpcp.instances import Block, Instance, agreeing_chains
from markedpcp.morphisms import Morphism, apply, compose, is_immersion, is_marked
from markedpcp.stallings import petals_to_morphisms
from markedpcp.words import GROUP, MONOID, Alphabet, Letter, Word, invert

from conftest import FIXTURES
from reduction_reference import reference_blocks, reference_core_of_pair
from support import (
    large_immersed_pairs,
    random_group_instance,
    random_immersion,
    random_marked_morphism,
    random_monoid_instance,
    random_reduced_word,
)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _trail_instances(texts, solver):
    """Every instance on the trail of each parsed text, input included."""
    for text in texts:
        inst = parse(text)
        yield inst
        for step in solver.solve_pair(inst).trail:
            yield step.after


def _long_trail_instances(mode):
    texts = json.loads((PERFBENCH / "long_trails.json").read_text())[mode]
    return _trail_instances(texts, monoid if mode == MONOID else group)


def _check_monoid(g, h):
    expected = reference_blocks(g, h)
    assert monoid.compute_blocks(g, h) == expected
    for label, u, v in agreeing_chains(g, h):
        assert apply(g, u).letters == label == apply(h, v).letters
    if g.domain == h.domain:
        step = monoid.reduce_instance(Instance(g, h))
        assert step.blocks == expected
        assert step.g_prime.images == tuple(b.u for b in expected)
        assert step.h_prime.images == tuple(b.v for b in expected)
    assert instances.intersect(g, h).images == tuple(apply(g, b.u) for b in expected)


def _check_group(g, h):
    """Chains equal the decoded petals of the core built by the graph path;
    returns whether the core has an edge."""
    core, g_edges, h_edges = reference_core_of_pair(g, h)
    g_ref, h_ref = petals_to_morphisms(core, g_edges, h_edges, g, h)
    letters = tuple(Letter(core.edges[path[0][0]][2], path[0][1]) for _, path in core.petals)
    expected = tuple(Block(l, u, v) for l, u, v in zip(letters, g_ref.images, h_ref.images))
    chains = agreeing_chains(g, h)
    assert tuple(Block(label[0], u, v) for label, u, v in chains) == expected
    for label, u, v in chains:
        assert apply(g, u).letters == label == apply(h, v).letters
    if g.domain == h.domain:
        step = group.reduce_group_instance(Instance(g, h))
        assert (step.g_prime, step.h_prime) == (g_ref, h_ref)
        assert step.blocks == expected
        assert step.core == core
    assert instances.intersect(g, h) == compose(g, g_ref)
    return bool(core.edges)


class TestMonoidBlocks:
    def test_seeded_random_pairs(self):
        rng = random.Random(131)
        found = 0
        for _ in range(600):
            inst = random_monoid_instance(rng, 6, 8)
            _check_monoid(inst.g, inst.h)
            found += bool(monoid.compute_blocks(inst.g, inst.h))
        assert found >= 50

    def test_long_trail_pool(self):
        for inst in _long_trail_instances(MONOID):
            _check_monoid(inst.g, inst.h)

    def test_fixture(self):
        text = (FIXTURES / "marked_pair.pcp").read_text()
        for inst in _trail_instances([text], monoid):
            _check_monoid(inst.g, inst.h)


class TestGroupPetals:
    def test_seeded_random_pairs(self):
        # every third h is g after an immersion of the domain into itself,
        # so that its core is not trivial
        rng = random.Random(137)
        nonempty = 0
        for n in range(400):
            g, h = random_group_instance(rng, 6, 8).morphisms
            if n % 3 == 0:
                h = compose(g, random_immersion(rng, g.domain, g.domain, 3))
            nonempty += _check_group(g, h)
        assert nonempty >= 50

    def test_large_immersed_pairs(self):
        rng = random.Random(139)
        nonempty = sum(_check_group(g, h) for g, h in large_immersed_pairs(rng, 180))
        assert nonempty >= 50

    def test_long_trail_pool(self):
        nonempty = sum(_check_group(inst.g, inst.h) for inst in _long_trail_instances(GROUP))
        assert nonempty >= 50

    def test_fixture(self):
        text = (FIXTURES / "immersed_pair.pcp").read_text()
        nonempty = sum(_check_group(inst.g, inst.h) for inst in _trail_instances([text], group))
        assert nonempty >= 1


def _extend(rng, delta, word, length, avoid=None):
    """`word` and `length` more random letters, freely reduced in group
    mode; the first new letter is not `avoid`."""
    letters = delta.signed_letters()
    out = list(word)
    for _ in range(length):
        banned = {avoid} if len(out) == len(word) else set()
        if delta.mode == GROUP and out:
            banned.add(out[-1].inverse())
        out.append(rng.choice([l for l in letters if l not in banned]))
    return tuple(out)


def _random_pair_maps(rng, mode):
    """Two random marked maps / immersions of ranks k < m <= 4."""
    k = rng.randint(1, 3)
    m = rng.randint(k + 1, 4)
    sigma = Alphabet(tuple(f"a{j}" for j in range(k)), mode)
    delta = Alphabet(tuple(f"x{j}" for j in range(m)), mode)
    make = random_marked_morphism if mode == MONOID else random_immersion
    return make(rng, sigma, delta, 5), make(rng, sigma, delta, 5)


def _plant(rng, f, run, sign):
    """f with a random generator's image replaced, so that the generator
    maps to `run` (sign 1) or its inverse maps to it (sign -1); None unless
    the result is still marked / an immersion."""
    word = Word(f.codomain, run)
    images = list(f.images)
    images[rng.randrange(len(images))] = word if sign > 0 else invert(word)
    out = Morphism(f.domain, f.codomain, tuple(images))
    return out if (is_marked if f.mode == MONOID else is_immersion)(out) else None


def _planted_pair(rng, mode, agree, g_tail, h_tail, g_sign, h_sign):
    """A seeded pair with one start letter whose two runs share a prefix of
    `agree` letters and then go on by `g_tail` and `h_tail` more letters,
    differing in the first of them when both go on.  The run of g is the
    image of a generator with sign `g_sign` (the inverse image when -1),
    and likewise for h."""
    while True:
        g, h = _random_pair_maps(rng, mode)
        prefix = random_reduced_word(rng, g.codomain, agree).letters
        g_run = _extend(rng, g.codomain, prefix, g_tail)
        h_run = _extend(rng, g.codomain, prefix, h_tail, g_run[agree] if g_tail else None)
        g, h = _plant(rng, g, g_run, g_sign), _plant(rng, h, h_run, h_sign)
        if g and h:
            return g, h, prefix[0]


def _planted_chain(rng, mode, h_sign):
    """A seeded pair where the run of h from one start letter is g's image
    of a reduced word of two or three letters, so that the start's walk goes
    on past g's first run and ends in a chain unless other images cut it."""
    while True:
        g, h = _random_pair_maps(rng, mode)
        w = random_reduced_word(rng, g.domain, rng.randint(2, 3))
        h = _plant(rng, h, apply(g, w).letters, h_sign)
        if h:
            return g, h, g.image(w.first).first, w.first.sign


def _doubled(f, delta2):
    """f as a monoid map over doubled alphabets, where x and x^-1 are two
    letters: a marked map when f is an immersion."""
    sigma2 = Alphabet(tuple(s + t for s in f.domain.symbols for t in ("", "^-1")), MONOID)
    images = [f.image(Letter(i, s)).letters for i in range(len(f.domain)) for s in (1, -1)]
    return Morphism(sigma2, delta2, tuple(Word(delta2, _encode(w)) for w in images))


def _encode(letters):
    return tuple(Letter(2 * l.index + (l.sign < 0), 1) for l in letters)


def _decode(letters):
    return tuple(Letter(l.index // 2, -1 if l.index % 2 else 1) for l in letters)


def _reference_group_chains(g, h):
    """The group chains by the overhang search on the doubled pair, each
    kept in the orientation whose label is shortlex-smaller than its
    inverse's."""
    delta2 = Alphabet(tuple(s + t for s in g.codomain.symbols for t in ("", "^-1")), MONOID)
    g2 = _doubled(g, delta2)
    chains = []
    for b in reference_blocks(g2, _doubled(h, delta2)):
        label = _decode(apply(g2, b.u).letters)
        inverse = invert(Word(g.codomain, label)).letters
        if [l.sort_key() for l in label] < [l.sort_key() for l in inverse]:
            u, v = Word(g.domain, _decode(b.u.letters)), Word(h.domain, _decode(b.v.letters))
            chains.append((label, u, v))
    return chains


def _run(f, a):
    """The letters of the signed image of f that starts with `a`."""
    return next(f.image(x).letters for x in f.domain.signed_letters() if f.image(x).first == a)


def _shared_prefix(r, s):
    n = 0
    for a, b in zip(r, s):
        if a != b:
            break
        n += 1
    return n


class TestSecondLetterWalks:
    """Starts whose two runs agree on exactly one, two, or three and more
    letters, with runs of length one and inverse runs on either side: the
    second letters decide most starts, and the walk must find the chains of
    the overhang search all the same."""

    @pytest.mark.parametrize("mode", [MONOID, GROUP])
    def test_planted_starts(self, mode):
        rng = random.Random(149 if mode == MONOID else 151)
        signs = [(1, 1)] if mode == MONOID else [(1, 1), (-1, 1), (1, -1), (-1, -1)]
        shapes = [
            (agree, g_tail, h_tail)
            for agree in (1, 2, 3, 5)
            for g_tail, h_tail in ((0, 0), (0, 3), (3, 0), (2, 4), (1, 1))
        ]
        seen, long_chains = set(), 0

        def check(g, h, a, g_sign, h_sign):
            g_run, h_run = _run(g, a), _run(h, a)
            shared = _shared_prefix(g_run, h_run)
            seen.add((min(shared, 3), len(g_run) == 1, len(h_run) == 1, g_sign, h_sign))
            if mode == MONOID:
                _check_monoid(g, h)
            else:
                assert agreeing_chains(g, h) == _reference_group_chains(g, h)
                _check_group(g, h)
            return shared

        for _ in range(6):
            for agree, g_tail, h_tail in shapes:
                for g_sign, h_sign in signs:
                    g, h, a = _planted_pair(rng, mode, agree, g_tail, h_tail, g_sign, h_sign)
                    assert check(g, h, a, g_sign, h_sign) == agree
        for _ in range(30):
            for h_sign in {h_sign for _, h_sign in signs}:
                g, h, a, g_sign = _planted_chain(rng, mode, h_sign)
                assert check(g, h, a, g_sign, h_sign) == len(_run(g, a))
                long_chains += any(len(u) > 1 for _, u, _ in agreeing_chains(g, h))
        for shared in (1, 2, 3):
            assert any(key[0] == shared for key in seen), shared
        assert any(key[1] for key in seen) and any(key[2] for key in seen)
        assert {key[3:] for key in seen} == set(signs)
        assert long_chains >= 20
