"""`instances.agreeing_chains` against the walks it replaced.

Monoid blocks must equal the overhang search's (`reduction_reference`), and
group steps must equal the petal maps of the pair core, decoded from the
graph, with block letters read off the first edges of the core's petals.
The pairs are seeded random pairs, the large immersed pairs of the
Stallings tests, every instance on the trails of the long-trail pool and
the fixtures.
"""

import json
import pathlib
import random

from markedpcp import group, monoid
from markedpcp.fileformat import parse
from markedpcp.instances import Block, Instance, agreeing_chains
from markedpcp.morphisms import apply, compose
from markedpcp.stallings import core_of_pair, petals_to_morphisms
from markedpcp.words import GROUP, MONOID, Letter

from conftest import FIXTURES
from reduction_reference import reference_blocks
from support import (
    large_immersed_pairs,
    random_group_instance,
    random_immersion,
    random_monoid_instance,
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
    assert monoid._intersect(g, h).images == tuple(apply(g, b.u) for b in expected)


def _check_group(g, h):
    """Chains equal the decoded core petals; returns whether the core has
    an edge."""
    core, g_edges, h_edges = core_of_pair(g, h)
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
    assert group._intersect(g, h) == compose(g, g_ref)
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
