"""The oracle's domain-side walks return exactly the lists of the full-ball
reference walks in `oracle_reference`: the equaliser elements of seeded
pairs, planted families and the mined long-trail group pairs, and the image
balls of every input map that passes the marking check and of every solver
embedding."""

import importlib
import json
import pathlib
import random

import pytest

import oracle_reference as reference
from markedpcp import group, monoid, oracle
from markedpcp.fileformat import parse
from markedpcp.oracle import BallSpec
from markedpcp.words import GROUP, MONOID

from support import random_group_instance, random_group_morphism, random_monoid_instance

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
RADIUS = {MONOID: 6, GROUP: 5}
SOLVER = {MONOID: monoid, GROUP: group}


def _marked(f):
    try:
        oracle._decode_table(f)
    except ValueError:
        return False
    return True


def _agree(maps, radius):
    """Compare both walks on `maps` and on the solver's embedding; return
    the rank of the solved equaliser."""
    mode = maps[0].mode
    ball = BallSpec(radius, mode)
    assert oracle.enumerate_equaliser(maps, ball) == reference.enumerate_equaliser(maps, ball)
    result = SOLVER[mode].solve_set(maps, maps[0].domain, maps[0].codomain)
    for psi in [f for f in maps if _marked(f)] + [result.embedding]:
        assert oracle.image_ball(psi, ball) == reference.image_ball(psi, ball)
    return len(result.basis)


@pytest.fixture
def generators(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("generators")


@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_seeded_pairs(mode):
    rng = random.Random(131 if mode == MONOID else 137)
    make = random_monoid_instance if mode == MONOID else random_group_instance
    ranks = [_agree([p.g, p.h], RADIUS[mode]) for p in (make(rng) for _ in range(100))]
    assert any(ranks)


@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_planted_families(mode, generators):
    rng = random.Random(139 if mode == MONOID else 149)
    families = [generators.planted_family(rng, mode) for _ in range(30)]
    ranks = [_agree(list(family.morphisms), RADIUS[mode]) for family in families]
    # planted families share a generator's image, so each has rank >= 1:
    # 60 non-trivial embeddings over both modes
    assert all(ranks)


def test_long_trail_group_pairs():
    texts = json.loads((PERFBENCH / "long_trails.json").read_text())["group"]
    assert len(texts) == 60
    for text in texts:
        pair = parse(text)
        _agree([pair.g, pair.h], RADIUS[GROUP])


def test_group_maps_that_are_not_immersions():
    # the full walk: images may cancel, so nothing is pruned
    rng = random.Random(151)
    walks = 0
    for _ in range(60):
        pair = random_group_instance(rng)
        maps = [random_group_morphism(rng, pair.sigma, pair.delta, 3) for _ in range(2)]
        ball = BallSpec(RADIUS[GROUP], GROUP)
        assert oracle.enumerate_equaliser(maps, ball) == reference.enumerate_equaliser(maps, ball)
        walks += not all(_marked(f) for f in maps)
    assert walks > 30
