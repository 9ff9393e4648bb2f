"""Values the solvers build with the trusted constructors (`Word._trusted`,
`Morphism._trusted`, `StallingsGraph._trusted`) must be exactly what the
validating public constructors accept."""

import importlib
import json
import pathlib
import random

import pytest

import markedpcp
from markedpcp import group, monoid
from markedpcp.fileformat import parse
from markedpcp.instances import Instance
from markedpcp.morphisms import Morphism
from markedpcp.stallings import StallingsGraph, core_of_pair
from markedpcp.words import GROUP, MONOID, Alphabet, Letter, Word

from support import random_group_instance, random_immersion, random_monoid_instance

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _rebuilt_word(w):
    assert type(w) is Word
    assert all(type(l) is Letter for l in w.letters)
    assert Word(w.alphabet, w.letters) == w


def _rebuilt_morphism(f):
    assert type(f.images) is tuple
    for w in f.images:
        _rebuilt_word(w)
    assert Morphism(f.domain, f.codomain, f.images) == f


def _rebuilt_graph(graph):
    assert type(graph.edges) is tuple
    assert all(type(e) is tuple for e in graph.edges)
    fields = (graph.alphabet, graph.num_vertices, graph.edges, graph.base, graph.petals)
    assert StallingsGraph(*fields) == graph


def _check_result(problem, result):
    """Rebuild every word, map and core reachable from a parsed problem and
    its solution through the public constructors."""
    maps = (problem.g, problem.h) if isinstance(problem, Instance) else problem.morphisms
    for f in maps:
        _rebuilt_morphism(f)
    _rebuilt_morphism(result.embedding)
    for w in result.basis:
        _rebuilt_word(w)
    for step in result.trail:
        for f in (step.g_prime, step.h_prime, step.after.g, step.after.h):
            _rebuilt_morphism(f)
        for block in step.blocks:
            _rebuilt_word(block.u)
            _rebuilt_word(block.v)
        if step.before.mode == GROUP:
            _rebuilt_graph(step.core)
            _rebuilt_graph(core_of_pair(step.before.g, step.before.h)[0])
        else:
            assert step.core is None


@pytest.fixture
def generators(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("generators")


@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_random_pairs(mode):
    rng = random.Random(61 if mode == MONOID else 67)
    make = random_monoid_instance if mode == MONOID else random_group_instance
    solver = monoid if mode == MONOID else group
    steps = 0
    for _ in range(120):
        instance = make(rng, 4, 5)
        result = solver.solve_pair(instance)
        _check_result(instance, result)
        steps += len(result.trail)
    assert steps > 60


@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_parsed_planted_families(mode, generators):
    rng = random.Random(71 if mode == MONOID else 73)
    solver = monoid if mode == MONOID else group
    ranks = 0
    for _ in range(40):
        problem = parse(generators.to_text(generators.planted_family(rng, mode)))
        result = solver.solve_set(list(problem.morphisms), problem.sigma, problem.delta)
        _check_result(problem, result)
        ranks += len(result.basis)
    assert ranks >= 40


@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_parsed_long_trails(mode):
    texts = json.loads((PERFBENCH / "long_trails.json").read_text())[mode][:20]
    solver = monoid if mode == MONOID else group
    for text in texts:
        problem = parse(text)
        result = solver.solve_pair(problem)
        assert len(result.trail) >= 4
        _check_result(problem, result)


def test_group_solve_validates_no_word(monkeypatch):
    rng = random.Random(107)
    sigma = Alphabet(tuple(f"a{i}" for i in range(10)), GROUP)
    delta = Alphabet(tuple(f"x{i}" for i in range(10)), GROUP)
    instance = Instance(
        random_immersion(rng, sigma, delta, 60), random_immersion(rng, sigma, delta, 60)
    )
    assert max(len(w) for w in instance.g.images + instance.h.images) > 30
    validated = []
    real = Word.__post_init__

    def counting(self):
        validated.append(self)
        real(self)

    monkeypatch.setattr(Word, "__post_init__", counting)
    result = group.solve_pair(instance)
    assert result.trail
    assert validated == []


def test_trusted_constructors_are_not_exported():
    trusted = [Word._trusted, Morphism._trusted, StallingsGraph._trusted]
    for name in markedpcp.__all__:
        assert "trusted" not in name
        assert getattr(markedpcp, name) not in trusted
