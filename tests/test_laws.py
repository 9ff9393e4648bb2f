"""Laws of the equaliser, checked by solving both sides, with no oracle
ball.  L3: renaming the codomain's letters, by a permutation of its symbols
or, in group mode, by inverting one of them in every image, leaves the
basis unchanged, and permuting the domain's symbols, or in group mode
inverting one of them, renames the basis letters alike.  L4: a family's
basis does not depend on the order of its maps.  At the rank edge, a map
phi: Sigma -> Sigma that fixes all generators but the last has
Eq(id, phi) of rank |Sigma| - 1, and L1 gives Eq(g, g phi) = Eq(g phi, g)
= Eq(id, phi) whatever g is.

A group basis is compared as the set of min(w, w^-1) in shortlex order:
which orientation of a chain the walk keeps depends on the order of the
codomain's letters.  Permuting the codomain reorders the walk's starts and
its first-letter index, so a first letter of an inverse image spelt wrongly
shows here even where the fixtures' letter order hides it.
"""

import importlib
import itertools
import pathlib
import random

import pytest

from markedpcp import group, monoid
from markedpcp.instances import Instance
from markedpcp.morphisms import Morphism, apply, compose, identity, is_immersion, is_marked
from markedpcp.words import GROUP, MONOID, Alphabet, Letter, Word, invert

from support import random_immersion, random_marked_morphism

PAIRS = 120
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def generators(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("generators")


def _pairs(rng, mode):
    """Pairs g, h: Sigma -> Delta with |Sigma| <= 4, marked maps in monoid
    mode and immersions in group mode.  Two in three have a planted
    solution: a word w of two or more distinct generators, with h cutting
    g(w) at other places, so that solving them takes a trail; the rest are
    two random maps."""
    embed = random_marked_morphism if mode == MONOID else random_immersion
    holds = is_marked if mode == MONOID else is_immersion
    made = 0
    while made < PAIRS:
        k = rng.randint(2, 4)
        sigma = Alphabet(tuple(f"a{i}" for i in range(k)), mode)
        delta = Alphabet(tuple(f"x{i}" for i in range(rng.randint(k, 5))), mode)
        g, h = embed(rng, sigma, delta, 4), embed(rng, sigma, delta, 4)
        if made % 3:
            w = rng.sample(range(k), rng.randint(2, k))
            letters = apply(g, Word(sigma, tuple(Letter(i, 1) for i in w))).letters
            cuts = sorted(rng.sample(range(1, len(letters)), len(w) - 1))
            images = list(h.images)
            for i, a, b in zip(w, [0, *cuts], [*cuts, len(letters)]):
                images[i] = Word(delta, letters[a:b])
            h = Morphism(sigma, delta, tuple(images))
            if not holds(h):
                continue
        made += 1
        yield g, h


def _shortlex(w):
    return (len(w), [l.sort_key() for l in w.letters])


def _solver(mode):
    return group if mode == GROUP else monoid


def _basis(g, h):
    """The basis of Eq(g, h), each word as min(w, w^-1) in group mode."""
    return _canonical(_solver(g.mode).solve_pair(Instance(g, h)).basis)


def _canonical(words):
    if words and words[0].alphabet.mode == GROUP:
        words = [min(w, invert(w), key=_shortlex) for w in words]
    return {w.letters for w in words}


def _relabel(f, delta, relabel):
    """f with every image letter l replaced by relabel(l), into delta."""
    images = tuple(Word(delta, tuple(map(relabel, img.letters))) for img in f.images)
    return Morphism(f.domain, delta, images)


def _permuted(alphabet, perm):
    """The alphabet whose symbol at perm[i] is the symbol at i."""
    symbols = [""] * len(alphabet)
    for i, s in enumerate(alphabet.symbols):
        symbols[perm[i]] = s
    return Alphabet(tuple(symbols), alphabet.mode)


@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_permuting_delta_keeps_the_basis(mode):
    rng = random.Random(71 if mode == MONOID else 73)
    nontrivial = 0
    for g, h in _pairs(rng, mode):
        perm = list(range(len(g.codomain)))
        rng.shuffle(perm)
        delta = _permuted(g.codomain, perm)

        def relabel(l):
            return Letter(perm[l.index], l.sign)

        basis = _basis(g, h)
        assert _basis(_relabel(g, delta, relabel), _relabel(h, delta, relabel)) == basis
        nontrivial += bool(basis)
    assert nontrivial >= PAIRS // 2


def test_inverting_a_delta_letter_keeps_the_basis():
    rng = random.Random(79)
    nontrivial = 0
    for g, h in _pairs(rng, GROUP):
        flipped = rng.randrange(len(g.codomain))

        def relabel(l):
            return l.inverse() if l.index == flipped else l

        basis = _basis(g, h)
        assert _basis(_relabel(g, g.codomain, relabel), _relabel(h, g.codomain, relabel)) == basis
        nontrivial += bool(basis)
    assert nontrivial >= PAIRS // 2


@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_permuting_sigma_permutes_the_basis(mode):
    rng = random.Random(83 if mode == MONOID else 89)
    nontrivial = 0
    for g, h in _pairs(rng, mode):
        perm = list(range(len(g.domain)))
        rng.shuffle(perm)
        sigma = _permuted(g.domain, perm)

        def moved(f):
            images = [None] * len(f.images)
            for i, img in enumerate(f.images):
                images[perm[i]] = img
            return Morphism(sigma, f.codomain, tuple(images))

        basis = _basis(g, h)
        expected = _canonical(
            [Word(sigma, tuple(Letter(perm[l.index], l.sign) for l in w)) for w in basis]
        )
        assert _basis(moved(g), moved(h)) == expected
        nontrivial += bool(basis)
    assert nontrivial >= PAIRS // 2


def test_inverting_a_sigma_letter_inverts_it_in_the_basis():
    rng = random.Random(5)
    cases = nontrivial = 0
    for g, h in _pairs(rng, GROUP):
        basis = _basis(g, h)
        for j in range(len(g.domain)):

            def flipped(f):
                images = list(f.images)
                images[j] = invert(images[j])
                return Morphism(f.domain, f.codomain, tuple(images))

            def relabel(l):
                return l.inverse() if l.index == j else l

            expected = _canonical([Word(g.domain, tuple(map(relabel, w))) for w in basis])
            assert _basis(flipped(g), flipped(h)) == expected
            cases += 1
            nontrivial += bool(basis)
    assert nontrivial >= cases // 2


@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_family_basis_ignores_the_order_of_the_maps(mode, generators):
    rng = random.Random(97 if mode == MONOID else 101)
    for _ in range(60):
        family = generators.planted_family(rng, mode)
        bases = [
            _canonical(_solver(mode).solve_set(list(maps), family.sigma, family.delta).basis)
            for maps in itertools.permutations(family.morphisms)
        ]
        # a planted family shares images on some generators: rank >= 1
        assert bases[0] and all(b == bases[0] for b in bases)


def _fix_all_but_last(sigma):
    """phi(a_i) = a_i for i < k-1, and phi(a_{k-1}) = a_{k-1} a_0 a_{k-1},
    an immersion, in group mode, or a_{k-1} a_0, marked, in monoid mode."""
    last = Letter(len(sigma) - 1, 1)
    tail = (last, Letter(0, 1), last) if sigma.mode == GROUP else (last, Letter(0, 1))
    images = identity(sigma).images[:-1] + (Word(sigma, tail),)
    return Morphism(sigma, sigma, images)


@pytest.mark.parametrize("mode", [MONOID, GROUP])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_rank_at_the_edge(mode, k):
    rng = random.Random(100 * k + (1 if mode == GROUP else 0))
    embed = random_marked_morphism if mode == MONOID else random_immersion
    sigma = Alphabet(tuple(f"a{i}" for i in range(k)), mode)
    phi = _fix_all_but_last(sigma)
    basis = _basis(identity(sigma), phi)
    assert basis == {(Letter(i, 1),) for i in range(k - 1)}
    assert len(basis) == k - 1 <= len(sigma)
    for _ in range(10):
        delta = Alphabet(tuple(f"x{i}" for i in range(rng.randint(k, k + 2))), mode)
        g = embed(rng, sigma, delta, 5)
        g_phi = compose(g, phi)
        assert _basis(g, g_phi) == _basis(g_phi, g) == basis
