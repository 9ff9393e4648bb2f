"""The L3 law of the equaliser, checked by solving both sides, with no
oracle ball: renaming the codomain's letters, by a permutation of its
symbols or, in group mode, by inverting one of them in every image, leaves
the basis unchanged, and permuting the domain's symbols permutes the basis
letters.

A group basis is compared as the set of min(w, w^-1) in shortlex order:
which orientation of a chain the walk keeps depends on the order of the
codomain's letters.  Permuting the codomain reorders the walk's starts and
its first-letter index, so a first letter of an inverse image spelt wrongly
shows here even where the fixtures' letter order hides it.
"""

import random

import pytest

from markedpcp import group, monoid
from markedpcp.instances import Instance
from markedpcp.morphisms import Morphism, apply, is_immersion, is_marked
from markedpcp.words import GROUP, MONOID, Alphabet, Letter, Word, invert

from support import random_immersion, random_marked_morphism

PAIRS = 120


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


def _basis(g, h):
    """The basis of Eq(g, h), each word as min(w, w^-1) in group mode."""
    solver = group if g.mode == GROUP else monoid
    return _canonical(solver.solve_pair(Instance(g, h)).basis)


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
