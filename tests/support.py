"""Seeded random generators shared by the unit and acceptance tests."""

from __future__ import annotations

import random

from markedpcp.instances import Instance
from markedpcp.morphisms import Morphism, compose, is_immersion, is_marked
from markedpcp.words import GROUP, MONOID, Alphabet, Letter, Word, parse_word


def empty_word(alphabet: Alphabet) -> Word:
    return Word(alphabet, ())


def morphism(sigma: Alphabet, delta: Alphabet, *image_texts: str) -> Morphism:
    return Morphism(sigma, delta, tuple(parse_word(delta, t) for t in image_texts))


def random_marked_morphism(
    rng: random.Random, sigma: Alphabet, delta: Alphabet, max_len: int
) -> Morphism:
    firsts = rng.sample(range(len(delta)), len(sigma))
    images = []
    for f in firsts:
        tail = [Letter(rng.randrange(len(delta)), 1) for _ in range(rng.randint(0, max_len - 1))]
        images.append(Word(delta, tuple([Letter(f, 1)] + tail)))
    out = Morphism(sigma, delta, tuple(images))
    assert is_marked(out)
    return out


def random_reduced_word(rng: random.Random, delta: Alphabet, length: int) -> Word:
    letters = delta.signed_letters()
    word: list[Letter] = []
    for _ in range(length):
        options = letters
        if word:
            banned = word[-1].inverse()
            options = [l for l in letters if l != banned]
        word.append(rng.choice(options))
    return Word(delta, tuple(word))


def random_group_morphism(
    rng: random.Random, sigma: Alphabet, delta: Alphabet, max_len: int
) -> Morphism:
    """Arbitrary group morphism with nonempty reduced images; usually not an
    immersion."""
    images = tuple(
        random_reduced_word(rng, delta, rng.randint(1, max_len)) for _ in sigma.symbols
    )
    return Morphism(sigma, delta, images)


def random_immersion(
    rng: random.Random, sigma: Alphabet, delta: Alphabet, max_len: int
) -> Morphism:
    """Immersion with image lengths in 1..max_len (max_len >= 2).

    Picks distinct first letters and distinct inverse-of-last letters with
    the two sets disjoint, then fills reduced words with those endpoints.
    """
    assert max_len >= 2
    letters = delta.signed_letters()
    k = len(sigma)
    firsts = rng.sample(letters, k)
    rest = [l for l in letters if l not in firsts]
    lams = rng.sample(rest, k)
    images = []
    for f, lam in zip(firsts, lams):
        beta = lam.inverse()
        length = rng.randint(1, max_len)
        if length == 1 and f != beta:
            length = 2
        word = [f]
        for i in range(length - 2):
            banned = {word[-1].inverse()}
            if i == length - 3:
                banned.add(beta.inverse())
            options = [l for l in letters if l not in banned]
            word.append(rng.choice(options))
        if length >= 2:
            word.append(beta)
        images.append(Word(delta, tuple(word)))
    out = Morphism(sigma, delta, tuple(images))
    assert is_immersion(out)
    return out


def _alphabets(rng: random.Random, mode: str, max_rank: int) -> tuple[Alphabet, Alphabet]:
    k = rng.randint(1, max_rank)
    m = rng.randint(k, max_rank)
    sigma = Alphabet(tuple(f"a{i}" for i in range(k)), mode)
    delta = Alphabet(tuple(f"x{i}" for i in range(m)), mode)
    return sigma, delta


def random_monoid_instance(
    rng: random.Random, max_rank: int = 3, max_len: int = 4
) -> Instance:
    sigma, delta = _alphabets(rng, MONOID, max_rank)
    return Instance(
        random_marked_morphism(rng, sigma, delta, max_len),
        random_marked_morphism(rng, sigma, delta, max_len),
    )


def random_group_instance(
    rng: random.Random, max_rank: int = 3, max_len: int = 4
) -> Instance:
    sigma, delta = _alphabets(rng, GROUP, max_rank)
    return Instance(
        random_immersion(rng, sigma, delta, max_len),
        random_immersion(rng, sigma, delta, max_len),
    )


def large_immersed_pairs(rng: random.Random, count: int):
    """Pairs of immersions into one codomain, ranks up to 10 and image
    lengths up to 60; every third pair is g and g composed with a short
    immersion into its domain, so its core is not trivial."""
    for n in range(count):
        m = rng.randint(1, 10)
        delta = Alphabet(tuple(f"x{i}" for i in range(m)), GROUP)
        sigma1 = Alphabet(tuple(f"a{i}" for i in range(rng.randint(1, m))), GROUP)
        if n % 3 == 0:
            g = random_immersion(rng, sigma1, delta, rng.randint(2, 20))
            sigma2 = Alphabet(tuple(f"b{i}" for i in range(rng.randint(1, len(sigma1)))), GROUP)
            h = compose(g, random_immersion(rng, sigma2, sigma1, 3))
        else:
            g = random_immersion(rng, sigma1, delta, rng.randint(2, 60))
            sigma2 = Alphabet(tuple(f"b{i}" for i in range(rng.randint(1, m))), GROUP)
            h = random_immersion(rng, sigma2, delta, rng.randint(2, 60))
        yield g, h
